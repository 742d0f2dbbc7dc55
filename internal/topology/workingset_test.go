package topology_test

import (
	"cmp"
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"testing"

	"pmsnet/internal/topology"
)

// mapSet is the reference working set: a plain map of connections.
type mapSet map[topology.Conn]bool

func (m mapSet) sorted() []topology.Conn {
	out := make([]topology.Conn, 0, len(m))
	for c := range m {
		out = append(out, c)
	}
	slices.SortFunc(out, func(a, b topology.Conn) int {
		if c := cmp.Compare(a.Src, b.Src); c != 0 {
			return c
		}
		return cmp.Compare(a.Dst, b.Dst)
	})
	return out
}

func (m mapSet) degree(n int) int {
	out, in := make([]int, n), make([]int, n)
	best := 0
	for c := range m {
		out[c.Src]++
		in[c.Dst]++
		best = max(best, out[c.Src], in[c.Dst])
	}
	return best
}

// randomSets adds random connections to a working set and its reference,
// each connection possibly several times.
func randomSets(rng *rand.Rand, n int) (*topology.WorkingSet, mapSet) {
	w, ref := topology.NewWorkingSet(n), mapSet{}
	for i := rng.Intn(3 * n * n); i > 0; i-- {
		c := topology.Conn{Src: rng.Intn(n), Dst: rng.Intn(n)}
		if c.Src == c.Dst {
			continue
		}
		for dup := rng.Intn(3); dup >= 0; dup-- {
			w.Add(c)
		}
		ref[c] = true
	}
	return w, ref
}

func checkSetMatches(t *testing.T, what string, w *topology.WorkingSet, ref mapSet) {
	t.Helper()
	n := w.Ports()
	if got, want := w.Conns(), ref.sorted(); !slices.Equal(got, want) {
		t.Fatalf("%s: Conns = %v, want %v", what, got, want)
	}
	if w.Len() != len(ref) {
		t.Fatalf("%s: Len = %d, want %d", what, w.Len(), len(ref))
	}
	if got, want := w.Degree(), ref.degree(n); got != want {
		t.Fatalf("%s: Degree = %d, want %d", what, got, want)
	}
	for c := range ref {
		// Ports outside the set never match, even where a packed key
		// would alias a held connection (only a 64-bit int can).
		outside := []topology.Conn{{Src: -1, Dst: c.Dst}, {Src: c.Src, Dst: n}}
		if strconv.IntSize == 64 {
			wide := 1 << (strconv.IntSize / 2)
			outside = append(outside, topology.Conn{Src: c.Src + wide, Dst: c.Dst}, topology.Conn{Src: c.Src, Dst: c.Dst - wide})
		}
		for _, out := range outside {
			if w.Contains(out) {
				t.Fatalf("%s: Contains(%v) for a set over %d ports", what, out, n)
			}
		}
		break
	}
	m := w.Matrix()
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			c := topology.Conn{Src: u, Dst: v}
			if w.Contains(c) != ref[c] || m.Get(u, v) != ref[c] {
				t.Fatalf("%s: %v: Contains %v, Matrix %v, want %v", what, c, w.Contains(c), m.Get(u, v), ref[c])
			}
		}
	}
}

// TestWorkingSetMatchesMapReference checks every query of a working set
// built by random adds with duplicates, and the union of two such sets,
// against a map model.
func TestWorkingSetMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(40)
		w, ref := randomSets(rng, n)
		checkSetMatches(t, "set", w, ref)
		o, oref := randomSets(rng, n)
		union := mapSet{}
		for c := range ref {
			union[c] = true
		}
		for c := range oref {
			union[c] = true
		}
		checkSetMatches(t, "union", w.Union(o), union)
		// Union leaves both operands as they were.
		checkSetMatches(t, "set after union", w, ref)
		checkSetMatches(t, "other after union", o, oref)
	}
}

// TestWorkingSetConcurrentReads reads one set from several goroutines, as
// concurrent runs of one workload do; the race detector flags any read that
// writes.
func TestWorkingSetConcurrentReads(t *testing.T) {
	w, ref := randomSets(rand.New(rand.NewSource(5)), 24)
	want := ref.sorted()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if !slices.Equal(w.Conns(), want) || w.Degree() != ref.degree(24) {
					t.Error("concurrent read disagrees with the reference")
					return
				}
				w.Matrix()
			}
		}()
	}
	wg.Wait()
}
