package topology

import (
	"cmp"
	"fmt"
	"slices"

	"pmsnet/internal/bitmat"
)

// Conn is one end-to-end connection (a crossbar input→output pair).
type Conn struct {
	Src, Dst int
}

// String implements fmt.Stringer.
func (c Conn) String() string { return fmt.Sprintf("%d->%d", c.Src, c.Dst) }

// Key packs the connection into one word, Src in the high 32 bits: an
// 8-byte map key that hashes faster than the 16-byte struct.
func (c Conn) Key() uint64 { return uint64(uint32(c.Src))<<32 | uint64(uint32(c.Dst)) }

// ConnOfKey unpacks a Conn.Key.
func ConnOfKey(k uint64) Conn { return Conn{Src: int(int32(k >> 32)), Dst: int(int32(k))} }

// WorkingSet is a communication working set W(j): the set of connections a
// program phase uses (paper §2). It deduplicates connections and tracks the
// port count so it can be rendered as a request matrix.
type WorkingSet struct {
	n     int
	conns map[Conn]struct{}
}

// NewWorkingSet creates an empty working set over n ports.
func NewWorkingSet(n int) *WorkingSet {
	if n <= 0 {
		panic(fmt.Sprintf("topology: invalid port count %d", n))
	}
	return &WorkingSet{n: n, conns: make(map[Conn]struct{})}
}

// Ports returns the port count N.
func (w *WorkingSet) Ports() int { return w.n }

// Add inserts a connection; duplicates are ignored. Self-connections and
// out-of-range ports panic: they cannot exist on the crossbar.
func (w *WorkingSet) Add(c Conn) {
	if c.Src < 0 || c.Src >= w.n || c.Dst < 0 || c.Dst >= w.n {
		panic(fmt.Sprintf("topology: connection %v outside %d ports", c, w.n))
	}
	if c.Src == c.Dst {
		panic(fmt.Sprintf("topology: self-connection %v", c))
	}
	w.conns[c] = struct{}{}
}

// Contains reports whether the set holds c.
func (w *WorkingSet) Contains(c Conn) bool {
	_, ok := w.conns[c]
	return ok
}

// Len returns the number of distinct connections.
func (w *WorkingSet) Len() int { return len(w.conns) }

// Conns returns the connections sorted by (Src, Dst) for deterministic
// iteration.
func (w *WorkingSet) Conns() []Conn {
	out := make([]Conn, 0, len(w.conns))
	for c := range w.conns {
		out = append(out, c)
	}
	slices.SortFunc(out, func(a, b Conn) int {
		if c := cmp.Compare(a.Src, b.Src); c != 0 {
			return c
		}
		return cmp.Compare(a.Dst, b.Dst)
	})
	return out
}

// Union returns a new working set containing both sets' connections.
func (w *WorkingSet) Union(o *WorkingSet) *WorkingSet {
	if w.n != o.n {
		panic(fmt.Sprintf("topology: union of working sets over %d and %d ports", w.n, o.n))
	}
	u := NewWorkingSet(w.n)
	for c := range w.conns {
		u.conns[c] = struct{}{}
	}
	for c := range o.conns {
		u.conns[c] = struct{}{}
	}
	return u
}

// Matrix renders the working set as an NxN boolean matrix (a request matrix
// in which every connection of the set is requested).
func (w *WorkingSet) Matrix() *bitmat.Matrix {
	m := bitmat.NewSquare(w.n)
	for c := range w.conns {
		m.Set(c.Src, c.Dst)
	}
	return m
}

// Degree returns the maximum port degree: the larger of the highest
// out-degree over sources and the highest in-degree over destinations. By
// König's theorem this is exactly the minimum number of conflict-free
// configurations the set decomposes into — the minimum multiplexing degree
// k_j needed to cache the whole working set (paper §2).
func (w *WorkingSet) Degree() int {
	out := make([]int, w.n)
	in := make([]int, w.n)
	max := 0
	for c := range w.conns {
		out[c.Src]++
		in[c.Dst]++
		if out[c.Src] > max {
			max = out[c.Src]
		}
		if in[c.Dst] > max {
			max = in[c.Dst]
		}
	}
	return max
}
