package topology_test

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"pmsnet/internal/bitmat"
	"pmsnet/internal/multistage"
	"pmsnet/internal/topology"
	"pmsnet/internal/traffic"
)

// referenceDecompose is the König edge coloring as it stood before its
// Kempe-chain flips shared one path buffer: every flip collects its walk
// into a fresh slice. Decompose must match it configuration for
// configuration.
func referenceDecompose(w *topology.WorkingSet) []*bitmat.Matrix {
	n := w.Ports()
	delta := w.Degree()
	if delta == 0 {
		return nil
	}
	colorAtSrc := make([][]int, n)
	colorAtDst := make([][]int, n)
	for i := 0; i < n; i++ {
		colorAtSrc[i] = filled(delta, -1)
		colorAtDst[i] = filled(delta, -1)
	}
	for _, e := range w.Conns() {
		a := free(colorAtSrc[e.Src])
		b := free(colorAtDst[e.Dst])
		if a == -1 || b == -1 {
			panic(fmt.Sprintf("no free color for %v", e))
		}
		if colorAtDst[e.Dst][a] != -1 {
			referenceFlip(colorAtSrc, colorAtDst, e.Dst, a, b)
		}
		colorAtSrc[e.Src][a] = e.Dst
		colorAtDst[e.Dst][a] = e.Src
	}
	configs := make([]*bitmat.Matrix, delta)
	for c := range configs {
		configs[c] = bitmat.NewSquare(n)
	}
	for u := 0; u < n; u++ {
		for c := 0; c < delta; c++ {
			if v := colorAtSrc[u][c]; v != -1 {
				configs[c].Set(u, v)
			}
		}
	}
	return configs
}

// referenceFlip is the pre-buffer flipAlternatingPath.
func referenceFlip(colorAtSrc, colorAtDst [][]int, start, a, b int) {
	type pathEdge struct{ u, v, color int }
	var path []pathEdge

	other := func(c int) int {
		if c == a {
			return b
		}
		return a
	}

	v, color := start, a
	for {
		u := colorAtDst[v][color]
		if u == -1 {
			break
		}
		path = append(path, pathEdge{u: u, v: v, color: color})
		color = other(color)
		nv := colorAtSrc[u][color]
		if nv == -1 {
			break
		}
		path = append(path, pathEdge{u: u, v: nv, color: color})
		v = nv
		color = other(color)
	}

	for _, e := range path {
		colorAtSrc[e.u][e.color] = -1
		colorAtDst[e.v][e.color] = -1
	}
	for _, e := range path {
		nc := other(e.color)
		colorAtSrc[e.u][nc] = e.v
		colorAtDst[e.v][nc] = e.u
	}
}

func filled(n, v int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = v
	}
	return s
}

func free(slots []int) int {
	for c, occ := range slots {
		if occ == -1 {
			return c
		}
	}
	return -1
}

func assertSameConfigs(t *testing.T, what string, gotMaps [][]int32, want []*bitmat.Matrix) {
	t.Helper()
	got := topology.ConfigMatrices(gotMaps)
	if len(got) != len(want) {
		t.Fatalf("%s: %d configurations, reference has %d", what, len(got), len(want))
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("%s: configuration %d differs from the reference", what, i)
		}
	}
}

// TestDecomposeMatchesReferenceTwoPhase128 checks every static phase of the
// Fig-4 two-phase workload at N=128, the decomposition every preload run of
// it repeats.
func TestDecomposeMatchesReferenceTwoPhase128(t *testing.T) {
	wl := traffic.TwoPhase(128, 64, 1)
	if len(wl.StaticPhases) == 0 {
		t.Fatal("two-phase workload has no static phases")
	}
	for i, phase := range wl.StaticPhases {
		assertSameConfigs(t, fmt.Sprintf("phase %d", i), topology.Decompose(phase), referenceDecompose(phase))
	}
}

// TestDecomposeMatchesReferenceRandom checks random working sets of varied
// size and density, dense enough that many flips reuse the path buffer.
func TestDecomposeMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(48)
		w := topology.NewWorkingSet(n)
		for e := rng.Intn(n*n + 1); e > 0; e-- {
			if c := (topology.Conn{Src: rng.Intn(n), Dst: rng.Intn(n)}); c.Src != c.Dst {
				w.Add(c)
			}
		}
		assertSameConfigs(t, fmt.Sprintf("trial %d (n=%d, %d conns)", trial, n, w.Len()),
			topology.Decompose(w), referenceDecompose(w))
	}
}

// TestDecomposeMatchesReference checks working sets whose degree sits on
// either side of the one- and two-word boundaries of the free-color masks.
// Each is random with every port's degree capped at Δ, and port 0 topped up
// to exactly Δ destinations.
func TestDecomposeMatchesReference(t *testing.T) {
	for _, tc := range []struct{ delta, n int }{
		{63, 100}, {64, 130}, {65, 200}, {127, 300}, {128, 300}, {129, 300},
	} {
		rng := rand.New(rand.NewSource(int64(tc.delta)))
		w := topology.NewWorkingSet(tc.n)
		out, in := make([]int, tc.n), make([]int, tc.n)
		add := func(c topology.Conn) {
			if c.Src != c.Dst && out[c.Src] < tc.delta && in[c.Dst] < tc.delta && !w.Contains(c) {
				w.Add(c)
				out[c.Src]++
				in[c.Dst]++
			}
		}
		for i := tc.n * tc.delta * 3 / 4; i > 0; i-- {
			add(topology.Conn{Src: rng.Intn(tc.n), Dst: rng.Intn(tc.n)})
		}
		for v := 1; v < tc.n && out[0] < tc.delta; v++ {
			add(topology.Conn{Src: 0, Dst: v})
		}
		if w.Degree() != tc.delta {
			t.Fatalf("n=%d: working set has degree %d, want %d", tc.n, w.Degree(), tc.delta)
		}
		assertSameConfigs(t, fmt.Sprintf("Δ=%d n=%d (%d conns)", tc.delta, tc.n, w.Len()),
			topology.Decompose(w), referenceDecompose(w))
	}
}

// BenchmarkDecomposeTwoPhase128 decomposes both static phases of the
// two-phase workload at N=128, as every preload run of it does.
func BenchmarkDecomposeTwoPhase128(b *testing.B) {
	wl := traffic.TwoPhase(128, 64, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, phase := range wl.StaticPhases {
			if len(topology.Decompose(phase)) != phase.Degree() {
				b.Fatal("wrong decomposition")
			}
		}
	}
}

// FuzzDecomposeParity decodes a working set from the input (N up to 160
// from the first byte, then one connection per byte pair, duplicates kept) and
// checks that Decompose matches referenceDecompose and returns Δ partial
// permutations, pairwise disjoint, whose union is the set.
func FuzzDecomposeParity(f *testing.F) {
	f.Add([]byte{3, 0, 1, 1, 2, 2, 0, 0, 1})
	f.Add([]byte{7, 0, 1, 0, 2, 0, 3, 1, 0, 2, 0, 3, 0, 4, 5, 5, 6, 6, 4})
	dense := []byte{15}
	for u := byte(0); u < 16; u++ {
		for v := byte(0); v < 16; v++ {
			dense = append(dense, u, v, v, u)
		}
	}
	f.Add(dense)
	// A port of degree 100 needs two mask words.
	wide := []byte{159}
	for v := byte(1); v <= 100; v++ {
		wide = append(wide, 0, v, v, v+1)
	}
	f.Add(wide)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%160
		w := topology.NewWorkingSet(n)
		for i := 1; i+1 < len(data); i += 2 {
			if c := (topology.Conn{Src: int(data[i]) % n, Dst: int(data[i+1]) % n}); c.Src != c.Dst {
				w.Add(c)
			}
		}
		maps := topology.Decompose(w)
		assertSameConfigs(t, "fuzz", maps, referenceDecompose(w))
		got := topology.ConfigMatrices(maps)
		if len(got) != w.Degree() {
			t.Fatalf("%d configurations, degree %d", len(got), w.Degree())
		}
		union := bitmat.NewSquare(n)
		count := 0
		for i, cfg := range got {
			if !cfg.IsPartialPermutation() {
				t.Fatalf("configuration %d is not a partial permutation", i)
			}
			union.Or(cfg)
			count += cfg.Count()
		}
		if !union.Equal(w.Matrix()) || count != w.Len() {
			t.Fatalf("configurations cover %d entries (union equal %v), set has %d", count, union.Equal(w.Matrix()), w.Len())
		}
	})
}

// greedyDecompose is the first-fit decomposer the ablations hold the exact
// one against: multistage.FirstFit on the crossbar, where every partial
// permutation is realizable.
func greedyDecompose(w *topology.WorkingSet) [][]int32 {
	return multistage.FirstFit(w.Ports(), w.Conns(), func([]int32) bool { return true })
}

func TestGreedyDecomposeCoversSet(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	w := topology.NewWorkingSet(16)
	for w.Len() < 40 {
		if s, d := rng.Intn(16), rng.Intn(16); s != d {
			w.Add(topology.Conn{Src: s, Dst: d})
		}
	}
	configs := topology.ConfigMatrices(greedyDecompose(w))
	if len(configs) < w.Degree() {
		t.Fatalf("greedy used %d configs, below lower bound %d", len(configs), w.Degree())
	}
	union := bitmat.NewSquare(16)
	total := 0
	for i, cfg := range configs {
		if !cfg.IsPartialPermutation() {
			t.Fatalf("greedy config %d not a partial permutation", i)
		}
		total += cfg.Count()
		union.Or(cfg)
	}
	if total != w.Len() || !union.Equal(w.Matrix()) {
		t.Fatal("greedy decomposition must exactly cover the set")
	}
}

func TestQuickGreedyNeverBeatsOptimal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(12)
		w := topology.NewWorkingSet(n)
		for i := 0; i < n*2; i++ {
			s, d := rng.Intn(n), rng.Intn(n)
			if s != d {
				w.Add(topology.Conn{Src: s, Dst: d})
			}
		}
		return len(greedyDecompose(w)) >= len(topology.Decompose(w))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
