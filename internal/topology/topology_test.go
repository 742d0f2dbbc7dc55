package topology

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pmsnet/internal/bitmat"
)

func TestMeshFor128IsPaperGrid(t *testing.T) {
	m := MeshFor(128, false)
	if m.Cols != 16 || m.Rows != 8 {
		t.Fatalf("MeshFor(128) = %dx%d, want 16x8", m.Cols, m.Rows)
	}
	if m.Size() != 128 {
		t.Fatalf("Size = %d, want 128", m.Size())
	}
}

func TestMeshForSquareAndPrime(t *testing.T) {
	if m := MeshFor(16, false); m.Cols != 4 || m.Rows != 4 {
		t.Fatalf("MeshFor(16) = %dx%d, want 4x4", m.Cols, m.Rows)
	}
	if m := MeshFor(7, false); m.Cols != 7 || m.Rows != 1 {
		t.Fatalf("MeshFor(7) = %dx%d, want 7x1", m.Cols, m.Rows)
	}
}

func TestRankCoordRoundTrip(t *testing.T) {
	m := NewMesh(5, 3, false)
	for r := 0; r < m.Size(); r++ {
		x, y := m.Coord(r)
		if m.Rank(x, y) != r {
			t.Fatalf("Rank(Coord(%d)) = %d", r, m.Rank(x, y))
		}
	}
}

func TestCoordRankPanics(t *testing.T) {
	m := NewMesh(4, 4, false)
	for i, fn := range []func(){
		func() { m.Rank(4, 0) },
		func() { m.Rank(0, -1) },
		func() { m.Coord(16) },
		func() { m.Coord(-1) },
		func() { NewMesh(0, 3, false) },
		func() { MeshFor(0, false) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestNeighborsInterior(t *testing.T) {
	m := NewMesh(4, 4, false)
	r := m.Rank(1, 1)
	nbs := m.Neighbors(r)
	want := []int{m.Rank(2, 1), m.Rank(0, 1), m.Rank(1, 0), m.Rank(1, 2)}
	if len(nbs) != 4 {
		t.Fatalf("interior node has %d neighbors, want 4", len(nbs))
	}
	for i := range want {
		if nbs[i] != want[i] {
			t.Fatalf("Neighbors = %v, want E,W,N,S order %v", nbs, want)
		}
	}
}

func TestNeighborsCornerNoWrap(t *testing.T) {
	m := NewMesh(4, 4, false)
	nbs := m.Neighbors(m.Rank(0, 0))
	if len(nbs) != 2 {
		t.Fatalf("corner has %d neighbors without wrap, want 2", len(nbs))
	}
	if m.Neighbor(m.Rank(0, 0), West) != -1 {
		t.Fatal("West of corner should be -1 without wrap")
	}
	if m.Neighbor(m.Rank(0, 0), North) != -1 {
		t.Fatal("North of corner should be -1 without wrap")
	}
}

func TestNeighborsWrap(t *testing.T) {
	m := NewMesh(4, 4, true)
	r := m.Rank(0, 0)
	if m.Neighbor(r, West) != m.Rank(3, 0) {
		t.Fatal("torus West wrap wrong")
	}
	if m.Neighbor(r, North) != m.Rank(0, 3) {
		t.Fatal("torus North wrap wrong")
	}
	if len(m.Neighbors(r)) != 4 {
		t.Fatal("torus corner should have 4 neighbors")
	}
}

func TestNeighborsCollapseOnTinyTorus(t *testing.T) {
	m := NewMesh(2, 1, true)
	// On a 2x1 torus, East and West of node 0 are both node 1, and North =
	// South = self.
	nbs := m.Neighbors(0)
	if len(nbs) != 1 || nbs[0] != 1 {
		t.Fatalf("Neighbors on 2x1 torus = %v, want [1]", nbs)
	}
}

func TestDirectionString(t *testing.T) {
	names := map[Direction]string{East: "east", West: "west", North: "north", South: "south"}
	for d, want := range names {
		if d.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(d), d.String(), want)
		}
	}
	if Direction(9).String() == "" {
		t.Error("unknown direction should render something")
	}
}

func TestWorkingSetBasics(t *testing.T) {
	w := NewWorkingSet(4)
	w.Add(Conn{0, 1})
	w.Add(Conn{0, 1}) // duplicate
	w.Add(Conn{2, 3})
	if w.Len() != 2 {
		t.Fatalf("Len = %d, want 2", w.Len())
	}
	if !w.Contains(Conn{0, 1}) || w.Contains(Conn{1, 0}) {
		t.Fatal("Contains wrong")
	}
	conns := w.Conns()
	if len(conns) != 2 || conns[0] != (Conn{0, 1}) || conns[1] != (Conn{2, 3}) {
		t.Fatalf("Conns = %v, want sorted [0->1 2->3]", conns)
	}
	m := w.Matrix()
	if !m.Get(0, 1) || !m.Get(2, 3) || m.Count() != 2 {
		t.Fatal("Matrix wrong")
	}
}

func TestWorkingSetPanics(t *testing.T) {
	w := NewWorkingSet(4)
	for i, fn := range []func(){
		func() { w.Add(Conn{0, 4}) },
		func() { w.Add(Conn{-1, 0}) },
		func() { w.Add(Conn{2, 2}) },
		func() { NewWorkingSet(0) },
		func() { w.Union(NewWorkingSet(5)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestWorkingSetUnionAndDegree(t *testing.T) {
	a := NewWorkingSet(4)
	a.Add(Conn{0, 1})
	a.Add(Conn{0, 2})
	b := NewWorkingSet(4)
	b.Add(Conn{0, 3})
	b.Add(Conn{1, 3})
	u := a.Union(b)
	if u.Len() != 4 {
		t.Fatalf("union Len = %d, want 4", u.Len())
	}
	// Node 0 has out-degree 3 in the union.
	if u.Degree() != 3 {
		t.Fatalf("union Degree = %d, want 3", u.Degree())
	}
	if a.Degree() != 2 || b.Degree() != 2 {
		t.Fatal("component degrees wrong")
	}
	if NewWorkingSet(4).Degree() != 0 {
		t.Fatal("empty set degree should be 0")
	}
}

// assertExactCover verifies the decomposition contracts: every configuration
// is a partial permutation, configurations are pairwise disjoint, and their
// union equals the working set.
func assertExactCover(t *testing.T, w *WorkingSet, configs []*bitmat.Matrix) {
	t.Helper()
	union := w.Matrix()
	union.Reset()
	total := 0
	for i, cfg := range configs {
		if !cfg.IsPartialPermutation() {
			t.Fatalf("config %d is not a partial permutation:\n%v", i, cfg)
		}
		total += cfg.Count()
		union.Or(cfg)
	}
	if total != w.Len() {
		t.Fatalf("configs hold %d edges, working set has %d (overlap or loss)", total, w.Len())
	}
	if !union.Equal(w.Matrix()) {
		t.Fatal("union of configs must equal the working set")
	}
}

func TestDecomposeEmpty(t *testing.T) {
	if got := Decompose(NewWorkingSet(8)); got != nil {
		t.Fatalf("Decompose(empty) = %d configs, want nil", len(got))
	}
}

func TestDecomposeSinglePermutation(t *testing.T) {
	w := NewWorkingSet(4)
	w.Add(Conn{0, 1})
	w.Add(Conn{1, 2})
	w.Add(Conn{2, 3})
	w.Add(Conn{3, 0})
	configs := Decompose(w)
	if len(configs) != 1 {
		t.Fatalf("a permutation should decompose into 1 config, got %d", len(configs))
	}
	if !configs[0].Equal(w.Matrix()) {
		t.Fatal("single config should equal the working set matrix")
	}
}

func TestDecomposeAllToAll(t *testing.T) {
	// All-to-all on n nodes has degree n-1 and decomposes into exactly n-1
	// permutations — the preload schedule for the Two-Phase global phase.
	const n = 8
	w := NewWorkingSet(n)
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s != d {
				w.Add(Conn{s, d})
			}
		}
	}
	configs := Decompose(w)
	if len(configs) != n-1 {
		t.Fatalf("all-to-all(%d) decomposed into %d configs, want %d", n, len(configs), n-1)
	}
	union := w.Matrix()
	union.Reset()
	total := 0
	for i, cfg := range configs {
		if !cfg.IsPartialPermutation() {
			t.Fatalf("config %d is not a partial permutation", i)
		}
		// Full permutations, in fact: n(n-1) edges over n-1 configs.
		if cfg.Count() != n {
			t.Fatalf("config %d has %d connections, want full permutation of %d", i, cfg.Count(), n)
		}
		total += cfg.Count()
		union.Or(cfg)
	}
	if total != n*(n-1) {
		t.Fatalf("edges across configs = %d, want %d (no duplicates)", total, n*(n-1))
	}
	if !union.Equal(w.Matrix()) {
		t.Fatal("union of configs must equal the working set")
	}
}

func TestDecomposeTriggersRecoloring(t *testing.T) {
	// A star plus a chain engineered so that the greedy first-free choice
	// collides and the Kempe-chain flip must run.
	w := NewWorkingSet(6)
	w.Add(Conn{0, 1})
	w.Add(Conn{0, 2})
	w.Add(Conn{3, 2})
	w.Add(Conn{3, 1})
	w.Add(Conn{4, 1})
	w.Add(Conn{4, 2})
	configs := Decompose(w)
	if len(configs) != w.Degree() {
		t.Fatalf("got %d configs, want Degree()=%d", len(configs), w.Degree())
	}
	assertExactCover(t, w, configs)
}

func TestGreedyDecomposeCoversSet(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	w := randomWorkingSet(rng, 16, 40)
	configs := GreedyDecompose(w)
	if len(configs) < w.Degree() {
		t.Fatalf("greedy used %d configs, below lower bound %d", len(configs), w.Degree())
	}
	union := w.Matrix()
	union.Reset()
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

func randomWorkingSet(rng *rand.Rand, n, edges int) *WorkingSet {
	w := NewWorkingSet(n)
	for w.Len() < edges {
		s, d := rng.Intn(n), rng.Intn(n)
		if s != d {
			w.Add(Conn{s, d})
		}
	}
	return w
}

func TestQuickDecomposeIsOptimalExactCover(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		maxEdges := n * (n - 1)
		edges := rng.Intn(maxEdges + 1)
		w := NewWorkingSet(n)
		for i := 0; i < edges; i++ {
			s, d := rng.Intn(n), rng.Intn(n)
			if s != d {
				w.Add(Conn{s, d})
			}
		}
		configs := Decompose(w)
		if len(configs) != w.Degree() {
			return false
		}
		union := w.Matrix()
		union.Reset()
		total := 0
		for _, cfg := range configs {
			if !cfg.IsPartialPermutation() {
				return false
			}
			total += cfg.Count()
			union.Or(cfg)
		}
		return total == w.Len() && union.Equal(w.Matrix())
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickGreedyNeverBeatsOptimal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(12)
		w := NewWorkingSet(n)
		for i := 0; i < n*2; i++ {
			s, d := rng.Intn(n), rng.Intn(n)
			if s != d {
				w.Add(Conn{s, d})
			}
		}
		return len(GreedyDecompose(w)) >= len(Decompose(w))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDecomposeMeshNeighborsDegree(t *testing.T) {
	// The full nearest-neighbor working set on the paper's 16x8 mesh has
	// degree 4 (interior nodes talk to 4 neighbors) and therefore fits a
	// multiplexing degree of 4 — exactly the K the paper uses in Figure 4.
	m := MeshFor(128, false)
	w := NewWorkingSet(m.Size())
	for r := 0; r < m.Size(); r++ {
		for _, nb := range m.Neighbors(r) {
			w.Add(Conn{r, nb})
		}
	}
	if w.Degree() != 4 {
		t.Fatalf("mesh working-set degree = %d, want 4", w.Degree())
	}
	configs := Decompose(w)
	if len(configs) != 4 {
		t.Fatalf("mesh decomposes into %d configs, want 4", len(configs))
	}
}

func BenchmarkDecomposeAllToAll128(b *testing.B) {
	const n = 128
	w := NewWorkingSet(n)
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s != d {
				w.Add(Conn{s, d})
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(Decompose(w)) != n-1 {
			b.Fatal("wrong decomposition")
		}
	}
}

// TestConnKeyIsInjective checks that packed keys of distinct connections
// never collide, so maps keyed by Conn.Key keep one entry per connection,
// and that ConnOfKey unpacks every key back to its connection.
func TestConnKeyIsInjective(t *testing.T) {
	seen := make(map[uint64]Conn)
	for _, src := range []int{0, 1, 2, 63, 64, 1023, 1 << 20} {
		for _, dst := range []int{0, 1, 2, 63, 64, 1023, 1 << 20} {
			c := Conn{Src: src, Dst: dst}
			if prev, ok := seen[c.Key()]; ok {
				t.Fatalf("%v and %v share key %#x", prev, c, c.Key())
			}
			seen[c.Key()] = c
			if back := ConnOfKey(c.Key()); back != c {
				t.Fatalf("ConnOfKey(%#x) = %v, want %v", c.Key(), back, c)
			}
		}
	}
	if got := (Conn{Src: 3, Dst: 5}).Key(); got != 3<<32|5 {
		t.Fatalf("Key(3->5) = %#x, want src in the high word", got)
	}
}

// TestConnTableNumbersInConnOrder builds tables from random rows with
// duplicates and empty rows and checks that ids are dense, in (Src, Dst)
// order, and that ID, Conn and RowDsts agree with each other.
func TestConnTableNumbersInConnOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		rows := make([][]int, n)
		want := map[Conn]bool{}
		for u := range rows {
			if rng.Intn(3) == 0 {
				continue // an empty row
			}
			for k := rng.Intn(2 * n); k > 0; k-- {
				if v := rng.Intn(n); v != u {
					rows[u] = append(rows[u], v, v) // duplicates collapse
					want[Conn{u, v}] = true
				}
			}
		}
		tab := NewConnTable(n, func(src int, add func(dst int)) {
			for _, v := range rows[src] {
				add(v)
			}
		})
		if tab.Len() != len(want) || tab.Ports() != n {
			t.Fatalf("n=%d: Len %d Ports %d, want %d and %d", n, tab.Len(), tab.Ports(), len(want), n)
		}
		prev := Conn{-1, -1}
		for id := int32(0); id < int32(tab.Len()); id++ {
			c := tab.Conn(id)
			if !want[c] || tab.ID(c.Src, c.Dst) != id || tab.Dst(id) != c.Dst {
				t.Fatalf("n=%d: id %d is %v, ID maps it to %d", n, id, c, tab.ID(c.Src, c.Dst))
			}
			if c.Src < prev.Src || (c.Src == prev.Src && c.Dst <= prev.Dst) {
				t.Fatalf("n=%d: id %d (%v) follows %v", n, id, c, prev)
			}
			lo, hi := tab.Row(c.Src)
			if id < lo || id >= hi || int(tab.RowDsts(c.Src)[id-lo]) != c.Dst {
				t.Fatalf("n=%d: id %d outside its row [%d,%d)", n, id, lo, hi)
			}
			prev = c
		}
		for u := 0; u < n; u++ {
			for v := -1; v <= n; v++ {
				if id := tab.ID(u, v); (id >= 0) != want[Conn{u, v}] {
					t.Fatalf("n=%d: ID(%d, %d) = %d", n, u, v, id)
				}
			}
		}
		if tab.ID(-1, 0) != -1 || tab.ID(n, 0) != -1 {
			t.Fatalf("n=%d: a source outside the ports has an id", n)
		}
	}
}
