package multistage

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"pmsnet/internal/bitmat"
	"pmsnet/internal/topology"
)

// checkBvN asserts the decomposition invariants for a demand matrix: every
// term is a conflict-free partial permutation with positive weight, and the
// weighted sum of the terms reproduces the input exactly.
func checkBvN(t *testing.T, n int, demand []int64, terms []Weighted) {
	t.Helper()
	sum := make([]int64, n*n)
	for ti, term := range terms {
		if term.Weight <= 0 {
			t.Fatalf("term %d has non-positive weight %d", ti, term.Weight)
		}
		if len(term.Config) != n {
			t.Fatalf("term %d has malformed config", ti)
		}
		cfg := bitmat.FromPermutation(term.Config)
		if cfg.IsZero() {
			t.Fatalf("term %d is empty", ti)
		}
		cfg.Ones(func(u, v int) bool {
			sum[u*n+v] += term.Weight
			return true
		})
	}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if sum[u*n+v] != demand[u*n+v] {
				t.Fatalf("entry (%d,%d): terms sum to %d, demand is %d",
					u, v, sum[u*n+v], demand[u*n+v])
			}
		}
	}
}

func TestDecomposeBvNProperty(t *testing.T) {
	cases := []struct {
		name   string
		n      int
		demand func(n int) []int64
	}{
		{"empty", 4, func(n int) []int64 { return make([]int64, n*n) }},
		{"uniform permutation", 8, func(n int) []int64 {
			d := make([]int64, n*n)
			for u := 0; u < n; u++ {
				d[u*n+(u+1)%n] = 7
			}
			return d
		}},
		{"skewed shifts", 16, func(n int) []int64 {
			d := make([]int64, n*n)
			for u := 0; u < n; u++ {
				d[u*n+(u+1)%n] = 64 // hot
				d[u*n+(u+2)%n] = 3
				d[u*n+(u+5)%n] = 1
			}
			return d
		}},
		{"dense random", 12, func(n int) []int64 {
			rng := rand.New(rand.NewSource(42))
			d := make([]int64, n*n)
			for i := range d {
				if rng.Intn(3) == 0 {
					d[i] = int64(rng.Intn(100))
				}
			}
			return d
		}},
		{"single hot entry", 6, func(n int) []int64 {
			d := make([]int64, n*n)
			d[0*n+3] = 1_000_000
			return d
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := tc.demand(tc.n)
			terms, err := DecomposeBvN(tc.n, func(u, v int) int64 { return d[u*tc.n+v] })
			if err != nil {
				t.Fatal(err)
			}
			checkBvN(t, tc.n, d, terms)
			// Term count is bounded by the support size.
			nnz := 0
			for _, w := range d {
				if w > 0 {
					nnz++
				}
			}
			if len(terms) > nnz {
				t.Fatalf("%d terms exceed support size %d", len(terms), nnz)
			}
		})
	}
}

func TestDecomposeBvNDeterministic(t *testing.T) {
	n := 10
	rng := rand.New(rand.NewSource(7))
	d := make([]int64, n*n)
	for i := range d {
		if rng.Intn(2) == 0 {
			d[i] = int64(rng.Intn(50))
		}
	}
	at := func(u, v int) int64 { return d[u*n+v] }
	a, err := DecomposeBvN(n, at)
	if err != nil {
		t.Fatal(err)
	}
	b, err := DecomposeBvN(n, at)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("term counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Weight != b[i].Weight || !slices.Equal(a[i].Config, b[i].Config) {
			t.Fatalf("term %d differs between identical runs", i)
		}
	}
}

func TestDecomposeBvNErrors(t *testing.T) {
	if _, err := DecomposeBvN(0, func(u, v int) int64 { return 0 }); err == nil {
		t.Error("n=0 should error")
	}
	if _, err := DecomposeBvN(4, func(u, v int) int64 { return -1 }); err == nil {
		t.Error("negative demand should error")
	}
}

// TestDecomposeBvNAllocationBound decomposes a 512-port demand with four
// entries per row. Each round builds its candidate lists once, so the
// allocations are one port map per term plus a bounded amount of set-up
// and slice growth, not one list per augmenting call.
func TestDecomposeBvNAllocationBound(t *testing.T) {
	const n = 512
	at := func(u, v int) int64 {
		for k := 1; k <= 4; k++ {
			if v == (u+37*k)%n {
				return int64((u*k)%5 + 1)
			}
		}
		return 0
	}
	var terms []Weighted
	allocs := testing.AllocsPerRun(1, func() {
		var err error
		if terms, err = DecomposeBvN(n, at); err != nil {
			t.Fatal(err)
		}
	})
	if bound := float64(len(terms) + 64); allocs > bound {
		t.Fatalf("%d terms took %v allocations, want at most %v", len(terms), allocs, bound)
	}
}

// checkFirstFit asserts FirstFit's contract: every configuration is a
// nonempty partial permutation the oracle accepts, no connection lands in two
// configurations, and together they are exactly the list.
func checkFirstFit(t *testing.T, n int, conns []topology.Conn, configs [][]int32, canRealize func([]int32) bool) {
	t.Helper()
	set := bitmat.NewSquare(n)
	for _, c := range conns {
		set.Set(c.Src, c.Dst)
	}
	union := bitmat.NewSquare(n)
	total := 0
	for i, cfg := range configs {
		m := bitmat.FromPermutation(cfg)
		if m.IsZero() || !canRealize(cfg) {
			t.Fatalf("config %d is empty or unrealizable", i)
		}
		total += m.Count()
		union.Or(m)
	}
	if total != set.Count() || !union.Equal(set) {
		t.Fatalf("configs hold %d connections covering %d, set has %d", total, union.Count(), set.Count())
	}
}

func TestFirstFit(t *testing.T) {
	always := func([]int32) bool { return true }
	t.Run("empty", func(t *testing.T) {
		if configs := FirstFit(8, nil, always); len(configs) != 0 {
			t.Fatalf("empty set gave %d configurations", len(configs))
		}
	})
	t.Run("row-major", func(t *testing.T) {
		// (0,0) opens c0; (0,1) conflicts with c0 on row 0 and opens c1;
		// (1,0) conflicts with c0 on column 0 and joins c1; (1,1) joins c0;
		// (2,2) fits both and joins the first, c0.
		conns := []topology.Conn{{Src: 0, Dst: 0}, {Src: 0, Dst: 1}, {Src: 1, Dst: 0}, {Src: 1, Dst: 1}, {Src: 2, Dst: 2}}
		configs := FirstFit(3, conns, always)
		if len(configs) != 2 {
			t.Fatalf("got %d configurations, want 2", len(configs))
		}
		if !slices.Equal(configs[0], []int32{0, 1, 2}) || !slices.Equal(configs[1], []int32{1, 0, -1}) {
			t.Fatalf("configurations %v / %v are not the row-major first fit", configs[0], configs[1])
		}
		checkFirstFit(t, 3, conns, configs, always)
	})
	t.Run("oracle-bounds-each-config", func(t *testing.T) {
		single := func(cfg []int32) bool { return bitmat.FromPermutation(cfg).Count() <= 1 }
		var conns []topology.Conn
		for u := 0; u < 6; u++ {
			conns = append(conns, topology.Conn{Src: u, Dst: u})
		}
		configs := FirstFit(6, conns, single)
		if len(configs) != 6 {
			t.Fatalf("got %d configurations, want one per connection", len(configs))
		}
		for i, cfg := range configs {
			if cfg[i] != int32(i) {
				t.Fatalf("config %d does not hold connection %d->%d: order is not row-major", i, i, i)
			}
		}
		checkFirstFit(t, 6, conns, configs, single)
	})
	t.Run("omega", func(t *testing.T) {
		o, _ := NewOmega(16)
		state := o.NewState()
		canRealize := func(cfg []int32) bool { return o.CanRealize(cfg, state) }
		rng := rand.New(rand.NewSource(11))
		for trial := 0; trial < 50; trial++ {
			set := bitmat.NewSquare(16)
			for i := 0; i < 48; i++ {
				set.Set(rng.Intn(16), rng.Intn(16))
			}
			conns := matrixConns(set)
			before := slices.Clone(conns)
			configs := FirstFit(16, conns, canRealize)
			if !slices.Equal(conns, before) {
				t.Fatal("FirstFit modified its input")
			}
			checkFirstFit(t, 16, conns, configs, canRealize)
		}
	})
	t.Run("unroutable-connection-panics", func(t *testing.T) {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "single connection 2->3 unroutable") {
				t.Fatalf("recovered %v, want the unroutable-connection panic", r)
			}
		}()
		FirstFit(4, []topology.Conn{{Src: 2, Dst: 3}}, func([]int32) bool { return false })
	})
}

// matrixConns lists a matrix's set bits as connections in row-major order.
func matrixConns(m *bitmat.Matrix) []topology.Conn {
	var conns []topology.Conn
	m.Ones(func(u, v int) bool {
		conns = append(conns, topology.Conn{Src: u, Dst: v})
		return true
	})
	return conns
}
