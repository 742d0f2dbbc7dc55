package multistage

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"pmsnet/internal/bitmat"
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
		if term.Config == nil || term.Config.Rows() != n || term.Config.Cols() != n {
			t.Fatalf("term %d has malformed config", ti)
		}
		if !term.Config.IsPartialPermutation() {
			t.Fatalf("term %d is not a conflict-free partial permutation", ti)
		}
		if term.Config.IsZero() {
			t.Fatalf("term %d is empty", ti)
		}
		term.Config.Ones(func(u, v int) bool {
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
		if a[i].Weight != b[i].Weight || !a[i].Config.Equal(b[i].Config) {
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

// checkFirstFit asserts FirstFit's contract: every configuration is a
// nonempty partial permutation the oracle accepts, no connection lands in two
// configurations, and together they are exactly set.
func checkFirstFit(t *testing.T, set *bitmat.Matrix, configs []*bitmat.Matrix, canRealize func(*bitmat.Matrix) bool) {
	t.Helper()
	union := bitmat.NewSquare(set.Rows())
	total := 0
	for i, cfg := range configs {
		if cfg.IsZero() || !cfg.IsPartialPermutation() || !canRealize(cfg) {
			t.Fatalf("config %d is empty, conflicting or unrealizable", i)
		}
		total += cfg.Count()
		union.Or(cfg)
	}
	if total != set.Count() || !union.Equal(set) {
		t.Fatalf("configs hold %d connections covering %d, set has %d", total, union.Count(), set.Count())
	}
}

func TestFirstFit(t *testing.T) {
	always := func(*bitmat.Matrix) bool { return true }
	t.Run("empty", func(t *testing.T) {
		if configs := FirstFit(bitmat.NewSquare(8), always); len(configs) != 0 {
			t.Fatalf("empty set gave %d configurations", len(configs))
		}
	})
	t.Run("row-major", func(t *testing.T) {
		// (0,0) opens c0; (0,1) conflicts with c0 on row 0 and opens c1;
		// (1,0) conflicts with c0 on column 0 and joins c1; (1,1) joins c0;
		// (2,2) fits both and joins the first, c0.
		set := bitmat.NewSquare(3)
		set.Set(0, 0)
		set.Set(0, 1)
		set.Set(1, 0)
		set.Set(1, 1)
		set.Set(2, 2)
		configs := FirstFit(set, always)
		if len(configs) != 2 {
			t.Fatalf("got %d configurations, want 2", len(configs))
		}
		if !configs[0].Get(0, 0) || !configs[0].Get(1, 1) || !configs[0].Get(2, 2) || !configs[1].Get(0, 1) || !configs[1].Get(1, 0) {
			t.Fatalf("configurations %v / %v are not the row-major first fit", configs[0], configs[1])
		}
		checkFirstFit(t, set, configs, always)
	})
	t.Run("oracle-bounds-each-config", func(t *testing.T) {
		single := func(cfg *bitmat.Matrix) bool { return cfg.Count() <= 1 }
		set := bitmat.Identity(6)
		configs := FirstFit(set, single)
		if len(configs) != 6 {
			t.Fatalf("got %d configurations, want one per connection", len(configs))
		}
		for i, cfg := range configs {
			if !cfg.Get(i, i) {
				t.Fatalf("config %d does not hold connection %d->%d: order is not row-major", i, i, i)
			}
		}
		checkFirstFit(t, set, configs, single)
	})
	t.Run("omega", func(t *testing.T) {
		o, _ := NewOmega(16)
		rng := rand.New(rand.NewSource(11))
		for trial := 0; trial < 50; trial++ {
			set := bitmat.NewSquare(16)
			for i := 0; i < 48; i++ {
				set.Set(rng.Intn(16), rng.Intn(16))
			}
			before := set.Clone()
			configs := FirstFit(set, o.CanRealize)
			if !set.Equal(before) {
				t.Fatal("FirstFit modified its input")
			}
			checkFirstFit(t, set, configs, o.CanRealize)
		}
	})
	t.Run("unroutable-connection-panics", func(t *testing.T) {
		set := bitmat.NewSquare(4)
		set.Set(2, 3)
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "single connection 2->3 unroutable") {
				t.Fatalf("recovered %v, want the unroutable-connection panic", r)
			}
		}()
		FirstFit(set, func(*bitmat.Matrix) bool { return false })
	})
}
