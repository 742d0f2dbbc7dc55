package multistage

import (
	"fmt"
	"math/rand"
	"testing"

	"pmsnet/internal/bitmat"
	"pmsnet/internal/topology"
)

// referenceFirstFit is FirstFit as it stood when configurations were dense
// matrices: the set is a square connection matrix taken row-major, and each
// connection joins the first configuration whose row and column are free
// and that the oracle accepts with it. The port-map FirstFit must match it
// configuration for configuration.
func referenceFirstFit(set *bitmat.Matrix, canRealize func(*bitmat.Matrix) bool) []*bitmat.Matrix {
	var configs []*bitmat.Matrix
	set.Ones(func(u, v int) bool {
		for _, cfg := range configs {
			if cfg.RowAny(u) || cfg.ColAny(v) {
				continue
			}
			cfg.Set(u, v)
			if canRealize(cfg) {
				return true
			}
			cfg.Clear(u, v)
		}
		cfg := bitmat.NewSquare(set.Rows())
		cfg.Set(u, v)
		if !canRealize(cfg) {
			panic(fmt.Sprintf("multistage: single connection %d->%d unroutable", u, v))
		}
		configs = append(configs, cfg)
		return true
	})
	return configs
}

// referenceCanRealize is the Omega realizability check on the dense form: a
// square partial permutation matrix whose connections route without a
// switch conflict.
func referenceCanRealize(o *Omega, cfg *bitmat.Matrix) bool {
	if cfg.Rows() != o.n || cfg.Cols() != o.n || !cfg.IsPartialPermutation() {
		return false
	}
	_, ok := o.route(o.n, func(u int) (int, int) { return u, cfg.FirstInRow(u) }, o.NewState())
	return ok
}

// checkFirstFitParity runs the port-map FirstFit on the set's connections,
// and DecomposeOmega on them too when the set has no self-connection (a
// working set cannot hold one), against referenceFirstFit under the Omega
// oracle. The configurations must be equal in order, each must be
// realizable under both forms of the check, and their union must be the
// set.
func checkFirstFitParity(t *testing.T, o *Omega, set *bitmat.Matrix) {
	t.Helper()
	n := o.Ports()
	want := referenceFirstFit(set, func(cfg *bitmat.Matrix) bool { return referenceCanRealize(o, cfg) })
	state := o.NewState()
	conns := matrixConns(set)
	got := FirstFit(n, conns, func(cfg []int32) bool { return o.CanRealize(cfg, state) })
	results := map[string][][]int32{"FirstFit": got}
	ws := topology.NewWorkingSet(n)
	for _, c := range conns {
		if c.Src == c.Dst {
			ws = nil
			break
		}
		ws.Add(c)
	}
	if ws != nil {
		omega, err := DecomposeOmega(ws, o)
		if err != nil {
			t.Fatal(err)
		}
		results["DecomposeOmega"] = omega
	}
	for what, maps := range results {
		if len(maps) != len(want) {
			t.Fatalf("%s: %d configurations, the reference has %d", what, len(maps), len(want))
		}
		union := bitmat.NewSquare(n)
		for i, cfg := range maps {
			m := bitmat.FromPermutation(cfg)
			if !m.Equal(want[i]) {
				t.Fatalf("%s: configuration %d is %v, the reference's is\n%v", what, i, cfg, want[i])
			}
			if !o.CanRealize(cfg, state) || !referenceCanRealize(o, m) {
				t.Fatalf("%s: configuration %d %v does not route", what, i, cfg)
			}
			union.Or(m)
		}
		if !union.Equal(set) {
			t.Fatalf("%s: the configurations' union is not the set", what)
		}
	}
}

// checkCanRealizeParity holds the port-map realizability check to the dense
// one on an arbitrary map, duplicate outputs included.
func checkCanRealizeParity(t *testing.T, o *Omega, cfg []int32) {
	t.Helper()
	m := bitmat.NewSquare(o.Ports())
	for u, v := range cfg {
		if v >= 0 {
			m.Set(u, int(v))
		}
	}
	if got, want := o.CanRealize(cfg, o.NewState()), referenceCanRealize(o, m); got != want {
		t.Fatalf("CanRealize(%v) = %v, the dense check says %v", cfg, got, want)
	}
}

// TestFirstFitMatchesReference checks random sets, sparse to dense, on
// Omega networks of 2 to 64 ports.
func TestFirstFitMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for _, n := range []int{2, 4, 8, 16, 32, 64} {
		o, _ := NewOmega(n)
		for trial := 0; trial < 20; trial++ {
			set := bitmat.NewSquare(n)
			for i, edges := 0, rng.Intn(n*n/2+1); i < edges; i++ {
				u, v := rng.Intn(n), rng.Intn(n)
				if u != v || trial%2 == 0 {
					set.Set(u, v)
				}
			}
			checkFirstFitParity(t, o, set)
			cfg := make([]int32, n)
			for u := range cfg {
				cfg[u] = int32(rng.Intn(n+1) - 1)
			}
			checkCanRealizeParity(t, o, cfg)
		}
	}
}

// FuzzFirstFitParity decodes an Omega size (2 to 32 ports) and a connection
// set from the input and checks the port-map FirstFit and DecomposeOmega
// against referenceFirstFit (configurations equal in order, each
// realizable, union equal to the set), then reads the same bytes as a port
// map, duplicate outputs allowed, and checks CanRealize against the dense
// check.
func FuzzFirstFitParity(f *testing.F) {
	f.Add(uint8(3), []byte{0, 1, 1, 0, 2, 3, 3, 2, 4, 7, 7, 4})
	f.Add(uint8(4), []byte{0, 8, 1, 4, 2, 12, 3, 2, 9, 9, 15, 0})
	f.Add(uint8(1), []byte{0, 0, 1, 1})
	f.Add(uint8(5), []byte("omega first fit against the dense matrices"))
	f.Fuzz(func(t *testing.T, logN uint8, data []byte) {
		n := 2 << (logN % 5)
		o, _ := NewOmega(n)
		set := bitmat.NewSquare(n)
		for i := 0; i+1 < len(data); i += 2 {
			set.Set(int(data[i])%n, int(data[i+1])%n)
		}
		checkFirstFitParity(t, o, set)
		cfg := make([]int32, n)
		for u := range cfg {
			cfg[u] = -1
			if u < len(data) && data[u]%4 != 0 {
				cfg[u] = int32(data[u]) % int32(n)
			}
		}
		checkCanRealizeParity(t, o, cfg)
	})
}
