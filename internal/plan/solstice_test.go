package plan

import (
	"math/rand"
	"runtime"
	"testing"

	"pmsnet/internal/multistage"
)

// weightedEdge is one positive demand entry, as the heaviestMatching oracle
// lists them.
type weightedEdge struct {
	u, v int
	w    int64
}

// randomDemand gives each of n rows perRow random off-diagonal columns. With
// distinct set, every edge gets its own weight (a random permutation of
// 1..edges), so each weight class holds one edge; otherwise weights are
// drawn from 1..3 and tie often.
func randomDemand(n, perRow int, distinct bool, seed int64) *Demand {
	rng := rand.New(rand.NewSource(seed))
	d := NewDemand(n)
	var cells [][2]int
	for u := 0; u < n; u++ {
		for i := 0; i < perRow; i++ {
			if v := rng.Intn(n); v != u && d.At(u, v) == 0 {
				d.Set(u, v, 1+rng.Int63n(3))
				cells = append(cells, [2]int{u, v})
			}
		}
	}
	if distinct {
		for i, p := range rng.Perm(len(cells)) {
			d.Set(cells[i][0], cells[i][1], int64(p+1))
		}
	}
	return d
}

// TestSolsticeMatchesOracleDistinctWeights plans a demand whose every edge
// has its own weight, the worst case for weight classes (one per edge),
// against the rescan-every-round oracle at N=256 under every realizability
// oracle, the Omega included.
func TestSolsticeMatchesOracleDistinctWeights(t *testing.T) {
	const n = 256
	d := randomDemand(n, 6, true, 33)
	for name, canRealize := range realizabilityOracles(t, n, 33) {
		t.Run(name, func(t *testing.T) {
			assertSolsticeMatchesOracle(t, d, 4, 2, Options{ReconfigSlots: 0.8, CanRealize: canRealize})
		})
	}
}

// TestSolsticeMatchesOracleOmega256 plans a demand with few, heavily tied
// weights on the N=256 Omega, whose refusals make a row try many columns of
// one class word after word, in hybrid and pure preload form.
func TestSolsticeMatchesOracleOmega256(t *testing.T) {
	const n = 256
	o, err := multistage.NewOmega(n)
	if err != nil {
		t.Fatal(err)
	}
	d := randomDemand(n, 12, false, 34)
	assertSolsticeMatchesOracle(t, d, 4, 2, Options{ReconfigSlots: 0.8, CanRealize: omegaOracle(o)})
	assertSolsticeMatchesOracle(t, d, 4, 4, Options{ReconfigSlots: 0.8, CoverAll: true, CanRealize: omegaOracle(o)})
}

// TestSolsticeAllocatesPerConnection plans an N=1024 demand of ~16k
// connections, each with its own weight. The weight classes must cost
// O(connections) bytes, not a row bitset of N/64 words per class row
// (128 bytes per connection here), and Plan must not allocate per class.
func TestSolsticeAllocatesPerConnection(t *testing.T) {
	const n = 1024
	d := randomDemand(n, 16, true, 35)
	conns := d.Conns()
	if conns < 15000 {
		t.Fatalf("demand has %d connections, want ~16k", conns)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	wc := newWeightClasses(d)
	runtime.ReadMemStats(&after)
	if len(wc.weight) != conns {
		t.Fatalf("%d weight classes for %d connections with distinct weights", len(wc.weight), conns)
	}
	if bytes, limit := after.TotalAlloc-before.TotalAlloc, uint64(80*conns+n); bytes > limit {
		t.Errorf("weight classes allocated %d bytes for %d connections, want at most %d", bytes, conns, limit)
	}

	opts := Options{ReconfigSlots: 0.8, CoverAll: true}
	s := planOrDie(t, Solstice{}, d, 4, 2, opts)
	allocs := testing.AllocsPerRun(1, func() { planOrDie(t, Solstice{}, d, 4, 2, opts) })
	if limit := float64(8*s.NumConfigs() + 64); allocs > limit {
		t.Errorf("Plan made %.0f allocations for %d configurations and %d classes, want at most %.0f",
			allocs, s.NumConfigs(), conns, limit)
	}
}
