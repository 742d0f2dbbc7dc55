package plan

import (
	"math/bits"
	"reflect"
	"sort"
	"testing"

	"pmsnet/internal/bitmat"
	"pmsnet/internal/multistage"
	"pmsnet/internal/traffic"
)

// heaviestMatching is the Solstice round as it stood before the planner
// sorted its edges once: it rescans the remaining demand, sorts every
// positive edge heaviest first (ties on (src,dst)) and greedily extracts a
// conflict-free configuration, checking each tentative edge against
// canRealize when it is non-nil. It returns the configuration, the heaviest
// single connection in it, and the total demand it covers; the configuration
// is nil when nothing can be covered.
func heaviestMatching(rem *Demand, canRealize func(*bitmat.Matrix) bool) (cfg *bitmat.Matrix, maxConn, covered int64) {
	var edges []weightedEdge
	n := rem.N()
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if w := rem.At(u, v); w > 0 {
				edges = append(edges, weightedEdge{u, v, w})
			}
		}
	}
	if len(edges) == 0 {
		return nil, 0, 0
	}
	sort.SliceStable(edges, func(i, j int) bool {
		if edges[i].w != edges[j].w {
			return edges[i].w > edges[j].w
		}
		if edges[i].u != edges[j].u {
			return edges[i].u < edges[j].u
		}
		return edges[i].v < edges[j].v
	})
	cfg = bitmat.NewSquare(n)
	rowUsed := make([]bool, n)
	colUsed := make([]bool, n)
	for _, e := range edges {
		if rowUsed[e.u] || colUsed[e.v] {
			continue
		}
		cfg.Set(e.u, e.v)
		if canRealize != nil && !canRealize(cfg) {
			cfg.Clear(e.u, e.v)
			continue
		}
		rowUsed[e.u], colUsed[e.v] = true, true
		covered += e.w
		if e.w > maxConn {
			maxConn = e.w
		}
	}
	if cfg.IsZero() {
		return nil, 0, 0
	}
	return cfg, maxConn, covered
}

// solsticeOracle is the full Solstice plan built from heaviestMatching, one
// rescan of a cloned demand per round, on dense matrices: it hands the
// realizability check each candidate converted to a port map, and converts
// each configuration to one for its entry. Solstice.Plan must match it
// exactly.
func solsticeOracle(d *Demand, k, preloadSlots int, opts Options) (*Schedule, error) {
	if err := checkPlanArgs(d, k, preloadSlots); err != nil {
		return nil, err
	}
	var canRealize func(*bitmat.Matrix) bool
	if opts.CanRealize != nil {
		canRealize = func(cfg *bitmat.Matrix) bool { return opts.CanRealize(cfg.PortMap()) }
	}
	rem := d.Clone()
	var entries []Entry
	for rem.Conns() > 0 {
		cfg, maxConn, covered := heaviestMatching(rem, canRealize)
		if cfg == nil {
			break
		}
		entries = append(entries, Entry{Config: cfg.PortMap(), Demand: maxConn, Covered: covered})
		cfg.Ones(func(u, v int) bool {
			rem.Set(u, v, 0)
			return true
		})
	}
	s := &Schedule{
		Planner:      "solstice",
		N:            d.N(),
		K:            k,
		PreloadSlots: preloadSlots,
	}
	var kept []Entry
	kept, s.Residual = splitResidual(entries, d.N(), k, opts, func(_ Entry, u, v int) int64 { return d.At(u, v) })
	s.Groups, s.DrainSlots, s.Reconfigs = packGroups(kept, k, preloadSlots, opts.ReconfigSlots)
	return s, nil
}

// assertSolsticeMatchesOracle plans d with Solstice and with the oracle and
// requires identical schedules and an unmutated demand.
func assertSolsticeMatchesOracle(t *testing.T, d *Demand, k, slots int, opts Options) {
	t.Helper()
	before := d.Clone()
	want, wantErr := solsticeOracle(d, k, slots, opts)
	got, gotErr := Solstice{}.Plan(d, k, slots, opts)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("Plan error %v, oracle error %v", gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("n=%d k=%d slots=%d: schedule differs from the oracle:\ngot  %+v\nwant %+v", d.N(), k, slots, got, want)
	}
	if !reflect.DeepEqual(d, before) {
		t.Fatal("Plan mutated its demand")
	}
}

// refusingOracle is a deterministic realizability oracle that refuses
// roughly one multi-connection configuration in four, chosen by a hash of
// the configuration's connections salted with salt.
func refusingOracle(salt uint64) func([]int32) bool {
	return func(cfg []int32) bool {
		h, count := salt|1, 0
		for u, v := range cfg {
			if v >= 0 {
				h = (h ^ uint64(u)<<16 ^ uint64(v)) * 0x100000001b3
				count++
			}
		}
		return count <= 1 || h>>62 != 0
	}
}

// omegaOracle is the Omega network's realizability check with its own
// switch-state scratch.
func omegaOracle(o *multistage.Omega) func([]int32) bool {
	state := o.NewState()
	return func(cfg []int32) bool { return o.CanRealize(cfg, state) }
}

// realizabilityOracles returns the CanRealize functions the parity checks
// plan under: none (the crossbar), the Omega at power-of-two n, and
// refusingOracle.
func realizabilityOracles(t testing.TB, n int, salt uint64) map[string]func([]int32) bool {
	oracles := map[string]func([]int32) bool{
		"crossbar": nil,
		"refusing": refusingOracle(salt),
	}
	if n >= 2 && bits.OnesCount(uint(n)) == 1 {
		o, err := multistage.NewOmega(n)
		if err != nil {
			t.Fatal(err)
		}
		oracles["omega"] = omegaOracle(o)
	}
	return oracles
}

// FuzzSolsticeParity plans random demand matrices (N in 1..32, weights with
// ties and zeros) at random frame sizes, pinned-slot counts and charges,
// under every realizability oracle, and requires Solstice.Plan to match the
// oracle schedule exactly.
func FuzzSolsticeParity(f *testing.F) {
	f.Add(uint8(3), uint8(3), uint8(1), uint8(2), false, []byte{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Add(uint8(7), uint8(3), uint8(1), uint8(2), false, []byte{3, 3, 0, 2, 2, 2, 1, 0, 3, 3, 2, 1, 0, 0, 2, 2})
	f.Add(uint8(15), uint8(7), uint8(7), uint8(0), true, []byte{200, 1, 1, 255, 0, 2, 130, 130, 4, 5, 6, 7})
	f.Add(uint8(0), uint8(0), uint8(0), uint8(1), false, []byte{5})
	f.Add(uint8(31), uint8(3), uint8(2), uint8(3), false, []byte{1, 2, 3, 133, 5, 6, 7, 8, 9, 10, 11, 12, 13, 142, 15, 16, 17})
	f.Fuzz(func(t *testing.T, nb, kb, sb, rb uint8, coverAll bool, weights []byte) {
		n := 1 + int(nb)%32
		k := 1 + int(kb)%8
		slots := 1 + int(sb)%k
		d := NewDemand(n)
		for i, b := range weights {
			if i >= n*n {
				break
			}
			// The low two bits give small weights that tie often, a quarter
			// of them zero; the high bit scales some up to spread the order.
			w := int64(b & 3)
			if b&0x80 != 0 {
				w *= int64(b&0x7f) + 1
			}
			d.Set(i/n, i%n, w)
		}
		for name, canRealize := range realizabilityOracles(t, n, uint64(rb)<<8|uint64(len(weights))) {
			opts := Options{ReconfigSlots: float64(rb%4) * 0.4, CoverAll: coverAll, CanRealize: canRealize}
			t.Run(name, func(t *testing.T) { assertSolsticeMatchesOracle(t, d, k, slots, opts) })
		}
	})
}

// TestSolsticeMatchesOracleTwoPhase128 checks both static phases of the
// Fig-4 two-phase workload at N=128 in hybrid and pure preload form, on the
// crossbar and the Omega.
func TestSolsticeMatchesOracleTwoPhase128(t *testing.T) {
	wl := traffic.TwoPhase(128, 64, 1)
	demand := FromWorkload(wl, 64)
	o, err := multistage.NewOmega(128)
	if err != nil {
		t.Fatal(err)
	}
	for _, phase := range wl.StaticPhases {
		d := demand.Restrict(phase)
		assertSolsticeMatchesOracle(t, d, 4, 2, Options{ReconfigSlots: 0.8})
		assertSolsticeMatchesOracle(t, d, 4, 4, Options{ReconfigSlots: 0.8, CoverAll: true})
		assertSolsticeMatchesOracle(t, d, 4, 2, Options{ReconfigSlots: 0.8, CanRealize: omegaOracle(o)})
	}
}

// BenchmarkSolsticePlanTwoPhase128 plans both static phases of the
// two-phase workload at N=128 the way the hybrid preloader does (2 pinned
// slots of K=4, swaps charged at the 0.8-slot control delay).
func BenchmarkSolsticePlanTwoPhase128(b *testing.B) {
	wl := traffic.TwoPhase(128, 64, 1)
	demand := FromWorkload(wl, 64)
	var phases []*Demand
	for _, phase := range wl.StaticPhases {
		phases = append(phases, demand.Restrict(phase))
	}
	opts := Options{ReconfigSlots: 0.8}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, d := range phases {
			if _, err := (Solstice{}).Plan(d, 4, 2, opts); err != nil {
				b.Fatal(err)
			}
		}
	}
}
