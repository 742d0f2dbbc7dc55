package experiments

import (
	"testing"

	"pmsnet/internal/traffic"
)

func TestAmplifyAblationHelpsHotspot(t *testing.T) {
	wl := traffic.Hotspot(16, 64, 10, 2048, 20, seed)
	rows, err := AmplifyAblationExec(Serial, 16, wl)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	off, on := rows[0].Result, rows[1].Result
	if on.Stats.Amplifications == 0 {
		t.Fatal("amplification never engaged on the hotspot workload")
	}
	if on.Makespan > off.Makespan {
		t.Fatalf("amplification (%v) should not slow the hotspot down vs off (%v)",
			on.Makespan, off.Makespan)
	}
}

func TestPrefetchAblationHelpsCyclicTraffic(t *testing.T) {
	wl := CyclicWorkload(16, 8, 6, 1200)
	rows, err := PrefetchAblationExec(Serial, 16, wl)
	if err != nil {
		t.Fatal(err)
	}
	timeout, markov := rows[0].Result, rows[1].Result
	if markov.Stats.HitRate() <= timeout.Stats.HitRate() {
		t.Fatalf("markov hit rate %.3f should exceed timeout %.3f",
			markov.Stats.HitRate(), timeout.Stats.HitRate())
	}
}

func TestCyclicWorkloadValid(t *testing.T) {
	wl := CyclicWorkload(16, 8, 3, 500)
	if err := wl.Validate(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for tiny n")
		}
	}()
	CyclicWorkload(4, 8, 1, 100)
}

func TestPayloadSweepMonotonic(t *testing.T) {
	wl := traffic.OrderedMesh(16, 64, 10)
	rows, err := PayloadSweepExec(Serial, 16, []int{32, 48, 64, 80}, wl)
	if err != nil {
		t.Fatal(err)
	}
	// More usable payload per slot can only help the fully preloaded mesh.
	prev := 0.0
	for _, r := range rows {
		if r.Result.Efficiency < prev {
			t.Fatalf("%s: efficiency %.3f dropped below %.3f", r.Label, r.Result.Efficiency, prev)
		}
		prev = r.Result.Efficiency
	}
	// An 80-byte payload needs the whole raw slot: there is no guard band
	// left, so efficiency approaches the pattern's packing bound.
	if rows[len(rows)-1].Result.Efficiency < rows[0].Result.Efficiency*1.5 {
		t.Fatalf("doubling the payload (32->80B) should raise efficiency substantially: %v", rows)
	}
}

func TestFig4RandomMeshRobustAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed robustness check")
	}
	// The Figure-4b claim (TDM beats wormhole) must hold on average across
	// seeds, not just for the seed the figure uses.
	type pair struct{ dyn, wh float64 }
	var pairs []pair
	for _, s := range []int64{1, 2, 3} {
		rows, err := Fig4PanelExec(Serial, RandomMesh, N, []int{64}, s)
		if err != nil {
			t.Fatal(err)
		}
		pairs = append(pairs, pair{
			dyn: rows[0].Results[iDynamic].Efficiency,
			wh:  rows[0].Results[iWormhole].Efficiency,
		})
	}
	for i, p := range pairs {
		if p.dyn <= p.wh {
			t.Errorf("seed %d: dynamic %.3f should beat wormhole %.3f", i+1, p.dyn, p.wh)
		}
	}
}

func TestFabricComparison(t *testing.T) {
	wls := []*traffic.Workload{
		traffic.OrderedMesh(16, 64, 1),
		traffic.AllToAll(16, 8),
	}
	rows, err := FabricComparisonExec(Serial, 16, wls)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.CrossbarSlots != r.Degree {
			t.Errorf("%s: crossbar slots %d != degree %d", r.Workload, r.CrossbarSlots, r.Degree)
		}
		if r.OmegaSlots < r.CrossbarSlots {
			t.Errorf("%s: omega slots %d below crossbar %d", r.Workload, r.OmegaSlots, r.CrossbarSlots)
		}
		if r.BenesStages != 7 || r.OmegaStages != 4 {
			t.Errorf("%s: stages omega=%d benes=%d, want 4 and 7 for 16 ports",
				r.Workload, r.OmegaStages, r.BenesStages)
		}
	}
	if FabricTable(rows).Rows() != len(rows) {
		t.Fatal("fabric table lost rows")
	}
	if _, err := FabricComparisonExec(Serial, 12, wls); err == nil {
		t.Fatal("non-power-of-two should error")
	}
}

func TestOmegaFabricStudySeparatesPermutations(t *testing.T) {
	const n = 16
	wls := []*traffic.Workload{
		traffic.Shift(n, 64, 20, 1),
		traffic.BitReverse(n, 64, 20),
	}
	rows, err := OmegaFabricStudyExec(Serial, n, wls)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	// rows: shift/crossbar, shift/omega, bitrev/crossbar, bitrev/omega.
	shiftXbar, shiftOmega := rows[0].Result, rows[1].Result
	brXbar, brOmega := rows[2].Result, rows[3].Result
	// The crossbar treats both permutations identically (same structure).
	if ratio := shiftXbar.Efficiency / brXbar.Efficiency; ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("crossbar should treat shift (%.3f) and bit-reverse (%.3f) alike",
			shiftXbar.Efficiency, brXbar.Efficiency)
	}
	// The omega must pay for bit reversal but not (much) for the shift.
	if brOmega.Efficiency >= brXbar.Efficiency {
		t.Fatalf("omega bit-reverse (%.3f) should trail the crossbar (%.3f)",
			brOmega.Efficiency, brXbar.Efficiency)
	}
	if brOmega.Efficiency >= shiftOmega.Efficiency {
		t.Fatalf("omega bit-reverse (%.3f) should trail omega shift (%.3f)",
			brOmega.Efficiency, shiftOmega.Efficiency)
	}
}

func TestFabricBackendSweepCoversPanelsAndFabrics(t *testing.T) {
	const n = 16
	rows, err := FabricBackendSweepExec(Serial, n, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d, want 4 panels x 2 fabrics", len(rows))
	}
	// Rows are grouped per panel: crossbar, omega. The blocking omega may
	// only be slower.
	for p := 0; p < len(rows); p += 2 {
		xbar, omega := rows[p], rows[p+1]
		if omega.Result.Makespan < xbar.Result.Makespan {
			t.Fatalf("%s: blocking omega (%v) beats the crossbar (%v)",
				omega.Label, omega.Result.Makespan, xbar.Result.Makespan)
		}
	}
}

func TestJainFairnessInRotationAblation(t *testing.T) {
	rows, err := RotationAblationExec(Serial, 16, traffic.RandomMesh(16, 64, 30, 4))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Result.FairnessJain <= 0 || r.Result.FairnessJain > 1 {
			t.Fatalf("%s: Jain index %v out of range", r.Label, r.Result.FairnessJain)
		}
	}
	// Rotation must not make fairness worse.
	if rows[1].Result.FairnessJain < rows[0].Result.FairnessJain-0.02 {
		t.Fatalf("rotation (%v) should not be less fair than fixed priority (%v)",
			rows[1].Result.FairnessJain, rows[0].Result.FairnessJain)
	}
}

func TestMultiHopLatencyAdvantage(t *testing.T) {
	// Saturated transpose: whole-path slot reservation costs the TDM mesh;
	// sparse transpose: the analog end-to-end pipe must win on latency.
	const n = 100 // 10x10 grid
	base := traffic.Transpose(n, 64, 10)
	sparse := SparsePermutation(base, 2000)
	if err := sparse.Validate(); err != nil {
		t.Fatal(err)
	}
	if sparse.MessageCount() != base.MessageCount() {
		t.Fatal("sparse variant lost messages")
	}
	rows, err := MultiHopStudyExec(Serial, n, []*traffic.Workload{sparse})
	if err != nil {
		t.Fatal(err)
	}
	wormhole, tdmMesh := rows[0].Result, rows[1].Result
	if tdmMesh.LatencyMean >= wormhole.LatencyMean {
		t.Fatalf("under light load, TDM circuits (%v) must beat per-hop wormhole (%v) on mean latency",
			tdmMesh.LatencyMean, wormhole.LatencyMean)
	}
}

// TestDegreeSweepSparseShowsWorkingSetOptimum: on sparse fully-deterministic
// traffic with a degree-2 working set, the multiplexing degree K=2 must beat
// both K=1 (the cache is too small: every other message re-establishes) and
// K=8 (each connection gets only 1/8 of the slots: §2's bandwidth dilution)
// — the paper's "keep k as small as possible, but large enough to cache the
// working set" in one sweep.
func TestDegreeSweepSparseShowsWorkingSetOptimum(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale sweep")
	}
	wl := traffic.Mix(N, 64, Fig5Msgs, 1.0, Fig5Think, 7)
	rows, err := DegreeSweepExec(Serial, N, []int{1, 2, 8}, wl)
	if err != nil {
		t.Fatal(err)
	}
	k1, k2, k8 := rows[0].Result, rows[1].Result, rows[2].Result
	if k2.Efficiency <= k1.Efficiency {
		t.Errorf("K=2 (%.3f) must beat K=1 (%.3f): the working set has degree 2",
			k2.Efficiency, k1.Efficiency)
	}
	if k2.Efficiency <= k8.Efficiency {
		t.Errorf("K=2 (%.3f) must beat K=8 (%.3f): excess degree dilutes bandwidth",
			k2.Efficiency, k8.Efficiency)
	}
}
