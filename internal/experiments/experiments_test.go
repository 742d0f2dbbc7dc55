package experiments

import (
	"testing"

	"pmsnet/internal/traffic"
)

// The tests in this file assert the *published shape* of every figure: who
// wins, by roughly what factor, and where crossovers fall (the reproduction
// contract in DESIGN.md). All runs are deterministic (fixed seeds, single-
// threaded event simulation), so exact orderings are stable.

const seed = 1

// indices into fig4Builders and its SizeRow results
const (
	iWormhole = 0
	iCircuit  = 1
	iDynamic  = 2
	iPreload  = 3
)

func fig4(t *testing.T, p Panel, sizes []int) []SizeRow {
	t.Helper()
	rows, err := Fig4PanelExec(Serial, p, N, sizes, seed)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func eff(row SizeRow, i int) float64 { return row.Results[i].Efficiency }

// TestFig4ScatterStepAndFlattening: "there is a notable increase in
// bandwidth utilization between 32 and 64 bytes ... the efficiency flattens
// out from 64 to 2048 bytes" — the fixed 100 ns slot carries at most 64
// usable bytes.
func TestFig4ScatterStepAndFlattening(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale figure test")
	}
	rows := fig4(t, Scatter, []int{32, 64, 2048})
	at32, at64, at2048 := rows[0], rows[1], rows[2]
	for _, i := range []int{iDynamic, iPreload} {
		step := eff(at64, i) / eff(at32, i)
		if step < 1.6 {
			t.Errorf("%s: 32->64B step = %.2fx, want a notable (>1.6x) increase",
				at64.Results[i].Network, step)
		}
	}
	// Flattening: preload's efficiency at 2048 B stays within 15% of 64 B.
	flat := eff(at2048, iPreload) / eff(at64, iPreload)
	if flat < 0.85 || flat > 1.15 {
		t.Errorf("preload 64B->2048B ratio = %.2f, want flat (0.85..1.15)", flat)
	}
}

// TestFig4RandomMesh: "both Preload and Dynamic TDM outperform Wormhole and
// Circuit switching by 10 to 25% but are within 10% of each other."
func TestFig4RandomMesh(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale figure test")
	}
	rows := fig4(t, RandomMesh, []int{64})
	row := rows[0]
	for _, i := range []int{iDynamic, iPreload} {
		name := row.Results[i].Network
		if eff(row, i) < eff(row, iWormhole)*1.10 {
			t.Errorf("%s (%.3f) should beat wormhole (%.3f) by at least 10%%",
				name, eff(row, i), eff(row, iWormhole))
		}
		if eff(row, i) < eff(row, iCircuit)*1.10 {
			t.Errorf("%s (%.3f) should beat circuit (%.3f) by at least 10%%",
				name, eff(row, i), eff(row, iCircuit))
		}
	}
	ratio := eff(row, iDynamic) / eff(row, iPreload)
	if ratio < 1/1.12 || ratio > 1.12 {
		t.Errorf("dynamic (%.3f) and preload (%.3f) should be within ~10%% of each other",
			eff(row, iDynamic), eff(row, iPreload))
	}
}

// TestFig4CircuitImprovesWithSize: "the performance of Circuit switching
// improves when the message size is large" — the 240 ns circuit setup
// amortizes.
func TestFig4CircuitImprovesWithSize(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale figure test")
	}
	rows := fig4(t, RandomMesh, []int{8, 64, 512, 2048})
	prev := 0.0
	for _, row := range rows {
		if eff(row, iCircuit) <= prev {
			t.Fatalf("circuit efficiency not increasing at %dB: %.3f after %.3f",
				row.Bytes, eff(row, iCircuit), prev)
		}
		prev = eff(row, iCircuit)
	}
}

// TestFig4OrderedMesh: "The Ordered Mesh, as one would expect does very well
// with Preload. The regularity of the pattern also shows good efficiency for
// TDM but is not exploited for Wormhole or Circuit switching."
func TestFig4OrderedMesh(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale figure test")
	}
	rows := fig4(t, OrderedMesh, []int{64})
	row := rows[0]
	if eff(row, iPreload) < eff(row, iDynamic)*0.98 {
		t.Errorf("preload (%.3f) should be at least on par with dynamic (%.3f)",
			eff(row, iPreload), eff(row, iDynamic))
	}
	for _, i := range []int{iDynamic, iPreload} {
		if eff(row, i) < eff(row, iWormhole)*1.5 {
			t.Errorf("%s (%.3f) should far exceed wormhole (%.3f) on the regular pattern",
				row.Results[i].Network, eff(row, i), eff(row, iWormhole))
		}
	}
}

// TestFig4TwoPhase: "Preload does better than the rest and the performance
// of dynamically scheduled TDM drops below Wormhole."
func TestFig4TwoPhase(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale figure test")
	}
	rows := fig4(t, TwoPhase, []int{64})
	row := rows[0]
	for _, i := range []int{iWormhole, iCircuit, iDynamic} {
		if eff(row, iPreload) <= eff(row, i) {
			t.Errorf("preload (%.3f) should beat %s (%.3f)",
				eff(row, iPreload), row.Results[i].Network, eff(row, i))
		}
	}
	if eff(row, iDynamic) >= eff(row, iWormhole) {
		t.Errorf("dynamic TDM (%.3f) should drop below wormhole (%.3f) on two-phase",
			eff(row, iDynamic), eff(row, iWormhole))
	}
}

// TestFig5Claims: "The 1-preload/2-dynamic outperforms the pure dynamic
// scheme even for low determinism (50%). For 85% or greater determinism, the
// 2-preload/1-dynamic scheme performed over 10% better than the
// 1-preload/2-dynamic."
func TestFig5Claims(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale figure test")
	}
	rows, err := Fig5Exec(Serial, N, []float64{0.5, 0.85}, 7)
	if err != nil {
		t.Fatal(err)
	}
	low, high := rows[0], rows[1]
	if low.Results[1].Efficiency <= low.Results[0].Efficiency {
		t.Errorf("at 50%% determinism, 1p/2d (%.3f) should outperform 0p/3d (%.3f)",
			low.Results[1].Efficiency, low.Results[0].Efficiency)
	}
	if low.Results[2].Efficiency >= low.Results[1].Efficiency {
		t.Errorf("at 50%% determinism, 2p/1d (%.3f) should trail 1p/2d (%.3f)",
			low.Results[2].Efficiency, low.Results[1].Efficiency)
	}
	if high.Results[2].Efficiency < high.Results[1].Efficiency*1.10 {
		t.Errorf("at 85%% determinism, 2p/1d (%.3f) should beat 1p/2d (%.3f) by over 10%%",
			high.Results[2].Efficiency, high.Results[1].Efficiency)
	}
}

func TestTable3ModelMatchesPaper(t *testing.T) {
	rows := Table3(50)
	want := map[int]int64{4: 34, 8: 49, 16: 76, 32: 120, 64: 213, 128: 385}
	for _, r := range rows {
		if int64(r.FPGANs) != want[r.N] {
			t.Errorf("N=%d: FPGA latency %v, want %d", r.N, r.FPGANs, want[r.N])
		}
		if r.SoftwareNs <= 0 {
			t.Errorf("N=%d: software pass time not measured", r.N)
		}
	}
	if rows[len(rows)-1].ASICNs != 80 {
		t.Errorf("ASIC latency at 128 = %v, want the paper's 80ns", rows[len(rows)-1].ASICNs)
	}
	tbl := Table3Table(rows)
	if tbl.Rows() != len(rows) {
		t.Fatal("table rendering lost rows")
	}
}

func TestPanelsAndTables(t *testing.T) {
	if len(Panels()) != 4 {
		t.Fatal("Figure 4 has four panels")
	}
	if _, err := Panel("bogus").Workload(8, 64, 1); err == nil {
		t.Fatal("unknown panel should error")
	}
	rows, err := Fig4PanelExec(Serial, Scatter, 16, []int{32}, seed)
	if err != nil {
		t.Fatal(err)
	}
	tbl := Fig4Table(Scatter, rows)
	if tbl.Rows() != 1 {
		t.Fatal("panel table should have one row per size")
	}
	frows, err := Fig5Exec(Serial, 16, []float64{0.5}, seed)
	if err != nil {
		t.Fatal(err)
	}
	if Fig5Table(frows).Rows() != 1 {
		t.Fatal("fig5 table should have one row per determinism")
	}
}

func TestAblationsRun(t *testing.T) {
	wl := traffic.RandomMesh(16, 64, 10, seed)
	pred, err := PredictorAblationExec(Serial, 16, wl)
	if err != nil {
		t.Fatal(err)
	}
	if len(pred) != 5 {
		t.Fatalf("predictor ablation rows = %d, want 5", len(pred))
	}
	if AblationTable("predictors", pred).Rows() != 5 {
		t.Fatal("ablation table lost rows")
	}
	deg, err := DegreeSweepExec(Serial, 16, []int{1, 2, 4, 8}, wl)
	if err != nil {
		t.Fatal(err)
	}
	// More multiplexing must not hurt the mesh working set (degree 4): K=4
	// should beat K=1 (circuit-switching degenerate case) clearly.
	var k1, k4 float64
	for _, r := range deg {
		switch r.Label {
		case "K=1":
			k1 = r.Result.Efficiency
		case "K=4":
			k4 = r.Result.Efficiency
		}
	}
	if k4 <= k1 {
		t.Errorf("K=4 (%.3f) should beat K=1 (%.3f) on the degree-4 working set", k4, k1)
	}
	rot, err := RotationAblationExec(Serial, 16, traffic.OrderedMesh(16, 64, 5))
	if err != nil {
		t.Fatal(err)
	}
	if len(rot) != 2 {
		t.Fatal("rotation ablation rows")
	}
	skip, err := SkipEmptyAblationExec(Serial, 16, 8, traffic.OrderedMesh(16, 64, 5))
	if err != nil {
		t.Fatal(err)
	}
	// Empty-slot skipping must help (or at least not hurt) when the working
	// set is far smaller than K.
	if skip[1].Result.Efficiency < skip[0].Result.Efficiency {
		t.Errorf("skip-empty=true (%.3f) should not lose to false (%.3f)",
			skip[1].Result.Efficiency, skip[0].Result.Efficiency)
	}
	sl, err := SLCopiesSweepExec(Serial, 16, []int{1, 2, 4}, traffic.AllToAll(16, 16))
	if err != nil {
		t.Fatal(err)
	}
	if len(sl) != 3 {
		t.Fatal("sl sweep rows")
	}
	dec := DecomposerComparison([]*traffic.Workload{wl, traffic.AllToAll(16, 8)})
	for _, d := range dec {
		if d.ExactConfigs != d.Degree {
			t.Errorf("%s: exact decomposer used %d configs, want degree %d", d.Workload, d.ExactConfigs, d.Degree)
		}
		if d.GreedyConfigs < d.ExactConfigs {
			t.Errorf("%s: greedy (%d) cannot beat exact (%d)", d.Workload, d.GreedyConfigs, d.ExactConfigs)
		}
	}
}
