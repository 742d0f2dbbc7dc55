package experiments

import (
	"strings"
	"testing"

	"pmsnet/internal/fault"
	"pmsnet/internal/sim"
	"pmsnet/internal/traffic"
)

// TestFaultSweepSmall runs the robustness sweep on a small system and checks
// its contract: one row per level, one result per paradigm, exact message
// accounting everywhere (FaultSweepExec itself rejects a non-reconciling run),
// and a fault-free first row with clean counters.
func TestFaultSweepSmall(t *testing.T) {
	n := 16
	wl := traffic.RandomMesh(n, 64, 10, 1)
	levels := []FaultLevel{
		{"none", nil},
		{"corrupt", &fault.Plan{Seed: 1, CorruptProb: 0.02}},
		{"churn", &fault.Plan{Seed: 1, LinkMTBF: 100 * sim.Microsecond, LinkMTTR: 2 * sim.Microsecond}},
	}
	rows, err := FaultSweepExec(Serial, n, wl, levels)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(levels) {
		t.Fatalf("rows = %d, want %d", len(rows), len(levels))
	}
	for _, row := range rows {
		if len(row.Results) != 4 {
			t.Fatalf("level %q has %d results, want 4 paradigms", row.Level.Label, len(row.Results))
		}
	}
	clean := rows[0]
	for _, res := range clean.Results {
		if res.Stats.Faults.Enabled {
			t.Errorf("%s: fault stats enabled in the fault-free row", res.Network)
		}
	}
	// The corruption row must actually have injected something somewhere.
	var corrupted uint64
	for _, res := range rows[1].Results {
		corrupted += res.Stats.Faults.Corrupted
	}
	if corrupted == 0 {
		t.Error("corruption level injected nothing across all four paradigms")
	}
}

func TestFaultLevelsAreValid(t *testing.T) {
	levels := FaultLevels()
	if len(levels) == 0 || levels[0].Plan != nil {
		t.Fatal("default sweep must start with a fault-free level")
	}
	for _, lv := range levels {
		if err := lv.Plan.Validate(); err != nil {
			t.Errorf("level %q: %v", lv.Label, err)
		}
		if lv.Plan != nil && !lv.Plan.Active() {
			t.Errorf("level %q has an inactive non-nil plan", lv.Label)
		}
	}
}

func TestFaultTableRenders(t *testing.T) {
	n := 16
	rows, err := FaultSweepExec(Serial, n, traffic.RandomMesh(n, 64, 5, 2), []FaultLevel{
		{"none", nil},
		{"corrupt", &fault.Plan{Seed: 1, CorruptProb: 0.05}},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := FaultTable(rows).String()
	for _, want := range []string{"wormhole", "circuit", "tdm-dynamic", "tdm-preload", "none", "corrupt", "retries"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}
