package experiments

import (
	"strings"
	"testing"

	"pmsnet/internal/plan"
	"pmsnet/internal/tdm"
	"pmsnet/internal/traffic"
)

// The tests in this file pin the acceptance contract of the workload-family
// studies: every family runs under both regimes, and the phased family's
// compiler analysis demonstrably feeds per-phase demand into the Solstice
// planner. Small n keeps the suite fast; the properties are scale-free.

func TestFamilySweepCoversEveryFamily(t *testing.T) {
	rows, err := FamilySweepExec(Serial, 16, seed)
	if err != nil {
		t.Fatal(err)
	}
	specs := FamilySpecs()
	if want := len(specs) * 2; len(rows) != want {
		t.Fatalf("got %d rows, want %d (every family under both regimes)", len(rows), want)
	}
	for _, spec := range specs {
		if _, err := traffic.ParseSpec(spec); err != nil {
			t.Errorf("FamilySpecs entry does not parse: %v", err)
		}
	}
	for _, r := range rows {
		if r.Result.Messages == 0 {
			t.Errorf("%s: delivered no messages", r.Label)
		}
		if r.Result.Efficiency <= 0 || r.Result.Efficiency > 1 {
			t.Errorf("%s: efficiency %.3f out of (0,1]", r.Label, r.Result.Efficiency)
		}
	}
}

// TestPhasedFeedsPlanner is the compiled-communication acceptance test: the
// phased family's program, stripped and re-analyzed, must yield multiple
// per-phase demand matrices, and the Solstice preload run must consume them
// (a named planner with planned configurations in its telemetry).
func TestPhasedFeedsPlanner(t *testing.T) {
	st, err := PhasedPlannerStudyExec(Serial, 16, "phased", seed)
	if err != nil {
		t.Fatal(err)
	}
	if st.PhaseCount < 2 {
		t.Fatalf("analysis found %d phases, want >= 2", st.PhaseCount)
	}
	if len(st.PhaseDemands) != st.PhaseCount {
		t.Fatalf("got %d demand matrices for %d phases", len(st.PhaseDemands), st.PhaseCount)
	}
	for i, d := range st.PhaseDemands {
		if d <= 0 {
			t.Errorf("phase %d: empty demand matrix", i)
		}
	}
	var solstice *NamedResult
	for i := range st.Rows {
		if strings.Contains(st.Rows[i].Label, "solstice") {
			solstice = &st.Rows[i]
		}
	}
	if solstice == nil {
		t.Fatal("study has no solstice row")
	}
	if solstice.Result.Stats.Planner != "solstice" {
		t.Fatalf("solstice row ran planner %q", solstice.Result.Stats.Planner)
	}
	if solstice.Result.Stats.PlanConfigs == 0 {
		t.Fatal("solstice planner produced no slot configurations from the analysis demand")
	}
	if solstice.Result.Stats.PlanGroups < uint64(st.PhaseCount) {
		t.Errorf("planner packed %d configuration groups for %d phases, want >= one per phase",
			solstice.Result.Stats.PlanGroups, st.PhaseCount)
	}
}

// TestTilesFeedPlannerToo: the SDM-NoC tile family carries its own PHASEHINT
// annotations (each processor participates in a single layer-to-layer phase,
// so the diversity analyzer has no per-program boundary to re-discover), and
// the planner consumes those native per-phase demands directly.
func TestTilesFeedPlannerToo(t *testing.T) {
	wl, err := traffic.Generate("tiles", 16, seed)
	if err != nil {
		t.Fatal(err)
	}
	if len(wl.StaticPhases) < 2 {
		t.Fatalf("tiles carries %d static phases, want >= 2", len(wl.StaticPhases))
	}
	rows, err := runTDMCases(Serial, wl, []tdmCase{
		{"preload/solstice", tdm.Config{N: 16, K: Fig4K, Mode: tdm.Preload, Planner: plan.Solstice{}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0].Result
	if r.Stats.Planner != "solstice" || r.Stats.PlanConfigs == 0 {
		t.Fatalf("planner %q produced %d configs on tiles, want solstice with > 0", r.Stats.Planner, r.Stats.PlanConfigs)
	}
	if r.Stats.PlanGroups < uint64(len(wl.StaticPhases)) {
		t.Errorf("planner packed %d groups for %d declared phases", r.Stats.PlanGroups, len(wl.StaticPhases))
	}
}

func TestPhasedStudyTableRenders(t *testing.T) {
	st, err := PhasedPlannerStudyExec(Serial, 16, "phased", seed)
	if err != nil {
		t.Fatal(err)
	}
	if s := PhasedStudyTable(st).String(); !strings.Contains(s, "phases discovered") {
		t.Errorf("phased study table missing phase summary:\n%s", s)
	}
}
