package tdm

import (
	"reflect"
	"testing"

	"pmsnet/internal/bitmat"
	"pmsnet/internal/fabric"
	"pmsnet/internal/plan"
	"pmsnet/internal/predictor"
	"pmsnet/internal/topology"
	"pmsnet/internal/traffic"
)

// plannerWorkloads are phased workloads with static knowledge — the inputs
// the preload planners act on.
func plannerWorkloads() map[string]*traffic.Workload {
	return map[string]*traffic.Workload{
		"two-phase": traffic.TwoPhase(16, 32, 5),
		"skewed":    traffic.Skewed("skewed", 16, 64, 3, 8, []int{1, 2, 3, 4, 5, 6, 7, 8}),
	}
}

// TestStaticPlannerMatchesUnplannedPath pins the A/B contract end to end:
// running with the static planner must produce a bit-identical Result to
// running with no planner at all — same decomposition, same chunking, same
// slot registers, slot for slot. Planner and Plan* stats fields are the
// run's only planner-aware telemetry, so they are aligned before comparing.
func TestStaticPlannerMatchesUnplannedPath(t *testing.T) {
	configs := map[string]Config{
		"preload":       {N: 16, K: 4, Mode: Preload},
		"hybrid":        {N: 16, K: 4, Mode: Hybrid, PreloadSlots: 2},
		"preload/omega": {N: 16, K: 4, Mode: Preload, Fabric: fabric.KindOmega},
	}
	for mode, cfg := range configs {
		for wname, wl := range plannerWorkloads() {
			planned := cfg
			planned.Planner = plan.Static{}
			want := identityRun(t, cfg, wl)
			got := identityRun(t, planned, wl)
			if got.Stats.Planner != "static" {
				t.Errorf("%s/%s: planner name %q not reported", mode, wname, got.Stats.Planner)
			}
			if got.Stats.PlanConfigs == 0 || got.Stats.PlanGroups == 0 {
				t.Errorf("%s/%s: plan stats empty: %+v", mode, wname, got.Stats)
			}
			got.Network = want.Network // names differ by the /plan= suffix
			got.Stats.Planner = ""
			got.Stats.PlanConfigs = 0
			got.Stats.PlanGroups = 0
			got.Stats.PlanResidualConns = 0
			got.Stats.PlanDrainSlots = 0
			if !reflect.DeepEqual(want, got) {
				t.Errorf("%s/%s: static planner drifted from the unplanned path:\n unplanned: %+v\n planned:   %+v",
					mode, wname, want, got)
			}
		}
	}
}

// TestOptimizingPlannersRun exercises solstice and bvn through the full
// simulation in both preload and hybrid modes: the run must complete, cover
// all traffic, and report plan statistics.
func TestOptimizingPlannersRun(t *testing.T) {
	for _, p := range []plan.Planner{plan.Solstice{}, plan.BvN{}} {
		for mode, cfg := range map[string]Config{
			"preload": {N: 16, K: 4, Mode: Preload},
			"hybrid":  {N: 16, K: 4, Mode: Hybrid, PreloadSlots: 2},
		} {
			cfg.Planner = p
			for wname, wl := range plannerWorkloads() {
				res := identityRun(t, cfg, wl)
				if res.Messages != wl.MessageCount() {
					t.Errorf("%s/%s/%s: delivered %d of %d messages",
						p.Name(), mode, wname, res.Messages, wl.MessageCount())
				}
				if res.Stats.Planner != p.Name() {
					t.Errorf("%s/%s/%s: planner name %q", p.Name(), mode, wname, res.Stats.Planner)
				}
				if res.Stats.PlanConfigs == 0 || res.Stats.PlanDrainSlots == 0 {
					t.Errorf("%s/%s/%s: plan stats empty: %+v", p.Name(), mode, wname, res.Stats)
				}
			}
		}
	}
}

// TestSolsticeBeatsStaticOnSkewedDemand is the planner's reason to exist:
// on a demand-skewed phased workload whose working-set degree exceeds the
// pinned region, the solstice schedule must drain the traffic in fewer
// simulated slots than the hand-written static preloads (reconfigurations
// charged — both pay the same group-swap machinery).
func TestSolsticeBeatsStaticOnSkewedDemand(t *testing.T) {
	wl := traffic.Skewed("skewed", 16, 64, 4, 8, []int{1, 2, 3, 4, 5, 6, 7, 8})
	static := identityRun(t, Config{N: 16, K: 4, Mode: Preload}, wl)
	planned := identityRun(t, Config{N: 16, K: 4, Mode: Preload, Planner: plan.Solstice{}}, wl)
	if planned.Makespan >= static.Makespan {
		t.Fatalf("solstice makespan %v not better than static %v", planned.Makespan, static.Makespan)
	}
	if planned.Efficiency <= static.Efficiency {
		t.Fatalf("solstice efficiency %.4f not better than static %.4f",
			planned.Efficiency, static.Efficiency)
	}
}

// TestPlannerResidualRidesDynamicPath pins the hybrid spill contract: a
// featherweight connection the plan drops must still be delivered — by the
// dynamic slots.
func TestPlannerResidualRidesDynamicPath(t *testing.T) {
	// A hot ring plus one featherweight straggler that cannot pay for a
	// pinned register.
	wl := traffic.Skewed("spill", 8, 64, 8, 4, []int{1})
	wl.Programs[0].Ops = append(wl.Programs[0].Ops, traffic.Send(5, 64))
	wl.StaticPhases = []*topology.WorkingSet{wl.ConnSet()}
	cfg := Config{N: 8, K: 4, Mode: Hybrid, PreloadSlots: 2, Planner: plan.Solstice{}}
	res := identityRun(t, cfg, wl)
	if res.Stats.PlanResidualConns == 0 {
		t.Fatal("solstice pinned the featherweight connection instead of spilling it")
	}
	if res.Messages != wl.MessageCount() {
		t.Fatalf("delivered %d of %d messages — residual traffic starved", res.Messages, wl.MessageCount())
	}
}

func TestPlannerValidation(t *testing.T) {
	if _, err := New(Config{N: 8, K: 4, Mode: Dynamic, Planner: plan.Solstice{}}); err == nil {
		t.Error("planner in dynamic mode should be rejected")
	}
	if _, err := New(Config{N: 8, K: 4, Mode: Hybrid, PreloadSlots: 0, Planner: plan.Solstice{}}); err == nil {
		t.Error("planner with zero pinned slots should be rejected")
	}
	if _, err := New(Config{N: 8, K: 4, Mode: Hybrid, PreloadSlots: 2, Planner: plan.Solstice{}}); err != nil {
		t.Errorf("valid hybrid planner config rejected: %v", err)
	}
}

// TestScheduleSlackPredictorRuns drives the planner-fed eviction signal
// through a dynamic run: plan the workload offline, feed the planned
// per-connection budgets to predictor.ScheduleSlack, and check the run
// completes with eviction activity.
func TestScheduleSlackPredictorRuns(t *testing.T) {
	wl := traffic.Skewed("skewed", 16, 64, 3, 8, []int{1, 2, 3, 4, 5, 6, 7, 8})
	d := plan.FromWorkload(wl, 64)
	sched, err := plan.Solstice{}.Plan(d, 4, 4, plan.Options{ReconfigSlots: 0.8, CoverAll: true})
	if err != nil {
		t.Fatal(err)
	}
	planned := sched.PlannedUses()
	cfg := Config{N: 16, K: 4, NewPredictor: func() predictor.Predictor {
		return predictor.NewScheduleSlack(planned, 500)
	}}
	res := identityRun(t, cfg, wl)
	if res.Messages != wl.MessageCount() {
		t.Fatalf("delivered %d of %d messages", res.Messages, wl.MessageCount())
	}
	if res.Stats.Evictions == 0 {
		t.Fatal("schedule-slack predictor never evicted on a skewed workload")
	}
}

// TestIndexGroupsRecordsEachGroupOnce pins groupsOf's contract: a connection
// maps to every group holding it, in group order, once per group even when a
// configuration repeats within the group (a register share) or two of the
// group's configurations overlap (BvN terms can).
func TestIndexGroupsRecordsEachGroupOnce(t *testing.T) {
	cfg := func(conns ...topology.Conn) *bitmat.Matrix {
		m := bitmat.NewSquare(4)
		for _, c := range conns {
			m.Set(c.Src, c.Dst)
		}
		return m
	}
	a := topology.Conn{Src: 0, Dst: 1}
	b := topology.Conn{Src: 1, Dst: 2}
	c := topology.Conn{Src: 2, Dst: 3}
	shared := cfg(a, b)
	p := &preloader{r: &run{cfg: Config{N: 4}}, groups: [][]*bitmat.Matrix{
		{shared, shared},    // a register share
		{cfg(b), cfg(b, c)}, // overlapping configurations
		{cfg(c), cfg(a)},
	}}
	p.indexGroups()
	want := map[topology.Conn][]int32{
		a: {0, 2},
		b: {0, 1},
		c: {1, 2},
	}
	for u := 0; u < 4; u++ {
		for v := 0; v < 4; v++ {
			conn := topology.Conn{Src: u, Dst: v}
			if got := p.groupsOf(conn); !reflect.DeepEqual(got, want[conn]) {
				t.Errorf("groupsOf(%v) = %v, want %v", conn, got, want[conn])
			}
		}
	}
}
