package tdm

import (
	"reflect"
	"strings"
	"testing"

	"pmsnet/internal/fabric"
	"pmsnet/internal/plan"
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

// TestIndexGroupsRecordsEachGroupOnce pins groupsOf's contract: a connection
// maps to every group holding it, in group order, once per group even when a
// configuration repeats within the group (a register share) or two of the
// group's configurations overlap (BvN terms can).
func TestIndexGroupsRecordsEachGroupOnce(t *testing.T) {
	cfg := func(conns ...topology.Conn) []int32 {
		m := topology.NewPortMap(4)
		for _, c := range conns {
			m[c.Src] = int32(c.Dst)
		}
		return m
	}
	a := topology.Conn{Src: 0, Dst: 1}
	b := topology.Conn{Src: 1, Dst: 2}
	c := topology.Conn{Src: 2, Dst: 3}
	shared := cfg(a, b)
	// The run's table holds every pair, so most connections are in no group.
	conns := topology.NewConnTable(4, func(src int, add func(dst int)) {
		for v := 0; v < 4; v++ {
			if v != src {
				add(v)
			}
		}
	})
	p := &preloader{r: &run{cfg: Config{N: 4}, conns: conns}, groups: [][][]int32{
		{shared, shared},    // a register share
		{cfg(b), cfg(b, c)}, // overlapping configurations
		{cfg(c), cfg(a)},
	}}
	if err := p.indexGroups(); err != nil {
		t.Fatal(err)
	}
	want := map[topology.Conn][]int32{
		a: {0, 2},
		b: {0, 1},
		c: {1, 2},
	}
	for id := int32(0); id < int32(conns.Len()); id++ {
		conn := conns.Conn(id)
		if got := p.groupsOf(id); len(got) != len(want[conn]) || (len(got) > 0 && !reflect.DeepEqual(got, want[conn])) {
			t.Errorf("groupsOf(%v) = %v, want %v", conn, got, want[conn])
		}
	}
	// A group connection outside the table is refused, by name.
	p.r.conns = topology.NewConnTable(4, func(src int, add func(dst int)) {
		if src != 2 {
			add((src + 1) % 4)
		}
	})
	if err := p.indexGroups(); err == nil || !strings.Contains(err.Error(), "2->3") {
		t.Fatalf("indexGroups with 2->3 outside the table: %v", err)
	}
}
