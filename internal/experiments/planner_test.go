package experiments

import (
	"reflect"
	"strings"
	"testing"
)

// plannerRow pulls one labeled row out of the sweep's results.
func plannerRow(t *testing.T, rows []NamedResult, label string) NamedResult {
	t.Helper()
	for _, r := range rows {
		if r.Label == label {
			return r
		}
	}
	t.Fatalf("planner sweep has no row %q (have %d rows)", label, len(rows))
	return NamedResult{}
}

// TestPlannerSweepSolsticeWins pins the headline result of the planner
// subsystem: on the skewed demand matrix the solstice schedule strictly
// beats both the demand-blind static preloads and the reactive dynamic
// baseline on makespan and efficiency.
func TestPlannerSweepSolsticeWins(t *testing.T) {
	n := 16
	rows, err := PlannerSweepExec(Serial, n, PlannerDemandWorkloads(n, 64))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("expected 2 workloads x 4 cases = 8 rows, got %d", len(rows))
	}
	sol := plannerRow(t, rows, "skewed: preload/solstice")
	static := plannerRow(t, rows, "skewed: preload/static")
	dynamic := plannerRow(t, rows, "skewed: dynamic/reactive")
	if sol.Result.Makespan >= static.Result.Makespan {
		t.Errorf("solstice makespan %v not better than static preload %v",
			sol.Result.Makespan, static.Result.Makespan)
	}
	if sol.Result.Efficiency <= static.Result.Efficiency {
		t.Errorf("solstice efficiency %.4f not better than static preload %.4f",
			sol.Result.Efficiency, static.Result.Efficiency)
	}
	if sol.Result.Makespan >= dynamic.Result.Makespan {
		t.Errorf("solstice makespan %v not better than reactive TDM %v",
			sol.Result.Makespan, dynamic.Result.Makespan)
	}
	if sol.Result.Efficiency <= dynamic.Result.Efficiency {
		t.Errorf("solstice efficiency %.4f not better than reactive TDM %.4f",
			sol.Result.Efficiency, dynamic.Result.Efficiency)
	}
	// Every planned row must carry its planner's fingerprint in the stats.
	for _, r := range rows {
		switch {
		case strings.Contains(r.Label, "solstice"):
			if r.Result.Stats.Planner != "solstice" {
				t.Errorf("%s: stats name %q", r.Label, r.Result.Stats.Planner)
			}
		case strings.Contains(r.Label, "bvn"):
			if r.Result.Stats.Planner != "bvn" {
				t.Errorf("%s: stats name %q", r.Label, r.Result.Stats.Planner)
			}
		default:
			if r.Result.Stats.Planner != "" {
				t.Errorf("%s: unexpected planner stats %q", r.Label, r.Result.Stats.Planner)
			}
		}
	}
}

func TestPlannerSweepParallelIdentity(t *testing.T) {
	wls := PlannerDemandWorkloads(16, 64)
	serial, err := PlannerSweepExec(Serial, 16, wls)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := PlannerSweepExec(Exec{Parallelism: 4}, 16, wls)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("parallel planner-sweep rows differ from serial rows")
	}
}
