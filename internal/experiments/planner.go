package experiments

import (
	"fmt"

	"pmsnet/internal/plan"
	"pmsnet/internal/predictor"
	"pmsnet/internal/tdm"
	"pmsnet/internal/traffic"
)

// PlannerDemandWorkloads builds the demand matrices the planner sweep runs
// on: a skewed phase whose working-set degree (8 shifts) exceeds the
// multiplexing degree and concentrates most bytes on one shift — the regime
// where demand-aware register shares pay off — and a sparse phase with two
// connections per processor, one of them 16x hotter, where a demand-blind
// decomposition wastes half its registers on featherweight traffic.
func PlannerDemandWorkloads(n, bytes int) []*traffic.Workload {
	return []*traffic.Workload{
		traffic.Skewed("skewed", n, bytes, 4, 8, []int{1, 2, 3, 4, 5, 6, 7, 8}),
		traffic.Skewed("sparse", n, bytes, 8, 16, []int{1, n / 2}),
	}
}

// PlannerSweepExec compares the preload planners against the reactive
// baseline on demand-skewed phased workloads: static preload (the
// demand-blind hand-written decomposition), solstice and BvN preload
// (demand-aware planned schedules), and dynamic TDM (no static knowledge at
// all). The planners' case: on skewed demand the static chunking alternates
// groups that serve mostly-drained traffic, and the reactive path pays cache
// thrash; a demand-weighted schedule pins the hot connections with register
// shares and drains in fewer slots. Each (workload, planner case) pair is
// one sweep point.
func PlannerSweepExec(ex Exec, n int, wls []*traffic.Workload) ([]NamedResult, error) {
	cases := []struct {
		label string
		cfg   tdm.Config
	}{
		{"preload/static", tdm.Config{N: n, K: Fig4K, Mode: tdm.Preload}},
		{"preload/solstice", tdm.Config{N: n, K: Fig4K, Mode: tdm.Preload, Planner: plan.Solstice{}}},
		{"preload/bvn", tdm.Config{N: n, K: Fig4K, Mode: tdm.Preload, Planner: plan.BvN{}}},
		{"dynamic/reactive", tdm.Config{N: n, K: Fig4K,
			NewPredictor: func() predictor.Predictor { return predictor.NewTimeout(Fig4Timeout) }}},
	}
	return sweep(ex, len(wls)*len(cases), func(i int) (NamedResult, error) {
		wl, c := wls[i/len(cases)], cases[i%len(cases)]
		nw, err := tdm.New(c.cfg)
		if err != nil {
			return NamedResult{}, err
		}
		res, err := nw.Run(wl)
		if err != nil {
			return NamedResult{}, fmt.Errorf("experiments: %s on %s: %w", c.label, wl.Name, err)
		}
		return NamedResult{Label: fmt.Sprintf("%s: %s", wl.Name, c.label), Result: res}, nil
	})
}
