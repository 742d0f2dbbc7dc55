package experiments

import (
	"fmt"

	"pmsnet/internal/circuit"
	"pmsnet/internal/fault"
	"pmsnet/internal/metrics"
	"pmsnet/internal/netmodel"
	"pmsnet/internal/predictor"
	"pmsnet/internal/sim"
	"pmsnet/internal/tdm"
	"pmsnet/internal/traffic"
	"pmsnet/internal/wormhole"
)

// FaultLevel is one point of the robustness sweep: a label and the fault
// plan it stands for.
type FaultLevel struct {
	Label string
	Plan  *fault.Plan
}

// FaultLevels is the default robustness sweep: no faults, rare and frequent
// payload corruption, transient link churn, and a combined stress level. The
// plans use only stochastic fault classes so the same level applies to any
// workload length.
func FaultLevels() []FaultLevel {
	return []FaultLevel{
		{"none", nil},
		{"corrupt 0.1%", &fault.Plan{Seed: 1, CorruptProb: 0.001}},
		{"corrupt 1%", &fault.Plan{Seed: 1, CorruptProb: 0.01}},
		{"link churn", &fault.Plan{Seed: 1, LinkMTBF: 200 * sim.Microsecond, LinkMTTR: 2 * sim.Microsecond}},
		{"ctrl loss 1%", &fault.Plan{Seed: 1, RequestLossProb: 0.01, GrantLossProb: 0.01}},
		{"combined", &fault.Plan{
			Seed:            1,
			CorruptProb:     0.005,
			RequestLossProb: 0.005,
			GrantLossProb:   0.005,
			LinkMTBF:        500 * sim.Microsecond,
			LinkMTTR:        2 * sim.Microsecond,
		}},
	}
}

// faultBuilders returns one constructor per paradigm of the robustness
// sweep (the paper's four Figure-4 paradigms) with the given fault plan
// attached. The plan is read-only configuration — each Run realizes it
// through its own seeded injector — so concurrently running points may
// share it.
func faultBuilders(n int, plan *fault.Plan) []func() (netmodel.Network, error) {
	return []func() (netmodel.Network, error){
		func() (netmodel.Network, error) { return wormhole.New(wormhole.Config{N: n, Faults: plan}) },
		func() (netmodel.Network, error) { return circuit.New(circuit.Config{N: n, Faults: plan}) },
		func() (netmodel.Network, error) {
			return tdm.New(tdm.Config{
				N: n, K: Fig4K, Faults: plan,
				NewPredictor: func() predictor.Predictor { return predictor.NewTimeout(Fig4Timeout) },
			})
		},
		func() (netmodel.Network, error) {
			return tdm.New(tdm.Config{N: n, K: Fig4K, Mode: tdm.Preload, Faults: plan})
		},
	}
}

// FaultRow holds one sweep point: each network's result under one fault
// level, in faultNetworks order (wormhole, circuit, dynamic TDM, preload
// TDM).
type FaultRow struct {
	Level   FaultLevel
	Results []metrics.Result
}

// FaultSweep runs the workload through every network at every fault level.
// It verifies the exact message-accounting invariant on every run: each
// injected message must end up delivered or explicitly dropped. It is the
// serial reference for FaultSweepExec.
func FaultSweep(n int, wl *traffic.Workload, levels []FaultLevel) ([]FaultRow, error) {
	return FaultSweepExec(Serial, n, wl, levels)
}

// FaultSweepExec runs the robustness sweep with the points — one (fault
// level, network) pair each — fanned out through the executor.
func FaultSweepExec(ex Exec, n int, wl *traffic.Workload, levels []FaultLevel) ([]FaultRow, error) {
	if len(levels) == 0 {
		levels = FaultLevels()
	}
	netCount := len(faultBuilders(n, nil))
	results, err := sweep(ex, len(levels)*netCount, func(i int) (metrics.Result, error) {
		lv, net := levels[i/netCount], i%netCount
		nw, err := faultBuilders(n, lv.Plan)[net]()
		if err != nil {
			return metrics.Result{}, err
		}
		res, err := nw.Run(wl)
		if err != nil {
			return metrics.Result{}, fmt.Errorf("experiments: %s on %s under %q: %w", nw.Name(), wl.Name, lv.Label, err)
		}
		if !res.Stats.Faults.Reconciles() {
			f := res.Stats.Faults
			return metrics.Result{}, fmt.Errorf("experiments: %s under %q: accounting broken: %d injected != %d delivered + %d dropped",
				nw.Name(), lv.Label, f.Injected, f.Delivered, f.Dropped)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	rows := make([]FaultRow, len(levels))
	for li, lv := range levels {
		rows[li] = FaultRow{Level: lv, Results: results[li*netCount : (li+1)*netCount]}
	}
	return rows, nil
}

// FaultTable renders the sweep as the text table cmd/figures prints:
// efficiency per network per fault level, plus the recovery work of the
// paper's switch (dynamic TDM retries/reschedules).
func FaultTable(rows []FaultRow) *metrics.Table {
	t := metrics.NewTable("Robustness: efficiency under injected faults",
		"faults", "wormhole", "circuit", "tdm-dynamic", "tdm-preload", "retries", "resched", "dropped")
	for _, row := range rows {
		cells := []string{row.Level.Label}
		var retries, resched, dropped uint64
		for _, res := range row.Results {
			cells = append(cells, fmt.Sprintf("%.3f", res.Efficiency))
			retries += res.Stats.Faults.Retries
			resched += res.Stats.Faults.Reschedules
			dropped += res.Stats.Faults.Dropped
		}
		cells = append(cells,
			fmt.Sprintf("%d", retries),
			fmt.Sprintf("%d", resched),
			fmt.Sprintf("%d", dropped))
		t.AddRow(cells...)
	}
	return t
}
