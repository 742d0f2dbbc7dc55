package experiments

import (
	"fmt"

	"pmsnet/internal/metrics"
	"pmsnet/internal/predictor"
	"pmsnet/internal/sim"
	"pmsnet/internal/tdm"
	"pmsnet/internal/topology"
	"pmsnet/internal/traffic"
)

// Ablation studies for the design choices the paper motivates but does not
// quantify: the eviction predictor (§3.2), the multiplexing degree (§2),
// priority rotation and empty-slot skipping (§4), multiple SL copies
// (extension 1), and the preload decomposer (exact vs greedy coloring).

// NamedResult pairs a configuration label with its run result.
type NamedResult struct {
	Label  string
	Result metrics.Result
}

// tdmCase is one point of a TDM-configuration ablation: a label and the
// configuration it stands for.
type tdmCase struct {
	label string
	cfg   tdm.Config
}

// runTDMCases runs one workload through each configuration, fanning the
// points out through the executor — the shared backbone of the ablation
// sweeps. Each point constructs its own network from the (read-only) case
// config, so points share nothing but the workload, which runs never
// mutate.
func runTDMCases(ex Exec, wl *traffic.Workload, cases []tdmCase) ([]NamedResult, error) {
	return sweep(ex, len(cases), func(i int) (NamedResult, error) {
		c := cases[i]
		nw, err := tdm.New(c.cfg)
		if err != nil {
			return NamedResult{}, err
		}
		res, err := nw.Run(wl)
		if err != nil {
			return NamedResult{}, fmt.Errorf("experiments: %s on %s: %w", c.label, wl.Name, err)
		}
		return NamedResult{Label: c.label, Result: res}, nil
	})
}

// PredictorAblation runs dynamic TDM over one workload under each eviction
// policy: pure reactive release (no latching), the paper's timeout, the
// counter predictor, never-evict, and the clairvoyant oracle.
func PredictorAblation(n int, wl *traffic.Workload) ([]NamedResult, error) {
	return PredictorAblationExec(Serial, n, wl)
}

// PredictorAblationExec is PredictorAblation with an explicit executor.
func PredictorAblationExec(ex Exec, n int, wl *traffic.Workload) ([]NamedResult, error) {
	uses := connUses(wl)
	preds := []struct {
		label string
		pred  func() predictor.Predictor
	}{
		{"reactive (release on empty)", nil},
		{"timeout(500ns)", func() predictor.Predictor { return predictor.NewTimeout(500) }},
		{"timeout(2us)", func() predictor.Predictor { return predictor.NewTimeout(2 * sim.Microsecond) }},
		{"counter(8)", func() predictor.Predictor { return predictor.NewCounter(8) }},
		{"oracle", func() predictor.Predictor { return predictor.NewOracle(uses) }},
	}
	cases := make([]tdmCase, len(preds))
	for i, p := range preds {
		cases[i] = tdmCase{label: p.label, cfg: tdm.Config{N: n, K: Fig4K, NewPredictor: p.pred}}
	}
	return runTDMCases(ex, wl, cases)
}

// connUses counts messages per connection — the oracle's plan.
func connUses(wl *traffic.Workload) map[topology.Conn]int {
	uses := make(map[topology.Conn]int)
	for p, prog := range wl.Programs {
		for _, op := range prog.Ops {
			if op.Kind == traffic.OpSend || op.Kind == traffic.OpSendWait {
				uses[topology.Conn{Src: p, Dst: op.Dst}]++
			}
		}
	}
	return uses
}

// DegreeSweep runs dynamic TDM with multiplexing degrees ks over one
// workload, using the paper's timeout-predictor configuration. K=1 is the
// circuit-switching degenerate case of the framework (§3: "circuit switching
// amounts to TDM with a multiplexing degree of one"): with only one
// configuration register, a working set larger than one connection per port
// thrashes, which is exactly the caching argument for multiplexing. Note the
// trade-off the paper states in §2 — each connection gets 1/k of the link
// bandwidth — so K far above the working-set degree wastes bandwidth too.
func DegreeSweep(n int, ks []int, wl *traffic.Workload) ([]NamedResult, error) {
	return DegreeSweepExec(Serial, n, ks, wl)
}

// DegreeSweepExec is DegreeSweep with an explicit executor.
func DegreeSweepExec(ex Exec, n int, ks []int, wl *traffic.Workload) ([]NamedResult, error) {
	cases := make([]tdmCase, len(ks))
	for i, k := range ks {
		cases[i] = tdmCase{label: fmt.Sprintf("K=%d", k), cfg: tdm.Config{N: n, K: k,
			NewPredictor: func() predictor.Predictor { return predictor.NewTimeout(Fig4Timeout) }}}
	}
	return runTDMCases(ex, wl, cases)
}

// RotationAblation compares rotating vs fixed scheduling priority on a
// hotspot workload where low-numbered ports would otherwise starve
// high-numbered ones. It reports per-configuration results; the interesting
// output is the p95 latency spread.
func RotationAblation(n int, wl *traffic.Workload) ([]NamedResult, error) {
	return RotationAblationExec(Serial, n, wl)
}

// RotationAblationExec is RotationAblation with an explicit executor.
func RotationAblationExec(ex Exec, n int, wl *traffic.Workload) ([]NamedResult, error) {
	var cases []tdmCase
	for _, rot := range []bool{false, true} {
		rot := rot
		cases = append(cases, tdmCase{label: fmt.Sprintf("rotate=%v", rot),
			cfg: tdm.Config{N: n, K: Fig4K, RotatePriority: &rot}})
	}
	return runTDMCases(ex, wl, cases)
}

// SkipEmptyAblation compares the TDM counter with and without empty-slot
// skipping on a workload whose active working set is far smaller than K —
// the feature's motivating case (§4: the counter "skips over empty
// configurations and allows the scheduler to reduce the multiplexing
// degrees").
func SkipEmptyAblation(n, k int, wl *traffic.Workload) ([]NamedResult, error) {
	return SkipEmptyAblationExec(Serial, n, k, wl)
}

// SkipEmptyAblationExec is SkipEmptyAblation with an explicit executor.
func SkipEmptyAblationExec(ex Exec, n, k int, wl *traffic.Workload) ([]NamedResult, error) {
	var cases []tdmCase
	for _, skip := range []bool{false, true} {
		skip := skip
		cases = append(cases, tdmCase{label: fmt.Sprintf("skip-empty=%v", skip),
			cfg: tdm.Config{N: n, K: k, SkipEmptySlots: &skip}})
	}
	return runTDMCases(ex, wl, cases)
}

// SLCopiesSweep measures extension 1 (multiple scheduling-logic units) on a
// scheduler-bound workload.
func SLCopiesSweep(n int, copies []int, wl *traffic.Workload) ([]NamedResult, error) {
	return SLCopiesSweepExec(Serial, n, copies, wl)
}

// SLCopiesSweepExec is SLCopiesSweep with an explicit executor.
func SLCopiesSweepExec(ex Exec, n int, copies []int, wl *traffic.Workload) ([]NamedResult, error) {
	cases := make([]tdmCase, len(copies))
	for i, c := range copies {
		cases[i] = tdmCase{label: fmt.Sprintf("sl-copies=%d", c), cfg: tdm.Config{N: n, K: Fig4K, SLCopies: c}}
	}
	return runTDMCases(ex, wl, cases)
}

// DecomposerRow compares the exact edge-coloring decomposer against the
// greedy first-fit decomposer on one working set.
type DecomposerRow struct {
	Workload      string
	Degree        int
	ExactConfigs  int
	GreedyConfigs int
}

// DecomposerComparison decomposes each workload's union working set both
// ways. The exact decomposer always achieves the degree lower bound; the
// greedy one may exceed it, which translates into more preload groups.
func DecomposerComparison(wls []*traffic.Workload) []DecomposerRow {
	var out []DecomposerRow
	for _, wl := range wls {
		ws := wl.ConnSet()
		out = append(out, DecomposerRow{
			Workload:      wl.Name,
			Degree:        ws.Degree(),
			ExactConfigs:  len(topology.Decompose(ws)),
			GreedyConfigs: len(topology.GreedyDecompose(ws)),
		})
	}
	return out
}

// AblationTable renders named results with efficiency, latency and hit-rate
// columns.
func AblationTable(title string, rows []NamedResult) *metrics.Table {
	t := metrics.NewTable(title, "config", "efficiency", "makespan", "p95 latency", "hit rate", "fairness", "evictions")
	for _, r := range rows {
		t.AddRowf(r.Label, r.Result.Efficiency, r.Result.Makespan.String(),
			r.Result.LatencyP95.String(), r.Result.Stats.HitRate(), r.Result.FairnessJain,
			r.Result.Stats.Evictions)
	}
	return t
}
