package experiments

import (
	"fmt"
	"math"

	"pmsnet/internal/core"
	"pmsnet/internal/fabric"
	"pmsnet/internal/meshnet"
	"pmsnet/internal/metrics"
	"pmsnet/internal/multistage"
	"pmsnet/internal/netmodel"
	"pmsnet/internal/predictor"
	"pmsnet/internal/sim"
	"pmsnet/internal/tdm"
	"pmsnet/internal/topology"
	"pmsnet/internal/traffic"
	"pmsnet/internal/voq"
)

// Extension studies: bandwidth amplification (core extension 2), predictive
// pre-establishment (§3.2's forward-prediction direction), the slot-payload
// (guard-band) fraction, multi-seed robustness, and multistage fabrics.

// AmplifyAblation compares dynamic TDM with and without bandwidth
// amplification on a hotspot workload whose hot stream outruns a single
// slot's share.
func AmplifyAblation(n int, wl *traffic.Workload) ([]NamedResult, error) {
	return AmplifyAblationExec(Serial, n, wl)
}

// AmplifyAblationExec is AmplifyAblation with an explicit executor.
func AmplifyAblationExec(ex Exec, n int, wl *traffic.Workload) ([]NamedResult, error) {
	var cases []tdmCase
	for _, amplify := range []int{0, 256} {
		label := "amplify=off"
		if amplify > 0 {
			label = fmt.Sprintf("amplify>%dB", amplify)
		}
		cases = append(cases, tdmCase{label: label, cfg: tdm.Config{N: n, K: Fig4K, AmplifyBytes: amplify,
			NewPredictor: func() predictor.Predictor { return predictor.NewTimeout(Fig4Timeout) }}})
	}
	return runTDMCases(ex, wl, cases)
}

// PrefetchAblation compares the plain timeout predictor against the Markov
// prefetching predictor on a workload with a learnable destination cycle
// and inter-send compute gaps.
func PrefetchAblation(n int, wl *traffic.Workload) ([]NamedResult, error) {
	return PrefetchAblationExec(Serial, n, wl)
}

// PrefetchAblationExec is PrefetchAblation with an explicit executor.
func PrefetchAblationExec(ex Exec, n int, wl *traffic.Workload) ([]NamedResult, error) {
	preds := []struct {
		label string
		pred  func() predictor.Predictor
	}{
		{"timeout(2us)", func() predictor.Predictor { return predictor.NewTimeout(2000) }},
		{"markov-prefetch(2us)", func() predictor.Predictor { return predictor.NewMarkov(2000, 1) }},
	}
	cases := make([]tdmCase, len(preds))
	for i, p := range preds {
		cases[i] = tdmCase{label: p.label, cfg: tdm.Config{N: n, K: Fig4K, NewPredictor: p.pred}}
	}
	return runTDMCases(ex, wl, cases)
}

// CyclicWorkload builds the prefetch ablation's traffic: every processor
// cycles deterministically over three distant destinations with `gap` of
// compute between sends — regular enough for a Markov predictor, too sparse
// for a timeout latch to survive a full cycle.
func CyclicWorkload(n, bytes, cycles int, gap sim.Time) *traffic.Workload {
	if n < 8 {
		panic(fmt.Sprintf("experiments: cyclic workload needs n >= 8, got %d", n))
	}
	w := &traffic.Workload{Name: fmt.Sprintf("cyclic/%dB", bytes), N: n, Programs: make([]traffic.Program, n)}
	phase := topology.NewWorkingSet(n)
	for p := 0; p < n; p++ {
		dsts := []int{(p + 1) % n, (p + n/2) % n, (p + n - 3) % n}
		var ops []traffic.Op
		for c := 0; c < cycles; c++ {
			for _, d := range dsts {
				if d == p {
					continue
				}
				ops = append(ops, traffic.Send(d, bytes), traffic.Delay(gap))
			}
		}
		for _, d := range dsts {
			if d != p {
				phase.Add(topology.Conn{Src: p, Dst: d})
			}
		}
		w.Programs[p] = traffic.Program{Ops: ops}
	}
	w.StaticPhases = []*topology.WorkingSet{phase}
	return w
}

// PayloadSweep varies the usable payload per 100 ns slot — the complement of
// the guard-band + framing fraction (DESIGN.md models 64 of 80 raw bytes).
// A larger guard band wastes line rate; the sweep quantifies the
// sensitivity.
func PayloadSweep(n int, payloads []int, wl *traffic.Workload) ([]NamedResult, error) {
	return PayloadSweepExec(Serial, n, payloads, wl)
}

// PayloadSweepExec is PayloadSweep with an explicit executor.
func PayloadSweepExec(ex Exec, n int, payloads []int, wl *traffic.Workload) ([]NamedResult, error) {
	cases := make([]tdmCase, len(payloads))
	for i, p := range payloads {
		cases[i] = tdmCase{label: fmt.Sprintf("payload=%dB", p),
			cfg: tdm.Config{N: n, K: Fig4K, Mode: tdm.Preload, PayloadBytes: p}}
	}
	return runTDMCases(ex, wl, cases)
}

// SeedStats summarizes a metric across seeds.
type SeedStats struct {
	Mean, StdDev, Min, Max float64
	Seeds                  int
}

// SeedSweep runs fn for every seed and aggregates the efficiencies —
// the robustness check that single-seed figures are representative.
func SeedSweep(seeds []int64, fn func(seed int64) (metrics.Result, error)) (SeedStats, error) {
	return SeedSweepExec(Serial, seeds, fn)
}

// SeedSweepExec is SeedSweep with an explicit executor: seeds run
// independently, and the aggregation consumes them in seed order, so the
// statistics are identical at any parallelism. fn must be safe for
// concurrent calls when the executor is parallel (the harness closures in
// this package all are: each call builds its own workload and network).
func SeedSweepExec(ex Exec, seeds []int64, fn func(seed int64) (metrics.Result, error)) (SeedStats, error) {
	if len(seeds) == 0 {
		return SeedStats{}, fmt.Errorf("experiments: no seeds")
	}
	values, err := sweep(ex, len(seeds), func(i int) (float64, error) {
		res, err := fn(seeds[i])
		if err != nil {
			return 0, fmt.Errorf("experiments: seed %d: %w", seeds[i], err)
		}
		return res.Efficiency, nil
	})
	if err != nil {
		return SeedStats{}, err
	}
	st := SeedStats{Seeds: len(values), Min: values[0], Max: values[0]}
	var sum float64
	for _, v := range values {
		sum += v
		if v < st.Min {
			st.Min = v
		}
		if v > st.Max {
			st.Max = v
		}
	}
	st.Mean = sum / float64(len(values))
	var sq float64
	for _, v := range values {
		sq += (v - st.Mean) * (v - st.Mean)
	}
	if len(values) > 1 {
		st.StdDev = math.Sqrt(sq / float64(len(values)-1))
	}
	return st, nil
}

// ModernBaseline compares the paper's switch against an iSLIP VOQ cell
// switch (the post-paper standard for crossbar routers) on one workload:
// wormhole, iSLIP, dynamic TDM (paper config) and preload TDM. This
// comparison goes beyond the paper's evaluation; see internal/voq.
func ModernBaseline(n int, wl *traffic.Workload) ([]NamedResult, error) {
	return ModernBaselineExec(Serial, n, wl)
}

// ModernBaselineExec is ModernBaseline with an explicit executor.
func ModernBaselineExec(ex Exec, n int, wl *traffic.Workload) ([]NamedResult, error) {
	fig4 := fig4Builders(n)
	// wormhole, islip, dynamic, preload (skip the circuit baseline: it is
	// dominated everywhere except very large messages).
	builders := []func() (netmodel.Network, error){
		fig4[0],
		func() (netmodel.Network, error) { return voq.New(voq.Config{N: n}) },
		fig4[2],
		fig4[3],
	}
	return sweep(ex, len(builders), func(i int) (NamedResult, error) {
		nw, err := builders[i]()
		if err != nil {
			return NamedResult{}, err
		}
		res, err := nw.Run(wl)
		if err != nil {
			return NamedResult{}, fmt.Errorf("experiments: %s: %w", nw.Name(), err)
		}
		return NamedResult{Label: nw.Name(), Result: res}, nil
	})
}

// OmegaFabricStudy runs dynamic TDM on the crossbar and on the blocking
// Omega fabric over each workload. Structured permutations separate the
// fabrics: a uniform shift routes through the Omega in one pass, while bit
// reversal conflicts heavily and must spread across TDM slots — the
// crossbar treats both identically. n must be a power of two.
func OmegaFabricStudy(n int, wls []*traffic.Workload) ([]NamedResult, error) {
	return OmegaFabricStudyExec(Serial, n, wls)
}

// OmegaFabricStudyExec is OmegaFabricStudy with an explicit executor; each
// (workload, fabric) pair is one sweep point.
func OmegaFabricStudyExec(ex Exec, n int, wls []*traffic.Workload) ([]NamedResult, error) {
	fabrics := []fabric.Kind{fabric.KindCrossbar, fabric.KindOmega}
	return sweep(ex, len(wls)*len(fabrics), func(i int) (NamedResult, error) {
		wl, fab := wls[i/len(fabrics)], fabrics[i%len(fabrics)]
		nw, err := tdm.New(tdm.Config{N: n, K: Fig4K, Fabric: fab})
		if err != nil {
			return NamedResult{}, err
		}
		res, err := nw.Run(wl)
		if err != nil {
			return NamedResult{}, fmt.Errorf("experiments: %s on %s: %w", fab, wl.Name, err)
		}
		return NamedResult{
			Label:  fmt.Sprintf("%s on %s", wl.Name, fab),
			Result: res,
		}, nil
	})
}

// FabricBackendSweep runs dynamic TDM end-to-end on every fabric backend —
// crossbar, Omega, Clos, and Benes — over the paper's four Figure 4 traffic
// patterns. The rearrangeable fabrics (crossbar, Clos, Benes) realize every
// scheduler configuration and so report identical figures; the blocking
// Omega pays extra TDM slots whenever a pass conflicts in its single-path
// routing.
func FabricBackendSweep(n, bytes int, seed int64) ([]NamedResult, error) {
	return FabricBackendSweepExec(Serial, n, bytes, seed)
}

// FabricBackendSweepExec is FabricBackendSweep with an explicit executor;
// each (pattern, fabric) pair is one sweep point.
func FabricBackendSweepExec(ex Exec, n, bytes int, seed int64) ([]NamedResult, error) {
	panels := Panels()
	fabrics := []fabric.Kind{fabric.KindCrossbar, fabric.KindOmega, fabric.KindClos, fabric.KindBenes}
	return sweep(ex, len(panels)*len(fabrics), func(i int) (NamedResult, error) {
		p, fab := panels[i/len(fabrics)], fabrics[i%len(fabrics)]
		wl, err := p.Workload(n, bytes, seed)
		if err != nil {
			return NamedResult{}, err
		}
		nw, err := tdm.New(tdm.Config{N: n, K: Fig4K, Fabric: fab})
		if err != nil {
			return NamedResult{}, err
		}
		res, err := nw.Run(wl)
		if err != nil {
			return NamedResult{}, fmt.Errorf("experiments: %s on %s: %w", p, fab, err)
		}
		return NamedResult{
			Label:  fmt.Sprintf("%s on %s", p, fab),
			Result: res,
		}, nil
	})
}

// SchedulerSweep runs dynamic TDM under every matching algorithm — the
// paper's Tables 1–2 scheduler, iSLIP, and wavefront — over the paper's
// four Figure 4 traffic patterns. All three produce maximal matchings, so
// efficiency figures land close together; the interesting deltas are in the
// scheduler counters (establishments vs evictions) where the rotation
// disciplines differ.
func SchedulerSweep(n, bytes int, seed int64) ([]NamedResult, error) {
	return SchedulerSweepExec(Serial, n, bytes, seed)
}

// SchedulerSweepExec is SchedulerSweep with an explicit executor; each
// (pattern, algorithm) pair is one sweep point.
func SchedulerSweepExec(ex Exec, n, bytes int, seed int64) ([]NamedResult, error) {
	panels := Panels()
	algs := []core.Algorithm{core.AlgPaper, core.AlgISLIP, core.AlgWavefront}
	return sweep(ex, len(panels)*len(algs), func(i int) (NamedResult, error) {
		p, alg := panels[i/len(algs)], algs[i%len(algs)]
		wl, err := p.Workload(n, bytes, seed)
		if err != nil {
			return NamedResult{}, err
		}
		nw, err := tdm.New(tdm.Config{N: n, K: Fig4K, Algorithm: alg})
		if err != nil {
			return NamedResult{}, err
		}
		res, err := nw.Run(wl)
		if err != nil {
			return NamedResult{}, fmt.Errorf("experiments: %s with %s: %w", p, alg, err)
		}
		return NamedResult{
			Label:  fmt.Sprintf("%s with %s", p, alg),
			Result: res,
		}, nil
	})
}

// SparsePermutation builds a light-load permutation workload: every
// processor sends `msgs` messages to its fixed permutation partner with
// `gap` of compute between sends. Light load isolates the per-hop latency
// difference between multi-hop paradigms from congestion effects.
func SparsePermutation(base *traffic.Workload, gap sim.Time) *traffic.Workload {
	out := &traffic.Workload{
		Name:         base.Name + "/sparse",
		N:            base.N,
		Programs:     make([]traffic.Program, base.N),
		StaticPhases: base.StaticPhases,
	}
	for p, prog := range base.Programs {
		var ops []traffic.Op
		for _, op := range prog.Ops {
			if op.Kind == traffic.OpSend || op.Kind == traffic.OpSendWait {
				ops = append(ops, traffic.Delay(gap), op)
			}
		}
		out.Programs[p] = traffic.Program{Ops: ops}
	}
	return out
}

// MultiHopStudy tests the paper's concluding claim that the
// connection-oriented approach is "amplified when multi-hop networks are
// considered since it avoids buffering at intermediate switches": it runs
// the multi-hop wormhole mesh and the multi-hop TDM-circuit mesh
// (internal/meshnet) on each workload. Long-path traffic (e.g. Transpose)
// maximizes the per-hop cost difference; run both a saturated workload (the
// throughput view, where whole-path slot reservation costs the TDM mesh
// capacity) and a SparsePermutation variant (the latency view, where the
// end-to-end analog pipe pays ~20 ns per extra hop against wormhole's
// ~100 ns of per-hop serdes + arbitration).
func MultiHopStudy(n int, wls []*traffic.Workload) ([]NamedResult, error) {
	return MultiHopStudyExec(Serial, n, wls)
}

// MultiHopStudyExec is MultiHopStudy with an explicit executor; each
// (workload, mesh paradigm) pair is one sweep point building its own mesh.
func MultiHopStudyExec(ex Exec, n int, wls []*traffic.Workload) ([]NamedResult, error) {
	builders := []func() (netmodel.Network, error){
		func() (netmodel.Network, error) { return meshnet.NewWormhole(meshnet.WormholeConfig{N: n}) },
		func() (netmodel.Network, error) { return meshnet.NewTDM(meshnet.TDMConfig{N: n, K: Fig4K}) },
	}
	return sweep(ex, len(wls)*len(builders), func(i int) (NamedResult, error) {
		wl := wls[i/len(builders)]
		nw, err := builders[i%len(builders)]()
		if err != nil {
			return NamedResult{}, err
		}
		res, err := nw.Run(wl)
		if err != nil {
			return NamedResult{}, fmt.Errorf("experiments: %s on %s: %w", nw.Name(), wl.Name, err)
		}
		return NamedResult{Label: fmt.Sprintf("%s on %s", wl.Name, nw.Name()), Result: res}, nil
	})
}

// FabricRow compares fabric families on one working set: the slots a
// crossbar needs (the degree-optimal decomposition), the slots an Omega
// network needs under its blocking constraints, and the Benes network's
// stage cost for the same capability as the crossbar.
type FabricRow struct {
	Workload      string
	Degree        int
	CrossbarSlots int
	OmegaSlots    int
	OmegaStages   int
	BenesStages   int
}

// FabricComparison quantifies paper §4's remark that "more complicated
// constraints may be derived for fabrics that have limited permutation
// capabilities": the extra multiplexing degree an Omega fabric pays, versus
// the extra stages a non-blocking Benes fabric pays. n must be a power of
// two.
func FabricComparison(n int, wls []*traffic.Workload) ([]FabricRow, error) {
	return FabricComparisonExec(Serial, n, wls)
}

// FabricComparisonExec is FabricComparison with an explicit executor; each
// workload's decompositions are one sweep point (pure computation, but the
// exact edge coloring is expensive enough on dense working sets to be worth
// fanning out).
func FabricComparisonExec(ex Exec, n int, wls []*traffic.Workload) ([]FabricRow, error) {
	return sweep(ex, len(wls), func(i int) (FabricRow, error) {
		wl := wls[i]
		omega, err := multistage.NewOmega(n)
		if err != nil {
			return FabricRow{}, err
		}
		benes, err := multistage.NewBenes(n)
		if err != nil {
			return FabricRow{}, err
		}
		ws := wl.ConnSet()
		oc, err := multistage.DecomposeOmega(ws, omega)
		if err != nil {
			return FabricRow{}, err
		}
		return FabricRow{
			Workload:      wl.Name,
			Degree:        ws.Degree(),
			CrossbarSlots: len(topology.Decompose(ws)),
			OmegaSlots:    len(oc),
			OmegaStages:   omega.Stages(),
			BenesStages:   benes.Stages(),
		}, nil
	})
}

// FabricTable renders fabric-comparison rows.
func FabricTable(rows []FabricRow) *metrics.Table {
	t := metrics.NewTable("Fabric comparison: TDM slots needed per working set",
		"workload", "degree", "crossbar slots", "omega slots", "omega stages", "benes stages")
	for _, r := range rows {
		t.AddRowf(r.Workload, r.Degree, r.CrossbarSlots, r.OmegaSlots, r.OmegaStages, r.BenesStages)
	}
	return t
}
