package pmsnet

// One benchmark per table and figure of the paper's evaluation, plus the
// ablation benches DESIGN.md calls out. Each figure bench runs its harness
// at the representative 64-byte point (the full 8..2048-byte sweeps are
// printed by cmd/figures) and reports the efficiency of every network as a
// benchmark metric; the rendered table is logged on the first iteration so
// `go test -bench . -v` shows the regenerated rows.

import (
	"strings"
	"sync"
	"testing"

	"pmsnet/internal/experiments"
	"pmsnet/internal/traffic"
)

const benchSize = 64

var logOnce sync.Map

func logTableOnce(b *testing.B, key, table string) {
	if _, loaded := logOnce.LoadOrStore(key, true); !loaded {
		b.Log("\n" + table)
	}
}

func benchFig4Panel(b *testing.B, panel experiments.Panel) {
	b.Helper()
	var rows []experiments.SizeRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Fig4PanelExec(experiments.Serial, panel, experiments.N, []int{benchSize}, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	logTableOnce(b, string(panel), experiments.Fig4Table(panel, rows).String())
	for _, res := range rows[0].Results {
		b.ReportMetric(res.Efficiency, res.Network+"-eff")
	}
}

// BenchmarkFig4Scatter regenerates Figure 4's Scatter panel.
func BenchmarkFig4Scatter(b *testing.B) { benchFig4Panel(b, experiments.Scatter) }

// BenchmarkFig4RandomMesh regenerates Figure 4's Random Mesh panel.
func BenchmarkFig4RandomMesh(b *testing.B) { benchFig4Panel(b, experiments.RandomMesh) }

// BenchmarkFig4OrderedMesh regenerates Figure 4's Ordered Mesh panel.
func BenchmarkFig4OrderedMesh(b *testing.B) { benchFig4Panel(b, experiments.OrderedMesh) }

// BenchmarkFig4TwoPhase regenerates Figure 4's Two Phase panel.
func BenchmarkFig4TwoPhase(b *testing.B) { benchFig4Panel(b, experiments.TwoPhase) }

// BenchmarkFig5Hybrid regenerates Figure 5 at its two pivotal determinism
// levels (50% and 85%).
func BenchmarkFig5Hybrid(b *testing.B) {
	var rows []experiments.Fig5Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Fig5Exec(experiments.Serial, experiments.N, []float64{0.5, 0.85}, 7)
		if err != nil {
			b.Fatal(err)
		}
	}
	logTableOnce(b, "fig5", experiments.Fig5Table(rows).String())
	for _, row := range rows {
		for _, res := range row.Results {
			b.ReportMetric(res.Efficiency, res.Network[len("tdm-hybrid/"):]+"-eff")
		}
	}
}

// BenchmarkTable3SchedulerLatency regenerates Table 3: the published FPGA
// figures, the simulated ASIC figures, and this model's software pass time.
func BenchmarkTable3SchedulerLatency(b *testing.B) {
	var rows []experiments.Table3Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Table3(200)
	}
	logTableOnce(b, "table3", experiments.Table3Table(rows).String())
	last := rows[len(rows)-1]
	b.ReportMetric(float64(last.FPGANs), "fpga-128-ns")
	b.ReportMetric(float64(last.ASICNs), "asic-128-ns")
	b.ReportMetric(last.SoftwareNs, "software-128-ns")
}

// --- ablation benches (design choices beyond the paper's figures) ---

func benchAblation(b *testing.B, key string, run func() ([]experiments.NamedResult, error)) {
	b.Helper()
	var rows []experiments.NamedResult
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = run()
		if err != nil {
			b.Fatal(err)
		}
	}
	logTableOnce(b, key, experiments.AblationTable(key, rows).String())
	for _, r := range rows {
		b.ReportMetric(r.Result.Efficiency, metricUnit(r.Label)+"-eff")
		if hr := r.Result.Stats.HitRate(); hr > 0 {
			b.ReportMetric(hr, metricUnit(r.Label)+"-hit")
		}
	}
}

// metricUnit turns a free-form label into a whitespace-free metric unit.
func metricUnit(label string) string {
	return strings.Map(func(r rune) rune {
		switch r {
		case ' ', '\t', '(', ')':
			return '-'
		default:
			return r
		}
	}, label)
}

// BenchmarkAblationPredictors compares eviction policies (§3.2) on the
// random-mesh workload.
func BenchmarkAblationPredictors(b *testing.B) {
	wl := traffic.RandomMesh(experiments.N, benchSize, experiments.MeshMsgs, 1)
	benchAblation(b, "predictor ablation (random mesh)", func() ([]experiments.NamedResult, error) {
		return experiments.PredictorAblationExec(experiments.Serial, experiments.N, wl)
	})
}

// BenchmarkAblationDegree sweeps the multiplexing degree K (§2's k-vs-
// bandwidth trade-off; K=1 is the circuit-switching degenerate case).
func BenchmarkAblationDegree(b *testing.B) {
	wl := traffic.RandomMesh(experiments.N, benchSize, experiments.MeshMsgs, 1)
	benchAblation(b, "multiplexing degree sweep (random mesh)", func() ([]experiments.NamedResult, error) {
		return experiments.DegreeSweepExec(experiments.Serial, experiments.N, []int{1, 2, 4, 8, 16}, wl)
	})
}

// BenchmarkAblationDegreeSparse sweeps K over sparse fully-deterministic
// traffic with a degree-2 working set: the K=2 optimum demonstrates §2's
// trade-off (K below the working set thrashes, K above it dilutes).
func BenchmarkAblationDegreeSparse(b *testing.B) {
	wl := traffic.Mix(experiments.N, benchSize, experiments.Fig5Msgs, 1.0, experiments.Fig5Think, 7)
	benchAblation(b, "multiplexing degree sweep (sparse deterministic)", func() ([]experiments.NamedResult, error) {
		return experiments.DegreeSweepExec(experiments.Serial, experiments.N, []int{1, 2, 3, 4, 8}, wl)
	})
}

// BenchmarkAblationRotation compares fixed vs rotating scheduling priority
// (§4's fairness rotation).
func BenchmarkAblationRotation(b *testing.B) {
	wl := traffic.RandomMesh(experiments.N, benchSize, experiments.MeshMsgs, 1)
	benchAblation(b, "priority rotation ablation", func() ([]experiments.NamedResult, error) {
		return experiments.RotationAblationExec(experiments.Serial, experiments.N, wl)
	})
}

// BenchmarkAblationSkipEmpty compares the TDM counter with and without
// empty-slot skipping on a sparse working set (K=8, degree-4 traffic).
func BenchmarkAblationSkipEmpty(b *testing.B) {
	wl := traffic.OrderedMesh(experiments.N, benchSize, experiments.MeshMsgs/4)
	benchAblation(b, "empty-slot skipping ablation (K=8)", func() ([]experiments.NamedResult, error) {
		return experiments.SkipEmptyAblationExec(experiments.Serial, experiments.N, 8, wl)
	})
}

// BenchmarkAblationSLCopies sweeps extension 1 (multiple scheduling-logic
// units) on the scheduler-bound all-to-all.
func BenchmarkAblationSLCopies(b *testing.B) {
	wl := traffic.AllToAll(experiments.N, benchSize)
	benchAblation(b, "SL copies sweep (all-to-all)", func() ([]experiments.NamedResult, error) {
		return experiments.SLCopiesSweepExec(experiments.Serial, experiments.N, []int{1, 2, 4}, wl)
	})
}

// BenchmarkAblationAmplify measures bandwidth amplification (core extension
// 2) on a hotspot workload.
func BenchmarkAblationAmplify(b *testing.B) {
	wl := traffic.Hotspot(experiments.N, benchSize, experiments.MeshMsgs, 2048, 50, 1)
	benchAblation(b, "bandwidth amplification (hotspot)", func() ([]experiments.NamedResult, error) {
		return experiments.AmplifyAblationExec(experiments.Serial, experiments.N, wl)
	})
}

// BenchmarkAblationPrefetch measures the Markov prefetching predictor on
// cyclic sparse traffic.
func BenchmarkAblationPrefetch(b *testing.B) {
	wl := experiments.CyclicWorkload(experiments.N, 8, 8, 1200)
	benchAblation(b, "markov prefetching (cyclic traffic)", func() ([]experiments.NamedResult, error) {
		return experiments.PrefetchAblationExec(experiments.Serial, experiments.N, wl)
	})
}

// BenchmarkAblationPayload sweeps the usable slot payload (the guard-band
// complement).
func BenchmarkAblationPayload(b *testing.B) {
	wl := traffic.OrderedMesh(experiments.N, benchSize, experiments.MeshMsgs/4)
	benchAblation(b, "slot payload sweep", func() ([]experiments.NamedResult, error) {
		return experiments.PayloadSweepExec(experiments.Serial, experiments.N, []int{32, 48, 64, 80}, wl)
	})
}

// BenchmarkModernBaseline compares the PMS switch against an iSLIP VOQ cell
// switch (beyond the paper's evaluation).
func BenchmarkModernBaseline(b *testing.B) {
	wl := traffic.RandomMesh(experiments.N, benchSize, experiments.MeshMsgs, 1)
	benchAblation(b, "iSLIP VOQ vs PMS (random mesh)", func() ([]experiments.NamedResult, error) {
		return experiments.ModernBaselineExec(experiments.Serial, experiments.N, wl)
	})
}

// BenchmarkOmegaFabric runs dynamic TDM on the crossbar and the blocking
// Omega fabric over structured permutations.
func BenchmarkOmegaFabric(b *testing.B) {
	wls := []*traffic.Workload{
		traffic.Shift(experiments.N, benchSize, experiments.MeshMsgs, 1),
		traffic.BitReverse(experiments.N, benchSize, experiments.MeshMsgs),
	}
	benchAblation(b, "omega fabric vs crossbar", func() ([]experiments.NamedResult, error) {
		return experiments.OmegaFabricStudyExec(experiments.Serial, experiments.N, wls)
	})
}

// BenchmarkMultiHopMesh runs the multi-hop wormhole and TDM-circuit meshes
// on long-path traffic (the paper's concluding claim).
func BenchmarkMultiHopMesh(b *testing.B) {
	wls := []*traffic.Workload{
		traffic.OrderedMesh(experiments.N, benchSize, experiments.MeshMsgs/4),
		traffic.Transpose(100, benchSize, experiments.MeshMsgs),
	}
	benchAblation(b, "multi-hop mesh: wormhole vs TDM circuits", func() ([]experiments.NamedResult, error) {
		// Each workload declares its own processor count (128 mesh, 100
		// transpose grid); MultiHopStudyExec builds the matching networks.
		var out []experiments.NamedResult
		for _, wl := range wls {
			rows, err := experiments.MultiHopStudyExec(experiments.Serial, wl.N, []*traffic.Workload{wl})
			if err != nil {
				return nil, err
			}
			out = append(out, rows...)
		}
		return out, nil
	})
}

// BenchmarkFabricComparison decomposes the evaluation working sets for
// crossbar vs Omega fabrics.
func BenchmarkFabricComparison(b *testing.B) {
	wls := []*traffic.Workload{
		traffic.OrderedMesh(experiments.N, benchSize, 1),
		traffic.AllToAll(experiments.N, benchSize),
	}
	var rows []experiments.FabricRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.FabricComparisonExec(experiments.Serial, experiments.N, wls)
		if err != nil {
			b.Fatal(err)
		}
	}
	logTableOnce(b, "fabric", experiments.FabricTable(rows).String())
	for _, r := range rows {
		b.ReportMetric(float64(r.CrossbarSlots), metricUnit(r.Workload)+"-crossbar-slots")
		b.ReportMetric(float64(r.OmegaSlots), metricUnit(r.Workload)+"-omega-slots")
	}
}

// BenchmarkAblationDecomposer compares the exact edge-coloring decomposer
// against greedy first-fit on the evaluation working sets.
func BenchmarkAblationDecomposer(b *testing.B) {
	wls := []*traffic.Workload{
		traffic.OrderedMesh(experiments.N, benchSize, 1),
		traffic.AllToAll(experiments.N, benchSize),
		traffic.Mix(experiments.N, benchSize, 10, 0.8, 0, 1),
	}
	var rows []experiments.DecomposerRow
	for i := 0; i < b.N; i++ {
		rows = experiments.DecomposerComparison(wls)
	}
	for _, r := range rows {
		b.ReportMetric(float64(r.ExactConfigs), r.Workload+"-exact")
		b.ReportMetric(float64(r.GreedyConfigs), r.Workload+"-greedy")
	}
}

// benchWorkloadFamily benchmarks one generator family end to end at the
// published scale: build the N=128 workload from its registry spec, then run
// it through dynamic TDM with the paper's time-out predictor. Construction
// is inside the timed loop on purpose — generator cost (RNG draws, phase
// annotation) is part of what these benches track across captures.
func benchWorkloadFamily(b *testing.B, spec string) {
	b.Helper()
	var res Report
	for i := 0; i < b.N; i++ {
		wl, err := GenerateWorkload(spec, experiments.N, 1)
		if err != nil {
			b.Fatal(err)
		}
		res, err = Run(Config{Switching: DynamicTDM, N: experiments.N}, wl)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Efficiency, "eff")
	b.ReportMetric(float64(res.Messages), "msgs")
}

// One benchmark per post-seed workload family (same specs as the figures'
// family sweep).
func BenchmarkWorkloadAllReduceRing(b *testing.B) { benchWorkloadFamily(b, "all-reduce:algo=ring") }
func BenchmarkWorkloadAllReduceTree(b *testing.B) { benchWorkloadFamily(b, "all-reduce:algo=tree") }
func BenchmarkWorkloadBroadcast(b *testing.B)     { benchWorkloadFamily(b, "broadcast:msgs=8") }
func BenchmarkWorkloadGather(b *testing.B)        { benchWorkloadFamily(b, "gather:msgs=8") }
func BenchmarkWorkloadPhased(b *testing.B)        { benchWorkloadFamily(b, "phased") }
func BenchmarkWorkloadTiles(b *testing.B)         { benchWorkloadFamily(b, "tiles") }
func BenchmarkWorkloadBursty(b *testing.B)        { benchWorkloadFamily(b, "bursty") }
func BenchmarkWorkloadPermChurn(b *testing.B)     { benchWorkloadFamily(b, "perm-churn") }
func BenchmarkWorkloadIncast(b *testing.B)        { benchWorkloadFamily(b, "incast") }
