// Command figures regenerates the paper's evaluation artifacts as text
// tables: the four panels of Figure 4 (link efficiency vs message size for
// wormhole, circuit switching, dynamic TDM and preload TDM), Figure 5
// (preload/dynamic slot splits vs traffic determinism), Table 3 (scheduler
// latency vs system size), and the ablation studies.
//
// Usage:
//
//	figures            # everything
//	figures -fig4      # only Figure 4 (all four panels)
//	figures -fig5      # only Figure 5
//	figures -table3    # only Table 3
//	figures -ablations # only the ablations
//	figures -faults    # only the fault-injection robustness sweep
//	figures -workloads # only the workload-family studies (ROADMAP item 4)
//	figures -quick     # reduced size sweep for a fast look
//	figures -j 8       # run up to 8 simulations in parallel
//	figures -timeline -net tdm-dynamic   # slot-utilization/backlog timeline
//
// Parallel runs (-j, default GOMAXPROCS; -j 1 forces serial) produce
// byte-identical tables: every simulation is a pure function of its inputs
// and the sweep harness collects results by point index. -progress writes
// per-point completion lines (with wall times) to stderr, leaving stdout as
// table output only. -cpuprofile FILE writes a runtime/pprof CPU profile of
// the whole command; read it with `go tool pprof FILE`.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"time"

	"pmsnet"
	"pmsnet/internal/experiments"
	"pmsnet/internal/runner"
	"pmsnet/internal/traffic"
)

func main() {
	var (
		fig4      = flag.Bool("fig4", false, "regenerate Figure 4")
		fig5      = flag.Bool("fig5", false, "regenerate Figure 5")
		table3    = flag.Bool("table3", false, "regenerate Table 3")
		ablations = flag.Bool("ablations", false, "run the ablation studies")
		faults    = flag.Bool("faults", false, "run the fault-injection robustness sweep")
		workloads = flag.Bool("workloads", false, "run the workload-family studies (collectives, phased)")
		quick     = flag.Bool("quick", false, "reduced sweeps for a fast look")
		csvDir    = flag.String("csv", "", "also write figure data as CSV files into this directory")
		seed      = flag.Int64("seed", 1, "workload random seed")
		jobs      = flag.Int("j", 0, "parallel simulation runs (0 = GOMAXPROCS, 1 = serial)")
		progress  = flag.Bool("progress", false, "report per-point completion and wall time on stderr")
		timeline  = flag.Bool("timeline", false, "print a slot-utilization/queue-depth timeline of one run (probed)")
		netName   = flag.String("net", "tdm-dynamic", "network for -timeline (see pmsim -net)")
		interval  = flag.Duration("interval", time.Microsecond, "bucket width for -timeline")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the command to this file")
	)
	flag.Parse()
	if *cpuProf != "" {
		if err := startCPUProfile(*cpuProf); err != nil {
			fatal(err)
		}
		defer func() {
			if err := stopProfile(); err != nil {
				fatal(fmt.Errorf("writing CPU profile: %w", err))
			}
		}()
	}

	if *timeline {
		if err := runTimeline(*netName, *interval, *seed); err != nil {
			fatal(err)
		}
		return
	}
	all := !*fig4 && !*fig5 && !*table3 && !*ablations && !*faults && !*workloads

	ex := experiments.Exec{Parallelism: *jobs}
	if *progress {
		ex.OnPoint = func(p runner.Point) {
			fmt.Fprintf(os.Stderr, "point %d done in %v\n", p.Index, p.Wall)
		}
	}

	if all || *table3 {
		rows := experiments.Table3(0)
		fmt.Println(experiments.Table3Table(rows))
		if *csvDir != "" {
			writeCSV(*csvDir, "table3.csv", func(f *os.File) error {
				return experiments.Table3CSV(f, rows)
			})
		}
	}
	if all || *fig4 {
		sizes := experiments.Fig4Sizes()
		if *quick {
			sizes = []int{8, 64, 512}
		}
		for _, panel := range experiments.Panels() {
			rows, err := experiments.Fig4PanelExec(ex, panel, experiments.N, sizes, *seed)
			if err != nil {
				fatal(err)
			}
			fmt.Println(experiments.Fig4Table(panel, rows))
			if *csvDir != "" {
				writeCSV(*csvDir, fmt.Sprintf("fig4_%s.csv", panel), func(f *os.File) error {
					return experiments.Fig4CSV(f, rows)
				})
			}
		}
	}
	if all || *fig5 {
		dets := experiments.Fig5Determinism()
		if *quick {
			dets = []float64{0.5, 0.85, 1.0}
		}
		rows, err := experiments.Fig5Exec(ex, experiments.N, dets, 7)
		if err != nil {
			fatal(err)
		}
		fmt.Println(experiments.Fig5Table(rows))
		if *csvDir != "" {
			writeCSV(*csvDir, "fig5.csv", func(f *os.File) error {
				return experiments.Fig5CSV(f, rows)
			})
		}
	}
	if all || *ablations {
		runAblations(ex, *seed)
	}
	if all || *faults {
		n := experiments.N
		levels := experiments.FaultLevels()
		if *quick {
			levels = levels[:3]
		}
		rows, err := experiments.FaultSweepExec(ex, n, traffic.MustGenerate("random-mesh", n, *seed), levels)
		if err != nil {
			fatal(err)
		}
		fmt.Println(experiments.FaultTable(rows))
	}
	if all || *workloads {
		runWorkloadStudies(ex, *seed)
	}
}

// runWorkloadStudies prints the ROADMAP item-4 workload-family studies: the
// per-family regime sweep and the phased-program planner demonstration.
func runWorkloadStudies(ex experiments.Exec, seed int64) {
	n := experiments.N

	fam, err := experiments.FamilySweepExec(ex, n, seed)
	if err != nil {
		fatal(err)
	}
	fmt.Println(experiments.AblationTable("Workload families: reactive dynamic TDM vs Solstice-planned hybrid", fam))

	st, err := experiments.PhasedPlannerStudyExec(ex, n, "phased", seed)
	if err != nil {
		fatal(err)
	}
	fmt.Println(experiments.PhasedStudyTable(st))
}

// Ablation workloads are built through the generator registry (the same
// vocabulary as pmsim -pattern); family defaults match the published
// configuration, so only deviations appear in the specs.
func runAblations(ex experiments.Exec, seed int64) {
	n := experiments.N
	mesh := traffic.MustGenerate("random-mesh", n, seed)

	pred, err := experiments.PredictorAblationExec(ex, n, mesh)
	if err != nil {
		fatal(err)
	}
	fmt.Println(experiments.AblationTable("Ablation: eviction predictors (random mesh, 64B)", pred))

	deg, err := experiments.DegreeSweepExec(ex, n, []int{1, 2, 4, 8, 16}, mesh)
	if err != nil {
		fatal(err)
	}
	fmt.Println(experiments.AblationTable("Ablation: multiplexing degree K (random mesh, 64B)", deg))

	degSparse, err := experiments.DegreeSweepExec(ex, n, []int{1, 2, 3, 4, 8},
		traffic.MustGenerate("mix:msgs=40,determinism=1", n, 7))
	if err != nil {
		fatal(err)
	}
	fmt.Println(experiments.AblationTable("Ablation: multiplexing degree K (sparse deterministic, degree-2 working set)", degSparse))

	rot, err := experiments.RotationAblationExec(ex, n, mesh)
	if err != nil {
		fatal(err)
	}
	fmt.Println(experiments.AblationTable("Ablation: priority rotation (random mesh, 64B)", rot))

	skip, err := experiments.SkipEmptyAblationExec(ex, n, 8, traffic.MustGenerate("ordered-mesh", n, seed))
	if err != nil {
		fatal(err)
	}
	fmt.Println(experiments.AblationTable("Ablation: TDM-counter empty-slot skipping (ordered mesh, K=8)", skip))

	sl, err := experiments.SLCopiesSweepExec(ex, n, []int{1, 2, 4}, traffic.MustGenerate("all-to-all", n, seed))
	if err != nil {
		fatal(err)
	}
	fmt.Println(experiments.AblationTable("Ablation: scheduling-logic copies (all-to-all, 64B)", sl))

	dec := experiments.DecomposerComparison([]*traffic.Workload{
		traffic.MustGenerate("ordered-mesh:rounds=1", n, seed),
		traffic.MustGenerate("all-to-all", n, seed),
		traffic.MustGenerate("mix:msgs=10,determinism=0.8,think=0s", n, seed),
	})
	fmt.Println("== Ablation: preload decomposer (exact edge coloring vs greedy first-fit) ==")
	fmt.Printf("%-22s %-8s %-14s %-14s\n", "workload", "degree", "exact configs", "greedy configs")
	for _, d := range dec {
		fmt.Printf("%-22s %-8d %-14d %-14d\n", d.Workload, d.Degree, d.ExactConfigs, d.GreedyConfigs)
	}
	fmt.Println()

	amp, err := experiments.AmplifyAblationExec(ex, n, traffic.MustGenerate("hotspot", n, seed))
	if err != nil {
		fatal(err)
	}
	fmt.Println(experiments.AblationTable("Extension 2: bandwidth amplification (hotspot)", amp))

	pre, err := experiments.PrefetchAblationExec(ex, n, experiments.CyclicWorkload(n, 8, 8, 1200))
	if err != nil {
		fatal(err)
	}
	fmt.Println(experiments.AblationTable("Prefetching predictor (cyclic traffic, 1.2us gaps)", pre))

	pay, err := experiments.PayloadSweepExec(ex, n, []int{32, 48, 64, 72, 80}, traffic.MustGenerate("ordered-mesh", n, seed))
	if err != nil {
		fatal(err)
	}
	fmt.Println(experiments.AblationTable("Slot payload (guard-band complement) sweep", pay))

	fab, err := experiments.FabricComparisonExec(ex, n, []*traffic.Workload{
		traffic.MustGenerate("ordered-mesh:rounds=1", n, seed),
		traffic.MustGenerate("all-to-all", n, seed),
		traffic.MustGenerate("random-mesh:msgs=10", n, seed),
	})
	if err != nil {
		fatal(err)
	}
	fmt.Println(experiments.FabricTable(fab))

	omega, err := experiments.OmegaFabricStudyExec(ex, n, []*traffic.Workload{
		traffic.MustGenerate("shift", n, seed),
		traffic.MustGenerate("bit-reverse", n, seed),
	})
	if err != nil {
		fatal(err)
	}
	fmt.Println(experiments.AblationTable("Omega fabric vs crossbar (structured permutations)", omega))

	backends, err := experiments.FabricBackendSweepExec(ex, n, 64, seed)
	if err != nil {
		fatal(err)
	}
	fmt.Println(experiments.AblationTable("Fabric backends under dynamic TDM (paper patterns)", backends))

	scheds, err := experiments.SchedulerSweepExec(ex, n, 64, seed)
	if err != nil {
		fatal(err)
	}
	fmt.Println(experiments.AblationTable("Matching algorithms under dynamic TDM (paper patterns)", scheds))

	planners, err := experiments.PlannerSweepExec(ex, n, experiments.PlannerDemandWorkloads(n, 64))
	if err != nil {
		fatal(err)
	}
	fmt.Println(experiments.AblationTable("Preload planners vs reactive TDM (skewed/sparse demand)", planners))

	for _, wl := range []*traffic.Workload{
		traffic.MustGenerate("random-mesh", n, seed),
		traffic.MustGenerate("ordered-mesh", n, seed),
	} {
		mb, err := experiments.ModernBaselineExec(ex, n, wl)
		if err != nil {
			fatal(err)
		}
		fmt.Println(experiments.AblationTable(
			fmt.Sprintf("Beyond the paper: iSLIP VOQ switch vs PMS (%s)", wl.Name), mb))
	}

	// The transpose permutation needs a square grid; run it on 100 routers
	// (10x10) next to the 128-processor ordered mesh.
	mh, err := experiments.MultiHopStudyExec(ex, n, []*traffic.Workload{
		traffic.MustGenerate("ordered-mesh", n, seed),
	})
	if err != nil {
		fatal(err)
	}
	transpose := traffic.MustGenerate("transpose", 100, seed)
	mh2, err := experiments.MultiHopStudyExec(ex, 100, []*traffic.Workload{
		transpose,
		experiments.SparsePermutation(transpose, 2000),
	})
	if err != nil {
		fatal(err)
	}
	fmt.Println(experiments.AblationTable(
		"Multi-hop mesh: wormhole routers vs end-to-end TDM circuits", append(mh, mh2...)))
}

// runTimeline runs one probed random-mesh simulation and prints the sampled
// slot-utilization and queue-depth curves — the timeline view of a run that
// the aggregate tables flatten away.
func runTimeline(netName string, interval time.Duration, seed int64) error {
	sw, err := pmsnet.ParseSwitching(netName)
	if err != nil {
		return err
	}
	n := experiments.N
	wl := pmsnet.RandomMesh(n, 64, experiments.MeshMsgs, seed)
	tl := pmsnet.NewTimelineSink(interval)
	cfg := pmsnet.Config{Switching: sw, N: n, Probe: pmsnet.NewProbe(tl)}
	rep, err := pmsnet.Run(cfg, wl)
	if err != nil {
		return err
	}
	fmt.Printf("== Timeline: %s on random mesh (%d processors, %v buckets) ==\n",
		rep.Network, n, interval)
	fmt.Printf("%-10s %-7s %-7s %-6s %-22s %-8s %-9s %s\n",
		"t", "slots", "used", "util", "", "created", "delivered", "backlog")
	for _, s := range tl.Samples() {
		bar := strings.Repeat("#", int(s.Utilization*20+0.5))
		fmt.Printf("%-10v %-7d %-7d %-6.3f %-22s %-8d %-9d %d\n",
			time.Duration(s.Start), s.Slots, s.SlotsUsed, s.Utilization,
			"|"+bar+strings.Repeat(".", 20-len(bar))+"|", s.Created, s.Delivered, s.MaxDepth)
	}
	fmt.Printf("\nmakespan %v  efficiency %.3f  (%d messages)\n", rep.Makespan, rep.Efficiency, rep.Messages)
	return nil
}

func writeCSV(dir, name string, write func(*os.File) error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := write(f); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "figures:", err)
	stopProfile()
	os.Exit(1)
}

// stopProfile stops the -cpuprofile capture and closes its file; fatal runs
// it too, so a run that fails still leaves a readable profile.
var stopProfile = func() error { return nil }

// startCPUProfile starts a runtime/pprof CPU profile written to path.
func startCPUProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	stopProfile = func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}
	return nil
}
