// Command pmsim runs one switching-paradigm simulation over one workload
// and prints its metrics.
//
// Usage:
//
//	pmsim -net tdm-dynamic -pattern random-mesh -n 128 -size 64 -k 4
//	pmsim -net tdm-hybrid -pattern all-reduce:algo=tree -planner solstice
//	pmsim -net wormhole -workload workload.pms
//	pmsim -net tdm-dynamic -pattern perm-churn:rounds=8 -seeds 16 -parallel 8
//	pmsim -net tdm-dynamic -pattern random-mesh -trace run.trace.json
//	pmsim -pattern two-phase -n 128 -write-workload twophase.pms
//
// Networks: wormhole, circuit, tdm-dynamic, tdm-preload, tdm-hybrid (and
// more; `pmsim -net list` prints the full vocabulary).
// Patterns come from the shared workload-generator registry: a spec is
// `name[:key=value,...]`, and `pmsim -pattern list` prints every registered
// family with its parameter schema, defaults and description — the one
// authoritative catalog (this header deliberately does not duplicate it).
// Parameters given in the spec win; the classic flags (-size, -msgs,
// -rounds, -determinism, -think) fill in any parameter the spec leaves
// unset, for families that have it.
// Fabrics (TDM modes): crossbar, omega, clos, benes (`pmsim -fabric list`).
// Planners (tdm-preload/tdm-hybrid): static, solstice, bvn
// (`pmsim -planner list`) pick the offline preload planner.
// Schedulers (TDM modes): paper, islip, wavefront (`pmsim -sched list`).
//
// -write-workload FILE writes the generated workload as a PMSTRACE command
// file — the per-processor command-file format the paper's simulator is
// driven by (§5) — and exits without simulating. The file can be edited by
// hand and replayed with -workload.
//
// Multi-run mode (-seeds N) repeats the pattern at seeds seed..seed+N-1 and
// prints one summary line per seed plus the aggregate. -parallel bounds how
// many of those simulations run concurrently (0 = GOMAXPROCS, 1 = serial);
// output is identical either way, since every run is deterministic and
// results are collected in seed order.
//
// Tracing (-trace FILE) attaches a probe to the run and writes every slot,
// scheduler, connection, message and fault event as Chrome trace-event JSON;
// open the file in Perfetto (ui.perfetto.dev) or chrome://tracing. Tracing
// observes a single run, so it cannot be combined with -seeds.
//
// -cpuprofile FILE writes a runtime/pprof CPU profile of the whole command
// (workload generation, simulation and output); read it with
// `go tool pprof FILE`.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strconv"
	"time"

	"pmsnet"
)

func main() {
	var (
		netName  = flag.String("net", "tdm-dynamic", "network: wormhole|circuit|voq-islip|tdm-dynamic|tdm-preload|tdm-hybrid|mesh-wormhole|mesh-tdm")
		pattern  = flag.String("pattern", "random-mesh", "workload generator spec name[:key=value,...] ('list' prints the full catalog)")
		workload = flag.String("workload", "", "run a PMSTRACE command file instead of a built-in pattern")
		writeWl  = flag.String("write-workload", "", "write the workload as a PMSTRACE command file to this path and exit without simulating")
		tracePth = flag.String("trace", "", "write a Chrome trace-event JSON timeline of the run to this file")
		n        = flag.Int("n", 128, "processor count")
		size     = flag.Int("size", 64, "message size in bytes (generators with a bytes parameter)")
		msgs     = flag.Int("msgs", 50, "messages per processor (generators with a msgs parameter)")
		rounds   = flag.Int("rounds", 12, "rounds (generators with a rounds parameter)")
		k        = flag.Int("k", 4, "TDM multiplexing degree")
		preload  = flag.Int("preload-slots", 1, "pinned slots (tdm-hybrid)")
		det      = flag.Float64("determinism", 0.85, "statically-known traffic fraction (mix)")
		think    = flag.Duration("think", 150*time.Nanosecond, "compute time between sends (mix)")
		timeout  = flag.Duration("timeout", 500*time.Nanosecond, "eviction timeout (dynamic/hybrid TDM)")
		eviction = flag.String("eviction", "timeout", "eviction policy: reactive|timeout|counter|never|markov")
		amplify  = flag.Int("amplify", 0, "bandwidth-amplification threshold in bytes (0 = off)")
		fabName  = flag.String("fabric", "crossbar", "TDM fabric backend: crossbar|omega|clos|benes ('list' prints the vocabulary)")
		schedNm  = flag.String("sched", "paper", "TDM scheduling algorithm: paper|islip|wavefront ('list' prints the vocabulary)")
		planNm   = flag.String("planner", "static", "preload planner (tdm-preload/tdm-hybrid): static|solstice|bvn ('list' prints the vocabulary)")
		hist     = flag.Bool("hist", false, "print the latency histogram")
		faults   = flag.String("faults", "", "fault plan, e.g. 'seed=7,mtbf=1ms,mttr=10us,corrupt=0.001,link=3@50us+20us,xpoint=1:2@80us'")
		seed     = flag.Int64("seed", 1, "workload random seed")
		seeds    = flag.Int("seeds", 1, "multi-run mode: repeat the pattern at this many consecutive seeds")
		parallel = flag.Int("parallel", 0, "concurrent runs in multi-run mode (0 = GOMAXPROCS, 1 = serial)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the command to this file")
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

	// `-net list` / `-fabric list` / `-sched list` / `-planner list` print
	// the canonical vocabulary, one name per line, and exit — the
	// machine-readable form for scripts. `-pattern list` prints the generator
	// catalog with schemas; its first column is the bare vocabulary.
	if *netName == "list" {
		for _, name := range pmsnet.SwitchingNames() {
			fmt.Println(name)
		}
		return
	}
	if *fabName == "list" {
		for _, name := range pmsnet.FabricNames() {
			fmt.Println(name)
		}
		return
	}
	if *schedNm == "list" {
		for _, name := range pmsnet.SchedulerNames() {
			fmt.Println(name)
		}
		return
	}
	if *planNm == "list" {
		for _, name := range pmsnet.PlannerNames() {
			fmt.Println(name)
		}
		return
	}
	if *pattern == "list" {
		for _, line := range pmsnet.WorkloadUsage() {
			fmt.Println(line)
		}
		return
	}

	var spec *pmsnet.WorkloadSpec
	if *workload == "" {
		var err error
		if spec, err = parsePatternSpec(*pattern, *size, *msgs, *rounds, *det, *think); err != nil {
			fatal(err)
		}
	}

	wl, err := buildWorkload(spec, *workload, *n, *seed)
	if err != nil {
		fatal(err)
	}
	if *writeWl != "" {
		if err := writeWorkload(*writeWl, wl); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote workload to %s\n", *writeWl)
		return
	}
	cfg, err := buildConfig(*netName, *eviction, *n, *k, *preload, *timeout)
	if err != nil {
		fatal(err)
	}
	cfg.AmplifyBytes = *amplify
	if cfg.Fabric, err = pmsnet.ParseFabric(*fabName); err != nil {
		fatal(err)
	}
	if cfg.Scheduler, err = pmsnet.ParseScheduler(*schedNm); err != nil {
		fatal(err)
	}
	if cfg.Planner, err = pmsnet.ParsePlanner(*planNm); err != nil {
		fatal(err)
	}
	cfg.Parallelism = *parallel
	if *faults != "" {
		plan, err := pmsnet.ParseFaults(*faults)
		if err != nil {
			fatal(err)
		}
		cfg.Faults = plan
	}

	if *seeds > 1 {
		if *workload != "" {
			fatal(fmt.Errorf("-seeds varies the workload seed and cannot be combined with -workload"))
		}
		if *tracePth != "" {
			fatal(fmt.Errorf("-trace observes a single run and cannot be combined with -seeds"))
		}
		if err := runSeeds(cfg, spec, *n, *seed, *seeds); err != nil {
			fatal(err)
		}
		return
	}

	var traceWriter *pmsnet.TraceWriter
	var traceFile *os.File
	if *tracePth != "" {
		traceFile, err = os.Create(*tracePth)
		if err != nil {
			fatal(err)
		}
		traceWriter = pmsnet.NewTraceWriter(traceFile)
		cfg.Probe = pmsnet.NewProbe(traceWriter)
	}

	rep, err := pmsnet.Run(cfg, wl)
	if err != nil {
		fatal(err)
	}
	if traceWriter != nil {
		if err := traceWriter.Close(); err != nil {
			fatal(fmt.Errorf("writing trace: %w", err))
		}
		if err := traceFile.Close(); err != nil {
			fatal(fmt.Errorf("writing trace: %w", err))
		}
		fmt.Fprintf(os.Stderr, "wrote trace to %s (load in ui.perfetto.dev or chrome://tracing)\n", *tracePth)
	}
	fmt.Printf("network:     %s\n", rep.Network)
	fmt.Printf("workload:    %s (%d processors, %d messages, %d bytes)\n",
		rep.Workload, wl.Processors(), rep.Messages, rep.Bytes)
	if s := wl.Spec(); s != "" {
		fmt.Printf("spec:        %s\n", s)
	}
	fmt.Printf("makespan:    %v\n", rep.Makespan)
	fmt.Printf("efficiency:  %.3f\n", rep.Efficiency)
	fmt.Printf("latency:     mean %v  p50 %v  p95 %v  max %v\n",
		rep.LatencyMean, rep.LatencyP50, rep.LatencyP95, rep.LatencyMax)
	if s := rep.Sched; s.Passes > 0 || s.Preloads > 0 {
		fmt.Printf("scheduler:   %d passes, %d established, %d released, %d evicted, %d preloads\n",
			s.Passes, s.Established, s.Released, s.Evictions, s.Preloads)
		fmt.Printf("hit rate:    %.3f\n", rep.HitRate)
	}
	if p := rep.Plan; p.Planner != "" {
		fmt.Printf("planner:     %s — %d configs in %d groups, %d residual conns, drain estimate %d slots\n",
			p.Planner, p.Configs, p.Groups, p.ResidualConns, p.DrainSlots)
	}
	if f := rep.Faults; f != nil {
		fmt.Printf("faults:      %d link failures (%d repaired), %d dead crosspoints, %d corrupted, %d req lost, %d grants lost\n",
			f.LinkFailures, f.LinkRepairs, f.CrosspointDeaths, f.Corrupted, f.RequestsLost, f.GrantsLost)
		fmt.Printf("recovery:    %d retries, %d reschedules, %d preload fallbacks, %d masked grants\n",
			f.Retries, f.Reschedules, f.PreloadFallbacks, f.MaskedGrants)
		fmt.Printf("accounting:  %d injected = %d delivered + %d dropped; degraded for %v\n",
			f.Injected, f.Delivered, f.Dropped, f.DegradedTime)
	}
	if *hist {
		fmt.Printf("latency histogram:\n%s", rep.LatencyHistogram)
	}
}

// parsePatternSpec parses the -pattern spec and folds the classic workload
// flags in under it: spec parameters win, flags the user actually passed
// fill unset parameters, and everything else takes the family's schema
// defaults. Flags without a matching parameter in the family's schema are
// simply inert, so `-msgs 40` is safe on every pattern.
func parsePatternSpec(pattern string, size, msgs, rounds int, det float64, think time.Duration) (*pmsnet.WorkloadSpec, error) {
	spec, err := pmsnet.ParseWorkloadSpec(pattern)
	if err != nil {
		return nil, err
	}
	overlay := map[string]string{}
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "size":
			overlay["bytes"] = strconv.Itoa(size)
		case "msgs":
			overlay["msgs"] = strconv.Itoa(msgs)
		case "rounds":
			overlay["rounds"] = strconv.Itoa(rounds)
		case "determinism":
			overlay["determinism"] = strconv.FormatFloat(det, 'g', -1, 64)
		case "think":
			overlay["think"] = think.String()
		}
	})
	for key, value := range overlay {
		if err := spec.Default(key, value); err != nil {
			return nil, err
		}
	}
	return spec, nil
}

// runSeeds is the multi-run mode: the same configuration and pattern at
// `count` consecutive seeds, fanned out through pmsnet.RunMany, with a
// per-seed summary line and the aggregate efficiency statistics.
func runSeeds(cfg pmsnet.Config, spec *pmsnet.WorkloadSpec, n int, seed int64, count int) error {
	wls := make([]*pmsnet.Workload, count)
	for i := range wls {
		wl, err := spec.Generate(n, seed+int64(i))
		if err != nil {
			return err
		}
		wls[i] = wl
	}
	start := time.Now()
	reps, err := pmsnet.RunMany(cfg, wls)
	if err != nil {
		return err
	}
	wall := time.Since(start)

	fmt.Printf("network:     %s\n", reps[0].Network)
	fmt.Printf("workload:    %s x %d seeds (%d..%d)\n", spec, count, seed, seed+int64(count)-1)
	minEff, maxEff, sumEff := reps[0].Efficiency, reps[0].Efficiency, 0.0
	var sumMakespan time.Duration
	for i, rep := range reps {
		fmt.Printf("seed %-6d efficiency %.3f  makespan %-12v p95 %v\n",
			seed+int64(i), rep.Efficiency, rep.Makespan, rep.LatencyP95)
		if rep.Efficiency < minEff {
			minEff = rep.Efficiency
		}
		if rep.Efficiency > maxEff {
			maxEff = rep.Efficiency
		}
		sumEff += rep.Efficiency
		sumMakespan += rep.Makespan
	}
	fmt.Printf("aggregate:   efficiency mean %.3f min %.3f max %.3f  makespan mean %v\n",
		sumEff/float64(count), minEff, maxEff, sumMakespan/time.Duration(count))
	fmt.Fprintf(os.Stderr, "ran %d simulations in %v (parallelism %d)\n", count, wall.Round(time.Millisecond), cfg.Parallelism)
	return nil
}

func buildWorkload(spec *pmsnet.WorkloadSpec, tracePath string, n int, seed int64) (*pmsnet.Workload, error) {
	if tracePath != "" {
		f, err := os.Open(tracePath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return pmsnet.ReadTrace(f)
	}
	return spec.Generate(n, seed)
}

// writeWorkload saves wl to path as a PMSTRACE command file, the format
// buildWorkload reads back for -workload.
func writeWorkload(path string, wl *pmsnet.Workload) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := pmsnet.WriteTrace(bw, wl); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func buildConfig(netName, eviction string, n, k, preload int, timeout time.Duration) (pmsnet.Config, error) {
	cfg := pmsnet.Config{N: n, K: k, PreloadSlots: preload, EvictionTimeout: timeout}
	var err error
	if cfg.Switching, err = pmsnet.ParseSwitching(netName); err != nil {
		return cfg, err
	}
	if cfg.Eviction, err = pmsnet.ParseEviction(eviction); err != nil {
		return cfg, err
	}
	return cfg, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pmsim:", err)
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
