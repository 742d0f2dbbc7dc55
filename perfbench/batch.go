package main

import (
	"fmt"
	"runtime"
	"time"

	"pmsnet"
	"pmsnet/internal/fabric"
	"pmsnet/internal/link"
	"pmsnet/internal/plan"
	"pmsnet/internal/traffic"
)

// netCase is one network configuration a workload simulates.
type netCase struct {
	name string
	cfg  pmsnet.Config
}

// The production defaults pmsnet.Run composes (paper scheduler, sparse path,
// memo cache on, warm start off, crossbar fabric), with the 500 ns timeout
// predictor wherever dynamic slots exist and one simulation at a time.
func dynamicTDM(n int) netCase {
	return netCase{"tdm-dynamic", pmsnet.Config{Switching: pmsnet.DynamicTDM, N: n, K: 4,
		Eviction: pmsnet.TimeoutEviction, EvictionTimeout: 500 * time.Nanosecond, Parallelism: 1}}
}

func preloadTDM(n int) netCase {
	return netCase{"tdm-preload", pmsnet.Config{Switching: pmsnet.PreloadTDM, N: n, K: 4, Parallelism: 1}}
}

func hybridSolstice(n int) netCase {
	return netCase{"tdm-hybrid-solstice", pmsnet.Config{Switching: pmsnet.HybridTDM, N: n, K: 4,
		PreloadSlots: 2, Planner: pmsnet.PlannerSolstice,
		Eviction: pmsnet.TimeoutEviction, EvictionTimeout: 500 * time.Nanosecond, Parallelism: 1}}
}

// batchWorkload is a library workload: a generator spec simulated at each
// seed of a pass on every network in nets.
type batchWorkload struct {
	name    string
	spec    string
	n       int
	perPass int // seeds per pass
	nets    []netCase
}

// seeds returns the pass's simulation seeds for a seed base.
func (w batchWorkload) seeds(base int64) []int64 {
	out := make([]int64, w.perPass)
	for i := range out {
		out[i] = base + int64(i)
	}
	return out
}

// Why each workload is here is recorded in README.md. perPass sizes a pass
// at roughly 0.3-2.5 s of simulation so a run repeats it several times.
var batchWorkloads = []batchWorkload{
	{name: "mesh-n128", spec: "random-mesh:bytes=64,msgs=50", n: 128, perPass: 16,
		nets: []netCase{dynamicTDM(128)}},
	{name: "bursty-n1024", spec: "bursty:bytes=64,msgs=60,burst=8", n: 1024, perPass: 4,
		nets: []netCase{dynamicTDM(1024)}},
	{name: "two-phase-n128", spec: "two-phase:bytes=64", n: 128, perPass: 2,
		nets: []netCase{preloadTDM(128), hybridSolstice(128)}},
}

// A run repeats its set-up at least minSetupReps times and for at least
// setupBudget; setup_s is the median.
const (
	minSetupReps = 7
	maxSetupReps = 500
	setupBudget  = 1500 * time.Millisecond
)

// timeSetup runs fn repeatedly and returns each run's duration in seconds;
// a non-nil untimed runs after each timed call.
func timeSetup(fn func() error, untimed func()) ([]float64, error) {
	var out []float64
	var total time.Duration
	for len(out) < maxSetupReps && (len(out) < minSetupReps || total < setupBudget) {
		start := time.Now()
		if err := fn(); err != nil {
			return nil, err
		}
		d := time.Since(start)
		if untimed != nil {
			untimed()
		}
		total += d
		out = append(out, d.Seconds())
	}
	return out, nil
}

func runBatch(w batchWorkload, opts options) (*outcome, error) {
	if opts.trace {
		return traceBatch(w, opts)
	}
	o := newOutcome()
	seeds := w.seeds(opts.seed)

	// Set-up: build every seed's workload through the registry and validate
	// the configurations, several times over.
	wls := make([]*pmsnet.Workload, len(seeds))
	setup, err := timeSetup(func() error {
		for i, s := range seeds {
			wl, err := pmsnet.GenerateWorkload(w.spec, w.n, s)
			if err != nil {
				return fmt.Errorf("%s: generate seed %d: %w", w.name, s, err)
			}
			for _, nc := range w.nets {
				if err := nc.cfg.Validate(); err != nil {
					return fmt.Errorf("%s: %s: %w", w.name, nc.name, err)
				}
			}
			wls[i] = wl
		}
		return nil
	}, nil)
	if err != nil {
		return nil, err
	}

	// Measurement: whole passes over the seeds until the window has elapsed.
	// A job is one seed's simulations (both networks on two-phase-n128). The
	// job-time percentiles are taken across the seeds, each seed contributing
	// the median of its repetitions: a tail over inputs rather than over
	// moments of host contention.
	chk := newChecker(w.name)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	deadline := start.Add(opts.seconds)
	var passRates []float64
	jobMS := make([][]float64, len(seeds))
	jobs := 0
	for {
		var msgs int
		var sim time.Duration
		for i, wl := range wls {
			jobStart := time.Now()
			for _, nc := range w.nets {
				t0 := time.Now()
				rep, err := pmsnet.Run(nc.cfg, wl)
				dt := time.Since(t0)
				o.attempted++
				if err != nil {
					o.fail("%s seed %d: %v", nc.name, seeds[i], err)
					continue
				}
				if err := chk.check(nc.name, seeds[i], wl, rep); err != nil {
					o.fail("%v", err)
					continue
				}
				msgs += rep.Messages
				sim += dt
			}
			jobMS[i] = append(jobMS[i], ms(time.Since(jobStart)))
			jobs++
		}
		passRates = append(passRates, float64(msgs)/sim.Seconds())
		if !time.Now().Before(deadline) {
			break
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	seedMS := make([]float64, len(seeds))
	for i, xs := range jobMS {
		seedMS[i] = median(xs)
	}

	o.set("setup_s", median(setup), "s")
	o.set("msgs_per_s", median(passRates), "msgs/s")
	o.set("alloc_mb", float64(after.TotalAlloc-before.TotalAlloc)/(1<<20)/float64(jobs), "MB")
	o.set("rss_peak_mb", peakRSSMB(), "MB")
	o.set("job_ms_p50", quantile(seedMS, 0.50), "ms")
	o.set("job_ms_p99", quantile(seedMS, 0.99), "ms")
	o.set("jobs_per_s", float64(jobs)/elapsed.Seconds(), "jobs/s")
	o.note("seeds %d..%d, %d passes, %d jobs in %.2fs (job_ms percentiles over %d per-seed medians)",
		seeds[0], seeds[len(seeds)-1], len(passRates), jobs, elapsed.Seconds(), len(seeds))
	chk.summary(o)
	return o, nil
}

// traceBatch is the traced run of a batch workload: set-up under spans,
// direct planner and decomposition calls on every static phase when a network
// of the workload preloads, then traced simulation passes with untraced and
// TraceWriter twins.
func traceBatch(w batchWorkload, opts options) (*outcome, error) {
	o := newOutcome()
	seeds := w.seeds(opts.seed)
	plans := false
	for _, nc := range w.nets {
		plans = plans || nc.cfg.Switching == pmsnet.PreloadTDM || nc.cfg.Switching == pmsnet.HybridTDM
	}
	// The direct layer calls need the internal workload form; building it
	// is not part of any measured span.
	var inner []*traffic.Workload
	var backend fabric.Backend
	if plans {
		for _, s := range seeds {
			wl, err := traffic.Generate(w.spec, w.n, s)
			if err != nil {
				return nil, fmt.Errorf("%s: generate seed %d: %w", w.name, s, err)
			}
			inner = append(inner, wl)
		}
		var err error
		if backend, err = fabric.NewBackend(fabric.KindCrossbar, w.n); err != nil {
			return nil, err
		}
	}

	// Set-up spans live in their own root: generation through the registry
	// and the direct layer calls.
	deadline := time.Now().Add(opts.seconds)
	t := newTracer()
	var items []simItem
	root := t.open(spanWorkload, -1)
	for i, s := range seeds {
		g := t.open(spanGen, root)
		wl, err := pmsnet.GenerateWorkload(w.spec, w.n, s)
		t.close(g)
		if err != nil {
			return nil, fmt.Errorf("%s: generate seed %d: %w", w.name, s, err)
		}
		for _, nc := range w.nets {
			items = append(items, simItem{net: nc, seed: s, wl: wl})
		}
		if plans {
			if err := directLayerCalls(t, root, inner[i], backend); err != nil {
				return nil, fmt.Errorf("%s seed %d: %w", w.name, s, err)
			}
		}
	}
	t.close(root)
	acc := &layerAcc{}
	chk := newChecker(w.name)
	firstPass := traceSims(t, items, deadline, acc, o, chk)
	finishTrace(w.name, t, firstPass, acc, o, opts)
	setServiceZero(o)
	chk.summary(o)
	return o, nil
}

// directLayerCalls times the Solstice planner and the crossbar decomposition
// on every static phase of one workload, as the hybrid preloader would call
// them (2 pinned slots of K=4, reconfiguration charged at the control-plane
// delay).
func directLayerCalls(t *tracer, root int, wl *traffic.Workload, be fabric.Backend) error {
	demand := plan.FromWorkload(wl, 64)
	opts := plan.Options{
		ReconfigSlots: float64(link.Paper().ControlDelay()) / 100,
		Decompose:     be.Decompose,
	}
	planner := plan.New(plan.KindSolstice)
	p := t.open(spanPlan, root)
	for _, phase := range wl.StaticPhases {
		if _, err := planner.Plan(demand.Restrict(phase), 4, 2, opts); err != nil {
			return fmt.Errorf("solstice plan: %w", err)
		}
	}
	t.close(p)
	d := t.open(spanDecompose, root)
	for _, phase := range wl.StaticPhases {
		if _, err := be.Decompose(phase); err != nil {
			return fmt.Errorf("decompose: %w", err)
		}
	}
	t.close(d)
	return nil
}

// setServiceZero reports the service-layer metrics a batch workload does not
// exercise as 0.
func setServiceZero(o *outcome) {
	o.set("service.submit_ms_p50", 0, "ms")
	o.set("service.queue_wait_ms", 0, "ms")
	o.set("service.run_ms", 0, "ms")
	o.set("service.cache_hit_ratio", 0, "ratio")
	o.set("service.refused", 0, "count")
}
