package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"pmsnet"
	"pmsnet/internal/probe"
)

// span is one timed interval on the benchmark's monotonic clock.
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"` // index into the span list; -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps every span in memory; they are written out once the
// benchmark ends.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// now reads the host monotonic clock as nanoseconds since the epoch.
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(name string, parent int, start, end int64) int {
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: start, End: end})
	return len(t.spans) - 1
}

// graft appends another tracer's spans (same epoch), keeping their tree.
func (t *tracer) graft(spans []span) {
	off := len(t.spans)
	for _, s := range spans {
		if s.Parent >= 0 {
			s.Parent += off
		}
		t.spans = append(t.spans, s)
	}
}

// open starts a span whose end is filled in by close.
func (t *tracer) open(name string, parent int) int { return t.add(name, parent, t.now(), 0) }

func (t *tracer) close(i int) { t.spans[i].End = t.now() }

// Span names. The layer column of the table maps them onto the repo's
// modules; a span's self time is its duration minus its children's.
const (
	spanWorkload  = "workload"
	spanGen       = "traffic.gen"
	spanPlan      = "plan.solstice"
	spanDecompose = "fabric.decompose"
	spanRun       = "pmsnet.Run"
	spanBuild     = "tdm.build"
	spanPass      = "core.pass"
	spanPredictor = "predictor"
	spanSlot      = "tdm.slot"
	spanFinish    = "metrics.finish"
	spanClient    = "client"
	spanJob       = "service.job"
	spanSubmit    = "service.submit"
	spanQueue     = "service.queue"
	spanJobRun    = "service.run"
)

// layerOf labels a span's self time in the "where the time goes" table.
var layerOf = map[string]string{
	spanWorkload:  "bench (unattributed)",
	spanGen:       "traffic: generate",
	spanPlan:      "plan: solstice",
	spanDecompose: "fabric: decompose",
	spanRun:       "sim/netmodel/nic: event loop",
	spanBuild:     "tdm: build",
	spanPass:      "core: scheduler pass",
	spanPredictor: "predictor: grants+evictions",
	spanSlot:      "tdm: slot (fabric+NIC)",
	spanFinish:    "metrics: finish",
	spanClient:    "bench client (unattributed)",
	spanJob:       "service: client wait/poll",
	spanSubmit:    "service: submit round trip",
	spanQueue:     "service: queue",
	spanJobRun:    "service: run+encode",
}

// layerOrder is the table's row order.
var layerOrder = []string{
	spanGen, spanPlan, spanDecompose, spanBuild, spanPass, spanPredictor,
	spanSlot, spanRun, spanFinish, spanSubmit, spanQueue, spanJobRun, spanJob,
	spanClient, spanWorkload,
}

// runSink is the benchmark-owned probe sink for one traced pmsnet.Run. It
// reads the host clock at every probe event and closes a span whenever an
// event marks a layer boundary:
//
//   - core.pass: SchedPassBegin -> SchedPassEnd;
//   - predictor: SchedPassEnd -> the next event that is not a connection
//     event. This is the tail of the pass handler (grant delivery, predictor
//     hooks, evictions) plus one event-heap pop and dispatch, which the probe
//     stream cannot separate from it;
//   - tdm.slot: SlotStart -> SlotEnd (fabric apply, NIC transmit, completion);
//   - tdm.build and metrics.finish are closed by the caller around Run.
type runSink struct {
	t      *tracer
	run    int // the pmsnet.Run span
	events uint64
	first  int64
	last   int64

	passStart int64
	predStart int64
	inPred    bool
	slotStart int64

	passDurs        []float64 // µs
	slots, slotUsed uint64
}

func (s *runSink) Handle(ev pmsnet.ProbeEvent) {
	now := s.t.now()
	s.events++
	if s.events == 1 {
		s.first = now
	}
	s.last = now
	switch ev.Kind {
	case probe.ConnEstablished, probe.ConnReleased, probe.ConnEvicted:
		// Inside a pass or inside the predictor tail that follows it.
		return
	case probe.SchedPassBegin:
		s.closePred(now)
		s.passStart = now
	case probe.SchedPassEnd:
		s.t.add(spanPass, s.run, s.passStart, now)
		s.passDurs = append(s.passDurs, float64(now-s.passStart)/1e3)
		s.predStart, s.inPred = now, true
	case probe.SlotStart:
		s.closePred(now)
		s.slotStart = now
		s.slots++
	case probe.SlotEnd:
		s.t.add(spanSlot, s.run, s.slotStart, now)
		if ev.Aux == 1 {
			s.slotUsed++
		}
	default:
		s.closePred(now)
	}
}

func (s *runSink) closePred(now int64) {
	if s.inPred {
		s.t.add(spanPredictor, s.run, s.predStart, now)
		s.inPred = false
	}
}

// traced runs one simulation under a fresh runSink as a child of parent and
// returns the report plus the sink's counters.
func (t *tracer) traced(parent int, cfg pmsnet.Config, wl *pmsnet.Workload) (pmsnet.Report, *runSink, error) {
	run := t.open(spanRun, parent)
	// The build span is appended first so siblings stay in start order.
	build := t.add(spanBuild, run, t.spans[run].Start, 0)
	sink := &runSink{t: t, run: run}
	cfg.Probe = pmsnet.NewProbe(sink)
	rep, err := pmsnet.Run(cfg, wl)
	end := t.now()
	t.spans[run].End = end
	if sink.events == 0 {
		sink.first, sink.last = end, end
	}
	sink.closePred(sink.last)
	t.spans[build].End = sink.first
	t.add(spanFinish, run, sink.last, end)
	return rep, sink, err
}

// layerTotals is the self-time accounting of a span list.
type layerTotals struct {
	self  map[string]int64
	count map[string]int
	roots int64 // summed duration of the root spans
	// runs, runWall and runChildren account the pmsnet.Run spans alone.
	runs        int
	runWall     int64
	runChildren int64
}

// account computes every span's self time and checks the span tree: spans
// under one parent must lie inside it and must not overlap each other, so no
// self time can go negative.
func account(spans []span) (layerTotals, error) {
	lt := layerTotals{self: map[string]int64{}, count: map[string]int{}}
	childSum := make([]int64, len(spans))
	lastEnd := map[int]int64{}
	for i, s := range spans {
		if s.End < s.Start {
			return lt, fmt.Errorf("span %d (%s) ends before it starts", i, s.Name)
		}
		if s.Parent < 0 {
			lt.roots += s.End - s.Start
			continue
		}
		p := spans[s.Parent]
		if s.Start < p.Start || s.End > p.End {
			return lt, fmt.Errorf("span %d (%s) [%d,%d] leaves its parent %s [%d,%d]",
				i, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
		if prev, ok := lastEnd[s.Parent]; ok && s.Start < prev {
			return lt, fmt.Errorf("span %d (%s) overlaps its sibling under %s by %d ns",
				i, s.Name, p.Name, prev-s.Start)
		}
		lastEnd[s.Parent] = s.End
		childSum[s.Parent] += s.End - s.Start
	}
	for i, s := range spans {
		self := s.End - s.Start - childSum[i]
		if self < 0 {
			return lt, fmt.Errorf("span %d (%s) has negative self time %d ns", i, s.Name, self)
		}
		lt.self[s.Name] += self
		lt.count[s.Name]++
		if s.Name == spanRun {
			lt.runs++
			lt.runWall += s.End - s.Start
			lt.runChildren += childSum[i]
		}
	}
	return lt, nil
}

// checkAccounting verifies that the layer self times add up to the root
// wall time and, for the simulations alone, to the traced Run wall time,
// within bound (a share of the wall time).
func checkAccounting(lt layerTotals, bound float64) error {
	var sum int64
	for _, v := range lt.self {
		sum += v
	}
	if diff := float64(sum - lt.roots); lt.roots > 0 && abs(diff) > bound*float64(lt.roots) {
		return fmt.Errorf("layer self times sum to %d ns, root spans to %d ns", sum, lt.roots)
	}
	runSelf := lt.runChildren + lt.self[spanRun]
	if diff := float64(runSelf - lt.runWall); lt.runWall > 0 && abs(diff) > bound*float64(lt.runWall) {
		return fmt.Errorf("simulation layers sum to %d ns, traced Run wall time is %d ns", runSelf, lt.runWall)
	}
	return nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// printTable prints the "where the time goes" table: layer, self ms, share
// of the traced wall time and span count.
func printTable(workload string, lt layerTotals) {
	fmt.Printf("  where the time goes (%s, traced):\n", workload)
	fmt.Printf("    %-32s %12s %8s %9s\n", "layer", "self ms", "share", "count")
	for _, name := range layerOrder {
		c := lt.count[name]
		if c == 0 {
			continue
		}
		self := lt.self[name]
		share := 0.0
		if lt.roots > 0 {
			share = float64(self) / float64(lt.roots)
		}
		fmt.Printf("    %-32s %12.3f %7.1f%% %9d\n", layerOf[name], float64(self)/1e6, 100*share, c)
	}
	fmt.Printf("    %-32s %12.3f %7.1f%%\n", "total (traced wall)", float64(lt.roots)/1e6, 100.0)
}

// writeSpans writes the spans as JSON lines into dir/<workload>.spans.jsonl.
func writeSpans(dir, workload string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".spans.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// simItem is one (network, seed) simulation of a traced pass.
type simItem struct {
	net  netCase
	seed int64
	wl   *pmsnet.Workload
}

// layerAcc accumulates the traced runs' layer counters.
type layerAcc struct {
	untraced, traced, tracewriter time.Duration
	events, slots, slotsUsed      uint64
	evictions, hits, misses       uint64
	passUS                        []float64
}

// schedCounter reads a Report.Sched counter by name, so the benchmark keeps
// building if an execution-only counter is removed (it then reads 0).
func schedCounter(rep pmsnet.Report, field string) uint64 {
	v := reflect.ValueOf(rep.Sched).FieldByName(field)
	if !v.IsValid() {
		return 0
	}
	return v.Uint()
}

// traceSims runs whole passes over items until deadline. Each pass first runs
// every item under the benchmark's sink inside a fresh root span, then every
// item untraced and under a TraceWriter: each traced Report must equal its
// untraced twin. It returns the span count once the first pass is done.
func traceSims(t *tracer, items []simItem, deadline time.Time, acc *layerAcc,
	o *outcome, chk *checker) int {
	firstPass := 0
	for pass := 0; ; pass++ {
		root := t.open(spanWorkload, -1)
		reps := make([]pmsnet.Report, len(items))
		errs := make([]error, len(items))
		for i, it := range items {
			rep, sink, err := t.traced(root, it.net.cfg, it.wl)
			run := t.spans[sink.run]
			acc.traced += time.Duration(run.End - run.Start)
			acc.events += sink.events
			acc.slots += sink.slots
			acc.slotsUsed += sink.slotUsed
			acc.passUS = append(acc.passUS, sink.passDurs...)
			reps[i], errs[i] = rep, err
		}
		t.close(root)
		if pass == 0 {
			firstPass = len(t.spans)
		}
		for i, it := range items {
			t0 := time.Now()
			base, err := pmsnet.Run(it.net.cfg, it.wl)
			acc.untraced += time.Since(t0)
			o.attempted++
			if err != nil || errs[i] != nil {
				o.fail("%s seed %d: untraced error %v, traced error %v", it.net.name, it.seed, err, errs[i])
				continue
			}
			if err := chk.check(it.net.name, it.seed, it.wl, base); err != nil {
				o.fail("%v", err)
				continue
			}
			if !reflect.DeepEqual(reps[i], base) {
				o.fail("%s seed %d: traced report differs from its untraced twin", it.net.name, it.seed)
				continue
			}
			tw := pmsnet.NewTraceWriter(io.Discard)
			cfg := it.net.cfg
			cfg.Probe = pmsnet.NewProbe(tw)
			t0 = time.Now()
			twRep, err := pmsnet.Run(cfg, it.wl)
			acc.tracewriter += time.Since(t0)
			if cerr := tw.Close(); err == nil {
				err = cerr
			}
			if err != nil || !reflect.DeepEqual(twRep, base) {
				o.fail("%s seed %d: TraceWriter run differs from its untraced twin (err %v)", it.net.name, it.seed, err)
				continue
			}
			acc.evictions += base.Sched.Evictions
			acc.hits += schedCounter(base, "CacheHits")
			acc.misses += schedCounter(base, "CacheMisses")
		}
		if !time.Now().Before(deadline) {
			return firstPass
		}
	}
}

// accountingBound is the share of the traced wall time by which the layer
// self times may miss it; it matches the widest end-to-end bound.
const accountingBound = 0.25

// setLayerMetrics turns the span accounting into the per-layer metrics. Times
// are per traced pmsnet.Run except traffic.gen_ms (per seed) and the direct
// planner/decomposition calls (per seed, all static phases).
func setLayerMetrics(o *outcome, lt layerTotals, acc *layerAcc) {
	per := func(name string, n int) float64 {
		if n == 0 {
			return 0
		}
		return float64(lt.self[name]) / 1e6 / float64(n)
	}
	runs := lt.runs
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	o.set("traffic.gen_ms", per(spanGen, lt.count[spanGen]), "ms")
	o.set("tdm.build_ms", per(spanBuild, runs), "ms")
	o.set("plan.solstice_ms", per(spanPlan, lt.count[spanPlan]), "ms")
	o.set("fabric.decompose_ms", per(spanDecompose, lt.count[spanDecompose]), "ms")
	o.set("core.pass_ms", per(spanPass, runs), "ms")
	o.set("core.pass_us_p50", median(acc.passUS), "us")
	o.set("core.passes", ratio(float64(lt.count[spanPass]), float64(runs)), "count")
	o.set("core.cache_hit_ratio", ratio(float64(acc.hits), float64(acc.hits+acc.misses)), "ratio")
	o.set("predictor.ms", per(spanPredictor, runs), "ms")
	o.set("predictor.evictions", ratio(float64(acc.evictions), float64(runs)), "count")
	o.set("tdm.slot_ms", per(spanSlot, runs), "ms")
	o.set("tdm.slots", ratio(float64(acc.slots), float64(runs)), "count")
	o.set("tdm.slot_used_ratio", ratio(float64(acc.slotsUsed), float64(acc.slots)), "ratio")
	o.set("sim.loop_ms", per(spanRun, runs), "ms")
	o.set("sim.events", ratio(float64(acc.events), float64(runs)), "count")
	o.set("sim.ns_per_event", ratio(float64(lt.self[spanRun]), float64(acc.events)), "ns")
	o.set("metrics.finish_ms", per(spanFinish, runs), "ms")
	o.set("probe.overhead_ratio", ratio(acc.traced.Seconds(), acc.untraced.Seconds()), "ratio")
	o.set("probe.tracewriter_ratio", ratio(acc.tracewriter.Seconds(), acc.untraced.Seconds()), "ratio")
}

// finishTrace checks the span tree, prints the table, writes the first
// pass's spans and sets the per-layer metrics.
func finishTrace(name string, t *tracer, firstPass int, acc *layerAcc, o *outcome, opts options) {
	lt, err := account(t.spans)
	if err == nil {
		err = checkAccounting(lt, accountingBound)
	}
	if err != nil {
		o.fail("layer accounting: %v", err)
	}
	printTable(name, lt)
	if path, err := writeSpans(opts.spans, name, t.spans[:firstPass]); err != nil {
		o.note("spans not written: %v", err)
	} else {
		o.note("first traced pass: %d spans written to %s", firstPass, path)
	}
	setLayerMetrics(o, lt, acc)
}
