package tdm

import (
	"strings"
	"testing"
	"testing/quick"

	"pmsnet/internal/fabric"
	"pmsnet/internal/predictor"
	"pmsnet/internal/sim"
	"pmsnet/internal/topology"
	"pmsnet/internal/traffic"
)

func mustNew(t *testing.T, cfg Config) *Network {
	t.Helper()
	nw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func oneMessageWorkload(n, bytes int) *traffic.Workload {
	progs := make([]traffic.Program, n)
	progs[0] = traffic.Program{Ops: []traffic.Op{traffic.Send(1, bytes)}}
	return &traffic.Workload{Name: "one", N: n, Programs: progs}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{N: 1, K: 4},
		{N: 8, K: 0},
		{N: 8, K: 3, Mode: Hybrid, PreloadSlots: 4},
		{N: 8, K: 3, Mode: Hybrid, PreloadSlots: -1},
		{N: 8, K: 3, Mode: Mode(9)},
		{N: 8, K: 3, SlotNs: 100, PayloadBytes: 100}, // payload exceeds slot capacity
	}
	for i, c := range bad {
		if _, err := New(c); err == nil {
			t.Errorf("case %d: expected error for %+v", i, c)
		}
	}
}

func TestNames(t *testing.T) {
	cases := map[string]Config{
		"tdm-dynamic/k=4":  {N: 8, K: 4},
		"tdm-preload/k=4":  {N: 8, K: 4, Mode: Preload},
		"tdm-hybrid/1p+2d": {N: 8, K: 3, Mode: Hybrid, PreloadSlots: 1},
	}
	for want, cfg := range cases {
		if got := mustNew(t, cfg).Name(); got != want {
			t.Errorf("Name = %q, want %q", got, want)
		}
	}
	if Dynamic.String() != "dynamic" || Preload.String() != "preload" || Hybrid.String() != "hybrid" {
		t.Error("mode strings wrong")
	}
	if Mode(9).String() == "" {
		t.Error("unknown mode should render")
	}
}

// TestDynamicSingleMessageTiming pins the reactive path on a 4-port system
// (scheduler pass = 10 ns, pass ticker every 10 ns): the message is enqueued
// at t=0, its request reaches the scheduler at t=80, the pass at t=90
// establishes the connection, and the grant reaches the NIC at t=170 — too
// late for the slot starting at t=100, so the first usable slot is
// 200..300. The payload completes with that slot and the last byte clears
// the 80 ns pipe plus the 10 ns NIC receive at t=390.
func TestDynamicSingleMessageTiming(t *testing.T) {
	nw := mustNew(t, Config{N: 4, K: 4})
	res, err := nw.Run(oneMessageWorkload(4, 8))
	if err != nil {
		t.Fatal(err)
	}
	if res.LatencyMax != 390 {
		t.Fatalf("latency = %v, want 390ns", res.LatencyMax)
	}
	if res.Stats.Misses != 1 || res.Stats.Hits != 0 {
		t.Fatalf("hits/misses = %d/%d, want 0/1 (first use is a compulsory miss)",
			res.Stats.Hits, res.Stats.Misses)
	}
	if res.Stats.Established != 1 {
		t.Fatalf("established = %d, want 1", res.Stats.Established)
	}
}

// TestFragmentationAcrossSlots: a 100-byte message needs two slot payloads
// (64 + 36); the connection persists between the slots.
func TestFragmentationAcrossSlots(t *testing.T) {
	nw := mustNew(t, Config{N: 4, K: 4})
	res, err := nw.Run(oneMessageWorkload(4, 100))
	if err != nil {
		t.Fatal(err)
	}
	// The grant reaches the NIC at 170 (see the single-message test), so
	// the slots at 200..300 and 300..400 carry the two fragments; delivery
	// at 400+90 = 490.
	if res.LatencyMax != 490 {
		t.Fatalf("latency = %v, want 490ns", res.LatencyMax)
	}
	if res.Stats.Established != 1 {
		t.Fatalf("established = %d, want 1 (no churn between fragments)", res.Stats.Established)
	}
}

// TestConnectionReusedAcrossMessages: back-to-back messages to the same
// destination hit the cached connection — the paper's working-set effect.
func TestConnectionReusedAcrossMessages(t *testing.T) {
	progs := make([]traffic.Program, 4)
	var ops []traffic.Op
	for i := 0; i < 10; i++ {
		ops = append(ops, traffic.Send(1, 64))
	}
	progs[0] = traffic.Program{Ops: ops}
	wl := &traffic.Workload{Name: "stream", N: 4, Programs: progs}
	nw := mustNew(t, Config{N: 4, K: 4})
	res, err := nw.Run(wl)
	if err != nil {
		t.Fatal(err)
	}
	// One miss (first message), the rest hit the standing connection while
	// the queue stays backlogged. Only one establishment should happen.
	if res.Stats.Established != 1 {
		t.Fatalf("established = %d, want 1", res.Stats.Established)
	}
	if res.Stats.Hits == 0 {
		t.Fatalf("stats = %+v, want queue-backlog hits", res.Stats)
	}
}

func TestReleaseOnRequestDropWithoutPredictor(t *testing.T) {
	// A message, a long silence, then another: without latching, the
	// connection is released after the first queue drain and the second
	// message is a miss again.
	progs := make([]traffic.Program, 4)
	progs[0] = traffic.Program{Ops: []traffic.Op{
		traffic.Send(1, 8), traffic.Delay(5000), traffic.Send(1, 8),
	}}
	wl := &traffic.Workload{Name: "gap", N: 4, Programs: progs}
	nw := mustNew(t, Config{N: 4, K: 4})
	res, err := nw.Run(wl)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Misses != 2 {
		t.Fatalf("misses = %d, want 2 (released during the gap)", res.Stats.Misses)
	}
	if res.Stats.Established != 2 || res.Stats.Released < 1 {
		t.Fatalf("stats = %+v", res.Stats)
	}
}

func TestPredictorLatchingSurvivesGap(t *testing.T) {
	// Same workload, but a timeout predictor latches the connection past
	// the 5 us gap: the second message is a hit.
	progs := make([]traffic.Program, 4)
	progs[0] = traffic.Program{Ops: []traffic.Op{
		traffic.Send(1, 8), traffic.Delay(5000), traffic.Send(1, 8),
	}}
	wl := &traffic.Workload{Name: "gap", N: 4, Programs: progs}
	nw := mustNew(t, Config{N: 4, K: 4,
		NewPredictor: func() predictor.Predictor { return predictor.NewTimeout(20 * sim.Microsecond) }})
	res, err := nw.Run(wl)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Hits != 1 || res.Stats.Misses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", res.Stats.Hits, res.Stats.Misses)
	}
	if res.Stats.Established != 1 {
		t.Fatalf("established = %d, want 1 (latched across the gap)", res.Stats.Established)
	}
}

func TestPredictorEvictionFreesSlots(t *testing.T) {
	// With a short timeout, the connection is evicted during the gap.
	progs := make([]traffic.Program, 4)
	progs[0] = traffic.Program{Ops: []traffic.Op{
		traffic.Send(1, 8), traffic.Delay(5000), traffic.Send(1, 8),
	}}
	wl := &traffic.Workload{Name: "gap", N: 4, Programs: progs}
	nw := mustNew(t, Config{N: 4, K: 4,
		NewPredictor: func() predictor.Predictor { return predictor.NewTimeout(500) }})
	res, err := nw.Run(wl)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Evictions < 1 {
		t.Fatalf("evictions = %d, want at least 1", res.Stats.Evictions)
	}
	if res.Stats.Misses != 2 {
		t.Fatalf("misses = %d, want 2", res.Stats.Misses)
	}
}

func TestPreloadRequiresStaticPhases(t *testing.T) {
	nw := mustNew(t, Config{N: 4, K: 2, Mode: Preload})
	wl := oneMessageWorkload(4, 8) // no static phases
	if _, err := nw.Run(wl); err == nil {
		t.Fatal("expected error: preload mode without static phases")
	}
}

func TestPreloadRequiresCoverage(t *testing.T) {
	nw := mustNew(t, Config{N: 16, K: 2, Mode: Preload})
	wl := traffic.Scatter(16, 8)
	// Corrupt the static knowledge: swap in an unrelated phase so the
	// scatter traffic is not covered by any preloadable configuration.
	wl.StaticPhases[0] = traffic.OrderedMesh(16, 8, 1).StaticPhases[0]
	if _, err := nw.Run(wl); err == nil || !strings.Contains(err.Error(), "not in any static phase") {
		t.Fatalf("err = %v, want coverage error", err)
	}
}

func TestPreloadScatterGroupsCycle(t *testing.T) {
	// 16-node scatter: 15 single-connection configs, K=4 -> 4 groups; the
	// preload controller must sweep them all.
	nw := mustNew(t, Config{N: 16, K: 4, Mode: Preload})
	wl := traffic.Scatter(16, 8)
	res, err := nw.Run(wl)
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != 15 {
		t.Fatalf("messages = %d", res.Messages)
	}
	if res.Stats.Preloads < 4 {
		t.Fatalf("preloads = %d, want at least 4 group loads", res.Stats.Preloads)
	}
	// No reactive scheduling in pure preload mode.
	if res.Stats.SchedulerPasses != 0 {
		t.Fatalf("passes = %d, want 0", res.Stats.SchedulerPasses)
	}
}

func TestPreloadOrderedMeshSingleGroup(t *testing.T) {
	// The 16-node ordered mesh working set decomposes into 4 configs = one
	// group at K=4: loaded once, never swapped.
	nw := mustNew(t, Config{N: 16, K: 4, Mode: Preload})
	res, err := nw.Run(traffic.OrderedMesh(16, 64, 10))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Preloads != 1 {
		t.Fatalf("preloads = %d, want exactly 1", res.Stats.Preloads)
	}
	// Every slot should carry traffic while backlogged: high utilization.
	if res.Efficiency < 0.5 {
		t.Fatalf("efficiency = %v, want > 0.5 for a perfectly preloaded mesh", res.Efficiency)
	}
}

func TestPreloadBeatsDynamicOnOrderedMesh(t *testing.T) {
	wl := traffic.OrderedMesh(16, 64, 20)
	dyn := mustNew(t, Config{N: 16, K: 4})
	pre := mustNew(t, Config{N: 16, K: 4, Mode: Preload})
	dres, err := dyn.Run(wl)
	if err != nil {
		t.Fatal(err)
	}
	pres, err := pre.Run(wl)
	if err != nil {
		t.Fatal(err)
	}
	// At 16 nodes the dynamic scheduler can cache the whole degree-4
	// working set too, so preload's edge can shrink to zero — but it must
	// never lose (it skips every compulsory miss). The clear separation at
	// 128 nodes is asserted by the Figure-4 experiment tests.
	if pres.Efficiency < dres.Efficiency {
		t.Fatalf("preload %.3f must not lose to dynamic %.3f on a fully regular pattern",
			pres.Efficiency, dres.Efficiency)
	}
}

func TestPreloadBeatsDynamicOnTwoPhase(t *testing.T) {
	// The all-to-all phase thrashes a 4-slot dynamic cache when connections
	// are latched and evicted by the paper's timeout predictor (idle
	// latched connections waste their slots); preload sweeps the decomposed
	// permutations instead. The gap here must be strict.
	wl := traffic.TwoPhase(16, 64, 5)
	dyn := mustNew(t, Config{N: 16, K: 4,
		NewPredictor: func() predictor.Predictor { return predictor.NewTimeout(500) }})
	pre := mustNew(t, Config{N: 16, K: 4, Mode: Preload})
	dres, err := dyn.Run(wl)
	if err != nil {
		t.Fatal(err)
	}
	pres, err := pre.Run(wl)
	if err != nil {
		t.Fatal(err)
	}
	if pres.Efficiency <= dres.Efficiency {
		t.Fatalf("preload %.3f should beat dynamic %.3f when the working set exceeds K",
			pres.Efficiency, dres.Efficiency)
	}
}

func TestFlushDirectiveReleasesConnections(t *testing.T) {
	progs := make([]traffic.Program, 4)
	progs[0] = traffic.Program{Ops: []traffic.Op{
		traffic.Send(1, 8), traffic.Delay(1000), traffic.Flush(), traffic.Delay(1000), traffic.Send(1, 8),
	}}
	wl := &traffic.Workload{Name: "flush", N: 4, Programs: progs}
	// With a never-evicting predictor the connection would survive forever;
	// only the FLUSH removes it.
	nw := mustNew(t, Config{N: 4, K: 4,
		NewPredictor: func() predictor.Predictor { return predictor.NewNever() }})
	res, err := nw.Run(wl)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Flushes != 1 {
		t.Fatalf("flushes = %d, want 1", res.Stats.Flushes)
	}
	if res.Stats.Misses != 2 {
		t.Fatalf("misses = %d, want 2 (connection flushed between sends)", res.Stats.Misses)
	}
}

func TestHybridServesStaticAndDynamicTraffic(t *testing.T) {
	wl := traffic.Mix(16, 64, 20, 0.8, 0, 3)
	nw := mustNew(t, Config{N: 16, K: 3, Mode: Hybrid, PreloadSlots: 1})
	res, err := nw.Run(wl)
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != wl.MessageCount() {
		t.Fatalf("delivered %d of %d", res.Messages, wl.MessageCount())
	}
	if res.Stats.Preloads < 1 {
		t.Fatal("hybrid should have preloaded the static pattern")
	}
	if res.Stats.SchedulerPasses == 0 {
		t.Fatal("hybrid should also schedule dynamically")
	}
}

func TestHybridZeroPreloadEqualsDynamic(t *testing.T) {
	wl := traffic.Mix(8, 32, 10, 0.5, 0, 4)
	hy := mustNew(t, Config{N: 8, K: 3, Mode: Hybrid, PreloadSlots: 0})
	dy := mustNew(t, Config{N: 8, K: 3})
	hres, err := hy.Run(wl)
	if err != nil {
		t.Fatal(err)
	}
	dres, err := dy.Run(wl)
	if err != nil {
		t.Fatal(err)
	}
	if hres.Makespan != dres.Makespan {
		t.Fatalf("hybrid with k=0 (%v) must equal dynamic (%v)", hres.Makespan, dres.Makespan)
	}
}

func TestDeterministicRuns(t *testing.T) {
	wl := traffic.RandomMesh(16, 64, 10, 11)
	nw := mustNew(t, Config{N: 16, K: 4})
	a, err := nw.Run(wl)
	if err != nil {
		t.Fatal(err)
	}
	b, err := nw.Run(wl)
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan || a.Stats != b.Stats {
		t.Fatalf("runs differ:\n%+v\n%+v", a.Stats, b.Stats)
	}
}

func TestAllWorkloadsCompleteDynamic(t *testing.T) {
	nw := mustNew(t, Config{N: 16, K: 4})
	for _, wl := range []*traffic.Workload{
		traffic.Scatter(16, 64),
		traffic.OrderedMesh(16, 256, 3),
		traffic.RandomMesh(16, 8, 5, 1),
		traffic.AllToAll(16, 32),
		traffic.TwoPhase(16, 64, 2),
	} {
		res, err := nw.Run(wl)
		if err != nil {
			t.Fatalf("%s: %v", wl.Name, err)
		}
		if res.Messages != wl.MessageCount() || res.Bytes != wl.TotalBytes() {
			t.Fatalf("%s: conservation violated", wl.Name)
		}
	}
}

func TestAllWorkloadsCompletePreload(t *testing.T) {
	nw := mustNew(t, Config{N: 16, K: 4, Mode: Preload})
	for _, wl := range []*traffic.Workload{
		traffic.Scatter(16, 64),
		traffic.OrderedMesh(16, 256, 3),
		traffic.RandomMesh(16, 8, 5, 1),
		traffic.AllToAll(16, 32),
		traffic.TwoPhase(16, 64, 2),
	} {
		res, err := nw.Run(wl)
		if err != nil {
			t.Fatalf("%s: %v", wl.Name, err)
		}
		if res.Messages != wl.MessageCount() {
			t.Fatalf("%s: delivered %d of %d", wl.Name, res.Messages, wl.MessageCount())
		}
	}
}

func TestQuickDynamicCompletionAnySeed(t *testing.T) {
	nw := mustNew(t, Config{N: 8, K: 3})
	f := func(seed int64) bool {
		wl := traffic.Mix(8, 16, 6, 0.5, 0, seed)
		res, err := nw.Run(wl)
		if err != nil {
			return false
		}
		return res.Messages == wl.MessageCount() && res.Efficiency > 0 && res.Efficiency <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestSLCopiesSpeedUpScheduling(t *testing.T) {
	// All-to-all stresses the scheduler; extra SL units must not slow it
	// down (and normally help).
	wl := traffic.AllToAll(16, 16)
	one := mustNew(t, Config{N: 16, K: 4, SLCopies: 1})
	two := mustNew(t, Config{N: 16, K: 4, SLCopies: 4})
	r1, err := one.Run(wl)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := two.Run(wl)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Makespan > r1.Makespan*11/10 {
		t.Fatalf("4 SL copies (%v) should not be slower than 1 (%v)", r2.Makespan, r1.Makespan)
	}
}

func BenchmarkDynamicRandomMesh128(b *testing.B) {
	nw, err := New(Config{N: 128, K: 4})
	if err != nil {
		b.Fatal(err)
	}
	wl := traffic.RandomMesh(128, 128, 10, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nw.Run(wl); err != nil {
			b.Fatal(err)
		}
	}
}

// TestMarkovPrefetchRaisesHitRate: a processor cycles three destinations
// with 1200 ns of compute between sends; the 2 us timeout is shorter than a
// connection's 3600 ns reuse interval, so the plain timeout predictor
// misses every message after the first cycle. The Markov prefetcher learns
// the cycle and pre-establishes each connection one hop ahead (1200 ns
// before use, inside the timeout window), converting those misses to hits.
func TestMarkovPrefetchRaisesHitRate(t *testing.T) {
	const n, cycles = 8, 6
	progs := make([]traffic.Program, n)
	var ops []traffic.Op
	for c := 0; c < cycles; c++ {
		for _, dst := range []int{1, 2, 3} {
			ops = append(ops, traffic.Send(dst, 8), traffic.Delay(1200))
		}
	}
	progs[0] = traffic.Program{Ops: ops}
	wl := &traffic.Workload{Name: "cycle", N: n, Programs: progs}

	baseline := mustNew(t, Config{N: n, K: 4,
		NewPredictor: func() predictor.Predictor { return predictor.NewTimeout(2000) }})
	bres, err := baseline.Run(wl)
	if err != nil {
		t.Fatal(err)
	}
	markov := mustNew(t, Config{N: n, K: 4,
		NewPredictor: func() predictor.Predictor { return predictor.NewMarkov(2000, 1) }})
	mres, err := markov.Run(wl)
	if err != nil {
		t.Fatal(err)
	}
	if mres.Stats.Hits <= bres.Stats.Hits {
		t.Fatalf("markov hits %d should exceed timeout hits %d (misses %d vs %d)",
			mres.Stats.Hits, bres.Stats.Hits, mres.Stats.Misses, bres.Stats.Misses)
	}
	if mres.LatencyMean >= bres.LatencyMean {
		t.Fatalf("prefetching should cut mean latency: %v vs %v", mres.LatencyMean, bres.LatencyMean)
	}
}

func TestOmegaFabricValidation(t *testing.T) {
	if _, err := New(Config{N: 12, K: 4, Fabric: fabric.KindOmega}); err == nil {
		t.Fatal("non-power-of-two N should fail under omega fabric")
	}
	if _, err := New(Config{N: 16, K: 4, Fabric: fabric.Kind(9)}); err == nil {
		t.Fatal("unknown fabric should fail")
	}
	if fabric.KindCrossbar.String() != "crossbar" || fabric.KindOmega.String() != "omega" {
		t.Fatal("fabric strings wrong")
	}
	if fabric.Kind(9).String() == "" {
		t.Fatal("unknown fabric should render")
	}
	nw := mustNew(t, Config{N: 16, K: 4, Fabric: fabric.KindOmega})
	if nw.Name() != "tdm-dynamic/k=4/omega" {
		t.Fatalf("Name = %q", nw.Name())
	}
}

func TestFabricNamesInNetworkName(t *testing.T) {
	for kind, want := range map[fabric.Kind]string{
		fabric.KindCrossbar: "tdm-dynamic/k=4",
		fabric.KindOmega:    "tdm-dynamic/k=4/omega",
	} {
		nw := mustNew(t, Config{N: 16, K: 4, Fabric: kind})
		if nw.Name() != want {
			t.Fatalf("Name = %q, want %q", nw.Name(), want)
		}
	}
}

func TestOmegaFabricDynamicCompletes(t *testing.T) {
	// Every workload must still complete under the blocking fabric: blocked
	// establishments retry in other slots, and progress is guaranteed as
	// connections release.
	nw := mustNew(t, Config{N: 16, K: 4, Fabric: fabric.KindOmega})
	for _, wl := range []*traffic.Workload{
		traffic.OrderedMesh(16, 64, 5),
		traffic.AllToAll(16, 16),
		traffic.RandomMesh(16, 32, 5, 3),
	} {
		res, err := nw.Run(wl)
		if err != nil {
			t.Fatalf("%s: %v", wl.Name, err)
		}
		if res.Messages != wl.MessageCount() {
			t.Fatalf("%s: delivered %d of %d", wl.Name, res.Messages, wl.MessageCount())
		}
	}
}

func TestOmegaFabricPreloadCompletes(t *testing.T) {
	nw := mustNew(t, Config{N: 16, K: 4, Mode: Preload, Fabric: fabric.KindOmega})
	wl := traffic.AllToAll(16, 32)
	res, err := nw.Run(wl)
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != wl.MessageCount() {
		t.Fatalf("delivered %d of %d", res.Messages, wl.MessageCount())
	}
}

func TestOmegaFabricNoFasterThanCrossbar(t *testing.T) {
	// The blocking constraint can only delay establishments, so the omega
	// switch never beats the crossbar on the same workload.
	wl := traffic.AllToAll(16, 32)
	xb := mustNew(t, Config{N: 16, K: 4})
	om := mustNew(t, Config{N: 16, K: 4, Fabric: fabric.KindOmega})
	xres, err := xb.Run(wl)
	if err != nil {
		t.Fatal(err)
	}
	ores, err := om.Run(wl)
	if err != nil {
		t.Fatal(err)
	}
	if ores.Makespan < xres.Makespan {
		t.Fatalf("omega (%v) finished before the crossbar (%v)", ores.Makespan, xres.Makespan)
	}
}

// TestCounterPredictorLivenessOnScatter: scatter fills the slots with
// single-use connections that are never "used" again, so a purely
// usage-driven counter would freeze and starve the remaining fan-out. The
// idle-grant feedback (wasted grants while the source has other traffic)
// must keep the run live.
func TestCounterPredictorLivenessOnScatter(t *testing.T) {
	nw := mustNew(t, Config{N: 16, K: 4,
		NewPredictor: func() predictor.Predictor { return predictor.NewCounter(8) }})
	wl := traffic.Scatter(16, 64)
	res, err := nw.Run(wl)
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != wl.MessageCount() {
		t.Fatalf("delivered %d of %d", res.Messages, wl.MessageCount())
	}
	if res.Stats.Evictions == 0 {
		t.Fatal("idle-grant feedback should have driven evictions")
	}
}

// TestQuickEfficiencyRespectsPayloadBound: a TDM switch can never exceed
// PayloadBytes per slot of raw slot capacity, so measured efficiency is
// bounded by payload/slot-capacity (64/80 = 0.8 at the paper's constants)
// for every workload and mode.
func TestQuickEfficiencyRespectsPayloadBound(t *testing.T) {
	const bound = 64.0/80.0 + 0.001
	configs := []Config{
		{N: 16, K: 4},
		{N: 16, K: 4, Mode: Preload},
		{N: 16, K: 3, Mode: Hybrid, PreloadSlots: 1,
			NewPredictor: func() predictor.Predictor { return predictor.NewTimeout(250) }},
	}
	f := func(seed int64) bool {
		wl := traffic.RandomMesh(16, 64, 8, seed)
		for _, cfg := range configs {
			nw, err := New(cfg)
			if err != nil {
				return false
			}
			res, err := nw.Run(wl)
			if err != nil {
				return false
			}
			if res.Efficiency > bound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// strayPrefetcher is a time-out predictor that also nominates, once the run
// is under way, a connection no program sends on and no static phase holds.
type strayPrefetcher struct {
	*predictor.Timeout
	stray topology.Conn
}

func (p *strayPrefetcher) Prefetch(now sim.Time) []topology.Conn {
	if now < 200 {
		return nil
	}
	return []topology.Conn{p.stray}
}

// TestPrefetchOutsideTableFailsRun checks that a prefetch of a connection
// outside the run's connection table fails the run with an error naming
// it, without a panic and without the table growing.
func TestPrefetchOutsideTableFailsRun(t *testing.T) {
	wl := traffic.Scatter(8, 64) // only processor 0 sends
	stray := topology.Conn{Src: 3, Dst: 5}
	nw := mustNew(t, Config{N: 8, K: 2, NewPredictor: func() predictor.Predictor {
		return &strayPrefetcher{Timeout: predictor.NewTimeout(500), stray: stray}
	}})
	r, err := nw.start(wl)
	if err != nil {
		t.Fatal(err)
	}
	conns := r.conns.Len()
	if conns != wl.ConnTable().Len() || r.conns.ID(stray.Src, stray.Dst) >= 0 {
		t.Fatalf("the run's table holds %d connections (3->5: id %d), the workload's %d",
			conns, r.conns.ID(stray.Src, stray.Dst), wl.ConnTable().Len())
	}
	_, err = r.finish(nw.Name())
	if err == nil || !strings.Contains(err.Error(), "prefetched 3->5, a connection outside the run's table") {
		t.Fatalf("err = %v, want the stray prefetch named", err)
	}
	if r.conns.Len() != conns {
		t.Fatalf("the table grew from %d to %d connections", conns, r.conns.Len())
	}
}
