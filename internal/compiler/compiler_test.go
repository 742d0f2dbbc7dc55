package compiler

import (
	"testing"
	"testing/quick"

	"pmsnet/internal/tdm"
	"pmsnet/internal/topology"
	"pmsnet/internal/traffic"
)

func TestStripRemovesAnnotations(t *testing.T) {
	wl := traffic.TwoPhase(16, 64, 1)
	stripped := Strip(wl)
	if len(stripped.StaticPhases) != 0 {
		t.Fatal("Strip must drop static phases")
	}
	for p, prog := range stripped.Programs {
		for _, op := range prog.Ops {
			if op.Kind == traffic.OpFlush || op.Kind == traffic.OpPhase {
				t.Fatalf("proc %d still has directive %v", p, op.Kind)
			}
		}
	}
	if stripped.MessageCount() != wl.MessageCount() {
		t.Fatal("Strip must keep every send")
	}
	// Strip is a deep copy: mutating it must not touch the original.
	stripped.Programs[0].Ops[0] = traffic.Delay(1)
	if wl.Programs[0].Ops[0].Kind == traffic.OpDelay {
		t.Fatal("Strip must not alias the input programs")
	}
}

// TestAnalyzeRecoversTwoPhases: the analyzer must find the all-to-all →
// nearest-neighbor boundary of the TwoPhase program from the raw send
// streams alone.
func TestAnalyzeRecoversTwoPhases(t *testing.T) {
	const n = 32
	annotated := traffic.TwoPhase(n, 64, 3)
	stripped := Strip(annotated)
	out, an, err := Analyze(stripped, Options{InsertDirectives: true})
	if err != nil {
		t.Fatal(err)
	}
	if an.PhaseCount() != 2 {
		t.Fatalf("discovered %d phases, want 2", an.PhaseCount())
	}
	// Phase 0 must be the big all-to-all set, phase 1 the small local set.
	if an.Phases[0].Len() <= an.Phases[1].Len() {
		t.Fatalf("phase sizes %d, %d: the global phase should come first",
			an.Phases[0].Len(), an.Phases[1].Len())
	}
	if got, want := an.Phases[0].Degree(), n-1; got != want {
		t.Fatalf("phase 0 degree = %d, want all-to-all degree %d", got, want)
	}
	if got := an.Phases[1].Degree(); got > 4 {
		t.Fatalf("phase 1 degree = %d, want nearest-neighbor (<= 4)", got)
	}
	// Every processor got exactly one boundary (one flush).
	for p, bs := range an.Boundaries {
		if len(bs) != 1 {
			t.Fatalf("proc %d: %d boundaries, want 1", p, len(bs))
		}
		flushes := 0
		for _, op := range out.Programs[p].Ops {
			if op.Kind == traffic.OpFlush {
				flushes++
			}
		}
		if flushes != 1 {
			t.Fatalf("proc %d: %d flush directives, want 1", p, flushes)
		}
	}
}

// TestAnalyzeDemandsAlignWithPhases checks the planner bridge: Analyze emits
// one slot-unit demand matrix per phase, with support exactly the phase's
// working set and totals matching the phase's traffic at the payload size.
func TestAnalyzeDemandsAlignWithPhases(t *testing.T) {
	const n = 32
	stripped := Strip(traffic.TwoPhase(n, 64, 3))
	_, an, err := Analyze(stripped, Options{PayloadBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(an.Demands) != an.PhaseCount() {
		t.Fatalf("%d demand matrices for %d phases", len(an.Demands), an.PhaseCount())
	}
	for k, d := range an.Demands {
		for _, c := range d.WorkingSet().Conns() {
			if !an.Phases[k].Contains(c) {
				t.Fatalf("phase %d: demand on %v outside the phase's working set", k, c)
			}
		}
		for _, c := range an.Phases[k].Conns() {
			if d.At(c.Src, c.Dst) <= 0 {
				t.Fatalf("phase %d: working-set connection %v carries no demand", k, c)
			}
		}
		if d.Total() <= 0 {
			t.Fatalf("phase %d: empty demand", k)
		}
	}
	// 64-byte sends at 64-byte payload: one slot per send, so the first
	// (all-to-all) phase outweighs the local phase.
	if an.Demands[0].Total() <= an.Demands[1].Total() {
		t.Fatalf("demand totals %d, %d: the global phase should dominate",
			an.Demands[0].Total(), an.Demands[1].Total())
	}
}

func TestAnalyzeSinglePhaseWorkloads(t *testing.T) {
	for _, wl := range []*traffic.Workload{
		traffic.OrderedMesh(16, 64, 10),
		traffic.RandomMesh(16, 64, 40, 2),
		traffic.Scatter(16, 64),
	} {
		out, an, err := Analyze(Strip(wl), Options{})
		if err != nil {
			t.Fatalf("%s: %v", wl.Name, err)
		}
		if an.PhaseCount() != 1 {
			t.Errorf("%s: discovered %d phases, want 1 (steady pattern)", wl.Name, an.PhaseCount())
		}
		// The single phase must cover the whole working set.
		ws := wl.ConnSet()
		for _, c := range ws.Conns() {
			if !an.Phases[0].Contains(c) {
				t.Fatalf("%s: phase 0 missing %v", wl.Name, c)
			}
		}
		if out.MessageCount() != wl.MessageCount() {
			t.Fatalf("%s: messages lost in analysis", wl.Name)
		}
	}
}

// TestAnalyzedWorkloadRunsOnPreload: the analyzer's output must satisfy the
// preload controller's coverage requirement and run to completion — i.e. it
// is a drop-in replacement for hand-written compiler annotations.
func TestAnalyzedWorkloadRunsOnPreload(t *testing.T) {
	const n = 32
	stripped := Strip(traffic.TwoPhase(n, 64, 3))
	analyzed, _, err := Analyze(stripped, Options{InsertDirectives: true})
	if err != nil {
		t.Fatal(err)
	}
	nw, err := tdm.New(tdm.Config{N: n, K: 4, Mode: tdm.Preload})
	if err != nil {
		t.Fatal(err)
	}
	res, err := nw.Run(analyzed)
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != analyzed.MessageCount() {
		t.Fatalf("delivered %d of %d", res.Messages, analyzed.MessageCount())
	}
	// And the performance should be in the same league as the hand-
	// annotated workload.
	hand, err := nw.Run(traffic.TwoPhase(n, 64, 3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Efficiency < hand.Efficiency*0.9 {
		t.Fatalf("analyzed preload efficiency %.3f below 90%% of hand-annotated %.3f",
			res.Efficiency, hand.Efficiency)
	}
}

func TestAnalyzeRejectsInvalidWorkload(t *testing.T) {
	bad := &traffic.Workload{Name: "bad", N: 2,
		Programs: []traffic.Program{{Ops: []traffic.Op{traffic.Send(0, 8)}}, {}}}
	if _, _, err := Analyze(bad, Options{}); err == nil {
		t.Fatal("invalid workload should be rejected")
	}
}

func TestAnalyzeEmptyAndTinyPrograms(t *testing.T) {
	wl := &traffic.Workload{Name: "tiny", N: 4, Programs: []traffic.Program{
		{Ops: []traffic.Op{traffic.Send(1, 8)}},
		{},
		{Ops: []traffic.Op{traffic.Delay(10)}},
		{},
	}}
	out, an, err := Analyze(wl, Options{InsertDirectives: true})
	if err != nil {
		t.Fatal(err)
	}
	if an.PhaseCount() != 1 {
		t.Fatalf("phases = %d, want 1", an.PhaseCount())
	}
	if !an.Phases[0].Contains(topology.Conn{Src: 0, Dst: 1}) {
		t.Fatal("phase must contain the single connection")
	}
	if out.MessageCount() != 1 {
		t.Fatal("message lost")
	}
}

// TestQuickAnalyzePreservesTraffic: whatever the input, analysis never
// loses or reorders a processor's sends, and the union of discovered phases
// covers the workload's connection set.
func TestQuickAnalyzePreservesTraffic(t *testing.T) {
	f := func(seed int64, rawN uint8) bool {
		n := 8 + int(rawN)%24
		wl := traffic.TwoPhase(n, 32, seed)
		out, an, err := Analyze(Strip(wl), Options{InsertDirectives: seed%2 == 0})
		if err != nil {
			return false
		}
		if out.MessageCount() != wl.MessageCount() || out.TotalBytes() != wl.TotalBytes() {
			return false
		}
		// Sends per processor keep their order.
		for p := range wl.Programs {
			var want, got []traffic.Op
			for _, op := range wl.Programs[p].Ops {
				if op.IsSend() {
					want = append(want, op)
				}
			}
			for _, op := range out.Programs[p].Ops {
				if op.IsSend() {
					got = append(got, op)
				}
			}
			if len(want) != len(got) {
				return false
			}
			for i := range want {
				if want[i] != got[i] {
					return false
				}
			}
		}
		// Coverage.
		union := topology.NewWorkingSet(n)
		for _, ph := range an.Phases {
			union = union.Union(ph)
		}
		for _, c := range wl.ConnSet().Conns() {
			if !union.Contains(c) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestAnalyzeThreePhases: a global → local → global program must come back
// as three phases with the right shapes, purely from the send streams.
func TestAnalyzeThreePhases(t *testing.T) {
	const n = 32
	program := traffic.Concat("three-phase",
		traffic.AllToAll(n, 64),
		traffic.OrderedMesh(n, 64, 8),
		traffic.AllToAll(n, 64),
	)
	analyzed, an, err := Analyze(Strip(program), Options{InsertDirectives: true})
	if err != nil {
		t.Fatal(err)
	}
	if an.PhaseCount() != 3 {
		t.Fatalf("discovered %d phases, want 3", an.PhaseCount())
	}
	// Boundary detection works at window granularity, so a couple of
	// connections can be attributed to the neighboring phase; the outer
	// phases must still be essentially all-to-all.
	if an.Phases[0].Degree() < n-3 || an.Phases[2].Degree() < n-3 {
		t.Fatalf("outer phases should be near-all-to-all (degree ~%d): got %d and %d",
			n-1, an.Phases[0].Degree(), an.Phases[2].Degree())
	}
	if got := an.Phases[1].Degree(); got > 4 {
		t.Fatalf("middle phase degree = %d, want nearest-neighbor", got)
	}
	// The analyzed program must be a drop-in preload workload.
	nw, err := tdm.New(tdm.Config{N: n, K: 4, Mode: tdm.Preload})
	if err != nil {
		t.Fatal(err)
	}
	res, err := nw.Run(analyzed)
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != program.MessageCount() {
		t.Fatalf("delivered %d of %d", res.Messages, program.MessageCount())
	}
}
