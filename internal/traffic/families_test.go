package traffic

import (
	"testing"
)

func countSends(wl *Workload) int {
	n := 0
	for _, prog := range wl.Programs {
		for _, op := range prog.Ops {
			if op.Kind == OpSend || op.Kind == OpSendWait {
				n++
			}
		}
	}
	return n
}

func TestAllReduceRingShape(t *testing.T) {
	const n, bytes = 16, 128
	wl := AllReduceRing(n, bytes)
	if got, want := countSends(wl), n*2*(n-1); got != want {
		t.Errorf("ring all-reduce sends = %d, want %d", got, want)
	}
	ws := wl.ConnSet()
	if ws.Degree() != 1 {
		t.Errorf("ring working set degree = %d, want 1 (a permutation)", ws.Degree())
	}
	for p, prog := range wl.Programs {
		for _, op := range prog.Ops {
			if op.Dst != (p+1)%n {
				t.Fatalf("proc %d sends to %d, want ring successor %d", p, op.Dst, (p+1)%n)
			}
		}
	}
}

func TestAllReduceTreeShape(t *testing.T) {
	for _, n := range []int{2, 7, 16, 33} {
		wl := AllReduceTree(n, 64)
		if err := wl.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(wl.StaticPhases) != 2 {
			t.Fatalf("n=%d: %d static phases, want 2 (reduce, broadcast)", n, len(wl.StaticPhases))
		}
		// Reduce phase: every non-root sends exactly once; broadcast phase
		// mirrors it, so the tree delivers to every non-root exactly once.
		if got, want := wl.StaticPhases[0].Len(), n-1; got != want {
			t.Errorf("n=%d: reduce phase has %d conns, want %d", n, got, want)
		}
		if got, want := wl.StaticPhases[1].Len(), n-1; got != want {
			t.Errorf("n=%d: broadcast phase has %d conns, want %d", n, got, want)
		}
	}
}

func TestBroadcastCoversEveryProcessor(t *testing.T) {
	for _, n := range []int{2, 5, 16} {
		const msgs = 3
		wl := Broadcast(n, 64, msgs)
		recv := make([]int, n)
		for _, prog := range wl.Programs {
			for _, op := range prog.Ops {
				recv[op.Dst]++
			}
		}
		for p := 1; p < n; p++ {
			if recv[p] != msgs {
				t.Errorf("n=%d: proc %d receives %d messages, want %d", n, p, recv[p], msgs)
			}
		}
		if recv[0] != 0 {
			t.Errorf("n=%d: root receives %d messages, want 0", n, recv[0])
		}
	}
}

func TestGatherConvergesOnRoot(t *testing.T) {
	wl := Gather(16, 64, 2)
	for p, prog := range wl.Programs {
		for _, op := range prog.Ops {
			if op.Dst != 0 {
				t.Fatalf("proc %d sends to %d, want the root", p, op.Dst)
			}
		}
	}
	if got, want := countSends(wl), 15*2; got != want {
		t.Errorf("gather sends = %d, want %d", got, want)
	}
}

// TestPhasedCarriesDirectives pins the satellite requirement: the phased
// families emit real PHASEHINT/FLUSH programs whose hints index the static
// phases, and Workload.Validate enforces that indexing.
func TestPhasedCarriesDirectives(t *testing.T) {
	wl := Phased(16, 64, 8, 4)
	if err := wl.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(wl.StaticPhases) != 4 {
		t.Fatalf("%d static phases, want 4", len(wl.StaticPhases))
	}
	hints, flushes := 0, 0
	for _, prog := range wl.Programs {
		for _, op := range prog.Ops {
			switch op.Kind {
			case OpPhase:
				hints++
			case OpFlush:
				flushes++
			}
		}
	}
	if hints != 16*4 {
		t.Errorf("phase hints = %d, want one per processor per phase (%d)", hints, 16*4)
	}
	if flushes != 16*3 {
		t.Errorf("flushes = %d, want one per processor per boundary (%d)", flushes, 16*3)
	}

	// Stencil and exchange phases must present different working-set
	// regimes — that alternation is what the compiler analysis detects.
	if s, g := wl.StaticPhases[0].Degree(), wl.StaticPhases[1].Degree(); g <= s {
		t.Errorf("exchange degree %d not above stencil degree %d", g, s)
	}
}

// TestValidateRejectsBadPhaseHints corrupts a generated PHASEHINT and
// checks Validate catches it — the Workload.Validate coverage for
// PHASEHINT-carrying programs.
func TestValidateRejectsBadPhaseHints(t *testing.T) {
	for _, spec := range []string{"phased:phases=3,msgs=6", "tiles:layers=3", "all-reduce:algo=tree", "two-phase"} {
		wl := MustGenerate(spec, 16, 1)
		corrupted := false
	outer:
		for p := range wl.Programs {
			for i, op := range wl.Programs[p].Ops {
				if op.Kind == OpPhase {
					wl.Programs[p].Ops[i].Arg = len(wl.StaticPhases)
					corrupted = true
					break outer
				}
			}
		}
		if !corrupted {
			t.Fatalf("%s: no PHASEHINT to corrupt", spec)
		}
		if err := wl.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an out-of-range PHASEHINT", spec)
		}
	}
}

func TestTilesCrossesAdjacentLayersOnly(t *testing.T) {
	const n, layers = 16, 4
	wl := Tiles(n, 64, 2, layers)
	if len(wl.StaticPhases) != layers-1 {
		t.Fatalf("%d static phases, want %d", len(wl.StaticPhases), layers-1)
	}
	group := func(p int) int { return p * layers / n }
	for p, prog := range wl.Programs {
		for _, op := range prog.Ops {
			if op.Kind != OpSend {
				continue
			}
			if group(op.Dst) != group(p)+1 {
				t.Fatalf("proc %d (layer %d) sends to %d (layer %d), want the next layer",
					p, group(p), op.Dst, group(op.Dst))
			}
		}
	}
	if countSends(wl) == 0 {
		t.Fatal("tiles has no traffic")
	}
}

func TestPermChurnRotatesPermutations(t *testing.T) {
	const n, rounds, msgs = 16, 4, 2
	wl := PermChurn(n, 64, msgs, rounds, 1)
	// The union working set must be much wider than any single permutation:
	// that width is what keeps the working set from settling.
	if deg := wl.ConnSet().Degree(); deg < 2 {
		t.Errorf("union working-set degree = %d, want >= 2 (distinct permutations)", deg)
	}
	// Destinations must change between rounds for at least one processor.
	changed := false
	for _, prog := range wl.Programs {
		dsts := map[int]bool{}
		for _, op := range prog.Ops {
			if op.Kind == OpSend {
				dsts[op.Dst] = true
			}
		}
		if len(dsts) > 1 {
			changed = true
			break
		}
	}
	if !changed {
		t.Error("every processor kept one destination across all rounds")
	}
}

func TestBurstyShape(t *testing.T) {
	const n, bytes, msgs = 16, 32, 40
	wl := Bursty(n, bytes, msgs, 8, 7)
	if got, want := countSends(wl), n*msgs; got != want {
		t.Errorf("bursty sends = %d, want %d", got, want)
	}
	sawTail, sawDelay := false, false
	for p, prog := range wl.Programs {
		for _, op := range prog.Ops {
			switch op.Kind {
			case OpSend:
				if op.Bytes < bytes || op.Bytes > 32*bytes {
					t.Fatalf("proc %d: size %d outside [%d, %d]", p, op.Bytes, bytes, 32*bytes)
				}
				if op.Bytes > bytes {
					sawTail = true
				}
			case OpDelay:
				sawDelay = true
			}
		}
	}
	if !sawTail {
		t.Error("no heavy-tailed sizes drawn")
	}
	if !sawDelay {
		t.Error("no off periods between bursts")
	}
}

func TestIncastShape(t *testing.T) {
	const n, msgs, background = 16, 8, 4
	wl := Incast(n, 64, msgs, background, 1)
	for p := 1; p < n; p++ {
		sink := 0
		for _, op := range wl.Programs[p].Ops {
			if op.Kind == OpSend && op.Dst == 0 {
				sink++
			}
		}
		// Mesh neighbors of the sink may also route background traffic to it,
		// so the sink count is a floor, not an exact figure.
		if sink < msgs {
			t.Errorf("proc %d sends %d sink messages, want >= %d", p, sink, msgs)
		}
	}
	for _, op := range wl.Programs[0].Ops {
		if op.Dst == 0 {
			t.Fatal("the sink sends to itself")
		}
	}
}
