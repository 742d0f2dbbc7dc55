// Package compiler implements the compile-/load-time communication analysis
// of paper §3.1 and §3.3.
//
// The paper assumes "the compiler can identify the appropriate communication
// working sets when such an identification is possible" and can insert
// directives — a flush between loops with different communication patterns,
// hints about the phase being entered — so the network is configured
// proactively. This package provides that front end for command-file
// programs: given a workload whose programs carry no annotations, Analyze
//
//  1. segments every processor's send stream into phases by detecting
//     regime changes in destination diversity (the trace-level shadow of a
//     loop boundary: an all-to-all loop touches a new destination every
//     send, a stencil loop cycles over a handful),
//  2. aligns the per-processor segments into global phases and emits each
//     phase's union working set as the workload's StaticPhases, and
//  3. optionally inserts the §3.3 directives (FLUSH + PHASEHINT) at the
//     detected boundaries.
//
// The result is a workload the preload controller can run exactly as if a
// real compiler had annotated the source program. Strip removes existing
// annotations, so round-trip tests can verify the analysis recovers them.
package compiler

import (
	"fmt"

	"pmsnet/internal/plan"
	"pmsnet/internal/topology"
	"pmsnet/internal/traffic"
)

// Options tunes the analyzer.
type Options struct {
	// Window is the number of consecutive sends summarized per diversity
	// sample; zero defaults to 8.
	Window int
	// Ratio is the regime-change threshold: adjacent windows whose distinct
	// destination counts differ by at least this factor (and by at least
	// two destinations) mark a phase boundary. Zero defaults to 2.0.
	Ratio float64
	// InsertDirectives adds FLUSH and PHASEHINT ops at detected boundaries,
	// mimicking the compiler-inserted instructions of §3.3.
	InsertDirectives bool
	// PayloadBytes is the usable payload per TDM slot used to convert each
	// phase's traffic into the slot-unit demand matrices of Analysis.Demands;
	// zero defaults to 64, the slot model's default.
	PayloadBytes int
}

func (o Options) withDefaults() Options {
	if o.Window <= 0 {
		o.Window = 8
	}
	if o.Ratio <= 0 {
		o.Ratio = 2.0
	}
	if o.PayloadBytes <= 0 {
		o.PayloadBytes = 64
	}
	return o
}

// Analysis reports what the analyzer found.
type Analysis struct {
	// Boundaries[p] lists the op indices (in the *output* program of
	// processor p, before directive insertion) at which new phases start;
	// it never includes index 0.
	Boundaries [][]int
	// Phases holds the global per-phase working sets, in phase order.
	Phases []*topology.WorkingSet
	// Demands holds each phase's per-connection demand in TDM slots
	// (payload-sized chunks per send, summed over the phase), aligned with
	// Phases — the input the preload planners (internal/plan) consume for
	// exact per-phase planning.
	Demands []*plan.Demand
}

// PhaseCount returns the number of global phases discovered.
func (a Analysis) PhaseCount() int { return len(a.Phases) }

// Strip returns a deep copy of the workload with all FLUSH/PHASEHINT
// directives and static phases removed — an unannotated program, as a
// plain message-passing trace would arrive.
func Strip(wl *traffic.Workload) *traffic.Workload {
	out := &traffic.Workload{
		Name:     wl.Name,
		N:        wl.N,
		Programs: make([]traffic.Program, wl.N),
	}
	for p, prog := range wl.Programs {
		var ops []traffic.Op
		for _, op := range prog.Ops {
			switch op.Kind {
			case traffic.OpFlush, traffic.OpPhase:
				// dropped
			default:
				ops = append(ops, op)
			}
		}
		out.Programs[p] = traffic.Program{Ops: ops}
	}
	return out
}

// Analyze segments the workload into communication phases and attaches the
// discovered working sets (and, optionally, boundary directives). The input
// is not modified. It returns an error for invalid workloads.
func Analyze(wl *traffic.Workload, opt Options) (*traffic.Workload, Analysis, error) {
	if err := wl.Validate(); err != nil {
		return nil, Analysis{}, fmt.Errorf("compiler: %w", err)
	}
	opt = opt.withDefaults()

	// Work on a stripped copy: existing annotations would double up.
	base := Strip(wl)

	an := Analysis{Boundaries: make([][]int, base.N)}
	segments := make([][]segment, base.N)
	candidates := make([][]int, base.N)
	maxSegments := 0
	withBoundary := 0
	for p := range base.Programs {
		segs, cand := segmentProgram(base.Programs[p].Ops, opt)
		segments[p] = segs
		candidates[p] = cand
		if len(segs) > 1 {
			withBoundary++
		}
		if len(segs) > maxSegments {
			maxSegments = len(segs)
		}
	}
	// Consensus pass: a phase boundary is a global program property (a loop
	// boundary every processor crosses), but a processor whose transition
	// window happens to straddle it can miss the local diversity drop. When
	// the majority of processors detected boundaries, processors without
	// one adopt their best sub-threshold candidate, so their later-phase
	// traffic is attributed to the right working set.
	if withBoundary*2 > base.N {
		for p := range segments {
			if len(segments[p]) <= 1 && len(candidates[p]) > 0 {
				b := candidates[p][0]
				segments[p] = []segment{{0, b}, {b, len(base.Programs[p].Ops)}}
			}
		}
	}
	for p, segs := range segments {
		if len(segs) > 1 {
			for _, s := range segs[1:] {
				an.Boundaries[p] = append(an.Boundaries[p], s.start)
			}
		}
		if len(segs) > maxSegments {
			maxSegments = len(segs)
		}
	}
	if maxSegments == 0 {
		maxSegments = 1
	}

	// Global phase k = union over processors of their k-th segment's
	// connections; processors with fewer segments fold their tail into
	// their last segment's phase.
	phases := make([]*topology.WorkingSet, maxSegments)
	demands := make([]*plan.Demand, maxSegments)
	for k := range phases {
		phases[k] = topology.NewWorkingSet(base.N)
		demands[k] = plan.NewDemand(base.N)
	}
	for p, segs := range segments {
		for k, seg := range segs {
			phase := k
			if phase >= maxSegments {
				phase = maxSegments - 1
			}
			for _, op := range base.Programs[p].Ops[seg.start:seg.end] {
				if op.IsSend() {
					phases[phase].Add(topology.Conn{Src: p, Dst: int(op.Dst)})
					slots := (op.Bytes() + int64(opt.PayloadBytes) - 1) / int64(opt.PayloadBytes)
					if slots < 1 {
						slots = 1
					}
					demands[phase].Add(p, int(op.Dst), slots)
				}
			}
		}
	}
	// Drop empty trailing phases (processors may be silent).
	for len(phases) > 1 && phases[len(phases)-1].Len() == 0 {
		phases = phases[:len(phases)-1]
	}
	an.Phases = phases
	an.Demands = demands[:len(phases)]
	base.StaticPhases = phases

	if opt.InsertDirectives {
		for p := range base.Programs {
			base.Programs[p] = insertDirectives(base.Programs[p], segments[p], len(phases))
		}
	}
	if err := base.Validate(); err != nil {
		return nil, Analysis{}, fmt.Errorf("compiler: produced invalid workload: %w", err)
	}
	return base, an, nil
}

// segment is a half-open op-index range [start, end).
type segment struct {
	start, end int
}

// segmentProgram finds phase boundaries in one program by sampling the
// distinct-destination count of consecutive windows of sends and splitting
// where the diversity regime changes. It also returns sub-threshold
// boundary candidates (the largest diversity drops), for the consensus
// pass.
func segmentProgram(ops []traffic.Op, opt Options) (segs []segment, candidates []int) {
	// Positions of sends within the op slice.
	var sendIdx []int
	var dsts []int
	for i, op := range ops {
		if op.IsSend() {
			sendIdx = append(sendIdx, i)
			dsts = append(dsts, int(op.Dst))
		}
	}
	if len(ops) == 0 {
		return nil, nil
	}
	if len(sendIdx) <= opt.Window {
		return []segment{{0, len(ops)}}, nil
	}

	// Diversity per full window of sends.
	type window struct {
		firstSend int // index into sendIdx
		diversity int
	}
	var windows []window
	for w := 0; w+opt.Window <= len(dsts); w += opt.Window {
		seen := map[int]bool{}
		for _, d := range dsts[w : w+opt.Window] {
			seen[d] = true
		}
		windows = append(windows, window{firstSend: w, diversity: len(seen)})
	}

	var boundaries []int // op indices where a new segment starts
	bestDrop, bestAt := 0, -1
	for i := 1; i < len(windows); i++ {
		a, b := windows[i-1].diversity, windows[i].diversity
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		// A regime change needs both a large ratio and an absolute gap of
		// at least half the window: random fluctuation inside a small
		// neighbor set (2 vs 4 distinct destinations) is not a phase
		// boundary, while an all-to-all window (diversity = window size)
		// against a stencil window (<= 4) always is.
		if hi-lo >= opt.Window/2 && float64(hi) >= opt.Ratio*float64(lo) {
			boundaries = append(boundaries, sendIdx[windows[i].firstSend])
		} else if hi-lo >= 2 && hi-lo > bestDrop {
			bestDrop, bestAt = hi-lo, sendIdx[windows[i].firstSend]
		}
	}
	if len(boundaries) == 0 && bestAt >= 0 {
		candidates = append(candidates, bestAt)
	}

	segs = []segment{}
	start := 0
	for _, b := range boundaries {
		segs = append(segs, segment{start, b})
		start = b
	}
	segs = append(segs, segment{start, len(ops)})
	return segs, candidates
}

// insertDirectives rewrites a program with PHASEHINT at each segment start
// and FLUSH between segments, adjusting for previously inserted ops.
func insertDirectives(prog traffic.Program, segs []segment, phaseCount int) traffic.Program {
	if len(segs) == 0 {
		return prog
	}
	var out []traffic.Op
	for k, seg := range segs {
		phase := k
		if phase >= phaseCount {
			phase = phaseCount - 1
		}
		if k > 0 {
			out = append(out, traffic.Flush())
		}
		out = append(out, traffic.Phase(phase))
		out = append(out, prog.Ops[seg.start:seg.end]...)
	}
	return traffic.Program{Ops: out}
}
