// Package traffic defines workloads for the switch simulators: per-processor
// programs of sends and control directives, plus generators for every
// pattern in the paper's evaluation (Scatter, Random Mesh, Ordered Mesh,
// All-to-All, Two-Phase, and the Figure-5 determinism mix).
//
// Each of the 128 processors in the paper's simulation "contains a command
// file that defines the type and sequence of communications that occur"
// (§5). A Program is that command file: an ordered list of operations the
// processor executes. A Workload bundles one program per processor together
// with the statically-known communication phases a compiler would extract —
// the input to the preload controller (paper §3.1).
package traffic

import (
	"fmt"
	"math"
	"strings"

	"pmsnet/internal/sim"
	"pmsnet/internal/topology"
)

// OpKind enumerates program operations.
type OpKind uint8

// Program operation kinds.
const (
	// OpSend enqueues a message of Bytes() bytes to processor Dst.
	OpSend OpKind = iota
	// OpDelay pauses the program for Delay() nanoseconds (compute time).
	OpDelay
	// OpFlush asks the scheduler to flush all dynamic connections — the
	// compiler-inserted directive between program phases (paper §3.3).
	OpFlush
	// OpPhase hints that the program enters the statically-known phase
	// Phase() names; the preload controller advances its configuration
	// sequence accordingly.
	OpPhase
	// OpSendWait enqueues a message like OpSend and then blocks the program
	// until the message is delivered — a blocking (rendezvous-style) send.
	OpSendWait
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	switch k {
	case OpSend:
		return "send"
	case OpDelay:
		return "delay"
	case OpFlush:
		return "flush"
	case OpPhase:
		return "phase"
	case OpSendWait:
		return "sendwait"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// Op is one program operation: 16 bytes, so the driver's program walk,
// which visits a different processor's program on almost every step, loads
// a quarter of a cache line per op. The one operand holds what the kind
// needs: the size of a send, the duration of a delay, the index of a phase.
type Op struct {
	Kind OpKind
	// Dst is a send's destination processor.
	Dst int32
	arg int64
}

// Bytes returns a send's message size.
func (o Op) Bytes() int64 { return o.arg }

// Delay returns a delay's pause duration.
func (o Op) Delay() sim.Time { return sim.Time(o.arg) }

// Phase returns a phase hint's phase index.
func (o Op) Phase() int { return int(o.arg) }

// IsSend reports whether the op sends a message (OpSend or OpSendWait).
func (o Op) IsSend() bool { return o.Kind == OpSend || o.Kind == OpSendWait }

// Send builds an OpSend.
func Send(dst, bytes int) Op { return Op{Kind: OpSend, Dst: dstOf(dst), arg: int64(bytes)} }

// SendWait builds an OpSendWait: the program blocks until delivery.
func SendWait(dst, bytes int) Op { return Op{Kind: OpSendWait, Dst: dstOf(dst), arg: int64(bytes)} }

// dstOf narrows a send's destination to Op.Dst. A destination beyond the
// int32 range would wrap into a valid port, so it panics; parsers refuse
// such input before building ops.
func dstOf(dst int) int32 {
	if dst != int(int32(dst)) {
		panic(fmt.Sprintf("traffic: destination %d outside the int32 range", dst))
	}
	return int32(dst)
}

// Delay builds an OpDelay.
func Delay(d sim.Time) Op { return Op{Kind: OpDelay, arg: int64(d)} }

// Flush builds an OpFlush.
func Flush() Op { return Op{Kind: OpFlush} }

// Phase builds an OpPhase.
func Phase(i int) Op { return Op{Kind: OpPhase, arg: int64(i)} }

// Program is one processor's command file.
type Program struct {
	Ops []Op
}

// Workload is a complete simulation input.
type Workload struct {
	// Name labels the workload in results.
	Name string
	// Spec is the canonical generator spec that built the workload (see
	// ParseSpec), empty for workloads assembled by hand or read from traces
	// that omit it. It rides along in the PMSTRACE serialization, so
	// Workload hashes distinguish same-shape traffic from different
	// generator invocations.
	Spec string
	// N is the processor count.
	N int
	// Programs holds one program per processor (len N).
	Programs []Program
	// StaticPhases lists the statically-known communication working sets in
	// phase order, as a compiler would emit them (empty when nothing is
	// known statically). The preload controller decomposes each phase into
	// crossbar configurations.
	StaticPhases []*topology.WorkingSet
}

// Validate checks structural consistency: program count matches N, all sends
// target existing, non-self processors with positive sizes, delays are
// non-negative, and phase hints index StaticPhases.
func (w *Workload) Validate() error {
	if w.N <= 0 {
		return fmt.Errorf("traffic: workload %q has N=%d", w.Name, w.N)
	}
	if len(w.Programs) != w.N {
		return fmt.Errorf("traffic: workload %q has %d programs for %d processors", w.Name, len(w.Programs), w.N)
	}
	if strings.ContainsAny(w.Spec, " \t\n") {
		return fmt.Errorf("traffic: workload %q spec %q contains whitespace", w.Name, w.Spec)
	}
	for p, prog := range w.Programs {
		for i, op := range prog.Ops {
			switch op.Kind {
			case OpSend, OpSendWait:
				if op.Dst < 0 || int(op.Dst) >= w.N {
					return fmt.Errorf("traffic: proc %d op %d: destination %d outside [0,%d)", p, i, op.Dst, w.N)
				}
				if int(op.Dst) == p {
					return fmt.Errorf("traffic: proc %d op %d: self-send", p, i)
				}
				if op.Bytes() <= 0 {
					return fmt.Errorf("traffic: proc %d op %d: size %d", p, i, op.Bytes())
				}
				if op.Bytes() > math.MaxInt32 {
					return fmt.Errorf("traffic: proc %d op %d: size %d exceeds the %d-byte message limit",
						p, i, op.Bytes(), math.MaxInt32)
				}
			case OpDelay:
				if op.Delay() < 0 {
					return fmt.Errorf("traffic: proc %d op %d: negative delay", p, i)
				}
			case OpFlush:
			case OpPhase:
				if op.Phase() < 0 || op.Phase() >= len(w.StaticPhases) {
					return fmt.Errorf("traffic: proc %d op %d: phase %d outside %d static phases", p, i, op.Phase(), len(w.StaticPhases))
				}
			default:
				return fmt.Errorf("traffic: proc %d op %d: unknown kind %d", p, i, int(op.Kind))
			}
		}
	}
	for i, ph := range w.StaticPhases {
		if ph.Ports() != w.N {
			return fmt.Errorf("traffic: static phase %d spans %d ports, want %d", i, ph.Ports(), w.N)
		}
	}
	return nil
}

// MessageCount returns the total number of sends across all programs.
func (w *Workload) MessageCount() int {
	n := 0
	for _, prog := range w.Programs {
		for _, op := range prog.Ops {
			if op.IsSend() {
				n++
			}
		}
	}
	return n
}

// TotalBytes returns the sum of all message sizes.
func (w *Workload) TotalBytes() int64 {
	var n int64
	for _, prog := range w.Programs {
		for _, op := range prog.Ops {
			if op.IsSend() {
				n += op.Bytes()
			}
		}
	}
	return n
}

// ConnSet returns the working set of the whole workload: every (src, dst)
// pair that carries at least one message.
func (w *Workload) ConnSet() *topology.WorkingSet {
	return topology.NewWorkingSetOfRows(w.N, w.addSends)
}

// ConnTable numbers the connections a run of the workload can use: every
// pair a program sends on and every pair of a static phase.
func (w *Workload) ConnTable() *topology.ConnTable {
	return topology.NewConnTable(w.N, func(src int, add func(dst int)) {
		w.addSends(src, add)
		for _, ph := range w.StaticPhases {
			ph.EachDst(src, add)
		}
	})
}

// addSends adds the destination of every send in src's program.
func (w *Workload) addSends(src int, add func(dst int)) {
	for _, op := range w.Programs[src].Ops {
		if op.IsSend() {
			add(int(op.Dst))
		}
	}
}

// Concat joins workloads into one multi-phase program: every processor runs
// its phase-0 ops, then a FLUSH + phase hint, then its phase-1 ops, and so
// on. All inputs must span the same processor count. The static phases are
// the inputs' union working sets in order, so the result carries exactly
// the knowledge a compiler would emit for the phased program.
func Concat(name string, wls ...*Workload) *Workload {
	if len(wls) == 0 {
		panic("traffic: Concat needs at least one workload")
	}
	n := wls[0].N
	out := &Workload{Name: name, N: n, Programs: make([]Program, n)}
	for i, wl := range wls {
		if wl.N != n {
			panic(fmt.Sprintf("traffic: Concat mixes %d and %d processors", n, wl.N))
		}
		out.StaticPhases = append(out.StaticPhases, wl.ConnSet())
		for p := range wl.Programs {
			ops := out.Programs[p].Ops
			if i > 0 {
				ops = append(ops, Flush())
			}
			ops = append(ops, Phase(i))
			for _, op := range wl.Programs[p].Ops {
				// Strip the inputs' own phase directives; the combined
				// program gets fresh ones.
				if op.Kind == OpFlush || op.Kind == OpPhase {
					continue
				}
				ops = append(ops, op)
			}
			out.Programs[p] = Program{Ops: ops}
		}
	}
	return out
}

// Skewed builds a demand-skewed single-phase workload, the canonical planner
// input: every processor p sends msgs messages of the given size to each
// partner (p+shift) mod n, except the first shift, which receives factor×
// msgs — a hot permutation riding over light background shifts. Sends are
// interleaved round by round so hot and cold traffic contend throughout the
// run. StaticPhases carries the full working set, so the workload is valid
// for preload and hybrid modes; with len(shifts) above the TDM frame size K
// the demand cannot be pinned in one group and planning decides what the
// registers are spent on.
func Skewed(name string, n, bytes, msgs, factor int, shifts []int) *Workload {
	if n < 2 || bytes <= 0 || msgs <= 0 || factor < 1 || len(shifts) == 0 {
		panic(fmt.Sprintf("traffic: invalid skewed workload n=%d bytes=%d msgs=%d factor=%d shifts=%v",
			n, bytes, msgs, factor, shifts))
	}
	for _, s := range shifts {
		if s%n == 0 {
			panic(fmt.Sprintf("traffic: skewed shift %d is a self-loop at n=%d", s, n))
		}
	}
	wl := &Workload{Name: name, N: n, Programs: make([]Program, n)}
	for p := 0; p < n; p++ {
		var ops []Op
		for m := 0; m < msgs; m++ {
			for i, s := range shifts {
				dst := (p + s) % n
				reps := 1
				if i == 0 {
					reps = factor
				}
				for r := 0; r < reps; r++ {
					ops = append(ops, Send(dst, bytes))
				}
			}
		}
		wl.Programs[p] = Program{Ops: ops}
	}
	wl.StaticPhases = []*topology.WorkingSet{wl.ConnSet()}
	return wl
}
