// Package probe is the simulation observability layer: a typed event stream
// emitted by the program driver, the connection scheduler and every network
// model, fanned out to pluggable sinks.
//
// The paper's evaluation reasons about *when* things happen inside the switch
// — slot-by-slot crossbar occupancy, scheduler passes, connection
// establishment and eviction — while the metrics package only reports
// end-of-run aggregates. A probe closes that gap without touching the
// results: emission is purely observational, so a run with a probe attached
// is bit-identical to the same run without one.
//
// Design constraints, in priority order:
//
//   - A nil probe must be free on the hot path. Every emission site is
//     guarded by a single pointer check (`if r.probe != nil { ... }`), so the
//     disabled case costs one compare-and-branch and never even constructs
//     the Event value.
//   - Events are small flat structs passed by value; emitting one allocates
//     nothing. Sinks that need to retain events copy what they need.
//   - Sinks are synchronous and run on the simulation goroutine. A probe
//     must therefore not be shared between concurrently running simulations
//     (pmsnet.RunMany rejects configurations with a probe attached).
//
// Note the name: the existing internal/trace package is the PMSTRACE workload
// command-file format; this package is the *runtime* event stream, hence
// "probe". The Chrome trace-event writer (tracewriter.go) bridges the two
// vocabularies: its output is a trace in the Perfetto sense.
package probe

import (
	"pmsnet/internal/sim"
	"pmsnet/internal/vocab"
)

// Kind identifies an event type in the simulation event taxonomy.
type Kind uint8

// The event taxonomy. Field usage per kind is documented on Event.
const (
	// SlotStart fires at a TDM slot boundary when the fabric loads a
	// configuration (or finds none). SlotEnd fires after the slot's
	// transfers have been issued; both carry the same timestamp because the
	// simulation models a slot's data phase as one instantaneous grant.
	SlotStart Kind = iota
	SlotEnd
	// SchedPassBegin/SchedPassEnd bracket one scheduling pass (one SL clock
	// cycle, or one arbitration round in the baseline models). The end event
	// carries the pass's grant counts.
	SchedPassBegin
	SchedPassEnd
	// ConnEstablished/ConnReleased/ConnEvicted are connection lifecycle
	// events: a scheduling pass established or released src→dst, or a
	// predictor/fault handler evicted it out-of-band.
	ConnEstablished
	ConnReleased
	ConnEvicted
	// Preload fires when the preload controller pins a configuration group;
	// Flush when the scheduler executes a compiler FLUSH.
	Preload
	Flush
	// Message lifecycle: created at the SEND op, head-of-queue when it
	// reaches the front of its source NIC's destination queue, injected when
	// its first byte enters the network, delivered when its last byte
	// reaches the destination NIC.
	MsgCreated
	MsgHeadOfQueue
	MsgInjected
	MsgDelivered
	// FaultInjected/FaultRecovered mirror the fault layer: a link going
	// down (or a crosspoint dying) and a link coming back up.
	FaultInjected
	FaultRecovered
	// Plan fires once the preload controller has planned every static
	// phase into configuration groups and indexed them, before it pins the
	// first group. Planning takes no simulated time, so it is an instant.
	Plan

	// KindCount is the number of event kinds; sinks may size arrays with it.
	KindCount
)

// kinds names the event kinds, indexed by Kind.
var kinds = vocab.New[Kind]("event kind",
	"slot-start", "slot-end", "sched-pass-begin", "sched-pass-end",
	"conn-established", "conn-released", "conn-evicted", "preload", "flush",
	"msg-created", "msg-head-of-queue", "msg-injected", "msg-delivered",
	"fault-injected", "fault-recovered", "plan")

// String implements fmt.Stringer.
func (k Kind) String() string { return kinds.Name(k) }

// Event is one simulation event. It is a flat value type: emitting one
// allocates nothing, and sinks receive a copy they may keep.
//
// Field usage by kind (unused fields are zero; ports are -1 when absent):
//
//	SlotStart        Slot (TDM slot index, -1 if no slot was configured), Aux (slot duration ns)
//	SlotEnd          Slot, Aux (1 when the slot carried payload, else 0)
//	SchedPassBegin   —
//	SchedPassEnd     Aux (connections established), ID (connections released)
//	ConnEstablished  Src, Dst, Slot
//	ConnReleased     Src, Dst, Slot
//	ConnEvicted      Src, Dst, Aux (slot entries removed)
//	Preload          Slot (configuration group index), Aux (configurations pinned)
//	Flush            —
//	MsgCreated       Src, Dst, ID (message id), Aux (payload bytes)
//	MsgHeadOfQueue   Src, Dst, ID
//	MsgInjected      Src, Dst, ID
//	MsgDelivered     Src, Dst, ID, Aux (latency ns)
//	FaultInjected    Src (port or crossbar input), Dst (crossbar output, -1 for a link fault), ID (0 link, 1 crosspoint), Aux (1 when permanent)
//	FaultRecovered   Src (port)
//	Plan             Aux (configuration groups built)
type Event struct {
	// At is the simulated timestamp of the event.
	At sim.Time
	// ID carries the message id (message events) or an auxiliary
	// discriminator (fault kind, pass release count).
	ID int64
	// Aux carries the kind-specific scalar documented above.
	Aux int64
	// Src and Dst are crossbar ports; -1 when not applicable.
	Src, Dst int32
	// Slot is the TDM slot or preload-group index; -1 when not applicable.
	Slot int32
	// Kind discriminates the event.
	Kind Kind
}

// Sink consumes events. Handle runs synchronously on the simulation
// goroutine; implementations must not block and must not mutate shared state
// of another running simulation.
type Sink interface {
	Handle(ev Event)
}

// Probe fans events out to its sinks. The zero value is unusable; build one
// with New. Models hold a *Probe that is nil when observability is off and
// guard every emission with a single pointer check.
type Probe struct {
	sinks []Sink
}

// New builds a probe over the given sinks; nil sinks are skipped.
func New(sinks ...Sink) *Probe {
	p := &Probe{}
	for _, s := range sinks {
		if s != nil {
			p.sinks = append(p.sinks, s)
		}
	}
	return p
}

// Emit delivers the event to every sink in registration order.
func (p *Probe) Emit(ev Event) {
	for _, s := range p.sinks {
		s.Handle(ev)
	}
}
