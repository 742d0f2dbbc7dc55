// Package netmodel defines the common contract of the switching-paradigm
// simulators (wormhole, circuit switching, TDM) and the shared
// program-execution driver that feeds them.
//
// Every model simulates the same physical system from paper §5: 128
// processors (N configurable), one central crossbar, one scheduler, 6.4 Gb/s
// serial links. The driver executes each processor's command file — a 10 ns
// NIC operation per send, explicit compute delays, flush/phase directives —
// and hands enqueued messages to the model; the model decides when bytes
// move and reports deliveries back.
package netmodel

import (
	"errors"
	"fmt"
	"math"

	"pmsnet/internal/fault"
	"pmsnet/internal/link"
	"pmsnet/internal/metrics"
	"pmsnet/internal/nic"
	"pmsnet/internal/probe"
	"pmsnet/internal/sim"
	"pmsnet/internal/topology"
	"pmsnet/internal/traffic"
)

// Network is a switching-paradigm simulator.
type Network interface {
	// Name identifies the paradigm in results ("wormhole", "circuit",
	// "tdm-dynamic", "tdm-preload", "tdm-hybrid/k=1", ...).
	Name() string
	// Run simulates the workload to completion and returns its metrics.
	Run(wl *traffic.Workload) (metrics.Result, error)
}

// ErrStalled is returned when a model stops making progress before
// delivering every message — a deadlock or a starved connection.
var ErrStalled = errors.New("netmodel: simulation stalled with undelivered messages")

// DefaultHorizon bounds simulated time; a run that needs more than this is
// treated as stalled. 10 s of simulated time is ~7 orders of magnitude above
// any workload in the benchmark suite.
const DefaultHorizon = 10 * sim.Second

// Hooks are the model callbacks the driver invokes as programs execute.
type Hooks struct {
	// OnEnqueue fires after a message enters its source NIC's output buffer,
	// with the message's connection id and whether its queue was empty
	// before (nic.OutBuffer.Enqueue).
	OnEnqueue func(m *nic.Message, id int32, first bool)
	// OnFlush fires when a program executes FLUSH (nil = ignore).
	OnFlush func(proc int)
	// OnPhase fires when a program executes a phase hint (nil = ignore).
	OnPhase func(proc, phase int)
	// OnIdle fires once when the last message has been delivered; models
	// stop their tickers here so the event queue can drain.
	OnIdle func()
}

// Driver executes workload programs against NIC output buffers. Its message
// array is the run's only per-message state: the models stamp each message's
// delivery time in place, and Finish computes the run's statistics from it.
// Its connection table is the run's only per-connection numbering: the NIC
// queues and every model's per-connection state are indexed by its ids.
//
// A run's programs are fixed before it starts (paper §3.1), so the driver
// resolves every send to its connection id once, when it is built, and a
// send executes with no search: the NIC takes the id as it is.
type Driver struct {
	Engine  *sim.Engine
	Link    link.Model
	Buffers []*nic.OutBuffer
	Conns   *topology.ConnTable

	wl        *traffic.Workload
	hooks     Hooks
	nextID    int
	remaining int
	// msgs holds every message the workload will send, one allocation per
	// run: the send with ID i takes msgs[i].
	msgs []nic.Message
	// sendIDs holds the connection id of every send, processor by processor
	// and in program order within a processor.
	sendIDs []int32
	// cursors holds each processor's program counter and its next entry of
	// sendIDs, side by side so a step loads one of them. Programs are
	// sequential — at most one continuation per processor is ever
	// outstanding — so one cursor plus one cached step closure (stepFns)
	// per processor replaces a closure allocation per executed op.
	cursors []progCursor
	stepFns []func()
	// sends carries the processors whose next step follows a NIC send
	// overhead, the common continuation: the steps due at one instant share
	// one engine event.
	sends *sim.Line[int32]

	// inj is the run's fault injector (nil for fault-free runs); retries and
	// dropped tally the driver-level recovery accounting.
	inj     *fault.Injector
	retries uint64
	dropped uint64

	// probe observes message lifecycle events (nil when observability is off).
	probe *probe.Probe
	// checkCursor is the cursor CheckBuffers hands every buffer's Check,
	// one entry per destination.
	checkCursor []*nic.Message
}

// progCursor is one processor's place in its program: the index of its next
// op and of its next send's entry in the driver's sendIDs. NewDriver bounds
// both to int32, so a cursor is 8 bytes.
type progCursor struct {
	op, send int32
}

// NewDriver builds a driver for a validated workload.
func NewDriver(engine *sim.Engine, lm link.Model, wl *traffic.Workload, hooks Hooks) (*Driver, error) {
	if err := wl.Validate(); err != nil {
		return nil, fmt.Errorf("netmodel: %w", err)
	}
	if err := lm.Validate(); err != nil {
		return nil, fmt.Errorf("netmodel: %w", err)
	}
	msgs := wl.MessageCount()
	if err := checkMessageCount(wl.Name, msgs); err != nil {
		return nil, err
	}
	for p, prog := range wl.Programs {
		if len(prog.Ops) > math.MaxInt32 {
			return nil, fmt.Errorf("netmodel: workload %q: processor %d runs %d ops, more than the %d a program can hold",
				wl.Name, p, len(prog.Ops), math.MaxInt32)
		}
	}
	conns := wl.ConnTable()
	d := &Driver{
		Engine:    engine,
		Link:      lm,
		Buffers:   nic.NewOutBuffers(conns),
		Conns:     conns,
		wl:        wl,
		hooks:     hooks,
		msgs:      make([]nic.Message, msgs),
		remaining: msgs,
		cursors:   make([]progCursor, wl.N),
		stepFns:   make([]func(), wl.N),
	}
	d.resolveSends(msgs)
	for p := 0; p < wl.N; p++ {
		p := p
		d.stepFns[p] = func() { d.step(p) }
	}
	d.sends = sim.NewLine(engine, nic.SendOverhead, "program-step", d.stepProc)
	return d, nil
}

// resolveSends fills sendIDs with the connection id of each of the msgs
// sends and points every processor's cursor at its first one. The table was
// built from these programs, so every send's destination is in its
// source's row: a scratch over the ports maps each destination of the row
// being resolved to its id, and no send is searched for.
func (d *Driver) resolveSends(msgs int) {
	d.sendIDs = make([]int32, msgs)
	pos := make([]int32, d.wl.N)
	k := 0
	for src, prog := range d.wl.Programs {
		lo, _ := d.Conns.Row(src)
		for i, v := range d.Conns.RowDsts(src) {
			pos[v] = lo + int32(i)
		}
		d.cursors[src].send = int32(k)
		for _, op := range prog.Ops {
			if op.IsSend() {
				d.sendIDs[k] = pos[op.Dst]
				k++
			}
		}
	}
}

// SendIDs returns the connection id of every send of the run, processor by
// processor and in program order within a processor. The slice is the
// driver's own; do not modify it.
func (d *Driver) SendIDs() []int32 { return d.sendIDs }

// checkMessageCount refuses a workload with more messages than a message's
// 32-bit ID can number.
func checkMessageCount(name string, msgs int) error {
	if msgs > math.MaxInt32 {
		return fmt.Errorf("netmodel: workload %q sends %d messages, more than the %d a run can hold",
			name, msgs, math.MaxInt32)
	}
	return nil
}

// SetProbe attaches an observability probe for message lifecycle events
// (created, head-of-queue, delivered). Nil detaches.
func (d *Driver) SetProbe(p *probe.Probe) { d.probe = p }

// Start schedules every processor's program from time zero: one event
// runs each processor's first op, in processor order.
func (d *Driver) Start() {
	d.Engine.At(0, "program-start", func() {
		for p := range d.wl.Programs {
			d.step(p)
		}
	})
}

// advance schedules processor p's next program step.
func (d *Driver) advance(p int, after sim.Time) {
	if after == nic.SendOverhead {
		d.sends.Push(int32(p))
		return
	}
	d.Engine.After(after, "program-step", d.stepFns[p])
}

// stepProc is step for a processor carried by the sends line.
func (d *Driver) stepProc(p int32) { d.step(int(p)) }

// step executes the next op of processor p's program and schedules the one
// after it.
func (d *Driver) step(p int) {
	c := &d.cursors[p]
	ops := d.wl.Programs[p].Ops
	if int(c.op) >= len(ops) {
		return
	}
	op := ops[c.op]
	c.op++
	switch op.Kind {
	case traffic.OpSend, traffic.OpSendWait:
		id := d.sendIDs[c.send]
		c.send++
		m := &d.msgs[d.nextID]
		*m = nic.Message{
			ID:      int32(d.nextID),
			Src:     int32(p),
			Dst:     op.Dst,
			Bytes:   int32(op.Bytes()),
			Created: d.Engine.Now(),
		}
		d.nextID++
		first := d.Buffers[p].Enqueue(m, id)
		if d.probe != nil {
			d.probe.Emit(probe.Event{Kind: probe.MsgCreated, At: m.Created,
				Src: m.Src, Dst: m.Dst, ID: int64(m.ID), Aux: int64(m.Bytes)})
			if first {
				d.probe.Emit(probe.Event{Kind: probe.MsgHeadOfQueue, At: m.Created,
					Src: m.Src, Dst: m.Dst, ID: int64(m.ID)})
			}
		}
		if op.Kind == traffic.OpSendWait {
			// Block: the program continues when the message is delivered
			// or dropped.
			m.MarkBlocking()
		}
		if d.hooks.OnEnqueue != nil {
			d.hooks.OnEnqueue(m, id, first)
		}
		if op.Kind == traffic.OpSend {
			d.advance(p, nic.SendOverhead)
		}
	case traffic.OpDelay:
		d.advance(p, op.Delay())
	case traffic.OpFlush:
		if d.hooks.OnFlush != nil {
			d.hooks.OnFlush(p)
		}
		d.advance(p, 0)
	case traffic.OpPhase:
		if d.hooks.OnPhase != nil {
			d.hooks.OnPhase(p, op.Phase())
		}
		d.advance(p, 0)
	default:
		panic(fmt.Sprintf("netmodel: unknown op kind %d", int(op.Kind)))
	}
}

// AttachFaults installs the run's fault injector. Arrive consults it for the
// generic end-to-end fault path, and Finish folds its counters into the
// result. A nil injector (fault-free run) is a no-op.
func (d *Driver) AttachFaults(inj *fault.Injector) { d.inj = inj }

// Faults returns the attached injector (nil for fault-free runs).
func (d *Driver) Faults() *fault.Injector { return d.inj }

// CountRetry tallies one fault-recovery retransmission or control-token
// re-send; models with their own retry machinery (the TDM request/grant
// timers) report through it so the accounting lives in one place.
func (d *Driver) CountRetry() { d.retries++ }

// Deliver stamps a completed message's delivery time. Models call it exactly
// once per message, at the simulated instant the last byte enters the
// destination NIC.
func (d *Driver) Deliver(m *nic.Message) {
	if m.Delivered != 0 {
		panic(fmt.Sprintf("netmodel: message %d delivered twice", m.ID))
	}
	if m.Dropped() {
		panic(fmt.Sprintf("netmodel: message %d delivered after drop", m.ID))
	}
	m.Delivered = d.Engine.Now()
	if d.probe != nil {
		d.probe.Emit(probe.Event{Kind: probe.MsgDelivered, At: m.Delivered,
			Src: m.Src, Dst: m.Dst, ID: int64(m.ID),
			Aux: int64(m.Delivered - m.Created)})
	}
	d.remaining--
	if m.Blocking() {
		d.advance(int(m.Src), nic.SendOverhead)
	}
	if d.remaining == 0 && d.hooks.OnIdle != nil {
		d.hooks.OnIdle()
	}
}

// Drop retires a message the fault layer declared undeliverable (dead
// crosspoint or permanently failed link). The message counts toward the
// run's completion — Injected == Delivered + Dropped — and a blocked sender
// waiting on it is resumed, but the message adds nothing to the run's
// latency and throughput statistics.
func (d *Driver) Drop(m *nic.Message) {
	if err := m.MarkDropped(); err != nil {
		panic(fmt.Sprintf("netmodel: %v", err))
	}
	d.dropped++
	d.remaining--
	if m.Blocking() {
		d.advance(int(m.Src), nic.SendOverhead)
	}
	if d.remaining == 0 && d.hooks.OnIdle != nil {
		d.hooks.OnIdle()
	}
}

// Arrive is the fault-aware delivery point for the store-and-forward models
// (wormhole, circuit, VOQ, mesh): they call it instead of Deliver at the
// instant the message would complete. Fault-free runs pass straight through
// to Deliver. Otherwise the receiving NIC's CRC and the link state decide
// the outcome:
//
//   - a dead crosspoint or permanently failed endpoint link drops the
//     message (no recovery is possible);
//   - a corrupted payload or a transiently down link fails the end-to-end
//     check, and the source NIC retransmits the whole message after an
//     exponential-backoff timeout (the message re-enters its output buffer
//     and the model's OnEnqueue hook fires again);
//   - otherwise the message is delivered.
func (d *Driver) Arrive(m *nic.Message) {
	if d.inj == nil {
		d.Deliver(m)
		return
	}
	src, dst := int(m.Src), int(m.Dst)
	if d.inj.PairBlocked(src, dst) {
		d.Drop(m)
		return
	}
	if !d.inj.PortUp(src) || !d.inj.PortUp(dst) || d.inj.DrawCorrupt() {
		delay := d.inj.RetryDelay(int(m.Retries))
		m.NoteRetry()
		d.retries++
		d.Engine.After(delay, "fault-retransmit", func() {
			// The pair may have become permanently unreachable while the
			// retry timer ran.
			if d.inj.PairBlocked(src, dst) {
				d.Drop(m)
				return
			}
			b := d.Buffers[src]
			id := b.Conn(dst)
			first := b.Enqueue(m, id)
			if d.hooks.OnEnqueue != nil {
				d.hooks.OnEnqueue(m, id, first)
			}
		})
		return
	}
	d.Deliver(m)
}

// CheckBuffers runs every NIC output buffer's bookkeeping check
// (nic.OutBuffer.Check); models call it from their self-check hook. The
// checks share one cursor, made on the first call.
func (d *Driver) CheckBuffers() error {
	if d.checkCursor == nil {
		d.checkCursor = make([]*nic.Message, len(d.Buffers))
	}
	for _, b := range d.Buffers {
		if err := b.Check(d.checkCursor); err != nil {
			return err
		}
	}
	return nil
}

// Remaining returns the number of undelivered messages.
func (d *Driver) Remaining() int { return d.remaining }

// delivered returns the number of messages delivered so far.
func (d *Driver) delivered() int { return len(d.msgs) - d.remaining - int(d.dropped) }

// ProgressWindow is the stall-detection granularity: if a full window of
// simulated time passes without a single delivery while messages remain,
// the run is declared stalled. One millisecond of simulated time is four
// orders of magnitude above any legitimate inter-delivery gap in the
// benchmark suite (preload group sweeps, think times), and it keeps a
// stalled model from grinding through the full horizon at 100 ns ticker
// granularity.
const ProgressWindow = sim.Millisecond

// Finish runs the engine to the horizon and assembles the result. It
// returns ErrStalled if messages remain undelivered when the event queue
// drains, a progress window elapses without any delivery, or the horizon
// passes.
func (d *Driver) Finish(name string, horizon sim.Time, stats metrics.NetStats) (metrics.Result, error) {
	for d.remaining > 0 && d.Engine.Now() < horizon {
		before := d.remaining
		beforeTime := d.Engine.Now()
		next := beforeTime + ProgressWindow
		if next > horizon {
			next = horizon
		}
		d.Engine.Run(next)
		if d.Engine.Err() != nil {
			break
		}
		if d.Engine.Now() == beforeTime && d.remaining == before {
			// The event queue drained with nothing left to do.
			break
		}
		if d.remaining == before && d.Engine.Now() >= next {
			// A whole progress window without a single delivery: stalled.
			break
		}
	}
	if err := d.Engine.Err(); err != nil {
		return metrics.Result{}, err
	}
	if d.remaining > 0 {
		return metrics.Result{}, fmt.Errorf("%w: %d of %d messages undelivered at %v (network %s, workload %s)",
			ErrStalled, d.remaining, d.wl.MessageCount(), d.Engine.Now(), name, d.wl.Name)
	}
	if d.inj != nil {
		base := d.FaultStats()
		// Preserve the recovery counters only the model knows.
		base.Reschedules = stats.Faults.Reschedules
		base.PreloadFallbacks = stats.Faults.PreloadFallbacks
		base.MaskedGrants = stats.Faults.MaskedGrants
		stats.Faults = base
	}
	msgs := d.msgs[:d.nextID]
	return metrics.ComputeEach(name, d.wl.Name, d.wl.N, d.Link, d.delivered(), func(add func(metrics.Record)) {
		for i := range msgs {
			m := &msgs[i]
			if m.Delivered == 0 {
				continue // dropped: never delivered
			}
			add(metrics.Record{Src: int(m.Src), Dst: int(m.Dst), Bytes: int(m.Bytes),
				Created: m.Created, Delivered: m.Delivered})
		}
	}, stats), nil
}

// FaultStats assembles the driver's share of the fault accounting: injector
// tallies, retries, and the Injected == Delivered + Dropped reconciliation.
// Models that rebuild their NetStats after Finish (the TDM network) call it
// again and graft their own recovery counters on top.
func (d *Driver) FaultStats() metrics.FaultStats {
	if d.inj == nil {
		return metrics.FaultStats{}
	}
	c := d.inj.Counters()
	return metrics.FaultStats{
		Enabled:          true,
		LinkFailures:     c.LinkFailures,
		LinkRepairs:      c.LinkRepairs,
		CrosspointDeaths: c.CrosspointDeaths,
		Corrupted:        c.Corrupted,
		RequestsLost:     c.RequestsLost,
		GrantsLost:       c.GrantsLost,
		Retries:          d.retries,
		Injected:         uint64(d.wl.MessageCount()),
		Delivered:        uint64(d.delivered()),
		Dropped:          d.dropped,
		DegradedTime:     d.inj.DegradedTime(),
	}
}
