// Shared control-plane components. Every switching model performs the same
// request→grant→transfer handshake over out-of-band control links: tokens
// that take one control delay to propagate and (under fault injection) can be
// lost and re-sent after an exponential backoff; request wires that sample
// NIC queue state one control delay late; and per-port source processes that
// serialize a NIC's output. The per-pair queue states behind the request
// wires are the NIC buffers' own (nic.OutBuffer.Enqueue reports each queue's
// 0→1 transition). These types
// extract that machinery so the models keep only their paradigm-specific
// scheduling logic.
package netmodel

import (
	"pmsnet/internal/bitmat"
	"pmsnet/internal/fault"
	"pmsnet/internal/nic"
	"pmsnet/internal/probe"
	"pmsnet/internal/sim"
)

// ControlPlane models the control links between the NICs and the central
// scheduler: signals propagate in one control delay, and with fault injection
// a token can be lost in flight and re-sent after an exponential backoff.
// Retries are tallied through the driver so the recovery accounting lives in
// one place.
//
// Two loss models coexist, matching the hardware being modeled. Wire-level
// token signaling (the TDM request/grant lines) draws loss at send time — the
// transition either makes it onto the wire or it doesn't — via
// RequestTokenLost/GrantTokenLost plus RetryAfter. Message-style tokens (the
// circuit-switched request/grant round trip) draw loss at arrival time, after
// the propagation delay, via SendRequest/SendGrant. The distinction is
// load-bearing: it fixes where in the event stream the injector's RNG is
// consumed, which fault-run bit-identity depends on.
type ControlPlane struct {
	eng    *sim.Engine
	driver *Driver
	delay  sim.Time
	inj    *fault.Injector
}

// NewControlPlane builds a control plane with the given one-way signal delay.
// inj may be nil (fault-free run).
func NewControlPlane(eng *sim.Engine, driver *Driver, delay sim.Time, inj *fault.Injector) *ControlPlane {
	return &ControlPlane{eng: eng, driver: driver, delay: delay, inj: inj}
}

// Delay returns the one-way control-signal propagation delay.
func (cp *ControlPlane) Delay() sim.Time { return cp.delay }

// After runs f one control delay from now — a bare control signal with no
// loss model (level-sampled lines such as FLUSH correct themselves on the
// next sample, so token loss does not apply).
func (cp *ControlPlane) After(label string, f func()) {
	cp.eng.After(cp.delay, label, f)
}

// RequestTokenLost draws the send-time loss of a request-wire transition.
// Always false on fault-free runs.
func (cp *ControlPlane) RequestTokenLost() bool {
	return cp.inj != nil && cp.inj.DrawRequestLoss()
}

// GrantTokenLost draws the send-time loss of a grant token. Always false on
// fault-free runs.
func (cp *ControlPlane) GrantTokenLost() bool {
	return cp.inj != nil && cp.inj.DrawGrantLoss()
}

// RetryAfter schedules f after the exponential-backoff delay for the given
// attempt. Only meaningful after a *TokenLost draw returned true (which
// implies an injector is attached). The caller counts the retry through
// Driver.CountRetry when it actually re-sends, so conditional retries (the
// queue drained meanwhile) don't inflate the tally.
func (cp *ControlPlane) RetryAfter(attempt int, label string, f func()) {
	cp.eng.After(cp.inj.RetryDelay(attempt), label, f)
}

// SendRequest carries a request token to the scheduler: deliver(arg) runs one
// control delay from now. With fault injection the token can be lost in
// transit — detected by timeout, the sender re-issues via resend(arg,
// attempt+1) after an exponential backoff. Fault-free runs take the
// closure-free path: arg rides the event and deliver is the caller's cached
// handler.
func (cp *ControlPlane) SendRequest(label string, deliver sim.ArgHandler, arg any, attempt int, resend func(arg any, attempt int)) {
	cp.sendToken(label, "request-retry", false, deliver, arg, attempt, resend)
}

// SendGrant carries a grant token back to a NIC, with the same loss/backoff
// semantics as SendRequest.
func (cp *ControlPlane) SendGrant(label string, deliver sim.ArgHandler, arg any, attempt int, resend func(arg any, attempt int)) {
	cp.sendToken(label, "grant-retry", true, deliver, arg, attempt, resend)
}

func (cp *ControlPlane) sendToken(label, retryLabel string, grant bool, deliver sim.ArgHandler, arg any, attempt int, resend func(any, int)) {
	if cp.inj == nil {
		cp.eng.AfterArg(cp.delay, label, deliver, arg)
		return
	}
	cp.eng.After(cp.delay, label, func() {
		var lost bool
		if grant {
			lost = cp.inj.DrawGrantLoss()
		} else {
			lost = cp.inj.DrawRequestLoss()
		}
		if lost {
			cp.eng.After(cp.inj.RetryDelay(attempt), retryLabel, func() {
				cp.driver.CountRetry()
				resend(arg, attempt+1)
			})
			return
		}
		deliver(arg)
	})
}

// RequestWire is the scheduler's view of the NIC request matrix: queue-state
// transitions written through Set appear in View one control delay later.
// Events fire in order, so the view always equals the NIC state one control
// delay ago — wire semantics. Fault reactions that must take effect
// immediately (a failed port's requests vanishing with it) clear the view
// through ClearNow, which keeps the sparse form in sync.
//
// Every transition is delayed by the same amount, so the wire's events fire
// in the order Set scheduled them. The pending writes therefore wait in a
// FIFO ring, and each event applies the oldest one through a handler cached
// at construction: a transition allocates nothing once the ring has grown to
// the wire's peak in-flight count.
type RequestWire struct {
	eng     *sim.Engine
	delay   sim.Time
	label   string
	view    *bitmat.Sparse
	applyFn sim.Handler

	// ring holds the in-flight writes oldest first, starting at head and
	// wrapping; its length is zero or a power of two.
	ring []wireWrite
	head int
	size int
}

// wireWrite is one in-flight transition: the view bit (u, v) becomes val.
type wireWrite struct {
	u, v int32
	val  bool
}

// NewRequestWire builds an n×n request wire with the given propagation delay
// and event label.
func NewRequestWire(eng *sim.Engine, n int, delay sim.Time, label string) *RequestWire {
	w := &RequestWire{eng: eng, delay: delay, label: label, view: bitmat.NewSparse(n, n)}
	w.applyFn = w.apply
	return w
}

// View returns the delayed request matrix (live; do not retain across runs,
// and do not mutate — use Set/ClearNow).
func (w *RequestWire) View() *bitmat.Matrix { return w.view.Matrix() }

// ViewSparse returns the delayed request matrix in sparse form, same aliasing
// rules as View.
func (w *RequestWire) ViewSparse() *bitmat.Sparse { return w.view }

// Set propagates a queue-state transition to the view after the wire delay.
// The written value is the one sampled now.
func (w *RequestWire) Set(u, v int, val bool) {
	if w.size == len(w.ring) {
		w.grow()
	}
	w.ring[(w.head+w.size)&(len(w.ring)-1)] = wireWrite{u: int32(u), v: int32(v), val: val}
	w.size++
	w.eng.After(w.delay, w.label, w.applyFn)
}

// grow doubles the ring, unwrapping the pending writes to its front.
func (w *RequestWire) grow() {
	ring := make([]wireWrite, max(16, 2*len(w.ring)))
	n := copy(ring, w.ring[w.head:])
	copy(ring[n:], w.ring[:w.head])
	w.ring, w.head = ring, 0
}

// apply lands the oldest pending write: the event firing now is the one Set
// scheduled for it.
func (w *RequestWire) apply() {
	wr := w.ring[w.head]
	w.head = (w.head + 1) & (len(w.ring) - 1)
	w.size--
	if wr.val {
		w.view.Set(int(wr.u), int(wr.v))
	} else {
		w.view.Clear(int(wr.u), int(wr.v))
	}
}

// InFlight returns the number of transitions written by Set that the view
// does not show yet.
func (w *RequestWire) InFlight() int { return w.size }

// ClearNow clears a view bit immediately, bypassing the wire delay — the
// fault path where a failed port's requests vanish with the port.
func (w *RequestWire) ClearNow(u, v int) {
	w.view.Clear(u, v)
}

// PortEngine serializes each source NIC's output port: one message in flight
// per source at a time, the next popped in FIFO order when the model reports
// the port free. The start callback launches the model's per-message pipeline
// (raise a circuit request, segment into worms, ...).
type PortEngine struct {
	driver *Driver
	active []bool
	start  func(src int, m *nic.Message)
}

// NewPortEngine builds a port engine over the driver's output buffers.
func NewPortEngine(driver *Driver, n int, start func(src int, m *nic.Message)) *PortEngine {
	return &PortEngine{driver: driver, active: make([]bool, n), start: start}
}

// Kick starts the source's transmit process if it is idle; models call it
// from their OnEnqueue hook.
func (pe *PortEngine) Kick(src int) {
	if pe.active[src] {
		return
	}
	pe.active[src] = true
	pe.Next(src)
}

// Next pops the source's next message and starts it, or parks the process
// when the buffer is empty; models call it when the port frees.
func (pe *PortEngine) Next(src int) {
	m := pe.driver.Buffers[src].PopFIFO()
	if m == nil {
		pe.active[src] = false
		return
	}
	pe.start(src, m)
}

// HeadUntransmitted returns the head of the u→v queue iff none of its bytes
// have been transmitted yet — the message whose first byte enters the network
// in the current slot. Probe emission helper for the slotted models.
func (d *Driver) HeadUntransmitted(u, v int) *nic.Message {
	if h := d.Buffers[u].Head(v); h != nil && h.Remaining() == int(h.Bytes) {
		return h
	}
	return nil
}

// EmitSlotStart emits a slot-start probe event (nil probe = no-op). slot is
// -1 for an empty boundary, dur the slot duration.
func EmitSlotStart(p *probe.Probe, at sim.Time, slot int32, dur sim.Time) {
	if p == nil {
		return
	}
	p.Emit(probe.Event{Kind: probe.SlotStart, At: at, Slot: slot, Aux: int64(dur)})
}

// EmitSlotEnd emits a slot-end probe event (nil probe = no-op); Aux encodes
// whether any payload moved.
func EmitSlotEnd(p *probe.Probe, at sim.Time, slot int32, used bool) {
	if p == nil {
		return
	}
	var aux int64
	if used {
		aux = 1
	}
	p.Emit(probe.Event{Kind: probe.SlotEnd, At: at, Slot: slot, Aux: aux})
}
