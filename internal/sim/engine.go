// Package sim provides a deterministic discrete-event simulation engine with
// an integer-nanosecond clock.
//
// Every network model in this repository (wormhole, circuit switching, and
// the TDM-based predictive multiplexed switch) runs on this engine, so that
// the four curves in each figure are produced by the same clock, the same
// event ordering rules and the same random streams. Determinism matters:
// events scheduled for the same instant fire in scheduling order (FIFO
// tie-break), so a run is a pure function of (model, workload, seed).
package sim

import (
	"fmt"
	"math"
)

// Time is a simulation timestamp in nanoseconds.
type Time int64

// Common durations.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000
	Millisecond Time = 1000 * 1000
	Second      Time = 1000 * 1000 * 1000
)

// MaxTime is the largest representable timestamp; Run without a horizon uses
// it as "forever".
const MaxTime Time = math.MaxInt64

// String renders a Time as nanoseconds with a unit suffix.
func (t Time) String() string {
	switch {
	case t >= Second && t%Second == 0:
		return fmt.Sprintf("%ds", int64(t/Second))
	case t >= Microsecond && t%Microsecond == 0:
		return fmt.Sprintf("%dus", int64(t/Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// Handler is the callback attached to an event. It runs with the engine
// clock set to the event's timestamp.
type Handler func()

// ArgHandler is a callback that receives the value it was scheduled with.
// Together with AtArg/AfterArg it lets a model schedule per-message events
// through one long-lived handler (a method value cached at run setup)
// instead of allocating a fresh closure per event — the argument rides in
// the recycled event struct. Passing a pointer as the argument does not
// allocate.
type ArgHandler func(arg any)

type event struct {
	handler Handler
	argFn   ArgHandler // set instead of handler for AtArg/AfterArg events
	arg     any
	label   string
	gen     uint64 // recycling generation, invalidates stale EventIDs
	index   int    // heap index, or notQueued
}

// notQueued is event.index for an event that is not in the queue.
const notQueued = -1

// fire runs the event's callback, whichever form it carries.
func (ev *event) fire() {
	if ev.argFn != nil {
		ev.argFn(ev.arg)
		return
	}
	ev.handler()
}

// EventID identifies a scheduled event so it can be cancelled. Fired and
// cancelled events are recycled through a free list, so the ID carries the
// event's generation: an ID that outlives its event (and any later reuse of
// the underlying storage) simply stops matching instead of cancelling an
// unrelated event.
type EventID struct {
	ev  *event
	gen uint64
}

// entry is one queued event. The ordering key sits inline next to the
// pointer, so sifting compares entries without dereferencing any event.
type entry struct {
	at  Time
	seq uint64 // FIFO tie-break for equal timestamps
	ev  *event
}

// before reports whether a fires before b. seq is unique among queued
// events, so (at, seq) is a total order: every correct priority queue pops
// the same sequence, whatever its shape.
func (a entry) before(b entry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// eventQueue is a 4-ary min-heap of entries, the engine's one store of
// queued events. Four children per node halve the depth of a binary heap,
// and the children of a node share one or two cache lines, so a pop does
// half the sift levels for a few more compares per level. Every move writes
// the event's index so Cancel can remove it in place.
type eventQueue []entry

func (q eventQueue) up(i int) {
	x := q[i]
	for i > 0 {
		p := (i - 1) / 4
		if !x.before(q[p]) {
			break
		}
		q[i] = q[p]
		q[i].ev.index = i
		i = p
	}
	q[i] = x
	x.ev.index = i
}

// down sifts q[i] toward the leaves and reports whether it moved.
func (q eventQueue) down(i int) bool {
	n := len(q)
	x := q[i]
	i0 := i
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for j, end := c+1, min(c+4, n); j < end; j++ {
			if q[j].before(q[m]) {
				m = j
			}
		}
		if !q[m].before(x) {
			break
		}
		q[i] = q[m]
		q[i].ev.index = i
		i = m
	}
	q[i] = x
	x.ev.index = i
	return i > i0
}

func (q *eventQueue) push(x entry) {
	*q = append(*q, x)
	q.up(len(*q) - 1)
}

// remove takes out the entry at index i and returns its event, marked as
// no longer queued.
func (q *eventQueue) remove(i int) *event {
	h := *q
	ev := h[i].ev
	last := len(h) - 1
	h[i] = h[last]
	h[last] = entry{}
	*q = h[:last]
	if i < last && !q.down(i) {
		q.up(i)
	}
	ev.index = notQueued
	return ev
}

// joinSlots is the size of the engine's join memo (see isLast), a power of
// two. Instants a multiple of joinSlots nanoseconds apart share a slot, so
// the memo can refuse a join that would have been safe. The perfbench
// simulations fire as many events with 256 slots as with 65,536; with 64
// the bursty N=1024 run fires 3% more.
const joinSlots = 256

// Engine is a single-threaded discrete-event simulator. It is not safe for
// concurrent use; models are sequential by design so that runs are
// reproducible. Distinct engines share nothing, so independent runs can
// execute on separate goroutines (see internal/runner).
type Engine struct {
	now       Time
	seq       uint64
	cur       uint64     // seq of the event firing now
	queue     eventQueue // every queued event, in (at, seq) order
	free      []*event   // recycled event structs; the schedule/fire hot path is amortized zero-alloc
	processed uint64
	stopped   bool
	check     func() error
	err       error
	// newest holds, for each instant's slot (at mod joinSlots), the seq of
	// the last event queued for an instant in that slot.
	newest [joinSlots]uint64
}

// NewEngine returns an engine with the clock at 0.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// At schedules handler to run at absolute time at. Scheduling in the past
// panics: it would silently corrupt causality in a model.
func (e *Engine) At(at Time, label string, handler Handler) EventID {
	if at < e.now {
		panic(fmt.Sprintf("sim: event %q scheduled at %v before now %v", label, at, e.now))
	}
	if handler == nil {
		panic(fmt.Sprintf("sim: event %q has nil handler", label))
	}
	ev := e.alloc(label)
	ev.handler = handler
	e.enqueue(at, ev)
	return EventID{ev, ev.gen}
}

// AtArg schedules handler(arg) at absolute time at. See ArgHandler: the
// handler is typically a method value created once per run, so the schedule
// path allocates nothing beyond the recycled event struct.
func (e *Engine) AtArg(at Time, label string, handler ArgHandler, arg any) EventID {
	if at < e.now {
		panic(fmt.Sprintf("sim: event %q scheduled at %v before now %v", label, at, e.now))
	}
	if handler == nil {
		panic(fmt.Sprintf("sim: event %q has nil handler", label))
	}
	ev := e.alloc(label)
	ev.argFn, ev.arg = handler, arg
	e.enqueue(at, ev)
	return EventID{ev, ev.gen}
}

// AfterArg schedules handler(arg) d nanoseconds from now.
func (e *Engine) AfterArg(d Time, label string, handler ArgHandler, arg any) EventID {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v for event %q", d, label))
	}
	return e.AtArg(e.now+d, label, handler, arg)
}

// alloc takes an event struct off the free list (or makes one) with the
// callback fields cleared.
func (e *Engine) alloc(label string) *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		ev.label = label
		return ev
	}
	return &event{label: label}
}

// enqueue queues ev at time at behind every event already queued for the
// same instant.
func (e *Engine) enqueue(at Time, ev *event) {
	e.newest[at&(joinSlots-1)] = e.seq
	e.queue.push(entry{at: at, seq: e.seq, ev: ev})
	e.seq++
}

// atFront schedules handler at Now, ahead of every event already queued
// for Now. A Line resumes a batch that Stop or a failure interrupted with
// it, so the batch's remaining items still fire before everything else due
// at this instant. The event takes the seq of the event firing now, which
// is below the seq of every event still queued for Now.
func (e *Engine) atFront(label string, handler Handler) EventID {
	ev := e.alloc(label)
	ev.handler = handler
	e.queue.push(entry{at: e.now, seq: e.cur, ev: ev})
	return EventID{ev, ev.gen}
}

// isLast reports whether id's event is still queued and no event has been
// queued for its instant since it was. A Line adds an item to such an event
// instead of scheduling one behind it. The check is that the event's seq is
// still its slot's entry in newest, so an event queued since for another
// instant in the same slot also refuses the join: that costs an event, and
// never changes the fire order.
func (e *Engine) isLast(id EventID) bool {
	ev := id.ev
	if ev == nil || id.gen != ev.gen || ev.index == notQueued {
		return false
	}
	x := e.queue[ev.index]
	return e.newest[x.at&(joinSlots-1)] == x.seq
}

// release recycles a fired or cancelled event. Bumping the generation
// invalidates every outstanding EventID for it before the struct is reused;
// dropping the handler reference frees the captured closure state now
// instead of at the next reuse.
func (e *Engine) release(ev *event) {
	ev.gen++
	ev.handler = nil
	ev.argFn, ev.arg = nil, nil
	e.free = append(e.free, ev)
}

// After schedules handler to run d nanoseconds from now.
func (e *Engine) After(d Time, label string, handler Handler) EventID {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v for event %q", d, label))
	}
	return e.At(e.now+d, label, handler)
}

// Cancel removes a scheduled event from the queue eagerly (so long fault
// runs that cancel many timers never accumulate dead entries). Cancelling an
// already-fired or already-cancelled event is a no-op and reports false.
func (e *Engine) Cancel(id EventID) bool {
	ev := id.ev
	if ev == nil || id.gen != ev.gen || ev.index == notQueued {
		return false
	}
	e.queue.remove(ev.index)
	e.release(ev)
	return true
}

// Stop makes Run return after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Fail records err as the simulation's error, unless one is recorded
// already, and stops the engine: a model calls it when the run cannot go
// on. Like an invariant violation it is final — Err reports it, and Run
// returns at once while an error is set.
func (e *Engine) Fail(err error) {
	if e.err == nil {
		e.err = err
	}
	e.stopped = true
}

// SetInvariantCheck installs a model self-check that runs after every
// executed event, and after every item of a Line — the engine's debug mode.
// Together with the scheduled-in-the-past panic in At, it turns causality
// and state-consistency bugs into immediate, attributable failures instead
// of silently wrong results. When the check returns an error, the engine
// records it (see Err) and stops; the error names the event that broke the
// invariant. Pass nil to disable. The check runs after *every* event, so
// keep it cheap or reserve it for tests.
func (e *Engine) SetInvariantCheck(f func() error) { e.check = f }

// Err returns the first error recorded by Fail or by the installed
// invariant check, or nil. Once set, the engine stays stopped.
func (e *Engine) Err() error { return e.err }

// afterEvent runs the invariant check, if any, after the event (or Line
// item) labelled label, and latches the first violation.
func (e *Engine) afterEvent(label string) {
	if e.check != nil && e.err == nil {
		e.runCheck(label)
	}
}

// runCheck is afterEvent's slow path, kept apart so that afterEvent
// inlines.
func (e *Engine) runCheck(label string) {
	if err := e.check(); err != nil {
		e.Fail(fmt.Errorf("sim: invariant violated after event %q at %v: %w", label, e.now, err))
	}
}

// Run executes events in timestamp order until the queue drains, the next
// event lies beyond the horizon, or Stop is called, and returns Now().
// Events scheduled exactly at the horizon still run. When the queue drains or
// Stop is called, the clock stays at the last executed event (or where it
// was, if nothing ran). When the next event lies beyond the horizon, it stays
// queued for a later call and the clock advances to the horizon itself.
// While an error is recorded (Err), Run executes nothing.
func (e *Engine) Run(horizon Time) Time {
	if e.err != nil {
		return e.now
	}
	e.stopped = false
	for !e.stopped && len(e.queue) > 0 {
		if e.queue[0].at > horizon {
			e.now = horizon
			break
		}
		e.fire()
	}
	return e.now
}

// fire pops the earliest event, advances the clock to it and runs it.
func (e *Engine) fire() {
	x := e.queue[0]
	ev := e.queue.remove(0)
	e.now, e.cur = x.at, x.seq
	e.processed++
	ev.fire()
	e.afterEvent(ev.label)
	e.release(ev)
}

// Ticker repeatedly schedules a handler with a fixed period. It is the shape
// of the TDM slot clock and the scheduler's SL clock.
type Ticker struct {
	engine  *Engine
	period  Time
	label   string
	handler Handler
	fireFn  Handler // cached t.fire method value so rescheduling allocates nothing per tick
	next    EventID
	active  bool
}

// NewTicker creates a stopped ticker. period must be positive.
func (e *Engine) NewTicker(period Time, label string, handler Handler) *Ticker {
	if period <= 0 {
		panic(fmt.Sprintf("sim: ticker %q period %v must be positive", label, period))
	}
	t := &Ticker{engine: e, period: period, label: label, handler: handler}
	t.fireFn = t.fire
	return t
}

// Start begins ticking; the first tick fires after one full period. Starting
// an active ticker is a no-op.
func (t *Ticker) Start() {
	if t.active {
		return
	}
	t.active = true
	t.schedule()
}

// StartAt begins ticking with the first tick at absolute time first.
func (t *Ticker) StartAt(first Time) {
	if t.active {
		return
	}
	t.active = true
	t.next = t.engine.At(first, t.label, t.fireFn)
}

func (t *Ticker) schedule() {
	t.next = t.engine.After(t.period, t.label, t.fireFn)
}

func (t *Ticker) fire() {
	if !t.active {
		return
	}
	t.handler()
	if t.active {
		t.schedule()
	}
}

// Stop halts the ticker; pending tick is cancelled.
func (t *Ticker) Stop() {
	if !t.active {
		return
	}
	t.active = false
	t.engine.Cancel(t.next)
}

// Active reports whether the ticker is running.
func (t *Ticker) Active() bool { return t.active }
