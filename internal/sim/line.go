package sim

import "fmt"

// Line is a fixed-delay FIFO of work items: an item pushed at time t is
// handed to the line's handler at t+delay. Every item waits the same delay,
// so items reach the handler in push order. A model's fixed-delay traffic
// (request-wire transitions, message deliveries, NIC send overheads) piles
// up on a few instants, and a Line folds the items due at one instant into
// one engine event instead of scheduling an event per item.
//
// Folding keeps the engine's (at, seq) fire order exactly. Push adds an item
// to the newest batch only while that batch's event is still queued, due at
// Now()+delay, and the last event queued for that instant (Engine.isLast):
// then no other event has been queued for the instant since the batch's
// event was, and an event for the new item would have fired right after
// the batch's items anyway. Otherwise Push schedules a new event. An event
// in the far heap is never joined.
//
// The invariant check (Engine.SetInvariantCheck) runs after every item, as
// it would after an event per item. After an item that stops the engine
// (Stop, Fail or a violated invariant), the rest of its batch goes back to
// the head of the current instant, to fire first when Run resumes; after a
// failure Run never resumes, so the rest of the batch never runs.
type Line[T any] struct {
	eng    *Engine
	delay  Time
	label  string
	fn     func(T)
	fireFn Handler // cached l.fire method value, so a new batch allocates no closure

	items   ring[T]     // pushed and not yet handed over, oldest first
	batches ring[int32] // the item count of each queued batch, oldest first
	last    EventID     // the newest batch's event
	lastAt  Time        // and its due time
}

// NewLine returns an empty line that hands each item to fn delay
// nanoseconds after it was pushed. Its events carry label.
func NewLine[T any](e *Engine, delay Time, label string, fn func(T)) *Line[T] {
	if delay < 0 {
		panic(fmt.Sprintf("sim: line %q has negative delay %v", label, delay))
	}
	if fn == nil {
		panic(fmt.Sprintf("sim: line %q has nil handler", label))
	}
	l := &Line[T]{eng: e, delay: delay, label: label, fn: fn}
	l.fireFn = l.fire
	return l
}

// Push queues x for the handler, delay nanoseconds from now.
func (l *Line[T]) Push(x T) {
	at := l.eng.now + l.delay
	if at == l.lastAt && l.eng.isLast(l.last) {
		*l.batches.back()++
	} else {
		l.last = l.eng.At(at, l.label, l.fireFn)
		l.lastAt = at
		l.batches.push(1)
	}
	l.items.push(x)
}

// Len returns the number of items pushed and not yet handed to the handler.
func (l *Line[T]) Len() int { return l.items.n }

// fire hands the oldest batch's items to the handler. The engine runs the
// invariant check after the event, so fire runs it after every item but the
// last. The handler may push onto this line: the batch firing now is no
// longer queued, so such an item starts or joins a later batch.
func (l *Line[T]) fire() {
	e := l.eng
	for {
		l.fn(l.items.pop())
		left := l.batches.front()
		if *left--; *left == 0 {
			l.batches.pop()
			return
		}
		if !e.stopped {
			e.afterEvent(l.label)
		}
		if e.stopped {
			id := e.atFront(l.label, l.fireFn)
			if l.batches.n == 1 {
				l.last, l.lastAt = id, e.now
			}
			return
		}
	}
}

// ring is a growable FIFO ring buffer.
type ring[T any] struct {
	buf  []T // length zero or a power of two
	head int
	n    int
}

func (r *ring[T]) push(x T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = x
	r.n++
}

// pop removes and returns the oldest element; the ring must not be empty.
func (r *ring[T]) pop() T {
	x := r.buf[r.head]
	var zero T
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return x
}

// front and back point at the oldest and newest elements; the ring must not
// be empty, and the pointers are valid until the next push.
func (r *ring[T]) front() *T { return &r.buf[r.head] }
func (r *ring[T]) back() *T  { return &r.buf[(r.head+r.n-1)&(len(r.buf)-1)] }

// grow doubles the buffer, unwrapping the elements to its front.
func (r *ring[T]) grow() {
	buf := make([]T, max(16, 2*len(r.buf)))
	n := copy(buf, r.buf[r.head:])
	copy(buf[n:], r.buf[:r.head])
	r.buf, r.head = buf, 0
}
