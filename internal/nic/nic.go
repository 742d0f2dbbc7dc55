// Package nic models the network interface card of each processor.
//
// Per paper §4, each NIC's output buffer implements N logical queues, one
// per destination; the request signal R_u it raises toward the scheduler has
// one bit per non-empty logical queue. The same buffer structure serves the
// baseline networks, which drain it in plain FIFO order (wormhole and
// circuit switching send whole messages one at a time), while the TDM
// network drains per-destination queues a slot's payload at a time.
//
// Storage is sized by the run's connections, not by N: all NICs share one
// queue array indexed by the run's connection ids (topology.ConnTable), and
// every queue is an intrusive list threaded through the messages themselves.
//
// The NIC hardware cost is the paper's synthesized figure: a single-cycle
// 10 ns delay to send or receive data.
package nic

import (
	"fmt"
	"math"
	"slices"

	"pmsnet/internal/sim"
	"pmsnet/internal/topology"
)

// Paper §5 NIC timing: "requires a single-cycle delay of 10 ns to send or
// receive data".
const (
	SendOverhead sim.Time = 10
	RecvOverhead sim.Time = 10
)

// Message is one in-flight message. A Message is created when the program's
// SEND op executes and retired when the last byte reaches the destination
// NIC. It is also the run's record of the message: the network model stamps
// Delivered, and the run's statistics are computed from the messages
// themselves.
//
// A Message is one 64-byte cache line: the identity and size fields are
// 32-bit (a workload holds at most math.MaxInt32 messages of at most
// math.MaxInt32 bytes each) and the state bits share one byte.
type Message struct {
	ID      int32
	Src     int32
	Dst     int32
	Bytes   int32
	Created sim.Time
	// Delivered is set by the network model when the message completes.
	Delivered sim.Time

	// next links the message to its successor in its destination queue;
	// prev and after link it into the buffer's global arrival order.
	next, prev, after *Message

	remaining int32
	// Retries counts how many times the message (or a part of it) was
	// retransmitted after a fault; it doubles as the backoff exponent of the
	// next retry timer. It saturates rather than wraps (see NoteRetry).
	Retries uint16
	flags   uint8
}

// Message state bits.
const (
	// flagQueued: the message is in an output buffer.
	flagQueued uint8 = 1 << iota
	// flagDropped: the fault layer dropped the message.
	flagDropped
	// flagBlocking: the sender's program waits for the message (SEND_WAIT).
	flagBlocking
)

// Dropped reports whether the message was explicitly dropped by the fault
// layer instead of delivered.
func (m *Message) Dropped() bool { return m.flags&flagDropped != 0 }

// MarkDropped records the drop; a message cannot be dropped twice or after
// delivery.
func (m *Message) MarkDropped() error {
	if m.Delivered != 0 {
		return fmt.Errorf("nic: message %d dropped after delivery", m.ID)
	}
	if m.Dropped() {
		return fmt.Errorf("nic: message %d dropped twice", m.ID)
	}
	m.flags |= flagDropped
	return nil
}

// Blocking reports whether the sender's program waits for this message to be
// delivered or dropped before it continues.
func (m *Message) Blocking() bool { return m.flags&flagBlocking != 0 }

// MarkBlocking records that the sender waits for the message (a SEND_WAIT).
func (m *Message) MarkBlocking() { m.flags |= flagBlocking }

// NoteRetry counts one retransmission. The count saturates at
// math.MaxUint16: as a backoff exponent it has long reached the retry cap.
func (m *Message) NoteRetry() {
	if m.Retries < math.MaxUint16 {
		m.Retries++
	}
}

// Remaining returns the bytes not yet transmitted.
func (m *Message) Remaining() int { return int(m.remaining) }

// OutBuffer is a NIC's output buffer: one logical queue per destination plus
// the global arrival order.
type OutBuffer struct {
	id int
	n  int
	// base is the id of the NIC's first connection in the run's table; dst
	// lists the row's destinations, ascending, and q their queues: the
	// queue of connection id is q[id-base]. q is a window of the run's one
	// queue array.
	base int32
	dst  []int32
	q    []dstQueue
	// first and last are the oldest and newest queued messages.
	first, last *Message
	// pending counts queued messages.
	pending int
}

// dstQueue is one connection's logical queue, oldest message at head: 16
// bytes per connection of the run.
type dstQueue struct {
	head, tail *Message
}

// NewOutBuffers creates the output buffers of all NICs of a run, one queue
// per connection of its table: NIC p queues toward the destinations of row
// p. The buffers and all queues are two shared allocations.
func NewOutBuffers(t *topology.ConnTable) []*OutBuffer {
	n := t.Ports()
	bufs := make([]OutBuffer, n)
	queues := make([]dstQueue, t.Len())
	out := make([]*OutBuffer, n)
	for p := range bufs {
		b := &bufs[p]
		lo, hi := t.Row(p)
		b.id, b.n, b.base = p, n, lo
		b.dst, b.q = t.RowDsts(p), queues[lo:hi:hi]
		out[p] = b
	}
	return out
}

// ID returns the NIC's processor id.
func (b *OutBuffer) ID() int { return b.id }

// Conn returns the id of the connection toward dst, or -1 when the NIC has
// no queue toward it. It searches the NIC's row; the per-message paths take
// the id Enqueue returned instead.
func (b *OutBuffer) Conn(dst int) int32 {
	b.checkDst(dst)
	if i, ok := slices.BinarySearch(b.dst, int32(dst)); ok {
		return b.base + int32(i)
	}
	return -1
}

// find returns dst's queue, or nil if the NIC has none toward dst.
func (b *OutBuffer) find(dst int) *dstQueue {
	if id := b.Conn(dst); id >= 0 {
		return &b.q[id-b.base]
	}
	return nil
}

// queue returns connection id's queue; id must be in the NIC's row.
func (b *OutBuffer) queue(id int32) *dstQueue { return &b.q[id-b.base] }

// Enqueue admits a message into its destination's logical queue. It returns
// the message's connection id and whether the queue was empty before: the
// 0→1 transition that raises the request bit.
func (b *OutBuffer) Enqueue(m *Message) (id int32, first bool) {
	if int(m.Src) != b.id {
		panic(fmt.Sprintf("nic %d: enqueue of message from %d", b.id, m.Src))
	}
	if m.Dst < 0 || int(m.Dst) >= b.n || int(m.Dst) == b.id {
		panic(fmt.Sprintf("nic %d: bad destination %d", b.id, m.Dst))
	}
	if m.Bytes <= 0 {
		panic(fmt.Sprintf("nic %d: message size %d", b.id, m.Bytes))
	}
	if m.flags&flagQueued != 0 {
		panic(fmt.Sprintf("nic %d: message %d enqueued twice", b.id, m.ID))
	}
	id = b.Conn(int(m.Dst))
	if id < 0 {
		panic(fmt.Sprintf("nic %d: no queue toward %d: the connection is outside the run's table", b.id, m.Dst))
	}
	m.remaining = m.Bytes
	m.flags |= flagQueued
	q := b.queue(id)
	m.next = nil
	first = q.tail == nil
	if first {
		q.head = m
	} else {
		q.tail.next = m
	}
	q.tail = m
	m.prev, m.after = b.last, nil
	if b.last != nil {
		b.last.after = m
	} else {
		b.first = m
	}
	b.last = m
	b.pending++
	return id, first
}

// Len returns the number of queued messages.
func (b *OutBuffer) Len() int { return b.pending }

// HasFor reports whether the logical queue toward dst is non-empty — the
// R_{u,dst} request bit.
func (b *OutBuffer) HasFor(dst int) bool { return b.Head(dst) != nil }

// Has reports whether connection id's queue is non-empty.
func (b *OutBuffer) Has(id int32) bool { return b.queue(id).head != nil }

// Bytes returns the unsent bytes queued on connection id.
func (b *OutBuffer) Bytes(id int32) int64 {
	var n int64
	for m := b.queue(id).head; m != nil; m = m.next {
		n += int64(m.remaining)
	}
	return n
}

// Head returns the oldest message queued toward dst, or nil.
func (b *OutBuffer) Head(dst int) *Message {
	if q := b.find(dst); q != nil {
		return q.head
	}
	return nil
}

// HeadOf returns the oldest message queued on connection id, or nil.
func (b *OutBuffer) HeadOf(id int32) *Message { return b.queue(id).head }

// TransmitTo sends up to maxBytes of the head message toward dst; see
// Transmit, which takes the connection id instead of searching for it.
func (b *OutBuffer) TransmitTo(dst, maxBytes int) (sent int, completed *Message) {
	id := b.Conn(dst)
	if id < 0 {
		b.checkBudget(maxBytes)
		return 0, nil
	}
	sent, completed, _ = b.Transmit(id, maxBytes)
	return sent, completed
}

// Transmit sends up to maxBytes of connection id's head message (the TDM
// per-slot transfer). It returns the bytes sent and, when the message
// finished, the completed message (already removed from the buffer), and
// whether that emptied the queue.
func (b *OutBuffer) Transmit(id int32, maxBytes int) (sent int, completed *Message, drained bool) {
	b.checkBudget(maxBytes)
	q := b.queue(id)
	m := q.head
	if m == nil {
		return 0, nil, false
	}
	sent = min(maxBytes, int(m.remaining))
	m.remaining -= int32(sent)
	if m.remaining == 0 {
		b.popHead(q)
		return sent, m, q.head == nil
	}
	return sent, nil, false
}

func (b *OutBuffer) checkBudget(maxBytes int) {
	if maxBytes <= 0 {
		panic(fmt.Sprintf("nic %d: non-positive transfer budget %d", b.id, maxBytes))
	}
}

// popHead removes q's head message, unsent bytes included, from the buffer.
func (b *OutBuffer) popHead(q *dstQueue) {
	m := q.head
	q.head = m.next
	if q.head == nil {
		q.tail = nil
	}
	b.unlinkArrival(m)
	b.retire(m)
}

// unlinkArrival takes m out of the global arrival order.
func (b *OutBuffer) unlinkArrival(m *Message) {
	if m.prev != nil {
		m.prev.after = m.after
	} else {
		b.first = m.after
	}
	if m.after != nil {
		m.after.prev = m.prev
	} else {
		b.last = m.prev
	}
}

// retire clears a message that has left the buffer.
func (b *OutBuffer) retire(m *Message) {
	b.pending--
	m.remaining = 0
	m.flags &^= flagQueued
	m.next, m.prev, m.after = nil, nil, nil
}

// PopFIFO removes and returns the oldest queued message; the caller becomes
// responsible for transmitting it. It returns nil when the buffer is empty.
func (b *OutBuffer) PopFIFO() *Message {
	m := b.first
	if m == nil {
		return nil
	}
	// Every destination queue is its messages in arrival order, so the
	// oldest message overall heads its own queue.
	b.popHead(b.find(int(m.Dst)))
	return m
}

// DrainFor removes and returns every message queued toward dst — the fault
// layer's bulk-drop path when dst becomes unreachable. The returned messages
// are no longer queued; the caller owns their accounting.
func (b *OutBuffer) DrainFor(dst int) []*Message {
	q := b.find(dst)
	if q == nil || q.head == nil {
		return nil
	}
	var out []*Message
	for q.head != nil {
		out = append(out, q.head)
		b.popHead(q)
	}
	return out
}

// DrainAll removes and returns every queued message in arrival order — the
// bulk-drop path when this NIC's own link permanently fails.
func (b *OutBuffer) DrainAll() []*Message {
	out := make([]*Message, 0, b.pending)
	for m := b.first; m != nil; m = m.after {
		out = append(out, m)
	}
	for _, m := range out {
		b.retire(m)
	}
	clear(b.q)
	b.first, b.last = nil, nil
	return out
}

// Check verifies the buffer's bookkeeping: Len is the number of messages in
// the destination queues, and every destination queue is exactly its
// messages of the global arrival order, in that order. It is the invariant
// hook of the simulators' self-check mode. cursor is a caller-owned slice
// with one entry per destination, all nil, so a check allocates nothing;
// Check leaves it all nil again.
func (b *OutBuffer) Check(cursor []*Message) error {
	var count int
	for i := range b.q {
		q := &b.q[i]
		dst := int(b.dst[i])
		var last *Message
		for m := q.head; m != nil; m = m.next {
			if int(m.Dst) != dst || m.flags&flagQueued == 0 {
				return fmt.Errorf("nic %d: message %d misplaced in the queue toward %d", b.id, m.ID, dst)
			}
			count++
			last = m
		}
		if last != q.tail {
			return fmt.Errorf("nic %d: the queue toward %d does not end at its tail", b.id, dst)
		}
	}
	if count != b.pending {
		return fmt.Errorf("nic %d: Len %d but destination queues hold %d", b.id, b.pending, count)
	}
	// cursor[dst] walks the queue toward dst alongside the arrival order.
	for i, dst := range b.dst {
		cursor[dst] = b.q[i].head
	}
	err := b.checkArrival(cursor)
	for _, dst := range b.dst {
		cursor[dst] = nil
	}
	return err
}

// checkArrival walks the arrival order, advancing each message's queue
// cursor past it.
func (b *OutBuffer) checkArrival(cursor []*Message) error {
	var n int
	var prev *Message
	for m := b.first; m != nil; m = m.after {
		if m.prev != prev {
			return fmt.Errorf("nic %d: arrival order broken at message %d", b.id, m.ID)
		}
		if m.Dst < 0 || int(m.Dst) >= len(cursor) || cursor[m.Dst] != m {
			return fmt.Errorf("nic %d: message %d out of order in its queue toward %d", b.id, m.ID, m.Dst)
		}
		cursor[m.Dst] = m.next
		n++
		prev = m
	}
	if prev != b.last || n != b.pending {
		return fmt.Errorf("nic %d: arrival order holds %d messages; Len %d", b.id, n, b.pending)
	}
	return nil
}

func (b *OutBuffer) checkDst(dst int) {
	if dst < 0 || dst >= b.n {
		panic(fmt.Sprintf("nic %d: destination %d outside [0,%d)", b.id, dst, b.n))
	}
}
