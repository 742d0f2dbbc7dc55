// Package nic models the network interface card of each processor.
//
// Per paper §4, each NIC's output buffer implements N logical queues, one
// per destination; the request signal R_u it raises toward the scheduler has
// one bit per non-empty logical queue. The same buffer structure serves the
// baseline networks, which drain it in plain FIFO order (wormhole and
// circuit switching send whole messages one at a time), while the TDM
// network drains per-destination queues a slot's payload at a time.
//
// Storage is sized by traffic, not by N: a buffer holds a record only for
// the destinations it has queued toward, in a small open-addressed hash
// table, and every queue is an intrusive list threaded through the messages
// themselves.
//
// The NIC hardware cost is the paper's synthesized figure: a single-cycle
// 10 ns delay to send or receive data.
package nic

import (
	"fmt"
	"math"
	"math/bits"

	"pmsnet/internal/sim"
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
	// table holds one record per destination ever queued toward, found by
	// open addressing with linear probing: a power-of-two length, at most
	// half full. Records are never removed.
	table []dstQueue
	used  int   // records in table
	shift uint8 // 32 - log2(len(table))
	// first and last are the oldest and newest queued messages.
	first, last *Message
	// pending counts queued messages; bytesPending counts their unsent bytes.
	pending      int
	bytesPending int64
}

// dstQueue is one destination's logical queue, oldest message at head. key
// is the destination plus one; zero marks an empty table slot.
type dstQueue struct {
	head, tail *Message
	count      int32
	key        int32
}

// NewOutBuffer creates the output buffer of NIC `id` in an N-processor
// system.
func NewOutBuffer(id, n int) *OutBuffer {
	if n <= 0 || id < 0 || id >= n {
		panic(fmt.Sprintf("nic: invalid NIC id %d for %d processors", id, n))
	}
	return &OutBuffer{id: id, n: n}
}

// NewOutBuffers creates the output buffers of all n NICs of a run, NIC p
// with room for dsts[p] destination queues. The buffers and their tables
// are carved from two shared allocations; a NIC that queues toward more
// destinations than reserved grows its own table.
func NewOutBuffers(n int, dsts []int) []*OutBuffer {
	if len(dsts) != n {
		panic(fmt.Sprintf("nic: %d destination counts for %d processors", len(dsts), n))
	}
	var slots int
	for _, k := range dsts {
		slots += tableSize(k)
	}
	bufs := make([]OutBuffer, n)
	tables := make([]dstQueue, slots)
	out := make([]*OutBuffer, n)
	for p, k := range dsts {
		b := &bufs[p]
		b.id, b.n = p, n
		if size := tableSize(k); size > 0 {
			b.setTable(tables[:size:size])
			tables = tables[size:]
		}
		out[p] = b
	}
	return out
}

// tableSize is the table length that holds k records: zero for none,
// otherwise a power of two, at least eight, at most half full.
func tableSize(k int) int {
	if k == 0 {
		return 0
	}
	size := 8
	for size < 2*k {
		size *= 2
	}
	return size
}

// ID returns the NIC's processor id.
func (b *OutBuffer) ID() int { return b.id }

// setTable installs an empty table of power-of-two length.
func (b *OutBuffer) setTable(t []dstQueue) {
	b.table = t
	b.shift = uint8(32 - bits.TrailingZeros(uint(len(t))))
}

// home is dst's first probe position: Fibonacci hashing spreads the
// destinations over the table.
func (b *OutBuffer) home(dst int) int { return int(uint32(dst) * 0x9E3779B9 >> b.shift) }

// find returns dst's record, or nil if the buffer never queued toward dst.
// The pointer is valid until the next record is created.
func (b *OutBuffer) find(dst int) *dstQueue {
	if len(b.table) == 0 {
		return nil
	}
	key := int32(dst + 1)
	mask := len(b.table) - 1
	for i := b.home(dst); ; i = (i + 1) & mask {
		q := &b.table[i]
		if q.key == key {
			return q
		}
		if q.key == 0 {
			return nil
		}
	}
}

// record returns dst's record, creating it on first use.
func (b *OutBuffer) record(dst int) *dstQueue {
	if q := b.find(dst); q != nil {
		return q
	}
	if tableSize(b.used+1) > len(b.table) {
		old := b.table
		b.setTable(make([]dstQueue, tableSize(b.used+1)))
		for i := range old {
			if old[i].key != 0 {
				*b.slot(int(old[i].key - 1)) = old[i]
			}
		}
	}
	b.used++
	q := b.slot(dst)
	q.key = int32(dst + 1)
	return q
}

// slot returns the empty table slot where dst's record goes.
func (b *OutBuffer) slot(dst int) *dstQueue {
	mask := len(b.table) - 1
	i := b.home(dst)
	for b.table[i].key != 0 {
		i = (i + 1) & mask
	}
	return &b.table[i]
}

// Enqueue admits a message into its destination's logical queue.
func (b *OutBuffer) Enqueue(m *Message) {
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
	m.remaining = m.Bytes
	m.flags |= flagQueued
	q := b.record(int(m.Dst))
	m.next = nil
	if q.tail != nil {
		q.tail.next = m
	} else {
		q.head = m
	}
	q.tail = m
	q.count++
	m.prev, m.after = b.last, nil
	if b.last != nil {
		b.last.after = m
	} else {
		b.first = m
	}
	b.last = m
	b.pending++
	b.bytesPending += int64(m.Bytes)
}

// Len returns the number of queued messages.
func (b *OutBuffer) Len() int { return b.pending }

// BytesPending returns the unsent bytes across all queues.
func (b *OutBuffer) BytesPending() int64 { return b.bytesPending }

// HasFor reports whether the logical queue toward dst is non-empty — the
// R_{u,dst} request bit.
func (b *OutBuffer) HasFor(dst int) bool { return b.CountFor(dst) > 0 }

// CountFor returns the number of messages queued toward dst.
func (b *OutBuffer) CountFor(dst int) int {
	b.checkDst(dst)
	if q := b.find(dst); q != nil {
		return int(q.count)
	}
	return 0
}

// BytesFor returns the unsent bytes queued toward dst.
func (b *OutBuffer) BytesFor(dst int) int64 {
	var n int64
	for m := b.Head(dst); m != nil; m = m.next {
		n += int64(m.remaining)
	}
	return n
}

// Head returns the oldest message queued toward dst, or nil.
func (b *OutBuffer) Head(dst int) *Message {
	b.checkDst(dst)
	if q := b.find(dst); q != nil {
		return q.head
	}
	return nil
}

// TransmitTo sends up to maxBytes of the head message toward dst (the TDM
// per-slot transfer). It returns the bytes sent and, when the message
// finished, the completed message (already removed from the buffer).
func (b *OutBuffer) TransmitTo(dst, maxBytes int) (sent int, completed *Message) {
	b.checkDst(dst)
	if maxBytes <= 0 {
		panic(fmt.Sprintf("nic %d: non-positive transfer budget %d", b.id, maxBytes))
	}
	q := b.find(dst)
	if q == nil || q.head == nil {
		return 0, nil
	}
	m := q.head
	sent = min(maxBytes, int(m.remaining))
	m.remaining -= int32(sent)
	b.bytesPending -= int64(sent)
	if m.remaining == 0 {
		b.popHead(q)
		completed = m
	}
	return sent, completed
}

// popHead removes q's head message, unsent bytes included, from the buffer.
func (b *OutBuffer) popHead(q *dstQueue) {
	m := q.head
	q.head = m.next
	if q.head == nil {
		q.tail = nil
	}
	q.count--
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
	b.bytesPending -= int64(m.remaining)
	m.remaining = 0
	m.flags &^= flagQueued
	m.next, m.prev, m.after = nil, nil, nil
}

// NextFIFO returns the oldest queued message across all destinations, or
// nil. Wormhole and circuit switching serve messages in this order.
func (b *OutBuffer) NextFIFO() *Message { return b.first }

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
	b.checkDst(dst)
	q := b.find(dst)
	if q == nil || q.head == nil {
		return nil
	}
	out := make([]*Message, 0, q.count)
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
	for i := range b.table {
		q := &b.table[i]
		q.head, q.tail, q.count = nil, nil, 0
	}
	b.first, b.last = nil, nil
	return out
}

// Check verifies the buffer's bookkeeping: Len is the sum of the
// per-destination counts, BytesPending the sum of the queued messages'
// remaining bytes, every destination queue is exactly its messages of the
// global arrival order, in that order, and every record is found by its
// destination. It is the invariant hook of the simulators' self-check mode.
func (b *OutBuffer) Check() error {
	// cursor walks each destination's list alongside the arrival order.
	cursor := make(map[*dstQueue]*Message, b.used)
	var count int
	for i := range b.table {
		q := &b.table[i]
		if q.key == 0 {
			continue
		}
		dst := int(q.key - 1)
		if b.find(dst) != q {
			return fmt.Errorf("nic %d: the record of destination %d is not found by it", b.id, dst)
		}
		var n int32
		var last *Message
		for m := q.head; m != nil; m = m.next {
			if int(m.Dst) != dst || m.flags&flagQueued == 0 {
				return fmt.Errorf("nic %d: message %d misplaced in the queue toward %d", b.id, m.ID, dst)
			}
			n++
			last = m
		}
		if n != q.count || last != q.tail {
			return fmt.Errorf("nic %d: queue toward %d holds %d messages, counted %d", b.id, dst, n, q.count)
		}
		cursor[q] = q.head
		count += int(n)
	}
	if len(cursor) != b.used {
		return fmt.Errorf("nic %d: %d records in the table, %d counted", b.id, len(cursor), b.used)
	}
	if count != b.pending {
		return fmt.Errorf("nic %d: Len %d but destination queues hold %d", b.id, b.pending, count)
	}
	var n int
	var bytes int64
	var prev *Message
	for m := b.first; m != nil; m = m.after {
		if m.prev != prev {
			return fmt.Errorf("nic %d: arrival order broken at message %d", b.id, m.ID)
		}
		q := b.find(int(m.Dst))
		if q == nil || cursor[q] != m {
			return fmt.Errorf("nic %d: message %d out of order in its queue toward %d", b.id, m.ID, m.Dst)
		}
		cursor[q] = m.next
		n++
		bytes += int64(m.remaining)
		prev = m
	}
	if prev != b.last || n != b.pending || bytes != b.bytesPending {
		return fmt.Errorf("nic %d: arrival order holds %d messages, %d bytes; Len %d, BytesPending %d",
			b.id, n, bytes, b.pending, b.bytesPending)
	}
	return nil
}

func (b *OutBuffer) checkDst(dst int) {
	if dst < 0 || dst >= b.n {
		panic(fmt.Sprintf("nic %d: destination %d outside [0,%d)", b.id, dst, b.n))
	}
}
