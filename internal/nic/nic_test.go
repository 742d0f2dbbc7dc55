package nic

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func msg(id, src, dst, bytes int) *Message {
	return &Message{ID: int32(id), Src: int32(src), Dst: int32(dst), Bytes: int32(bytes)}
}

// countFor returns the number of messages b queues toward dst, walking the
// queue's links.
func countFor(b *OutBuffer, dst int) int {
	n := 0
	for m := b.Head(dst); m != nil; m = m.next {
		n++
	}
	return n
}

// bytesPending returns the unsent bytes b queues across all its
// connections.
func bytesPending(b *OutBuffer) int64 {
	var n int64
	for i := range b.q {
		n += b.Bytes(b.base + int32(i))
	}
	return n
}

// TestMessageLayout pins a Message to one 64-byte cache line. A run holds
// one Message per simulated message and nothing else per message, so a field
// added here costs every run its size times the message count.
func TestMessageLayout(t *testing.T) {
	if size := unsafe.Sizeof(Message{}); size != 64 {
		t.Fatalf("unsafe.Sizeof(Message{}) = %d bytes, want 64: a new field must fit the cache line", size)
	}
}

// TestMessageFlags checks that the state bits sharing one byte stay apart:
// queueing, retiring, dropping and blocking each touch only their own bit.
func TestMessageFlags(t *testing.T) {
	b := NewOutBuffer(0, 4)
	m := msg(1, 0, 2, 64)
	m.MarkBlocking()
	b.Enqueue(m)
	if !m.Blocking() || m.Dropped() {
		t.Fatal("enqueue changed the blocking or dropped bit")
	}
	if drained := b.DrainFor(2); len(drained) != 1 || drained[0] != m {
		t.Fatalf("DrainFor = %v", drained)
	}
	if err := m.MarkDropped(); err != nil {
		t.Fatal(err)
	}
	if !m.Blocking() || !m.Dropped() {
		t.Fatal("drop cleared the blocking bit")
	}
	if err := m.MarkDropped(); err == nil {
		t.Fatal("second drop accepted")
	}
	b.Enqueue(m) // a retired message may be queued again (retransmission)
	if b.Len() != 1 || !m.Blocking() {
		t.Fatal("re-enqueue after retire failed")
	}
	if msg(2, 0, 3, 8).Blocking() {
		t.Fatal("a fresh message is blocking")
	}
}

// TestNoteRetrySaturates checks that the 16-bit retry count stops at its
// maximum instead of wrapping to a zero backoff exponent.
func TestNoteRetrySaturates(t *testing.T) {
	m := msg(1, 0, 2, 64)
	m.NoteRetry()
	if m.Retries != 1 {
		t.Fatalf("Retries = %d after one retry", m.Retries)
	}
	m.Retries = math.MaxUint16 - 1
	m.NoteRetry()
	m.NoteRetry()
	if m.Retries != math.MaxUint16 {
		t.Fatalf("Retries = %d, want saturation at %d", m.Retries, math.MaxUint16)
	}
}

func TestEnqueueAndRequestBits(t *testing.T) {
	b := NewOutBuffer(0, 4)
	if b.Len() != 0 || bytesPending(b) != 0 {
		t.Fatal("new buffer should be empty")
	}
	b.Enqueue(msg(1, 0, 2, 64))
	b.Enqueue(msg(2, 0, 2, 32))
	b.Enqueue(msg(3, 0, 3, 16))
	if b.Len() != 3 || bytesPending(b) != 112 {
		t.Fatalf("Len=%d bytes pending=%d", b.Len(), bytesPending(b))
	}
	if !b.HasFor(2) || !b.HasFor(3) || b.HasFor(1) {
		t.Fatal("request bits wrong")
	}
	if countFor(b, 2) != 2 || countFor(b, 3) != 1 || countFor(b, 1) != 0 {
		t.Fatalf("queued = %d %d %d, want 2 1 0", countFor(b, 2), countFor(b, 3), countFor(b, 1))
	}
	if b.Head(2).ID != 1 || b.Head(3).ID != 3 || b.Head(1) != nil {
		t.Fatal("Head wrong")
	}
}

func TestTransmitToFragments(t *testing.T) {
	b := NewOutBuffer(0, 4)
	b.Enqueue(msg(1, 0, 2, 100))
	sent, done := b.TransmitTo(2, 64)
	if sent != 64 || done != nil {
		t.Fatalf("first slot: sent=%d done=%v", sent, done)
	}
	if b.Head(2).Remaining() != 36 {
		t.Fatalf("remaining = %d, want 36", b.Head(2).Remaining())
	}
	sent, done = b.TransmitTo(2, 64)
	if sent != 36 || done == nil || done.ID != 1 {
		t.Fatalf("second slot: sent=%d done=%v", sent, done)
	}
	if b.Len() != 0 || b.HasFor(2) || bytesPending(b) != 0 {
		t.Fatal("buffer should be empty after completion")
	}
	// Transmit on an empty queue: nothing.
	sent, done = b.TransmitTo(2, 64)
	if sent != 0 || done != nil {
		t.Fatal("empty queue transmit should be a no-op")
	}
}

func TestTransmitServesQueueInOrder(t *testing.T) {
	b := NewOutBuffer(0, 4)
	b.Enqueue(msg(1, 0, 2, 10))
	b.Enqueue(msg(2, 0, 2, 10))
	_, done := b.TransmitTo(2, 64)
	if done == nil || done.ID != 1 {
		t.Fatalf("done = %v, want message 1 first", done)
	}
	_, done = b.TransmitTo(2, 64)
	if done == nil || done.ID != 2 {
		t.Fatalf("done = %v, want message 2 second", done)
	}
}

func TestFIFOOrderAcrossDestinations(t *testing.T) {
	b := NewOutBuffer(1, 4)
	b.Enqueue(msg(1, 1, 2, 8))
	b.Enqueue(msg(2, 1, 3, 8))
	b.Enqueue(msg(3, 1, 2, 8))
	if b.NextFIFO().ID != 1 {
		t.Fatal("NextFIFO should be the oldest message")
	}
	if got := b.PopFIFO(); got.ID != 1 {
		t.Fatalf("PopFIFO = %d, want 1", got.ID)
	}
	if got := b.PopFIFO(); got.ID != 2 {
		t.Fatalf("PopFIFO = %d, want 2", got.ID)
	}
	// After popping message 2, destination 3 has nothing left.
	if b.HasFor(3) {
		t.Fatal("queue 3 should be empty")
	}
	if got := b.PopFIFO(); got.ID != 3 {
		t.Fatalf("PopFIFO = %d, want 3", got.ID)
	}
	if b.PopFIFO() != nil || b.NextFIFO() != nil {
		t.Fatal("empty buffer should return nil")
	}
	if b.Len() != 0 || bytesPending(b) != 0 {
		t.Fatal("counters should be zero")
	}
}

func TestMixedDisciplinesStayConsistent(t *testing.T) {
	// TransmitTo completing a message must also remove it from the FIFO,
	// and PopFIFO must remove from the destination queue.
	b := NewOutBuffer(0, 4)
	b.Enqueue(msg(1, 0, 2, 8))
	b.Enqueue(msg(2, 0, 3, 8))
	if _, done := b.TransmitTo(2, 64); done == nil {
		t.Fatal("message 1 should complete")
	}
	if b.NextFIFO().ID != 2 {
		t.Fatal("FIFO head should now be message 2")
	}
	if b.PopFIFO().ID != 2 {
		t.Fatal("PopFIFO should return message 2")
	}
	if b.Len() != 0 {
		t.Fatal("buffer should be empty")
	}
}

// TestCheckZeroAlloc checks that Check allocates nothing with the caller's
// cursor, and leaves the cursor all nil.
func TestCheckZeroAlloc(t *testing.T) {
	const n = 8
	b := NewOutBuffer(0, n)
	for i := 0; i < 32; i++ {
		b.Enqueue(msg(i, 0, 1+i%(n-1), 64))
	}
	cursor := make([]*Message, n)
	allocs := testing.AllocsPerRun(100, func() {
		if err := b.Check(cursor); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Check allocated %.1f times per call, want 0", allocs)
	}
	for dst, m := range cursor {
		if m != nil {
			t.Fatalf("Check left cursor[%d] set", dst)
		}
	}
}

// TestCheckReportsQueueOutOfArrivalOrder swaps two messages of one queue,
// so the queue no longer follows the arrival order: Check reports it, and
// clears the cursor entries it set before it stopped.
func TestCheckReportsQueueOutOfArrivalOrder(t *testing.T) {
	b := NewOutBuffer(0, 4)
	b.Enqueue(msg(1, 0, 1, 8))
	b.Enqueue(msg(2, 0, 2, 8))
	b.Enqueue(msg(3, 0, 1, 8))
	q := b.find(1)
	m1, m3 := q.head, q.tail
	q.head, q.tail = m3, m1
	m3.next, m1.next = m1, nil
	cursor := make([]*Message, 4)
	err := b.Check(cursor)
	if err == nil || !strings.Contains(err.Error(), "message 1 out of order") {
		t.Fatalf("Check = %v, want message 1 out of order", err)
	}
	for dst, m := range cursor {
		if m != nil {
			t.Fatalf("Check left cursor[%d] set after an error", dst)
		}
	}
}

func TestPanics(t *testing.T) {
	b := NewOutBuffer(0, 4)
	good := msg(1, 0, 1, 8)
	b.Enqueue(good)
	for i, fn := range []func(){
		func() { NewOutBuffer(4, 4) },
		func() { NewOutBuffer(-1, 4) },
		func() { NewOutBuffer(0, 0) },
		func() { b.Enqueue(msg(2, 1, 0, 8)) }, // wrong source
		func() { b.Enqueue(msg(3, 0, 0, 8)) }, // self
		func() { b.Enqueue(msg(4, 0, 9, 8)) }, // out of range
		func() { b.Enqueue(msg(5, 0, 1, 0)) }, // empty
		func() { b.Enqueue(good) },            // double enqueue
		func() { b.TransmitTo(1, 0) },         // zero budget
		func() { b.TransmitTo(9, 8) },         // bad dst
		func() { b.HasFor(-1) },
		func() { b.Head(4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

// TestQuickConservation drives a buffer with random enqueues and transmits
// and checks that byte and message counts are conserved.
func TestQuickConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := NewOutBuffer(0, 8)
		enqueuedBytes, sentBytes := int64(0), int64(0)
		enqueued, completed := 0, 0
		id := 0
		for step := 0; step < 200; step++ {
			switch rng.Intn(3) {
			case 0:
				id++
				size := 1 + rng.Intn(200)
				b.Enqueue(msg(id, 0, 1+rng.Intn(7), size))
				enqueued++
				enqueuedBytes += int64(size)
			case 1:
				dst := 1 + rng.Intn(7)
				sent, done := b.TransmitTo(dst, 1+rng.Intn(64))
				sentBytes += int64(sent)
				if done != nil {
					completed++
				}
			case 2:
				if head := b.NextFIFO(); head != nil {
					rem := head.Remaining()
					if m := b.PopFIFO(); m != head {
						return false
					}
					completed++
					// PopFIFO hands the whole remainder to the caller.
					sentBytes += int64(rem)
				}
			}
			if bytesPending(b) != enqueuedBytes-sentBytes {
				return false
			}
			if b.Len() != enqueued-completed {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
