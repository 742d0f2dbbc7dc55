package nic

import (
	"fmt"
	"testing"
)

// refBuffer is the slice-per-destination output buffer the indexed one
// replaced, kept as the parity reference: N queue slices plus a FIFO slice,
// with linear-scan removal.
type refBuffer struct {
	queues       [][]*Message
	fifo         []*Message
	bytesPending int64
}

func newRefBuffer(n int) *refBuffer { return &refBuffer{queues: make([][]*Message, n)} }

func (b *refBuffer) enqueue(m *Message) {
	m.remaining = m.Bytes
	b.queues[m.Dst] = append(b.queues[m.Dst], m)
	b.fifo = append(b.fifo, m)
	b.bytesPending += int64(m.Bytes)
}

func (b *refBuffer) head(dst int) *Message {
	if len(b.queues[dst]) == 0 {
		return nil
	}
	return b.queues[dst][0]
}

func (b *refBuffer) bytesFor(dst int) int64 {
	var n int64
	for _, m := range b.queues[dst] {
		n += int64(m.remaining)
	}
	return n
}

func (b *refBuffer) transmitTo(dst, maxBytes int) (int, *Message) {
	q := b.queues[dst]
	if len(q) == 0 {
		return 0, nil
	}
	m := q[0]
	sent := min(maxBytes, int(m.remaining))
	m.remaining -= int32(sent)
	b.bytesPending -= int64(sent)
	if m.remaining > 0 {
		return sent, nil
	}
	b.queues[dst] = q[1:]
	b.removeFromFIFO(m)
	return sent, m
}

func (b *refBuffer) popFIFO() *Message {
	if len(b.fifo) == 0 {
		return nil
	}
	m := b.fifo[0]
	b.fifo = b.fifo[1:]
	q := b.queues[m.Dst]
	for i, qm := range q {
		if qm == m {
			b.queues[m.Dst] = append(q[:i], q[i+1:]...)
			break
		}
	}
	b.bytesPending -= int64(m.remaining)
	m.remaining = 0
	return m
}

func (b *refBuffer) drainFor(dst int) []*Message {
	out := append([]*Message(nil), b.queues[dst]...)
	b.queues[dst] = nil
	for _, m := range out {
		b.removeFromFIFO(m)
		b.bytesPending -= int64(m.remaining)
		m.remaining = 0
	}
	return out
}

func (b *refBuffer) drainAll() []*Message {
	out := append([]*Message(nil), b.fifo...)
	b.fifo = nil
	for d := range b.queues {
		b.queues[d] = nil
	}
	for _, m := range out {
		b.bytesPending -= int64(m.remaining)
		m.remaining = 0
	}
	return out
}

func (b *refBuffer) removeFromFIFO(m *Message) {
	for i, fm := range b.fifo {
		if fm == m {
			b.fifo = append(b.fifo[:i], b.fifo[i+1:]...)
			return
		}
	}
	panic(fmt.Sprintf("reference: message %d missing from FIFO", m.ID))
}

// parityOps replays an op tape against the indexed buffer and the reference
// and compares every observable after each op. Each op takes two bytes: the
// op and its argument. Both sides hold their own copies of each message, so
// messages are compared by ID. Completed and drained messages go to a
// retransmit pool and may be enqueued again, as a fault retransmission does.
func parityOps(t *testing.T, n int, tape []byte) {
	const src = 0
	b, ref := NewOutBuffer(src, n), newRefBuffer(n)
	var pool [][2]*Message // (indexed, reference) pairs out of the buffer
	var nextID int32
	id := func(m *Message) int {
		if m == nil {
			return -1
		}
		return int(m.ID)
	}
	release := func(op string, got, want []*Message) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d messages, reference %d", op, len(got), len(want))
		}
		for i := range got {
			if got[i].ID != want[i].ID {
				t.Fatalf("%s: message %d is %d, reference %d", op, i, got[i].ID, want[i].ID)
			}
			pool = append(pool, [2]*Message{got[i], want[i]})
		}
	}
	for step := 0; step+1 < len(tape); step += 2 {
		op, arg := tape[step]%8, int(tape[step+1])
		dst := 1 + arg%(n-1)
		switch op {
		case 0, 1, 2: // enqueue a new message
			size := 1 + arg*7%200
			nextID++
			b.Enqueue(&Message{ID: nextID, Src: src, Dst: int32(dst), Bytes: int32(size)})
			ref.enqueue(&Message{ID: nextID, Src: src, Dst: int32(dst), Bytes: int32(size)})
		case 3: // retransmit a message that left the buffer
			if len(pool) == 0 {
				continue
			}
			i := arg % len(pool)
			p := pool[i]
			pool = append(pool[:i], pool[i+1:]...)
			b.Enqueue(p[0])
			ref.enqueue(p[1])
		case 4, 5: // one slot's payload
			budget := 1 + arg%80
			sent, done := b.TransmitTo(dst, budget)
			rsent, rdone := ref.transmitTo(dst, budget)
			if sent != rsent || id(done) != id(rdone) {
				t.Fatalf("TransmitTo(%d, %d) = %d, %d; reference %d, %d", dst, budget, sent, id(done), rsent, id(rdone))
			}
			if done != nil {
				release("TransmitTo", []*Message{done}, []*Message{rdone})
			}
		case 6:
			m, rm := b.PopFIFO(), ref.popFIFO()
			if id(m) != id(rm) {
				t.Fatalf("PopFIFO = %d, reference %d", id(m), id(rm))
			}
			if m != nil {
				release("PopFIFO", []*Message{m}, []*Message{rm})
			}
		case 7:
			if arg%4 == 0 {
				release("DrainAll", b.DrainAll(), ref.drainAll())
			} else {
				release(fmt.Sprintf("DrainFor(%d)", dst), b.DrainFor(dst), ref.drainFor(dst))
			}
		}
		if err := b.Check(); err != nil {
			t.Fatalf("step %d: %v", step/2, err)
		}
		if b.Len() != len(ref.fifo) || b.BytesPending() != ref.bytesPending {
			t.Fatalf("step %d: Len %d BytesPending %d; reference %d, %d",
				step/2, b.Len(), b.BytesPending(), len(ref.fifo), ref.bytesPending)
		}
		var rnext *Message
		if len(ref.fifo) > 0 {
			rnext = ref.fifo[0]
		}
		if id(b.NextFIFO()) != id(rnext) {
			t.Fatalf("step %d: NextFIFO %d, reference %d", step/2, id(b.NextFIFO()), id(rnext))
		}
		for d := 0; d < n; d++ {
			if id(b.Head(d)) != id(ref.head(d)) || b.HasFor(d) != (len(ref.queues[d]) > 0) ||
				b.CountFor(d) != len(ref.queues[d]) || b.BytesFor(d) != ref.bytesFor(d) {
				t.Fatalf("step %d, dst %d: Head %d HasFor %v CountFor %d BytesFor %d; reference %d %v %d %d",
					step/2, d, id(b.Head(d)), b.HasFor(d), b.CountFor(d), b.BytesFor(d),
					id(ref.head(d)), len(ref.queues[d]) > 0, len(ref.queues[d]), ref.bytesFor(d))
			}
			if h := b.Head(d); h != nil && h.Remaining() != ref.head(d).Remaining() {
				t.Fatalf("step %d, dst %d: head remaining %d, reference %d", step/2, d, h.Remaining(), ref.head(d).Remaining())
			}
		}
	}
}

// FuzzOutBufferParity checks the indexed buffer against the
// slice-per-destination reference on random op sequences. The first tape
// byte picks N, so index growth past its first eight slots is covered.
func FuzzOutBufferParity(f *testing.F) {
	f.Add([]byte{40, 0, 3, 1, 9, 4, 3, 6, 0, 7, 1})
	f.Add([]byte{2, 0, 1, 0, 1, 4, 200, 6, 0, 3, 0, 7, 0})
	f.Add([]byte{200, 0, 1, 1, 2, 2, 3, 0, 4, 1, 5, 2, 6, 0, 7, 1, 8, 2, 9, 0, 10, 1, 11, 2, 12,
		4, 1, 5, 2, 7, 3, 6, 0, 3, 1, 7, 8, 4, 9})
	f.Fuzz(func(t *testing.T, tape []byte) {
		if len(tape) == 0 || len(tape) > 4096 {
			return
		}
		parityOps(t, 2+int(tape[0])%62, tape[1:])
	})
}

// TestOutBufferParitySeeds runs fixed pseudo-random tapes through the parity
// check, so the plain test run covers it too.
func TestOutBufferParitySeeds(t *testing.T) {
	for seed := uint32(1); seed <= 40; seed++ {
		x := seed
		tape := make([]byte, 1200)
		for i := range tape {
			x ^= x << 13
			x ^= x >> 17
			x ^= x << 5
			tape[i] = byte(x)
		}
		t.Run(fmt.Sprint(seed), func(t *testing.T) { parityOps(t, 2+int(tape[0])%62, tape[1:]) })
	}
}
