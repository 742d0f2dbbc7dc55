package nic

import (
	"fmt"
	"slices"
	"testing"

	"pmsnet/internal/topology"
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

// parityRows draws each source's destination list: a random subset of the
// other processors, possibly empty. Source 0 always has one, so every tape
// has something to queue on.
func parityRows(n int, seed uint32) [][]int {
	x := seed | 1
	rows := make([][]int, n)
	for u := range rows {
		for v := 0; v < n; v++ {
			x ^= x << 13
			x ^= x >> 17
			x ^= x << 5
			if v != u && x%3 != 0 {
				rows[u] = append(rows[u], v)
			}
		}
	}
	if len(rows[0]) == 0 {
		rows[0] = []int{1}
	}
	return rows
}

// parityOps replays an op tape against the buffers of one run's connection
// table, drawn by parityRows, and against one reference per source, and
// compares every observable of the op's buffer after each op, and of every
// buffer every 32 ops and at the end: the buffers share one queue array, so
// an op on one source must leave the others as they were. Each op takes two bytes: the op and its argument, which picks
// the source and one of its destinations. Both sides hold their own copies
// of each message, so messages are compared by ID. Completed and drained
// messages go to a retransmit pool and may be enqueued again, as a fault
// retransmission does.
func parityOps(t *testing.T, n int, seed uint32, tape []byte) {
	rows := parityRows(n, seed)
	table := topology.NewConnTable(n, func(src int, add func(dst int)) {
		for _, v := range rows[src] {
			add(v)
		}
	})
	bufs := NewOutBuffers(table)
	refs := make([]*refBuffer, n)
	var srcs []int
	for u := range refs {
		refs[u] = newRefBuffer(n)
		if len(rows[u]) > 0 {
			srcs = append(srcs, u)
		}
	}
	var pool [][2]*Message // (indexed, reference) pairs out of the buffers
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
	enqueue := func(m, rm *Message) {
		wantFirst := len(refs[m.Src].queues[m.Dst]) == 0
		conn, first := bufs[m.Src].Enqueue(m)
		refs[m.Src].enqueue(rm)
		if conn != table.ID(int(m.Src), int(m.Dst)) || first != wantFirst {
			t.Fatalf("Enqueue(%d->%d) = %d, %v; want %d, %v", m.Src, m.Dst, conn, first,
				table.ID(int(m.Src), int(m.Dst)), wantFirst)
		}
	}
	for step := 0; step+1 < len(tape); step += 2 {
		op, arg := tape[step]%8, int(tape[step+1])
		src := srcs[arg%len(srcs)]
		dst := rows[src][arg/len(srcs)%len(rows[src])]
		b, ref := bufs[src], refs[src]
		switch op {
		case 0, 1, 2: // enqueue a new message
			size := 1 + arg*7%200
			nextID++
			enqueue(&Message{ID: nextID, Src: int32(src), Dst: int32(dst), Bytes: int32(size)},
				&Message{ID: nextID, Src: int32(src), Dst: int32(dst), Bytes: int32(size)})
		case 3: // retransmit a message that left its buffer
			if len(pool) == 0 {
				continue
			}
			i := arg % len(pool)
			p := pool[i]
			pool = append(pool[:i], pool[i+1:]...)
			enqueue(p[0], p[1])
		case 4, 5: // one slot's payload, by id or by destination
			budget := 1 + arg%80
			var sent int
			var done *Message
			drained := false
			if op == 4 {
				sent, done, drained = b.Transmit(b.Conn(dst), budget)
			} else {
				sent, done = b.TransmitTo(dst, budget)
			}
			rsent, rdone := ref.transmitTo(dst, budget)
			if sent != rsent || id(done) != id(rdone) {
				t.Fatalf("transmit %d->%d, %d = %d, %d; reference %d, %d", src, dst, budget, sent, id(done), rsent, id(rdone))
			}
			if op == 4 && drained != (rdone != nil && len(ref.queues[dst]) == 0) {
				t.Fatalf("Transmit %d->%d reports drained = %v", src, dst, drained)
			}
			if done != nil {
				release("transmit", []*Message{done}, []*Message{rdone})
			}
		case 6:
			m, rm := b.PopFIFO(), ref.popFIFO()
			if id(m) != id(rm) {
				t.Fatalf("PopFIFO(%d) = %d, reference %d", src, id(m), id(rm))
			}
			if m != nil {
				release("PopFIFO", []*Message{m}, []*Message{rm})
			}
		case 7:
			if arg%4 == 0 {
				release("DrainAll", b.DrainAll(), ref.drainAll())
			} else {
				release(fmt.Sprintf("DrainFor(%d->%d)", src, dst), b.DrainFor(dst), ref.drainFor(dst))
			}
		}
		checkParity(t, step/2, b, ref, table)
		if step%64 == 0 {
			for u, b := range bufs {
				checkParity(t, step/2, b, refs[u], table)
			}
		}
	}
	for u, b := range bufs {
		checkParity(t, len(tape)/2, b, refs[u], table)
	}
}

// checkParity compares every observable of one buffer with its reference.
func checkParity(t *testing.T, step int, b *OutBuffer, ref *refBuffer, table *topology.ConnTable) {
	t.Helper()
	id := func(m *Message) int {
		if m == nil {
			return -1
		}
		return int(m.ID)
	}
	cursor := make([]*Message, table.Ports())
	if err := b.Check(cursor); err != nil {
		t.Fatalf("step %d: %v", step, err)
	}
	if i := slices.IndexFunc(cursor, func(m *Message) bool { return m != nil }); i >= 0 {
		t.Fatalf("step %d: Check left cursor[%d] set", step, i)
	}
	if b.Len() != len(ref.fifo) || bytesPending(b) != ref.bytesPending {
		t.Fatalf("step %d, nic %d: Len %d, %d bytes pending; reference %d, %d",
			step, b.ID(), b.Len(), bytesPending(b), len(ref.fifo), ref.bytesPending)
	}
	var rnext *Message
	if len(ref.fifo) > 0 {
		rnext = ref.fifo[0]
	}
	if id(b.NextFIFO()) != id(rnext) {
		t.Fatalf("step %d, nic %d: NextFIFO %d, reference %d", step, b.ID(), id(b.NextFIFO()), id(rnext))
	}
	for d := range ref.queues {
		if id(b.Head(d)) != id(ref.head(d)) || b.HasFor(d) != (len(ref.queues[d]) > 0) ||
			countFor(b, d) != len(ref.queues[d]) || b.BytesFor(d) != ref.bytesFor(d) {
			t.Fatalf("step %d, %d->%d: Head %d HasFor %v queued %d BytesFor %d; reference %d %v %d %d",
				step, b.ID(), d, id(b.Head(d)), b.HasFor(d), countFor(b, d), b.BytesFor(d),
				id(ref.head(d)), len(ref.queues[d]) > 0, len(ref.queues[d]), ref.bytesFor(d))
		}
		if h := b.Head(d); h != nil && h.Remaining() != ref.head(d).Remaining() {
			t.Fatalf("step %d, %d->%d: head remaining %d, reference %d", step, b.ID(), d, h.Remaining(), ref.head(d).Remaining())
		}
		if c := table.ID(b.ID(), d); c != b.Conn(d) {
			t.Fatalf("step %d: Conn(%d->%d) = %d, table %d", step, b.ID(), d, b.Conn(d), c)
		} else if c >= 0 && (b.HeadOf(c) != b.Head(d) || b.Has(c) != b.HasFor(d) || b.Bytes(c) != b.BytesFor(d)) {
			t.Fatalf("step %d, %d->%d: the by-id queries disagree with the by-destination ones", step, b.ID(), d)
		}
	}
}

// FuzzOutBufferParity checks the id-indexed buffers against the
// slice-per-destination reference on random op sequences over random
// per-source destination lists. The first tape byte picks N and the table.
func FuzzOutBufferParity(f *testing.F) {
	f.Add([]byte{40, 0, 3, 1, 9, 4, 3, 6, 0, 7, 1})
	f.Add([]byte{2, 0, 1, 0, 1, 4, 200, 6, 0, 3, 0, 7, 0})
	f.Add([]byte{200, 0, 1, 1, 2, 2, 3, 0, 4, 1, 5, 2, 6, 0, 7, 1, 8, 2, 9, 0, 10, 1, 11, 2, 12,
		4, 1, 5, 2, 7, 3, 6, 0, 3, 1, 7, 8, 4, 9})
	f.Fuzz(func(t *testing.T, tape []byte) {
		if len(tape) == 0 || len(tape) > 4096 {
			return
		}
		parityOps(t, 2+int(tape[0])%62, uint32(tape[0]), tape[1:])
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
		t.Run(fmt.Sprint(seed), func(t *testing.T) { parityOps(t, 2+int(tape[0])%62, seed, tape[1:]) })
	}
}
