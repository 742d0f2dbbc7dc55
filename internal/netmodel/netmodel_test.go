package netmodel

import (
	"cmp"
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"pmsnet/internal/link"
	"pmsnet/internal/metrics"
	"pmsnet/internal/nic"
	"pmsnet/internal/sim"
	"pmsnet/internal/topology"
	"pmsnet/internal/traffic"
)

func twoNodeWorkload(ops ...traffic.Op) *traffic.Workload {
	return &traffic.Workload{
		Name:     "test",
		N:        2,
		Programs: []traffic.Program{{Ops: ops}, {}},
	}
}

func TestDriverExecutesSendsWithNICOverhead(t *testing.T) {
	eng := sim.NewEngine()
	var enq []sim.Time
	wl := twoNodeWorkload(traffic.Send(1, 8), traffic.Send(1, 8), traffic.Send(1, 8))
	d, err := NewDriver(eng, link.Paper(), wl, Hooks{
		OnEnqueue: func(m *nic.Message, _ int32, _ bool) { enq = append(enq, eng.Now()) },
	})
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	eng.Run(sim.MaxTime)
	// Sends are spaced by the 10 ns NIC send overhead.
	want := []sim.Time{0, 10, 20}
	if len(enq) != 3 {
		t.Fatalf("enqueues = %v", enq)
	}
	for i := range want {
		if enq[i] != want[i] {
			t.Fatalf("enqueues = %v, want %v", enq, want)
		}
	}
	if d.Buffers[0].Len() != 3 {
		t.Fatal("messages should be in the buffer")
	}
}

func TestDriverDelayAndDirectives(t *testing.T) {
	eng := sim.NewEngine()
	var flushAt, phaseAt sim.Time
	phaseArg := -1
	wl := &traffic.Workload{
		Name: "test",
		N:    2,
		Programs: []traffic.Program{
			{Ops: []traffic.Op{traffic.Delay(500), traffic.Flush(), traffic.Phase(0), traffic.Send(1, 8)}},
			{},
		},
		StaticPhases: nil,
	}
	// Phase(0) with no static phases fails validation; add one op-free path:
	wl.Programs[0].Ops[2] = traffic.Delay(5)
	d, err := NewDriver(eng, link.Paper(), wl, Hooks{
		OnFlush: func(p int) { flushAt = eng.Now() },
		OnPhase: func(p, ph int) { phaseAt, phaseArg = eng.Now(), ph },
	})
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	eng.Run(sim.MaxTime)
	if flushAt != 500 {
		t.Fatalf("flush at %v, want 500", flushAt)
	}
	_ = phaseAt
	_ = phaseArg
	if d.Remaining() != 1 {
		t.Fatalf("Remaining = %d, want 1 (send queued, never delivered)", d.Remaining())
	}
}

func TestDriverPhaseHook(t *testing.T) {
	eng := sim.NewEngine()
	wl := traffic.TwoPhase(4, 8, 1)
	got := map[int]bool{}
	d, err := NewDriver(eng, link.Paper(), wl, Hooks{
		OnPhase: func(p, ph int) { got[ph] = true },
	})
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	eng.Run(sim.MaxTime)
	if !got[0] || !got[1] {
		t.Fatalf("phase hooks seen: %v, want both phases", got)
	}
}

func TestDriverRejectsInvalidWorkload(t *testing.T) {
	eng := sim.NewEngine()
	bad := &traffic.Workload{Name: "bad", N: 2, Programs: []traffic.Program{{Ops: []traffic.Op{traffic.Send(0, 8)}}, {}}}
	if _, err := NewDriver(eng, link.Paper(), bad, Hooks{}); err == nil {
		t.Fatal("expected validation error")
	}
	if _, err := NewDriver(eng, link.Model{}, twoNodeWorkload(), Hooks{}); err == nil {
		t.Fatal("expected link validation error")
	}
}

// TestDriverRefusesTooManyMessages checks the message-count guard NewDriver
// applies: a message's ID is 32 bits, so a workload may send at most
// math.MaxInt32 messages. A workload that large cannot be built in a test, so
// the rows drive the guard itself.
func TestDriverRefusesTooManyMessages(t *testing.T) {
	for _, tc := range []struct {
		msgs int
		ok   bool
	}{
		{0, true},
		{1, true},
		{math.MaxInt32, true},
		{math.MaxInt32 + 1, false},
		{math.MaxInt64, false},
	} {
		err := checkMessageCount("big", tc.msgs)
		if (err == nil) != tc.ok {
			t.Fatalf("%d messages: err = %v, want ok = %v", tc.msgs, err, tc.ok)
		}
		if err != nil && !strings.Contains(err.Error(), `workload "big"`) {
			t.Fatalf("%d messages: error %q does not name the workload", tc.msgs, err)
		}
	}
}

// TestDriverResumesBlockedSender checks that a SEND_WAIT holds its program
// until the message is delivered or dropped, that the program then continues
// one NIC send overhead later, and that Finish counts only delivered
// messages.
func TestDriverResumesBlockedSender(t *testing.T) {
	for _, drop := range []bool{false, true} {
		eng := sim.NewEngine()
		var enq []sim.Time
		var d *Driver
		wl := twoNodeWorkload(traffic.SendWait(1, 8), traffic.Send(1, 8))
		d, err := NewDriver(eng, link.Paper(), wl, Hooks{
			OnEnqueue: func(m *nic.Message, _ int32, _ bool) {
				enq = append(enq, eng.Now())
				eng.After(1000, "fake-arrive", func() {
					d.Buffers[0].PopFIFO()
					if drop && m.Blocking() {
						d.Drop(m)
					} else {
						d.Deliver(m)
					}
				})
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		d.Start()
		eng.Run(sim.MaxTime)
		if want := []sim.Time{0, 1000 + nic.SendOverhead}; !slices.Equal(enq, want) {
			t.Fatalf("drop=%v: enqueues at %v, want %v", drop, enq, want)
		}
		res, err := d.Finish("fake", DefaultHorizon, metrics.NetStats{})
		if err != nil {
			t.Fatalf("drop=%v: %v", drop, err)
		}
		// A dropped message is left out of the statistics.
		if want := map[bool]int{false: 2, true: 1}[drop]; res.Messages != want || res.Bytes != int64(8*want) {
			t.Fatalf("drop=%v: %d messages, %d bytes; want %d messages", drop, res.Messages, res.Bytes, want)
		}
	}
}

func TestDeliverAndFinish(t *testing.T) {
	eng := sim.NewEngine()
	wl := twoNodeWorkload(traffic.Send(1, 800))
	var d *Driver
	idleFired := false
	d, err := NewDriver(eng, link.Paper(), wl, Hooks{
		OnEnqueue: func(m *nic.Message, _ int32, _ bool) {
			eng.After(1000, "fake-deliver", func() {
				d.Buffers[0].PopFIFO()
				d.Deliver(m)
			})
		},
		OnIdle: func() { idleFired = true },
	})
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	res, err := d.Finish("fake", DefaultHorizon, metrics.NetStats{})
	if err != nil {
		t.Fatal(err)
	}
	if !idleFired {
		t.Fatal("OnIdle should fire when the last message lands")
	}
	if res.Messages != 1 || res.Makespan != 1000 {
		t.Fatalf("result = %+v", res)
	}
	// 800 B ideal = 1000 ns; makespan 1000 -> efficiency 1.
	if res.Efficiency != 1.0 {
		t.Fatalf("efficiency = %v, want 1.0", res.Efficiency)
	}
}

func TestFinishReportsStall(t *testing.T) {
	eng := sim.NewEngine()
	wl := twoNodeWorkload(traffic.Send(1, 8))
	d, err := NewDriver(eng, link.Paper(), wl, Hooks{}) // nothing ever delivers
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	_, err = d.Finish("dead", DefaultHorizon, metrics.NetStats{})
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("err = %v, want ErrStalled", err)
	}
}

func TestDoubleDeliverPanics(t *testing.T) {
	eng := sim.NewEngine()
	wl := twoNodeWorkload(traffic.Send(1, 8), traffic.Send(1, 8))
	var d *Driver
	d, err := NewDriver(eng, link.Paper(), wl, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	eng.Run(sim.MaxTime)
	m := d.Buffers[0].PopFIFO()
	eng.At(eng.Now()+1, "x", func() {})
	eng.Run(eng.Now() + 1)
	d.Deliver(m)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double delivery")
		}
	}()
	d.Deliver(m)
}

// TestRequestWireDelaysInOrder drives a wire with random transitions at
// random instants, sparse at first and then in a dense burst (so the
// pending-write buffers grow while wrapped), and checks at every instant
// that the view equals the written state one wire delay earlier.
func TestRequestWireDelaysInOrder(t *testing.T) {
	const n, delay = 4, 25
	eng := sim.NewEngine()
	conns := topology.NewCompleteConnTable(n)
	w := NewRequestWire(eng, conns, delay, "wire")
	rng := sim.NewRNG(9, 0)
	type write struct {
		at   sim.Time
		u, v int
		val  bool
	}
	var writes []write
	for i := 0; i < 400; i++ {
		at := sim.Time(rng.Intn(1000))
		if i >= 100 {
			at = 1000 + sim.Time(rng.Intn(100))
		}
		wr := write{at: at, u: rng.Intn(n), v: rng.Intn(n - 1), val: rng.Intn(2) == 0}
		if wr.v >= wr.u {
			wr.v++ // no self-connection
		}
		writes = append(writes, wr)
		eng.At(at, "write", func() { w.Set(wr.u, conns.ID(wr.u, wr.v), wr.val) })
	}
	// want replays every write made at or before t, in the order made.
	want := func(t sim.Time) [n][n]bool {
		var m [n][n]bool
		var made []write
		for _, wr := range writes {
			if wr.at <= t {
				made = append(made, wr)
			}
		}
		// Writes fire in (at, scheduling order); writes list order is the
		// scheduling order, so a stable sort by time gives the order made.
		slices.SortStableFunc(made, func(a, b write) int { return cmp.Compare(a.at, b.at) })
		for _, wr := range made {
			m[wr.u][wr.v] = wr.val
		}
		return m
	}
	for now := sim.Time(0); now <= 1100+delay; now++ {
		eng.Run(now) // every write due at or before now lands
		exp := want(now - delay)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if got := u != v && w.View().Has(conns.ID(u, v)); got != exp[u][v] {
					t.Fatalf("at %v view(%d,%d) = %v, want %v", now, u, v, got, exp[u][v])
				}
			}
		}
	}
}

// TestRequestWireSteadyStateZeroAlloc checks that once the pending-write
// buffers have grown to the peak in-flight count, a transition allocates
// nothing.
func TestRequestWireSteadyStateZeroAlloc(t *testing.T) {
	eng := sim.NewEngine()
	conns := topology.NewCompleteConnTable(8)
	w := NewRequestWire(eng, conns, 50, "wire")
	burst := func() {
		for i := 0; i < 64; i++ {
			w.Set(i%8, conns.ID(i%8, (i+1)%8), i%3 != 0)
		}
		eng.Run(sim.MaxTime)
	}
	burst() // warm up the line's buffers and the engine's event free list
	if allocs := testing.AllocsPerRun(100, burst); allocs != 0 {
		t.Fatalf("steady-state wire transitions allocated %.1f times per burst, want 0", allocs)
	}
}

// TestSendIDsMatchTable checks the driver's resolved sends against a search
// of the run's table: the k-th send, processor by processor and in program
// order, carries the id of its (Src, Dst), and so does every enqueue the
// model hears of. Two-phase and phased carry phase directives and static
// phases into the table. The hand-built workload has silent processors,
// and its static phase names pairs no program sends on, so a row's ids
// interleave sent and unsent destinations.
func TestSendIDsMatchTable(t *testing.T) {
	phase := topology.NewWorkingSet(6)
	for _, c := range []topology.Conn{{Src: 1, Dst: 2}, {Src: 1, Dst: 4}, {Src: 5, Dst: 0}, {Src: 5, Dst: 2}, {Src: 0, Dst: 3}} {
		phase.Add(c)
	}
	sparse := &traffic.Workload{Name: "sparse", N: 6, Programs: []traffic.Program{
		{},
		{Ops: []traffic.Op{traffic.Send(5, 8), traffic.Delay(3), traffic.Send(0, 8), traffic.Send(3, 8), traffic.SendWait(5, 8)}},
		{},
		{Ops: []traffic.Op{traffic.Send(2, 8)}},
		{},
		{Ops: []traffic.Op{traffic.Send(1, 8), traffic.Send(4, 8), traffic.Send(1, 8)}},
	}, StaticPhases: []*topology.WorkingSet{phase}}
	for _, c := range []struct {
		wl        *traffic.Workload
		phaseOnly bool // the table holds pairs no program sends on
	}{
		{traffic.MustGenerate("two-phase", 16, 1), false},
		{traffic.MustGenerate("phased", 16, 1), false},
		{sparse, true},
	} {
		eng := sim.NewEngine()
		var d *Driver
		enqueued := 0
		d, err := NewDriver(eng, link.Paper(), c.wl, Hooks{
			OnEnqueue: func(m *nic.Message, id int32, _ bool) {
				if want := d.Conns.ID(int(m.Src), int(m.Dst)); id != want {
					t.Fatalf("%s: message %d->%d enqueued on id %d, table says %d", c.wl.Name, m.Src, m.Dst, id, want)
				}
				enqueued++
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		ids := d.SendIDs()
		if len(ids) != c.wl.MessageCount() {
			t.Fatalf("%s: %d resolved sends, want %d", c.wl.Name, len(ids), c.wl.MessageCount())
		}
		k := 0
		for src, prog := range c.wl.Programs {
			for i, op := range prog.Ops {
				if !op.IsSend() {
					continue
				}
				if want := d.Conns.ID(src, int(op.Dst)); ids[k] != want {
					t.Fatalf("%s: proc %d op %d (send %d) resolved to id %d, table says %d",
						c.wl.Name, src, i, k, ids[k], want)
				}
				k++
			}
		}
		if got := d.Conns.Len() > c.wl.ConnSet().Len(); got != c.phaseOnly {
			t.Fatalf("%s: table holds %d connections, sends use %d", c.wl.Name, d.Conns.Len(), c.wl.ConnSet().Len())
		}
		d.Start()
		eng.Run(sim.MaxTime)
		if enqueued == 0 {
			t.Fatalf("%s: no send executed", c.wl.Name)
		}
	}
}
