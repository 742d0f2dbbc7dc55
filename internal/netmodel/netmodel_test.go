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
	eng.RunAll()
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
	eng.RunAll()
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
	eng.RunAll()
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
		eng.RunAll()
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
	eng.RunAll()
	m := d.Buffers[0].PopFIFO()
	eng.At(eng.Now()+1, "x", func() {})
	eng.Step()
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
// pending-write ring grows while wrapped), and checks after every event
// that the view equals the written state one wire delay earlier.
func TestRequestWireDelaysInOrder(t *testing.T) {
	const n, delay = 4, 25
	eng := sim.NewEngine()
	w := NewRequestWire(eng, n, delay, "wire")
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
		wr := write{at: at, u: rng.Intn(n), v: rng.Intn(n), val: rng.Intn(2) == 0}
		writes = append(writes, wr)
		eng.At(at, "write", func() { w.Set(wr.u, wr.v, wr.val) })
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
	for eng.Step() {
		now := eng.Now()
		// Check only once every event at this instant has fired.
		if eng.Pending() > 0 && eng.Run(now) != now {
			t.Fatal("Run past the current instant")
		}
		exp := want(now - delay)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if got := w.ViewSparse().Get(u, v); got != exp[u][v] {
					t.Fatalf("at %v view(%d,%d) = %v, want %v", now, u, v, got, exp[u][v])
				}
			}
		}
	}
}

// TestRequestWireSteadyStateZeroAlloc checks that once the pending-write
// ring has grown to the peak in-flight count, a transition allocates
// nothing.
func TestRequestWireSteadyStateZeroAlloc(t *testing.T) {
	eng := sim.NewEngine()
	w := NewRequestWire(eng, 8, 50, "wire")
	burst := func() {
		for i := 0; i < 64; i++ {
			w.Set(i%8, (i+1)%8, i%3 != 0)
		}
		eng.RunAll()
	}
	burst() // warm up the ring and the engine's event free list
	if allocs := testing.AllocsPerRun(100, burst); allocs != 0 {
		t.Fatalf("steady-state wire transitions allocated %.1f times per burst, want 0", allocs)
	}
}
