package sim

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{0, "0ns"},
		{5, "5ns"},
		{1500, "1500ns"},
		{2 * Microsecond, "2us"},
		{3 * Second, "3s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(30, "c", func() { order = append(order, 3) })
	e.At(10, "a", func() { order = append(order, 1) })
	e.At(20, "b", func() { order = append(order, 2) })
	end := e.RunAll()
	if end != 30 {
		t.Fatalf("end = %v, want 30ns", end)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", order)
	}
}

func TestEqualTimestampsFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, "tie", func() { order = append(order, i) })
	}
	e.RunAll()
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v: ties must fire FIFO", order)
		}
	}
}

func TestAfterUsesCurrentTime(t *testing.T) {
	e := NewEngine()
	var at Time
	e.At(100, "outer", func() {
		e.After(50, "inner", func() { at = e.Now() })
	})
	e.RunAll()
	if at != 150 {
		t.Fatalf("inner fired at %v, want 150ns", at)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(100, "x", func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		e.At(50, "past", func() {})
	})
	e.RunAll()
}

func TestNilHandlerPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on nil handler")
		}
	}()
	e.At(1, "nil", nil)
}

func TestNegativeDelayPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative delay")
		}
	}()
	e.After(-1, "neg", func() {})
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	id := e.At(10, "x", func() { fired = true })
	if !e.Cancel(id) {
		t.Fatal("first cancel should succeed")
	}
	if e.Cancel(id) {
		t.Fatal("second cancel should report false")
	}
	e.RunAll()
	if fired {
		t.Fatal("cancelled event must not fire")
	}
	if e.Processed() != 0 {
		t.Fatalf("processed = %d, want 0", e.Processed())
	}
}

// firedLog schedules labelled events and records "label@time" as each fires.
type firedLog struct {
	e   *Engine
	got []string
}

func (l *firedLog) at(at Time, label string) EventID {
	return l.e.At(at, label, func() { l.got = append(l.got, fmt.Sprintf("%s@%d", label, l.e.Now())) })
}

func (l *firedLog) check(t *testing.T, want string) {
	t.Helper()
	if got := strings.Join(l.got, " "); got != want {
		t.Fatalf("fired %q, want %q", got, want)
	}
}

// TestCancelQueuedAndStaleIDs cancels events at the front, the back and
// the middle of the queue, each exactly once, and checks that no stale ID of
// a fired or cancelled event touches the event that reuses its struct.
func TestCancelQueuedAndStaleIDs(t *testing.T) {
	e := NewEngine()
	l := &firedLog{e: e}
	w := l.at(10, "w")
	f := l.at(5000, "f")
	l.at(10, "near")
	hop := l.at(4000, "hop")
	l.at(5000, "keep")
	m := l.at(4500, "m")
	for _, id := range []EventID{f, w} {
		if !e.Cancel(id) {
			t.Fatal("first Cancel of a queued event reported false")
		}
		if e.Cancel(id) {
			t.Fatal("second Cancel of the same event reported true")
		}
	}
	e.Step() // near@10
	e.Step() // hop@4000
	if !e.Cancel(m) || e.Cancel(m) {
		t.Fatal("a queued event must cancel exactly once")
	}
	// The cancelled and fired structs are recycled; none of their stale
	// IDs may touch the event now reusing one.
	l.at(e.Now()+2000, "x")
	for _, id := range []EventID{w, f, hop, m} {
		if e.Cancel(id) {
			t.Fatal("a stale EventID cancelled a recycled event")
		}
	}
	if got := e.Pending(); got != 2 {
		t.Fatalf("Pending = %d, want 2", got)
	}
	e.RunAll()
	l.check(t, "near@10 hop@4000 keep@5000 x@6000")
}

// TestRunHorizonShortOfAnEvent checks that a Run whose horizon falls short
// of the next event moves the clock to the horizon, and that an event
// scheduled a nanosecond after it fires first.
func TestRunHorizonShortOfAnEvent(t *testing.T) {
	e := NewEngine()
	l := &firedLog{e: e}
	l.at(5000, "far")
	if got := e.Run(100); got != 100 {
		t.Fatalf("Run(100) = %v", got)
	}
	l.at(e.Now()+1, "near")
	if got := e.Run(3000); got != 3000 {
		t.Fatalf("Run(3000) = %v", got)
	}
	l.at(e.Now()+1, "later")
	if got := e.RunAll(); got != 5000 {
		t.Fatalf("RunAll = %v", got)
	}
	l.check(t, "near@101 later@3001 far@5000")
}

func TestCancelRemovesEagerly(t *testing.T) {
	e := NewEngine()
	ids := make([]EventID, 0, 8)
	for i := 0; i < 8; i++ {
		ids = append(ids, e.At(Time(10+i), "x", func() {}))
	}
	for _, id := range ids[:5] {
		if !e.Cancel(id) {
			t.Fatal("cancel of a pending event should succeed")
		}
	}
	// Cancelled events leave the queue immediately instead of lingering as
	// dead entries until their timestamp.
	if e.Pending() != 3 {
		t.Fatalf("pending = %d, want 3 right after cancelling", e.Pending())
	}
	e.RunAll()
	if e.Processed() != 3 {
		t.Fatalf("processed = %d, want 3", e.Processed())
	}
}

func TestStaleEventIDDoesNotCancelRecycledEvent(t *testing.T) {
	e := NewEngine()
	fired := false
	stale := e.At(1, "first", func() {})
	e.RunAll() // fires "first"; its storage returns to the free list
	e.At(2, "second", func() { fired = true })
	if e.Cancel(stale) {
		t.Fatal("stale ID of a fired event must not cancel anything")
	}
	e.RunAll()
	if !fired {
		t.Fatal("second event was cancelled through a stale ID of a recycled event")
	}
}

func TestCancelFromOwnHandlerIsNoop(t *testing.T) {
	e := NewEngine()
	var id EventID
	id = e.At(1, "self", func() {
		if e.Cancel(id) {
			t.Error("cancelling the currently firing event must report false")
		}
	})
	e.RunAll()
	if e.Processed() != 1 {
		t.Fatalf("processed = %d, want 1", e.Processed())
	}
}

func TestEventStormRecycles(t *testing.T) {
	// A long run of schedule/fire/cancel churn must keep working through
	// the free list: ordering, cancellation and the processed count all
	// stay exact.
	e := NewEngine()
	var fired, cancelled int
	for round := 0; round < 50; round++ {
		ids := make([]EventID, 0, 40)
		for i := 0; i < 40; i++ {
			ids = append(ids, e.After(Time(1+(i*7)%23), "storm", func() { fired++ }))
		}
		for i, id := range ids {
			if i%3 == 0 {
				if !e.Cancel(id) {
					t.Fatal("cancel of pending event failed")
				}
				cancelled++
			}
		}
		e.RunAll()
	}
	if want := 50*40 - cancelled; fired != want {
		t.Fatalf("fired = %d, want %d (cancelled %d)", fired, want, cancelled)
	}
	if e.Pending() != 0 {
		t.Fatalf("pending = %d, want 0 after drain", e.Pending())
	}
}

func TestHorizonStopsAndResumes(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, at := range []Time{10, 20, 30} {
		at := at
		e.At(at, "x", func() { fired = append(fired, at) })
	}
	e.Run(20)
	if len(fired) != 2 {
		t.Fatalf("fired = %v, want events at 10 and 20", fired)
	}
	if e.Now() != 20 {
		t.Fatalf("Now = %v, want 20 after horizon", e.Now())
	}
	e.RunAll()
	if len(fired) != 3 || fired[2] != 30 {
		t.Fatalf("fired = %v, want resumed event at 30", fired)
	}
}

func TestStop(t *testing.T) {
	e := NewEngine()
	count := 0
	e.At(1, "a", func() { count++; e.Stop() })
	e.At(2, "b", func() { count++ })
	e.RunAll()
	if count != 1 {
		t.Fatalf("count = %d, want 1 (Stop should halt the loop)", count)
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
	e.RunAll()
	if count != 2 {
		t.Fatalf("count = %d after resume, want 2", count)
	}
}

func TestStep(t *testing.T) {
	e := NewEngine()
	count := 0
	e.At(5, "a", func() { count++ })
	e.At(6, "b", func() { count++ })
	if !e.Step() || count != 1 || e.Now() != 5 {
		t.Fatalf("after first Step: count=%d now=%v", count, e.Now())
	}
	if !e.Step() || count != 2 {
		t.Fatal("second Step should fire second event")
	}
	if e.Step() {
		t.Fatal("Step on empty queue should report false")
	}
}

func TestTicker(t *testing.T) {
	e := NewEngine()
	var ticks []Time
	tk := e.NewTicker(100, "slot", func() { ticks = append(ticks, e.Now()) })
	tk.Start()
	tk.Start() // idempotent
	e.Run(350)
	if len(ticks) != 3 || ticks[0] != 100 || ticks[2] != 300 {
		t.Fatalf("ticks = %v, want [100 200 300]", ticks)
	}
	tk.Stop()
	tk.Stop() // idempotent
	e.RunAll()
	if len(ticks) != 3 {
		t.Fatalf("ticker fired after Stop: %v", ticks)
	}
	if tk.Active() {
		t.Fatal("ticker should be inactive after Stop")
	}
	if tk.period != 100 {
		t.Fatalf("period = %v, want 100", tk.period)
	}
}

func TestTickerStartAt(t *testing.T) {
	e := NewEngine()
	var ticks []Time
	tk := e.NewTicker(100, "slot", func() { ticks = append(ticks, e.Now()) })
	tk.StartAt(0)
	e.Run(250)
	if len(ticks) != 3 || ticks[0] != 0 || ticks[1] != 100 {
		t.Fatalf("ticks = %v, want [0 100 200]", ticks)
	}
}

func TestTickerStopFromOwnHandler(t *testing.T) {
	e := NewEngine()
	n := 0
	var tk *Ticker
	tk = e.NewTicker(10, "x", func() {
		n++
		if n == 3 {
			tk.Stop()
		}
	})
	tk.Start()
	e.RunAll()
	if n != 3 {
		t.Fatalf("ticks = %d, want 3", n)
	}
}

func TestTickerBadPeriodPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on non-positive period")
		}
	}()
	e.NewTicker(0, "bad", func() {})
}

func TestQuickDeterministicReplay(t *testing.T) {
	// Two engines fed the same schedule must execute identically.
	f := func(delays []uint16) bool {
		run := func() []int {
			e := NewEngine()
			var order []int
			for i, d := range delays {
				i := i
				e.At(Time(d), "x", func() { order = append(order, i) })
			}
			e.RunAll()
			return order
		}
		a, b := run(), run()
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNewRNGStreamsIndependent(t *testing.T) {
	a := NewRNG(42, 0)
	b := NewRNG(42, 1)
	same := true
	for i := 0; i < 16; i++ {
		if a.Int63() != b.Int63() {
			same = false
			break
		}
	}
	if same {
		t.Fatal("streams 0 and 1 produced identical sequences")
	}
	// Same (seed, stream) must reproduce.
	c, d := NewRNG(7, 3), NewRNG(7, 3)
	for i := 0; i < 16; i++ {
		if c.Int63() != d.Int63() {
			t.Fatal("identical (seed,stream) must reproduce")
		}
	}
}

func BenchmarkEngineThroughput(b *testing.B) {
	e := NewEngine()
	var feed func()
	n := 0
	feed = func() {
		n++
		if n < b.N {
			e.After(1, "x", feed)
		}
	}
	e.At(0, "x", feed)
	b.ResetTimer()
	e.RunAll()
}

func TestInvariantCheckLatchesAndStops(t *testing.T) {
	e := NewEngine()
	broken := false
	e.SetInvariantCheck(func() error {
		if broken {
			return errors.New("state went bad")
		}
		return nil
	})
	ran := 0
	e.At(1, "ok", func() { ran++ })
	e.At(2, "breaks-invariant", func() { ran++; broken = true })
	e.At(3, "never-runs", func() { ran++ })
	e.RunAll()
	if ran != 2 {
		t.Fatalf("ran = %d, want 2 (engine must stop at the violation)", ran)
	}
	err := e.Err()
	if err == nil {
		t.Fatal("Err() should report the violation")
	}
	if !strings.Contains(err.Error(), "breaks-invariant") || !strings.Contains(err.Error(), "state went bad") {
		t.Fatalf("error %q should name the event and the cause", err)
	}
	// The first violation is latched: resuming must neither run more events
	// under a broken invariant nor overwrite the recorded error.
	e.RunAll()
	if e.Err() != err || ran != 2 {
		t.Fatalf("after a resume: ran = %d, err %v; want 2 and the first violation", ran, e.Err())
	}
}

// TestFailStopsRunForGood checks that a model error recorded through Fail
// stops the engine after the current event and that later Run calls
// execute nothing, while Err keeps the first error.
func TestFailStopsRunForGood(t *testing.T) {
	e := NewEngine()
	first, second := errors.New("model broke"), errors.New("and again")
	ran := 0
	e.At(1, "ok", func() { ran++ })
	e.At(2, "fails", func() { ran++; e.Fail(first); e.Fail(second) })
	e.At(3, "never-runs", func() { ran++ })
	if now := e.Run(10); now != 2 || ran != 2 {
		t.Fatalf("Run returned at %v after %d events, want 2 and 2", now, ran)
	}
	if now := e.Run(10); now != 2 || ran != 2 || e.Err() != first {
		t.Fatalf("a second Run: clock %v, %d events, err %v; want 2, 2 and the first error", now, ran, e.Err())
	}
}

func TestInvariantCheckRunsAfterSteps(t *testing.T) {
	e := NewEngine()
	checks := 0
	e.SetInvariantCheck(func() error { checks++; return nil })
	e.At(1, "a", func() {})
	e.At(2, "b", func() {})
	for e.Step() {
	}
	if checks != 2 {
		t.Fatalf("checks = %d, want one per stepped event", checks)
	}
	// Disabling restores the fast path.
	e.SetInvariantCheck(nil)
	e.At(3, "c", func() {})
	e.RunAll()
	if checks != 2 || e.Err() != nil {
		t.Fatalf("disabled check still ran (checks=%d, err=%v)", checks, e.Err())
	}
}
