package sim

import (
	"fmt"
	"strings"
	"testing"
)

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

// placement reports where a queued event sits: "wheel", "far" or "none".
func placement(id EventID) string {
	switch {
	case id.gen != id.ev.gen || id.ev.index == notQueued:
		return "none"
	case id.ev.index == inWheel:
		return "wheel"
	default:
		return "far"
	}
}

func checkPlacement(t *testing.T, want string, ids ...EventID) {
	t.Helper()
	got := make([]string, len(ids))
	for i, id := range ids {
		got[i] = placement(id)
	}
	if g := strings.Join(got, " "); g != want {
		t.Fatalf("placement %q, want %q", g, want)
	}
}

// TestEngineWheelBoundary pins the timing wheel's edges: the last in-span
// nanosecond and the first ones beyond it, migration of far events as the
// base advances, ties split between the far heap and the wheel, cancels on
// both sides, and a Run horizon that leaves the clock ahead of the base.
func TestEngineWheelBoundary(t *testing.T) {
	t.Run("span edges", func(t *testing.T) {
		e := NewEngine()
		l := &firedLog{e: e}
		a := l.at(wheelSpan-1, "a")
		b := l.at(wheelSpan, "b")
		c := l.at(wheelSpan+1, "c")
		d := l.at(3*wheelSpan, "d")
		checkPlacement(t, "wheel far far far", a, b, c, d)
		e.Step() // a: the base moves to 1023, so b and c come within the span
		checkPlacement(t, "wheel wheel far", b, c, d)
		e.Step()
		e.Step() // base 1025; d is still 2047 ns out
		checkPlacement(t, "far", d)
		// now+1023 wraps round the ring to a bucket behind the base's.
		now := e.Now()
		f := l.at(now+wheelSpan-1, "f")
		g := l.at(now+wheelSpan, "g")
		h := l.at(now+wheelSpan+1, "h")
		checkPlacement(t, "wheel far far", f, g, h)
		if got := e.Pending(); got != 4 {
			t.Fatalf("Pending = %d, want 4", got)
		}
		e.RunAll()
		l.check(t, "a@1023 b@1024 c@1025 f@2048 g@2049 h@2050 d@3072")
	})

	t.Run("ties across heap and wheel", func(t *testing.T) {
		e := NewEngine()
		l := &firedLog{e: e}
		far1 := l.at(2000, "far1")
		e.At(5, "tick", func() {
			checkPlacement(t, "far", l.at(2000, "far2"))
		})
		e.At(1000, "hop", func() {
			// Popping hop moved the base to 1000 and migrated far1 and
			// far2; a direct push for the same instant queues behind them.
			checkPlacement(t, "wheel wheel", far1, l.at(2000, "near"))
		})
		e.RunAll()
		l.check(t, "far1@2000 far2@2000 near@2000")
	})

	t.Run("cancels", func(t *testing.T) {
		e := NewEngine()
		l := &firedLog{e: e}
		w := l.at(10, "w")
		f := l.at(5000, "f")
		l.at(10, "near")
		hop := l.at(4000, "hop")
		l.at(5000, "keep")
		m := l.at(4500, "m")
		checkPlacement(t, "wheel far far", w, f, m)
		for _, id := range []EventID{f, w} {
			if !e.Cancel(id) {
				t.Fatal("first Cancel of a queued event reported false")
			}
			if e.Cancel(id) {
				t.Fatal("second Cancel of the same event reported true")
			}
		}
		e.Step() // near@10
		e.Step() // hop@4000 from the far heap: m and keep migrate
		checkPlacement(t, "wheel", m)
		if !e.Cancel(m) || e.Cancel(m) {
			t.Fatal("a migrated event must cancel exactly once")
		}
		// The cancelled and fired structs are recycled; none of their
		// stale IDs may touch the event now reusing one.
		x := l.at(e.Now()+2000, "x")
		for _, id := range []EventID{w, f, hop, m} {
			if e.Cancel(id) {
				t.Fatal("a stale EventID cancelled a recycled event")
			}
		}
		checkPlacement(t, "far", x)
		if got := e.Pending(); got != 2 {
			t.Fatalf("Pending = %d, want 2", got)
		}
		e.RunAll()
		l.check(t, "near@10 hop@4000 keep@5000 x@6000")
	})

	t.Run("horizon short of a far event", func(t *testing.T) {
		e := NewEngine()
		l := &firedLog{e: e}
		l.at(5000, "far")
		if got := e.Run(100); got != 100 {
			t.Fatalf("Run(100) = %v", got)
		}
		// The clock moved to the horizon but the base did not, so the next
		// nanosecond is still inside the span.
		checkPlacement(t, "wheel", l.at(e.Now()+1, "near"))
		if got := e.Run(3000); got != 3000 {
			t.Fatalf("Run(3000) = %v", got)
		}
		// Now the clock is more than a span past the base (101): the next
		// nanosecond goes to the far heap and still fires first.
		checkPlacement(t, "far", l.at(e.Now()+1, "later"))
		if got := e.RunAll(); got != 5000 {
			t.Fatalf("RunAll = %v", got)
		}
		l.check(t, "near@101 later@3001 far@5000")
	})
}
