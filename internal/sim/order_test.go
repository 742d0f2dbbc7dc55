package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// The engine's fire order is checked against refEngine, a reference that
// keeps its pending events in a plain slice and sorts it by (at, seq) before
// every pop. Both engines are driven by the same byte program through
// orderAPI, and every observable result (fire log, Cancel and Step returns,
// Run's return time, Now, Pending, Processed) must agree.

type orderAPI interface {
	now() Time
	at(at Time, withArg bool, fn func()) (cancel func() bool)
	step() bool
	run(horizon Time) Time
	stop()
	pending() int
	processed() uint64
}

// engineAdapter drives the real Engine. AtArg events share one handler and
// carry their callback as the argument.
type engineAdapter struct {
	e     *Engine
	argFn ArgHandler
}

func newEngineAdapter() *engineAdapter {
	return &engineAdapter{e: NewEngine(), argFn: func(arg any) { arg.(func())() }}
}

func (a *engineAdapter) now() Time { return a.e.Now() }
func (a *engineAdapter) at(at Time, withArg bool, fn func()) func() bool {
	var id EventID
	if withArg {
		id = a.e.AtArg(at, "arg", a.argFn, fn)
	} else {
		id = a.e.At(at, "plain", fn)
	}
	return func() bool { return a.e.Cancel(id) }
}
func (a *engineAdapter) step() bool            { return a.e.Step() }
func (a *engineAdapter) run(horizon Time) Time { return a.e.Run(horizon) }
func (a *engineAdapter) stop()                 { a.e.Stop() }
func (a *engineAdapter) pending() int          { return a.e.Pending() }
func (a *engineAdapter) processed() uint64     { return a.e.Processed() }

type refEvent struct {
	at   Time
	seq  uint64
	fn   func()
	live *bool // cleared when the event fires or is cancelled
}

type refEngine struct {
	clock   Time
	seq     uint64
	queue   []refEvent
	fired   uint64
	stopped bool
}

func (r *refEngine) now() Time { return r.clock }
func (r *refEngine) at(at Time, _ bool, fn func()) func() bool {
	live := new(bool)
	*live = true
	r.queue = append(r.queue, refEvent{at: at, seq: r.seq, fn: fn, live: live})
	r.seq++
	return func() bool {
		if !*live {
			return false
		}
		*live = false
		r.queue = slices.DeleteFunc(r.queue, func(ev refEvent) bool { return ev.live == live })
		return true
	}
}

func (r *refEngine) sortQueue() {
	sort.Slice(r.queue, func(i, j int) bool {
		a, b := r.queue[i], r.queue[j]
		if a.at != b.at {
			return a.at < b.at
		}
		return a.seq < b.seq
	})
}

func (r *refEngine) fireFirst() {
	ev := r.queue[0]
	r.queue = r.queue[1:]
	*ev.live = false
	r.clock = ev.at
	r.fired++
	ev.fn()
}

func (r *refEngine) step() bool {
	if len(r.queue) == 0 {
		return false
	}
	r.sortQueue()
	r.fireFirst()
	return true
}

func (r *refEngine) run(horizon Time) Time {
	r.stopped = false
	for len(r.queue) > 0 && !r.stopped {
		r.sortQueue()
		if r.queue[0].at > horizon {
			r.clock = horizon
			return r.clock
		}
		r.fireFirst()
	}
	return r.clock
}

func (r *refEngine) stop()             { r.stopped = true }
func (r *refEngine) pending() int      { return len(r.queue) }
func (r *refEngine) processed() uint64 { return r.fired }

// orderScales are the delay multipliers a program's first byte picks from.
// At scale 1 every delay is a few nanoseconds, so the FIFO tie-break carries
// much of the order. The larger scales carry delays (up to 15 units) and run
// horizons (up to 23 units) across several wheel spans, through the far heap
// and its migration into the wheel. Timestamps stay on the scale's grid, so
// far and wheel events still share instants.
var orderScales = [...]Time{1, 100, 341, wheelSpan}

// driveOrder interprets prog as a delay scale (its first byte) followed by a
// sequence of engine operations, and returns the log of everything
// observable. Each scheduled event gets an action, decided at scheduling
// time, that its handler performs when it fires: nothing, cancel itself,
// cancel an earlier event (often a stale ID), schedule a child, or stop the
// engine.
func driveOrder(api orderAPI, prog []byte) []string {
	scale := orderScales[0]
	if len(prog) > 0 {
		scale = orderScales[int(prog[0])%len(orderScales)]
		prog = prog[1:]
	}
	var log []string
	var cancels []func() bool
	var schedule func(d Time, withArg bool, action, target byte)
	schedule = func(d Time, withArg bool, action, target byte) {
		id := len(cancels)
		cancels = append(cancels, nil)
		fn := func() {
			log = append(log, fmt.Sprintf("fire %d @%d", id, api.now()))
			switch action % 8 {
			case 1:
				log = append(log, fmt.Sprintf("self-cancel %d %v", id, cancels[id]()))
			case 2:
				t := int(target) % len(cancels)
				log = append(log, fmt.Sprintf("cancel %d from %d %v", t, id, cancels[t]()))
			case 3:
				if id < 2000 {
					schedule(scale*Time(target%5), target&1 == 0, target/5, target*7)
				}
			case 4:
				api.stop()
			}
		}
		cancels[id] = api.at(api.now()+d, withArg, fn)
	}
	for i := 0; i+2 < len(prog); i += 3 {
		op, a, b := prog[i], prog[i+1], prog[i+2]
		switch op % 6 {
		case 0, 1:
			// Few distinct delays make equal timestamps common.
			schedule(scale*Time(a%16), op%6 == 1, b, a^b)
		case 2:
			if len(cancels) > 0 {
				t := int(a)<<8 | int(b)
				t %= len(cancels)
				log = append(log, fmt.Sprintf("cancel %d %v", t, cancels[t]()))
			}
		case 3:
			log = append(log, fmt.Sprintf("step %v", api.step()))
		case 4:
			log = append(log, fmt.Sprintf("run %d", api.run(api.now()+scale*Time(a%24))))
		case 5:
			log = append(log, fmt.Sprintf("run-all %d", api.run(MaxTime)))
		}
		log = append(log, fmt.Sprintf("now %d pending %d processed %d",
			api.now(), api.pending(), api.processed()))
	}
	log = append(log, fmt.Sprintf("drain %d", api.run(MaxTime)))
	log = append(log, fmt.Sprintf("now %d pending %d processed %d",
		api.now(), api.pending(), api.processed()))
	return log
}

func checkEngineOrder(t *testing.T, prog []byte) {
	t.Helper()
	got := driveOrder(newEngineAdapter(), prog)
	want := driveOrder(&refEngine{}, prog)
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Fatalf("engine diverges from the (at, seq) reference at log line %d:\n got  %q\n want %q",
				i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("engine log has %d lines, reference %d", len(got), len(want))
	}
}

// TestEngineOrderMatchesReference runs seeded random programs, long enough
// to fill the queue, through the engine and the reference, at every delay
// scale in turn.
func TestEngineOrderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 400; i++ {
		prog := make([]byte, 1+3*(1+rng.Intn(400)))
		rng.Read(prog)
		prog[0] = byte(i % len(orderScales))
		// Bias toward scheduling so the queue grows.
		for j := 1; j < len(prog); j += 3 {
			if rng.Intn(3) > 0 {
				prog[j] %= 2
			}
		}
		checkEngineOrder(t, prog)
	}
}

func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{0, 0, 3, 1, 0, 3, 2, 1, 3, 0, 5, 0, 0})
	f.Add([]byte{0, 0, 9, 1, 1, 2, 2, 2, 0, 0, 4, 5, 0, 0, 1, 3, 3, 0, 0})
	f.Add([]byte{0, 1, 0, 3, 1, 0, 3, 0, 0, 4, 3, 0, 0, 2, 0, 1, 5, 0, 0})
	f.Add([]byte{1, 0, 15, 1, 0, 3, 2, 1, 2, 0, 4, 12, 0, 0, 1, 3, 0, 0, 5, 0, 0})
	f.Add([]byte{3, 0, 1, 3, 0, 2, 0, 1, 1, 1, 4, 1, 0, 0, 2, 0, 1, 0, 5, 0, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		checkEngineOrder(t, prog)
	})
}
