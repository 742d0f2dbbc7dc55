package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// A Line must fire its items exactly as if every push had scheduled an
// event of its own. The check drives the real engine, with its lines, and
// refEngine (order_test.go), which schedules one event per item, with the
// same byte program, and compares everything observable except the event
// counts, which folding changes by design.

type lineAPI interface {
	now() Time
	at(at Time, fn func()) (cancel func() bool)
	push(line int, fn func())
	run(horizon Time) Time
	stop()
}

// engineLines drives the real engine: line i is a Line of callbacks with
// delay delays[i].
type engineLines struct {
	e     *Engine
	lines []*Line[func()]
}

func newEngineLines(delays []Time) lineAPI {
	a := &engineLines{e: NewEngine()}
	for _, d := range delays {
		a.lines = append(a.lines, NewLine(a.e, d, "line", func(fn func()) { fn() }))
	}
	return a
}

func (a *engineLines) now() Time { return a.e.Now() }
func (a *engineLines) at(at Time, fn func()) func() bool {
	id := a.e.At(at, "plain", fn)
	return func() bool { return a.e.Cancel(id) }
}
func (a *engineLines) push(line int, fn func()) { a.lines[line].Push(fn) }
func (a *engineLines) run(horizon Time) Time    { return a.e.Run(horizon) }
func (a *engineLines) stop()                    { a.e.Stop() }

// refLines schedules an event per pushed item.
type refLines struct {
	r      *refEngine
	delays []Time
}

func newRefLines(delays []Time) lineAPI { return &refLines{r: &refEngine{}, delays: delays} }

func (a *refLines) now() Time                         { return a.r.now() }
func (a *refLines) at(at Time, fn func()) func() bool { return a.r.at(at, false, fn) }
func (a *refLines) push(line int, fn func())          { a.r.at(a.r.now()+a.delays[line], false, fn) }
func (a *refLines) run(horizon Time) Time             { return a.r.run(horizon) }
func (a *refLines) stop()                             { a.r.stop() }

// driveLineOrder interprets prog as a three-byte header followed by a
// sequence of operations, and returns the log of everything observable. The
// header picks the delay scale (orderScales), the number of lines (two or
// three) and each line's delay: 0 to 3 scale units, so lines often share a
// delay with each other and with the plain events, whose delays are 0 to 15
// units. Each plain event and each pushed item gets an action, decided when
// it is scheduled, that it performs when it fires: nothing, cancel a plain
// event (often a stale one), schedule a plain child, push a child onto a
// line, or stop the engine.
func driveLineOrder(newAPI func(delays []Time) lineAPI, prog []byte) []string {
	var hdr [3]byte
	prog = prog[copy(hdr[:], prog):]
	scale := orderScales[int(hdr[0])%len(orderScales)]
	delays := make([]Time, 2+int(hdr[1])%2)
	for i := range delays {
		delays[i] = scale * Time(hdr[2]>>(2*i)&3)
	}
	api := newAPI(delays)
	var log []string
	var cancels []func() bool
	items := 0
	var act func(what string, action, target byte)
	var schedule func(d Time, action, target byte)
	push := func(line int, action, target byte) {
		what := fmt.Sprintf("item %d line %d", items, line)
		items++
		api.push(line, func() { act(what, action, target) })
	}
	act = func(what string, action, target byte) {
		log = append(log, fmt.Sprintf("fire %s @%d", what, api.now()))
		switch action % 8 {
		case 1, 2:
			if len(cancels) > 0 {
				t := int(target) % len(cancels)
				log = append(log, fmt.Sprintf("cancel %d from %s %v", t, what, cancels[t]()))
			}
		case 3:
			if len(cancels)+items < 2000 {
				schedule(scale*Time(target%5), target/5, target*7)
			}
		case 4, 5:
			if len(cancels)+items < 2000 {
				push(int(target)%len(delays), target/3, target*5)
			}
		case 6:
			api.stop()
		}
	}
	schedule = func(d Time, action, target byte) {
		id := len(cancels)
		cancels = append(cancels, nil)
		what := fmt.Sprintf("plain %d", id)
		cancels[id] = api.at(api.now()+d, func() { act(what, action, target) })
	}
	for i := 0; i+2 < len(prog); i += 3 {
		op, a, b := prog[i], prog[i+1], prog[i+2]
		switch op % 6 {
		case 0:
			// Few distinct delays make equal timestamps common.
			schedule(scale*Time(a%16), b, a^b)
		case 1, 2:
			push(int(a)%len(delays), b, a^b)
		case 3:
			if len(cancels) > 0 {
				t := (int(a)<<8 | int(b)) % len(cancels)
				log = append(log, fmt.Sprintf("cancel %d %v", t, cancels[t]()))
			}
		case 4:
			log = append(log, fmt.Sprintf("run %d", api.run(api.now()+scale*Time(a%24))))
		case 5:
			log = append(log, fmt.Sprintf("run-all %d", api.run(MaxTime)))
		}
		log = append(log, fmt.Sprintf("now %d", api.now()))
	}
	log = append(log, fmt.Sprintf("drain %d", api.run(MaxTime)))
	// A stop in the last batches leaves work queued; drain until a Run
	// neither moves the clock nor fires anything.
	for {
		n, t := len(log), api.now()
		if api.run(MaxTime) == t && len(log) == n {
			break
		}
	}
	log = append(log, fmt.Sprintf("now %d", api.now()))
	return log
}

func checkLineOrder(t *testing.T, prog []byte) {
	t.Helper()
	got := driveLineOrder(newEngineLines, prog)
	want := driveLineOrder(newRefLines, prog)
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Fatalf("lines diverge from an event per item at log line %d:\n got  %q\n want %q",
				i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("engine log has %d lines, reference %d", len(got), len(want))
	}
}

// TestLineOrderMatchesReference runs seeded random programs through the
// engine with its lines and through the reference, at every delay scale
// and line configuration in turn.
func TestLineOrderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 400; i++ {
		prog := make([]byte, 3+3*(1+rng.Intn(400)))
		rng.Read(prog)
		prog[0] = byte(i % len(orderScales))
		prog[1] = byte(i / len(orderScales) % 2)
		// Bias toward scheduling and pushing so the queue grows.
		for j := 3; j < len(prog); j += 3 {
			if rng.Intn(3) > 0 {
				prog[j] %= 3
			}
		}
		checkLineOrder(t, prog)
	}
}

func FuzzLineOrder(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 0, 1, 1, 0, 0, 3, 1, 5, 0, 0})
	f.Add([]byte{0, 1, 0x24, 1, 2, 4, 0, 2, 3, 2, 1, 6, 1, 0, 0, 4, 3, 0, 5, 0, 0})
	f.Add([]byte{1, 0, 0x05, 1, 1, 5, 0, 1, 3, 2, 0, 4, 4, 1, 0, 1, 0, 6, 5, 0, 0})
	f.Add([]byte{3, 1, 0x15, 0, 1, 3, 1, 2, 2, 2, 1, 4, 4, 12, 0, 1, 0, 0, 5, 0, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		checkLineOrder(t, prog)
	})
}

// TestLineFoldsAnInstant checks that items due at one instant share an
// event until another event is queued for that instant, and that an
// instant beyond the timing wheel's span is never folded.
func TestLineFoldsAnInstant(t *testing.T) {
	e := NewEngine()
	var got []int
	l := NewLine(e, 80, "wire", func(i int) { got = append(got, i) })
	for i := 0; i < 100; i++ {
		l.Push(i)
	}
	e.At(80, "tick", func() { got = append(got, -1) })
	l.Push(100)
	l.Push(101)
	if l.Len() != 102 || e.Pending() != 3 {
		t.Fatalf("Len %d, Pending %d; want 102 items in 3 events", l.Len(), e.Pending())
	}
	far := NewLine(e, 5*wheelSpan, "far", func(i int) { got = append(got, i) })
	far.Push(1000)
	far.Push(1001)
	if e.Pending() != 5 {
		t.Fatalf("Pending %d after two far pushes, want 5", e.Pending())
	}
	e.RunAll()
	if e.Processed() != 5 || l.Len() != 0 || far.Len() != 0 {
		t.Fatalf("Processed %d, Len %d and %d; want 5, 0, 0", e.Processed(), l.Len(), far.Len())
	}
	want := make([]int, 0, 104)
	for i := 0; i < 100; i++ {
		want = append(want, i)
	}
	want = append(want, -1, 100, 101, 1000, 1001)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
}

// TestLineChecksEveryItem checks that the invariant check runs after every
// item of a batch, and that a violation after the second item is reported
// once, naming the line, and keeps the third item from running.
func TestLineChecksEveryItem(t *testing.T) {
	e := NewEngine()
	ran, checks := 0, 0
	e.SetInvariantCheck(func() error { checks++; return nil })
	l := NewLine(e, 10, "deliver", func(int) { ran++ })
	for i := 0; i < 3; i++ {
		l.Push(i)
	}
	e.RunAll()
	if ran != 3 || checks != 3 || e.Processed() != 1 {
		t.Fatalf("ran %d items, %d checks, %d events; want 3, 3 and 1", ran, checks, e.Processed())
	}

	e = NewEngine()
	ran, checks = 0, 0
	e.SetInvariantCheck(func() error {
		checks++
		if ran == 2 {
			return errors.New("second item broke it")
		}
		return nil
	})
	l = NewLine(e, 10, "deliver", func(int) { ran++ })
	for i := 0; i < 3; i++ {
		l.Push(i)
	}
	e.RunAll()
	if ran != 2 || checks != 2 {
		t.Fatalf("ran %d items under %d checks, want 2 and 2", ran, checks)
	}
	err := e.Err()
	if err == nil || !strings.Contains(err.Error(), `"deliver"`) || !strings.Contains(err.Error(), "second item broke it") {
		t.Fatalf("Err() = %v, want the violation after a deliver item", err)
	}
	e.RunAll()
	if ran != 2 || checks != 2 || e.Err() != err {
		t.Fatalf("after a resume: ran %d, %d checks, err %v; want 2, 2 and the first violation", ran, checks, e.Err())
	}
}

// TestLineFailStopsTheBatch checks that an item that fails the run keeps
// the rest of its batch from running.
func TestLineFailStopsTheBatch(t *testing.T) {
	e := NewEngine()
	var ran []int
	l := NewLine(e, 0, "step", func(i int) {
		ran = append(ran, i)
		if i == 1 {
			e.Fail(errors.New("model broke"))
		}
	})
	for i := 0; i < 3; i++ {
		l.Push(i)
	}
	e.RunAll()
	if fmt.Sprint(ran) != "[0 1]" || e.Err() == nil {
		t.Fatalf("ran %v with err %v, want [0 1] and the failure", ran, e.Err())
	}
}

// TestLineSteadyStateZeroAlloc checks that once a line's buffers and the
// engine's free list have grown, pushing and firing allocate nothing,
// whether the items fold into a few events or each take their own.
func TestLineSteadyStateZeroAlloc(t *testing.T) {
	e := NewEngine()
	sum := 0
	l := NewLine(e, 50, "wire", func(i int32) { sum += int(i) })
	h := func() {}
	burst := func() {
		for i := int32(0); i < 64; i++ {
			l.Push(i)
			if i%8 == 0 {
				e.After(50, "tick", h) // splits the batch
			}
			if i%16 == 0 {
				e.Run(e.Now() + 1) // the next pushes start a new instant
			}
		}
		e.RunAll()
	}
	burst()
	if allocs := testing.AllocsPerRun(100, burst); allocs != 0 {
		t.Fatalf("steady-state line pushes allocated %.1f times per burst, want 0", allocs)
	}
}
