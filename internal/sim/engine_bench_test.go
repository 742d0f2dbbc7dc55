package sim

import (
	"math/rand"
	"testing"
)

// The schedule/fire path is amortized zero-alloc: fired and cancelled event
// structs are recycled through the engine's free list, so steady-state
// simulation allocates only what the model's own handlers allocate. The
// benchmarks report allocs/op; TestEngineSteadyStateZeroAlloc enforces zero.

// BenchmarkEngineScheduleFire measures the steady-state schedule-then-fire
// cycle, the inner loop of every simulation run.
func BenchmarkEngineScheduleFire(b *testing.B) {
	e := NewEngine()
	h := func() {}
	for i := 0; i < 64; i++ {
		e.After(1, "warm", h)
	}
	e.RunAll()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(1, "x", h)
		e.Step()
	}
}

// BenchmarkEngineScheduleCancel measures the schedule-then-cancel cycle —
// the shape of every retry/timeout timer that is disarmed before firing.
// Cancel removes the event from the queue eagerly, so a long run that arms
// and disarms millions of timers holds no dead entries.
func BenchmarkEngineScheduleCancel(b *testing.B) {
	e := NewEngine()
	h := func() {}
	for i := 0; i < 64; i++ {
		e.Cancel(e.After(1, "warm", h))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Cancel(e.After(1, "x", h))
	}
}

// BenchmarkEngineTicker measures steady-state ticking (the TDM slot clock
// and the scheduler's SL clock): one fire plus one reschedule per tick.
func BenchmarkEngineTicker(b *testing.B) {
	e := NewEngine()
	ticks := 0
	tk := e.NewTicker(100, "slot", func() {
		ticks++
		if ticks >= b.N {
			e.Stop()
		}
	})
	tk.Start()
	e.Run(100) // warm up one tick's allocations
	b.ReportAllocs()
	b.ResetTimer()
	if ticks < b.N {
		e.RunAll()
	}
}

// BenchmarkEngineMixedQueue measures fire/cancel against a populated queue:
// its 1,024 events share 97 instants, so many sifts compare equal times and
// fall back on the FIFO tie-break.
func BenchmarkEngineMixedQueue(b *testing.B) {
	e := NewEngine()
	h := func() {}
	for i := 0; i < 1024; i++ {
		e.After(Time(1+i%97), "bg", h)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := e.After(Time(1+i%13), "x", h)
		if i%3 == 0 {
			e.Cancel(id)
		} else {
			e.Step()
		}
	}
}

// slotMixDeltas draws n schedule-ahead delays from the mix measured on the
// mesh-n128 perfbench workload before sim.Line folded each instant's
// fixed-delay traffic into one event: 1% same-instant, 45% 10 ns (NIC and
// wire), 8% 64–127 ns (the 100 ns slot tick) and the rest 128–255 ns.
// farShare of the draws are 1–4 µs think-time delays.
func slotMixDeltas(n int, farShare float64) []Time {
	rng := rand.New(rand.NewSource(1))
	d := make([]Time, n)
	for i := range d {
		switch p := rng.Float64(); {
		case p < farShare:
			d[i] = Microsecond + Time(rng.Intn(3*int(Microsecond)))
		case p < farShare+0.01:
			d[i] = 0
		case p < farShare+0.46:
			d[i] = 10
		case p < farShare+0.54:
			d[i] = 64 + Time(rng.Intn(64))
		default:
			d[i] = 128 + Time(rng.Intn(128))
		}
	}
	return d
}

// BenchmarkEngineSlotMix measures one fire plus one schedule at a steady
// queue depth, with delays drawn from the measured mix: ~200 pending events
// with every delay under 256 ns, and ~1,600 with 2% of delays at 1–4 µs.
// The depths are the means measured on mesh-n128 and bursty-n1024 before
// sim.Line, when every message transition was an event of its own; those
// runs now fire far fewer events, so their queues are shallower.
func BenchmarkEngineSlotMix(b *testing.B) {
	for _, c := range []struct {
		name     string
		depth    int
		farShare float64
	}{
		{"depth=200", 200, 0},
		{"depth=1600", 1600, 0.02},
	} {
		b.Run(c.name, func(b *testing.B) {
			deltas := slotMixDeltas(4096, c.farShare)
			e := NewEngine()
			h := func() {}
			for i := 0; i < c.depth; i++ {
				e.After(deltas[i], "warm", h)
			}
			// Cycle the delay table once so the queue and the free list
			// reach their steady sizes before timing.
			for i := range deltas {
				e.Step()
				e.After(deltas[i], "warm", h)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
				e.After(deltas[i&(len(deltas)-1)], "x", h)
			}
		})
	}
}

// TestEngineSteadyStateZeroAlloc is the hard guarantee behind the
// benchmarks: after warm-up, a schedule/fire/cancel mix allocates nothing.
// The mix includes microsecond-scale timers, armed and mostly disarmed as
// the TDM request/grant retry path does.
func TestEngineSteadyStateZeroAlloc(t *testing.T) {
	e := NewEngine()
	h := func() {}
	cycle := func() {
		for i := 0; i < 64; i++ {
			id := e.After(Time(1+i%7), "x", h)
			if i%4 == 0 {
				e.Cancel(id)
			}
			if i%8 == 0 {
				retry := e.After(Time(1+i%3)*Microsecond+Time(i), "retry", h)
				if i%16 == 0 {
					e.Cancel(retry)
				}
			}
		}
		e.RunAll()
	}
	for i := 0; i < 256; i++ {
		e.After(Time(1+i%17), "warm", h)
	}
	e.RunAll()
	cycle()
	allocs := testing.AllocsPerRun(100, cycle)
	if allocs != 0 {
		t.Fatalf("steady-state schedule/fire/cancel allocated %.1f times per run, want 0", allocs)
	}
}

// TestTickerSteadyStateZeroAlloc covers the ticker reschedule path, which
// must not allocate a fresh fire closure per tick.
func TestTickerSteadyStateZeroAlloc(t *testing.T) {
	e := NewEngine()
	tk := e.NewTicker(10, "slot", func() {})
	tk.Start()
	e.Run(1000) // warm up
	horizon := e.Now()
	allocs := testing.AllocsPerRun(100, func() {
		horizon += 1000
		e.Run(horizon)
	})
	if allocs != 0 {
		t.Fatalf("steady-state ticking allocated %.1f times per run, want 0", allocs)
	}
}
