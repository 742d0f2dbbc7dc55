package link

import (
	"testing"
	"testing/quick"

	"pmsnet/internal/sim"
)

func TestPaperConstants(t *testing.T) {
	m := Paper()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// An 8-byte flit serializes in exactly 10 ns at 6.4 Gb/s (paper §5).
	if got := m.SerializationTime(8); got != 10 {
		t.Fatalf("8-byte flit = %v, want 10ns", got)
	}
	// 125 bytes in 1 us per Gb/s link scaled: the paper's example says 125 B
	// per serial Gb/s link in 1 us, i.e. 800 B at 6.4 Gb/s.
	if got := m.BytesInWindow(sim.Microsecond); got != 800 {
		t.Fatalf("bytes in 1us = %d, want 800", got)
	}
	// 80 bytes fit in a 100 ns TDM slot.
	if got := m.BytesInWindow(100); got != 80 {
		t.Fatalf("bytes in 100ns = %d, want 80", got)
	}
	// Control (request/grant) line: 30+20+30 = 80 ns.
	if got := m.ControlDelay(); got != 80 {
		t.Fatalf("control delay = %v, want 80ns", got)
	}
	if got := m.PipeLatency(); got != 80 {
		t.Fatalf("pipe latency = %v, want 80ns", got)
	}
}

func TestSerializationTimeRoundsUp(t *testing.T) {
	m := Paper()
	// 1 byte = 8 bits = 1.25 ns -> rounds to 2 ns.
	if got := m.SerializationTime(1); got != 2 {
		t.Fatalf("1 byte = %v, want 2ns (rounded up)", got)
	}
	if got := m.SerializationTime(0); got != 0 {
		t.Fatalf("0 bytes = %v, want 0", got)
	}
	// 2048-byte message: 16384 bits / 6.4 = 2560 ns exactly.
	if got := m.SerializationTime(2048); got != 2560 {
		t.Fatalf("2048 bytes = %v, want 2560ns", got)
	}
}

func TestValidate(t *testing.T) {
	bad := []Model{
		{BitsPerSecond: 0},
		{BitsPerSecond: 1, SerializeNs: -1},
		{BitsPerSecond: 1, WireNs: -5},
		{BitsPerSecond: 1, DeserializeNs: -5},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("case %d: expected validation error for %+v", i, m)
		}
	}
}

func TestNegativePanics(t *testing.T) {
	m := Paper()
	for i, fn := range []func(){
		func() { m.SerializationTime(-1) },
		func() { m.BytesInWindow(-1) },
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

func TestQuickSerializationMonotonic(t *testing.T) {
	m := Paper()
	f := func(a, b uint16) bool {
		x, y := int(a), int(b)
		if x > y {
			x, y = y, x
		}
		return m.SerializationTime(x) <= m.SerializationTime(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickWindowInvertsSerialization(t *testing.T) {
	m := Paper()
	// If `bytes` serialize in time T, then a window of T ns must fit at
	// least `bytes` bytes (rounding can only help the window).
	f := func(n uint16) bool {
		bytes := int(n)
		tt := m.SerializationTime(bytes)
		return m.BytesInWindow(tt) >= bytes
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
