// Package link models the serial point-to-point links of the evaluated
// system: 6.4 Gb/s high-speed serial over 10-foot cables, with explicit
// parallel-to-serial and serial-to-parallel conversion stages.
//
// All constants come from Section 5 of the paper:
//
//   - 6.4 Gb/s line rate (an 8-byte flit serializes in exactly 10 ns)
//   - 30 ns parallel→serial conversion
//   - 20 ns propagation down a 10-foot wire
//   - 30 ns serial→parallel conversion
//
// A control line (request or grant) carries a small fixed-size token over the
// same kind of link, so its one-way delay is 30+20+30 = 80 ns — which is the
// "cable delay of 80 ns to send the request" the paper charges circuit
// switching for.
package link

import (
	"fmt"

	"pmsnet/internal/sim"
)

// Model captures the timing of one serial link technology.
type Model struct {
	// BitsPerSecond is the serial line rate.
	BitsPerSecond int64
	// SerializeNs is the parallel→serial conversion time at the sender.
	SerializeNs sim.Time
	// WireNs is the propagation delay down the cable.
	WireNs sim.Time
	// DeserializeNs is the serial→parallel conversion time at the receiver.
	DeserializeNs sim.Time
}

// Paper returns the link model used throughout the paper's evaluation.
func Paper() Model {
	return Model{
		BitsPerSecond: 6_400_000_000,
		SerializeNs:   30,
		WireNs:        20,
		DeserializeNs: 30,
	}
}

// Validate reports an error for non-physical parameters.
func (m Model) Validate() error {
	if m.BitsPerSecond <= 0 {
		return fmt.Errorf("link: non-positive line rate %d", m.BitsPerSecond)
	}
	if m.SerializeNs < 0 || m.WireNs < 0 || m.DeserializeNs < 0 {
		return fmt.Errorf("link: negative delay in %+v", m)
	}
	return nil
}

// SerializationTime returns the time to clock `bytes` bytes onto the wire at
// the line rate, rounded up to a whole nanosecond.
func (m Model) SerializationTime(bytes int) sim.Time {
	if bytes < 0 {
		panic(fmt.Sprintf("link: negative byte count %d", bytes))
	}
	bits := int64(bytes) * 8
	ns := (bits*1_000_000_000 + m.BitsPerSecond - 1) / m.BitsPerSecond
	return sim.Time(ns)
}

// PipeLatency returns the cut-through latency of the link: the time between
// the first bit entering the serializer and the first bit leaving the
// deserializer (serialize + wire + deserialize), excluding the payload
// serialization time itself.
func (m Model) PipeLatency() sim.Time {
	return m.SerializeNs + m.WireNs + m.DeserializeNs
}

// ControlDelay returns the one-way latency of a request or grant token. The
// token is small enough that its serialization time is folded into the
// conversion stages, matching the paper's flat 80 ns figure.
func (m Model) ControlDelay() sim.Time { return m.PipeLatency() }

// BytesInWindow returns how many whole bytes the link can carry in a window
// of w nanoseconds at the line rate.
func (m Model) BytesInWindow(w sim.Time) int {
	if w < 0 {
		panic(fmt.Sprintf("link: negative window %v", w))
	}
	bits := int64(w) * m.BitsPerSecond / 1_000_000_000
	return int(bits / 8)
}
