package pmsnet

import (
	"io"
	"time"

	"pmsnet/internal/probe"
	"pmsnet/internal/sim"
)

// Probe fans typed simulation events out to its sinks. Attach one to
// Config.Probe to observe a run; a nil probe costs a single pointer check
// per emission site on the hot path and nothing else.
type Probe = probe.Probe

// ProbeEvent is one typed simulation event: what happened (Kind), when (At,
// simulated nanoseconds) and the kind-specific payload fields.
type ProbeEvent = probe.Event

// ProbeKind discriminates ProbeEvent payloads (slot, scheduler, connection,
// message and fault lifecycle, and the preload controller's planning).
type ProbeKind = probe.Kind

// ProbeSink consumes probe events. Sinks run synchronously on the
// simulation goroutine; Handle must not block.
type ProbeSink = probe.Sink

// CounterSink tallies events by kind — the cheapest way to check what a
// run emitted.
type CounterSink = probe.CounterSink

// TimelineSink samples slot utilization and queue depth into fixed-width
// time buckets, producing the data behind utilization/backlog curves.
type TimelineSink = probe.TimelineSink

// TimelineSample is one TimelineSink bucket.
type TimelineSample = probe.Sample

// TraceWriter streams events as Chrome trace-event JSON (load the file in
// Perfetto or chrome://tracing). Close it after the run to finish the JSON
// array and flush.
type TraceWriter = probe.TraceWriter

// NewProbe builds a probe fanning events out to the given sinks; nil sinks
// are skipped.
func NewProbe(sinks ...ProbeSink) *Probe { return probe.New(sinks...) }

// NewCounterSink builds an event-count sink.
func NewCounterSink() *CounterSink { return probe.NewCounterSink() }

// NewTimelineSink builds a time-series sampler with the given bucket width;
// non-positive intervals default to 1µs.
func NewTimelineSink(interval time.Duration) *TimelineSink {
	return probe.NewTimelineSink(sim.Time(interval.Nanoseconds()))
}

// NewTraceWriter builds a Chrome trace-event JSON sink writing to w.
func NewTraceWriter(w io.Writer) *TraceWriter { return probe.NewTraceWriter(w) }
