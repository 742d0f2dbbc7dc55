package probe

import (
	"bufio"
	"fmt"
	"io"

	"pmsnet/internal/sim"
)

// TraceWriter renders the event stream as Chrome trace-event JSON (the
// "JSON Array Format"), loadable in Perfetto / chrome://tracing. One event is
// written per line, so the output doubles as JSONL with array brackets.
//
// Layout: everything runs in one process (pid 1) split across five pseudo
// threads so the viewer groups related activity on one track each:
//
//	tid 1 "slots"        — complete (X) events, one per configured TDM slot
//	tid 2 "scheduler"    — duration (B/E) pairs, one per scheduling pass
//	tid 3 "connections"  — async (b/e) spans keyed "src:dst", establish→release
//	tid 4 "messages"     — async (b/e) spans keyed by message id, create→deliver,
//	                       with instant head-of-queue/injected marks in between
//	tid 5 "faults"       — instant (i) events for fault injection and recovery
//
// Timestamps are microseconds (the format's unit); the simulation's
// nanosecond clock is written with 3 decimal places, so nothing is rounded
// away. Write errors are latched and returned by Close.
type TraceWriter struct {
	bw    *bufio.Writer
	err   error
	wrote bool
}

// Chrome trace pseudo-thread ids.
const (
	tidSlots = 1 + iota
	tidSched
	tidConns
	tidMsgs
	tidFaults
)

// NewTraceWriter starts a trace on w: it writes the opening bracket and the
// process/thread metadata immediately. The caller must Close the writer to
// terminate the JSON array (closing the underlying file, if any, remains the
// caller's job).
func NewTraceWriter(w io.Writer) *TraceWriter {
	t := &TraceWriter{bw: bufio.NewWriter(w)}
	t.raw("[\n")
	t.meta("process_name", 0, `"name":{"args":{"name":"pmsnet"}}`)
	for _, th := range []struct {
		tid  int
		name string
	}{
		{tidSlots, "slots"},
		{tidSched, "scheduler"},
		{tidConns, "connections"},
		{tidMsgs, "messages"},
		{tidFaults, "faults"},
	} {
		t.line(`{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":%q}}`, th.tid, th.name)
	}
	return t
}

func (t *TraceWriter) raw(s string) {
	if t.err != nil {
		return
	}
	_, t.err = t.bw.WriteString(s)
}

// line writes one JSON event object on its own line, inserting the element
// separator before every object after the first.
func (t *TraceWriter) line(format string, args ...any) {
	if t.err != nil {
		return
	}
	if t.wrote {
		t.raw(",\n")
	}
	t.wrote = true
	_, t.err = fmt.Fprintf(t.bw, format, args...)
}

func (t *TraceWriter) meta(name string, tid int, _ string) {
	t.line(`{"name":%q,"ph":"M","pid":1,"tid":%d,"args":{"name":"pmsnet"}}`, name, tid)
}

// us renders a simulation timestamp in the trace format's microsecond unit.
func us(at sim.Time) string { return fmt.Sprintf("%d.%03d", at/1000, at%1000) }

// Handle implements Sink.
func (t *TraceWriter) Handle(ev Event) {
	switch ev.Kind {
	case SlotStart:
		if ev.Slot < 0 {
			return // no configuration this boundary; nothing occupies the track
		}
		t.line(`{"name":"slot %d","cat":"slot","ph":"X","ts":%s,"dur":%s,"pid":1,"tid":%d,"args":{"slot":%d}}`,
			ev.Slot, us(ev.At), us(sim.Time(ev.Aux)), tidSlots, ev.Slot)
	case SlotEnd:
		t.line(`{"name":"slot-used","cat":"slot","ph":"C","ts":%s,"pid":1,"tid":%d,"args":{"used":%d}}`,
			us(ev.At), tidSlots, ev.Aux)
	case SchedPassBegin:
		t.line(`{"name":"pass","cat":"sched","ph":"B","ts":%s,"pid":1,"tid":%d}`,
			us(ev.At), tidSched)
	case SchedPassEnd:
		t.line(`{"name":"pass","cat":"sched","ph":"E","ts":%s,"pid":1,"tid":%d,"args":{"established":%d,"released":%d}}`,
			us(ev.At), tidSched, ev.Aux, ev.ID)
	case ConnEstablished:
		t.line(`{"name":"conn %d->%d","cat":"conn","ph":"b","id":"%d:%d","ts":%s,"pid":1,"tid":%d,"args":{"slot":%d}}`,
			ev.Src, ev.Dst, ev.Src, ev.Dst, us(ev.At), tidConns, ev.Slot)
	case ConnReleased:
		t.line(`{"name":"conn %d->%d","cat":"conn","ph":"e","id":"%d:%d","ts":%s,"pid":1,"tid":%d,"args":{"reason":"released","slot":%d}}`,
			ev.Src, ev.Dst, ev.Src, ev.Dst, us(ev.At), tidConns, ev.Slot)
	case ConnEvicted:
		t.line(`{"name":"conn %d->%d","cat":"conn","ph":"e","id":"%d:%d","ts":%s,"pid":1,"tid":%d,"args":{"reason":"evicted","slots":%d}}`,
			ev.Src, ev.Dst, ev.Src, ev.Dst, us(ev.At), tidConns, ev.Aux)
	case Preload:
		t.line(`{"name":"preload group %d","cat":"sched","ph":"i","s":"t","ts":%s,"pid":1,"tid":%d,"args":{"group":%d,"configs":%d}}`,
			ev.Slot, us(ev.At), tidSched, ev.Slot, ev.Aux)
	case Flush:
		t.line(`{"name":"flush","cat":"sched","ph":"i","s":"t","ts":%s,"pid":1,"tid":%d}`,
			us(ev.At), tidSched)
	case MsgCreated:
		t.line(`{"name":"msg %d","cat":"msg","ph":"b","id":%d,"ts":%s,"pid":1,"tid":%d,"args":{"src":%d,"dst":%d,"bytes":%d}}`,
			ev.ID, ev.ID, us(ev.At), tidMsgs, ev.Src, ev.Dst, ev.Aux)
	case MsgHeadOfQueue:
		t.line(`{"name":"head-of-queue","cat":"msg","ph":"n","id":%d,"ts":%s,"pid":1,"tid":%d,"args":{"src":%d,"dst":%d}}`,
			ev.ID, us(ev.At), tidMsgs, ev.Src, ev.Dst)
	case MsgInjected:
		t.line(`{"name":"injected","cat":"msg","ph":"n","id":%d,"ts":%s,"pid":1,"tid":%d,"args":{"src":%d,"dst":%d}}`,
			ev.ID, us(ev.At), tidMsgs, ev.Src, ev.Dst)
	case MsgDelivered:
		t.line(`{"name":"msg %d","cat":"msg","ph":"e","id":%d,"ts":%s,"pid":1,"tid":%d,"args":{"latency_ns":%d}}`,
			ev.ID, ev.ID, us(ev.At), tidMsgs, ev.Aux)
	case FaultInjected:
		kind := "link-down"
		if ev.ID == 1 {
			kind = "crosspoint-dead"
		}
		t.line(`{"name":%q,"cat":"fault","ph":"i","s":"g","ts":%s,"pid":1,"tid":%d,"args":{"port":%d,"out":%d,"permanent":%d}}`,
			kind, us(ev.At), tidFaults, ev.Src, ev.Dst, ev.Aux)
	case FaultRecovered:
		t.line(`{"name":"link-up","cat":"fault","ph":"i","s":"g","ts":%s,"pid":1,"tid":%d,"args":{"port":%d}}`,
			us(ev.At), tidFaults, ev.Src)
	}
}

// Close terminates the JSON array and flushes buffered output. It returns
// the first write error encountered anywhere in the trace.
func (t *TraceWriter) Close() error {
	t.raw("\n]\n")
	if err := t.bw.Flush(); t.err == nil {
		t.err = err
	}
	return t.err
}
