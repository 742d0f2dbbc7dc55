package probe

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"pmsnet/internal/sim"
)

func TestKindStrings(t *testing.T) {
	seen := map[string]Kind{}
	for k := Kind(0); k < KindCount; k++ {
		s := k.String()
		if s == "" || strings.HasPrefix(s, "probe.Kind(") {
			t.Errorf("Kind(%d) has no name", k)
		}
		if prev, dup := seen[s]; dup {
			t.Errorf("Kind(%d) and Kind(%d) share the name %q", k, prev, s)
		}
		seen[s] = k
	}
	if KindCount.String() != "probe.Kind(16)" {
		t.Errorf("KindCount.String() = %q, want probe.Kind(16)", KindCount.String())
	}
}

func TestNewSkipsNilSinks(t *testing.T) {
	c := NewCounterSink()
	p := New(nil, c, nil)
	p.Emit(Event{Kind: SlotStart})
	p.Emit(Event{Kind: SlotStart})
	p.Emit(Event{Kind: MsgCreated})
	if got := c.Count(SlotStart); got != 2 {
		t.Errorf("Count(SlotStart) = %d, want 2", got)
	}
	if got := c.Total(); got != 3 {
		t.Errorf("Total() = %d, want 3", got)
	}
	if got := c.Count(KindCount); got != 0 {
		t.Errorf("Count(KindCount) = %d, want 0", got)
	}
}

func TestCounterFanout(t *testing.T) {
	a, b := NewCounterSink(), NewCounterSink()
	p := New(a, b)
	p.Emit(Event{Kind: ConnEstablished})
	if a.Count(ConnEstablished) != 1 || b.Count(ConnEstablished) != 1 {
		t.Errorf("fanout missed a sink: a=%d b=%d",
			a.Count(ConnEstablished), b.Count(ConnEstablished))
	}
}

func TestTimelineSinkBuckets(t *testing.T) {
	s := NewTimelineSink(100)
	// Bucket 0: two slots, one used; one message created.
	s.Handle(Event{Kind: SlotStart, At: 0})
	s.Handle(Event{Kind: SlotEnd, At: 0, Aux: 1})
	s.Handle(Event{Kind: SlotStart, At: 50})
	s.Handle(Event{Kind: SlotEnd, At: 50, Aux: 0})
	s.Handle(Event{Kind: MsgCreated, At: 60, ID: 1})
	// Bucket 2 (bucket 1 is idle): message delivered.
	s.Handle(Event{Kind: MsgDelivered, At: 250, ID: 1})

	got := s.Samples()
	if len(got) != 3 {
		t.Fatalf("len(Samples()) = %d, want 3", len(got))
	}
	b0 := got[0]
	if b0.Slots != 2 || b0.SlotsUsed != 1 || b0.Utilization != 0.5 {
		t.Errorf("bucket 0 slots=%d used=%d util=%v, want 2/1/0.5",
			b0.Slots, b0.SlotsUsed, b0.Utilization)
	}
	if b0.Created != 1 || b0.QueueDepth != 1 || b0.MaxDepth != 1 {
		t.Errorf("bucket 0 created=%d depth=%d max=%d, want 1/1/1",
			b0.Created, b0.QueueDepth, b0.MaxDepth)
	}
	// The idle bucket inherits the running depth.
	if got[1].QueueDepth != 1 || got[1].Slots != 0 || got[1].Utilization != 0 {
		t.Errorf("idle bucket 1 = %+v, want depth 1, no slots", got[1])
	}
	if got[2].Delivered != 1 || got[2].QueueDepth != 0 {
		t.Errorf("bucket 2 delivered=%d depth=%d, want 1/0", got[2].Delivered, got[2].QueueDepth)
	}
	if got[2].Start != 200 {
		t.Errorf("bucket 2 start = %d, want 200", got[2].Start)
	}
}

func TestTimelineSinkDefaultInterval(t *testing.T) {
	if got := NewTimelineSink(0).Interval(); got != sim.Microsecond {
		t.Errorf("default interval = %d, want %d", got, sim.Microsecond)
	}
}

// emitOneOfEach drives every kind through the writer so the JSON test
// exercises each case arm.
func emitOneOfEach(s Sink) {
	s.Handle(Event{Kind: SlotStart, At: 100, Slot: 3, Aux: 1600})
	s.Handle(Event{Kind: SlotStart, At: 200, Slot: -1}) // idle boundary: no output
	s.Handle(Event{Kind: SlotEnd, At: 100, Slot: 3, Aux: 1})
	s.Handle(Event{Kind: SchedPassBegin, At: 120})
	s.Handle(Event{Kind: SchedPassEnd, At: 120, Aux: 2, ID: 1})
	s.Handle(Event{Kind: ConnEstablished, At: 120, Src: 0, Dst: 5, Slot: 3})
	s.Handle(Event{Kind: ConnReleased, At: 300, Src: 0, Dst: 5, Slot: 3})
	s.Handle(Event{Kind: ConnEvicted, At: 350, Src: 1, Dst: 2, Aux: 4})
	s.Handle(Event{Kind: Preload, At: 0, Slot: 0, Aux: 8})
	s.Handle(Event{Kind: Flush, At: 400})
	s.Handle(Event{Kind: MsgCreated, At: 10, Src: 0, Dst: 5, ID: 7, Aux: 4096})
	s.Handle(Event{Kind: MsgHeadOfQueue, At: 15, Src: 0, Dst: 5, ID: 7})
	s.Handle(Event{Kind: MsgInjected, At: 100, Src: 0, Dst: 5, ID: 7})
	s.Handle(Event{Kind: MsgDelivered, At: 500, Src: 0, Dst: 5, ID: 7, Aux: 490})
	s.Handle(Event{Kind: FaultInjected, At: 600, Src: 2, Dst: -1, ID: 0, Aux: 0})
	s.Handle(Event{Kind: FaultInjected, At: 610, Src: 2, Dst: 3, ID: 1, Aux: 1})
	s.Handle(Event{Kind: FaultRecovered, At: 700, Src: 2})
	s.Handle(Event{Kind: Plan, At: 0, Aux: 3})
}

func TestTraceWriterProducesValidJSON(t *testing.T) {
	var buf bytes.Buffer
	w := NewTraceWriter(&buf)
	emitOneOfEach(w)
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("output is not a JSON array: %v\n%s", err, buf.String())
	}
	// 7 metadata + 17 event lines (the idle SlotStart is suppressed).
	if len(events) != 24 {
		t.Fatalf("got %d events, want 24", len(events))
	}
	phases := map[string]int{}
	for i, ev := range events {
		for _, field := range []string{"name", "ph", "pid", "tid"} {
			if _, ok := ev[field]; !ok {
				t.Errorf("event %d missing %q: %v", i, field, ev)
			}
		}
		ph, _ := ev["ph"].(string)
		phases[ph]++
		if ph != "M" {
			if _, ok := ev["ts"]; !ok {
				t.Errorf("event %d (ph=%s) missing ts", i, ph)
			}
		}
		// Async events require an id.
		if ph == "b" || ph == "e" || ph == "n" {
			if _, ok := ev["id"]; !ok {
				t.Errorf("async event %d missing id: %v", i, ev)
			}
		}
	}
	for _, want := range []struct {
		ph string
		n  int
	}{{"M", 7}, {"X", 1}, {"C", 1}, {"B", 1}, {"E", 1}, {"b", 2}, {"e", 3}, {"n", 2}, {"i", 6}} {
		if phases[want.ph] != want.n {
			t.Errorf("phase %q count = %d, want %d (all: %v)", want.ph, phases[want.ph], want.n, phases)
		}
	}
}

func TestTraceWriterTimestampPrecision(t *testing.T) {
	var buf bytes.Buffer
	w := NewTraceWriter(&buf)
	w.Handle(Event{Kind: Flush, At: 1234567}) // 1234.567 µs
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if !strings.Contains(buf.String(), `"ts":1234.567`) {
		t.Errorf("timestamp not rendered with ns precision:\n%s", buf.String())
	}
}

func TestTraceWriterEmptyTraceIsValid(t *testing.T) {
	var buf bytes.Buffer
	w := NewTraceWriter(&buf)
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("empty trace is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(events) != 7 { // metadata only
		t.Errorf("got %d events, want 7 metadata events", len(events))
	}
}
