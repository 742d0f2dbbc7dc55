package predictor

import (
	"testing"

	"pmsnet/internal/topology"
)

func TestScheduleSlackEvictsOnSpentBudget(t *testing.T) {
	a := topology.Conn{Src: 0, Dst: 1}
	b := topology.Conn{Src: 1, Dst: 2}
	p := NewScheduleSlack(map[topology.Conn]uint64{a: 2, b: 5}, 100)
	p.OnEstablish(a, 0)
	p.OnEstablish(b, 0)
	if got := p.Slack(a); got != 2 {
		t.Fatalf("initial slack = %d, want 2", got)
	}
	p.OnUse(a, 10)
	if len(p.Evictions(10, all)) != 0 {
		t.Fatal("evicted with budget remaining")
	}
	if got := p.Slack(a); got != 1 {
		t.Fatalf("slack after one use = %d, want 1", got)
	}
	p.OnUse(a, 20)
	got := p.Evictions(20, all)
	if len(got) != 1 || got[0] != a {
		t.Fatalf("Evictions = %v, want [%v]", got, a)
	}
	// The plan says a is done — no waiting for a timeout.
	p.OnRelease(a)
	if len(p.Evictions(21, all)) != 0 {
		t.Fatal("released connection still nominated")
	}
}

func TestScheduleSlackFallbackTimeout(t *testing.T) {
	unplanned := topology.Conn{Src: 3, Dst: 4}
	p := NewScheduleSlack(nil, 50)
	p.OnEstablish(unplanned, 0)
	if len(p.Evictions(49, all)) != 0 {
		t.Fatal("unplanned connection evicted before the fallback timeout")
	}
	got := p.Evictions(50, all)
	if len(got) != 1 || got[0] != unplanned {
		t.Fatalf("Evictions = %v, want the idle unplanned connection", got)
	}
	// Use refreshes the clock.
	p.OnUse(unplanned, 60)
	if len(p.Evictions(100, all)) != 0 {
		t.Fatal("recently used connection evicted")
	}
}

func TestScheduleSlackOverBudgetNoDuplicates(t *testing.T) {
	a := topology.Conn{Src: 0, Dst: 1}
	p := NewScheduleSlack(map[topology.Conn]uint64{a: 1}, 10)
	p.OnEstablish(a, 0)
	p.OnUse(a, 1)
	p.OnUse(a, 2) // plan was wrong; extra traffic arrived
	got := p.Evictions(500, all)
	if len(got) != 1 || got[0] != a {
		t.Fatalf("Evictions = %v, want exactly one nomination of %v", got, a)
	}
}

func TestScheduleSlackDeterministicOrder(t *testing.T) {
	p := NewScheduleSlack(map[topology.Conn]uint64{
		{Src: 5, Dst: 1}: 1,
		{Src: 0, Dst: 2}: 1,
		{Src: 0, Dst: 1}: 1,
	}, 1000)
	for _, c := range []topology.Conn{{Src: 5, Dst: 1}, {Src: 0, Dst: 2}, {Src: 0, Dst: 1}} {
		p.OnEstablish(c, 0)
		p.OnUse(c, 1)
	}
	got := p.Evictions(2, all)
	want := []topology.Conn{{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 5, Dst: 1}}
	if len(got) != len(want) {
		t.Fatalf("Evictions = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Evictions = %v, want sorted %v", got, want)
		}
	}
}
