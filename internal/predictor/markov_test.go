package predictor

import (
	"testing"

	"pmsnet/internal/sim"
)

func newMarkov(timeout sim.Time) *Markov {
	m := NewMarkov(timeout)
	m.Start(table)
	return m
}

func TestMarkovLearnsCycle(t *testing.T) {
	m := newMarkov(1000)
	if m.Name() == "" {
		t.Fatal("name empty")
	}
	a, b, c := conn(0, 1), conn(0, 2), conn(0, 3)
	// Teach the cycle a -> b -> c -> a twice.
	for i := 0; i < 2; i++ {
		m.OnUse(a, 0)
		m.OnUse(b, 0)
		m.OnUse(c, 0)
	}
	// After using a again, the prediction must be b.
	m.OnUse(a, 0)
	got := m.Prefetch(0)
	if len(got) != 1 || got[0] != b {
		t.Fatalf("Prefetch = %v, want [%v]", got, b)
	}
	// Prefetch drains: a second call returns nothing until the next use.
	if again := m.Prefetch(0); len(again) != 0 {
		t.Fatalf("second Prefetch = %v, want empty", again)
	}
}

func TestMarkovPicksMostFrequentSuccessor(t *testing.T) {
	m := newMarkov(1000)
	a, b, c := conn(0, 1), conn(0, 2), conn(0, 3)
	m.OnUse(a, 0)
	m.OnUse(b, 0)
	m.OnUse(a, 0)
	m.OnUse(c, 0)
	m.OnUse(a, 0)
	m.OnUse(c, 0)
	m.OnUse(a, 0)
	// a -> c seen twice, a -> b once.
	if got := m.Prefetch(0); len(got) != 1 || got[0] != c {
		t.Fatalf("Prefetch = %v, want [%v]", got, c)
	}
}

func TestMarkovSourcesIndependent(t *testing.T) {
	m := newMarkov(1000)
	m.OnUse(conn(0, 1), 0)
	m.OnUse(conn(1, 2), 0) // a different source in between
	m.OnUse(conn(0, 3), 0) // source 0: 1 -> 3
	m.OnUse(conn(0, 1), 0)
	got := m.Prefetch(0)
	// Source 0 predicts 3 after 1; source 1 has no transition history.
	want := conn(0, 3)
	found := false
	for _, id := range got {
		if table.Conn(id).Src == 1 {
			t.Fatalf("source 1 has no learnable transition, got %v", table.Conn(id))
		}
		if id == want {
			found = true
		}
	}
	if !found {
		t.Fatalf("Prefetch = %v, want it to contain %v", got, want)
	}
}

func TestMarkovEvictionDelegatesToTimeout(t *testing.T) {
	m := newMarkov(100)
	c := conn(0, 1)
	m.OnEstablish(c, 0)
	if got := m.Evictions(99, all); len(got) != 0 {
		t.Fatalf("premature eviction %v", got)
	}
	if got := m.Evictions(100, all); len(got) != 1 || got[0] != c {
		t.Fatalf("Evictions = %v, want [%v]", got, c)
	}
	m.OnRelease(c)
	if got := m.Evictions(1000, all); len(got) != 0 {
		t.Fatalf("after release: %v", got)
	}
}
