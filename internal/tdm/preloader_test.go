package tdm

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"pmsnet/internal/bitmat"
	"pmsnet/internal/topology"
	"pmsnet/internal/traffic"
)

// referenceGroupsOf indexes groups the map way: each group's configurations
// are ORed into one union matrix, whose every connection records the group
// once, in group order.
func referenceGroupsOf(n int, groups [][]*bitmat.Matrix) map[topology.Conn][]int32 {
	ref := make(map[topology.Conn][]int32)
	union := bitmat.NewSquare(n)
	for gi, group := range groups {
		union.Reset()
		for _, cfg := range group {
			union.Or(cfg)
		}
		union.Ones(func(u, v int) bool {
			c := topology.Conn{Src: u, Dst: v}
			ref[c] = append(ref[c], int32(gi))
			return true
		})
	}
	return ref
}

// randomGroups draws groups of random partial permutations over n ports.
// Some groups repeat a configuration (a register share) and every group's
// configurations may overlap.
func randomGroups(rng *rand.Rand, n int) [][]*bitmat.Matrix {
	groups := make([][]*bitmat.Matrix, 1+rng.Intn(6))
	for gi := range groups {
		size := 1 + rng.Intn(3)
		for len(groups[gi]) < size {
			if len(groups[gi]) > 0 && rng.Intn(4) == 0 {
				groups[gi] = append(groups[gi], groups[gi][rng.Intn(len(groups[gi]))])
				continue
			}
			cfg := bitmat.NewSquare(n)
			for u, v := range rng.Perm(n) {
				if u != v && rng.Intn(3) > 0 {
					cfg.Set(u, v)
				}
			}
			groups[gi] = append(groups[gi], cfg)
		}
	}
	return groups
}

// checkIndexAgainst compares groupsOf for every (u, v) with the reference,
// checks that each group's matrices hold exactly the connections the
// reference lists for that group, and recounts the pending totals.
func checkIndexAgainst(t *testing.T, what string, p *preloader, ref map[topology.Conn][]int32) {
	t.Helper()
	n := p.r.cfg.N
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			c := topology.Conn{Src: u, Dst: v}
			var got []int32
			if id := p.r.conns.ID(u, v); id >= 0 {
				got = p.groupsOf(id)
			}
			want := ref[c]
			if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("%s: groupsOf(%v) = %v, want %v", what, c, got, want)
			}
		}
	}
	for gi, group := range p.groups {
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				held := false
				for _, cfg := range group {
					held = held || cfg.Get(u, v)
				}
				listed := false
				for _, g := range ref[topology.Conn{Src: u, Dst: v}] {
					listed = listed || int(g) == gi
				}
				if held != listed {
					t.Fatalf("%s: group %d holds %d->%d = %v, reference lists it = %v", what, gi, u, v, held, listed)
				}
			}
		}
	}
	if err := p.checkPending(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
}

// TestPreloaderIndexMatchesReference swaps random groups into a live hybrid
// run's preloader and checks the per-source index against a map built the
// old way, before and after random breakConn/breakPort sequences, while the
// run keeps moving traffic through the pending counts.
func TestPreloaderIndexMatchesReference(t *testing.T) {
	const n = 12
	rng := rand.New(rand.NewSource(28))
	pendingSeen := 0
	for trial := 0; trial < 40; trial++ {
		nw := mustNew(t, Config{N: n, K: 4, Mode: Hybrid, PreloadSlots: 2})
		r, err := nw.start(traffic.TwoPhase(n, 64, int64(trial)))
		if err != nil {
			t.Fatal(err)
		}
		p := r.pre
		p.groups = randomGroups(rng, n)
		if err := p.indexGroups(); err != nil {
			t.Fatal(err)
		}
		p.pendingInGroup = make([]int, len(p.groups))
		p.pendingStatic = 0
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if r.driver.Buffers[u].HasFor(v) {
					p.pendingUp(r.conns.ID(u, v))
				}
			}
		}
		if err := p.load(0); err != nil {
			t.Fatal(err)
		}
		ref := referenceGroupsOf(n, p.groups)
		checkIndexAgainst(t, fmt.Sprintf("trial %d: fresh", trial), p, ref)

		for op := 0; op < 12; op++ {
			for i := rng.Intn(200); i > 0 && r.eng.Step(); i-- {
			}
			what := fmt.Sprintf("trial %d op %d", trial, op)
			if rng.Intn(3) == 0 {
				port := rng.Intn(n)
				want := 0
				for c := range ref {
					if c.Src == port || c.Dst == port {
						delete(ref, c)
						want++
					}
				}
				if got := p.breakPort(port); got != want {
					t.Fatalf("%s: breakPort(%d) = %d, want %d", what, port, got, want)
				}
			} else {
				c := topology.Conn{Src: rng.Intn(n), Dst: rng.Intn(n)}
				want := len(ref[c]) > 0
				delete(ref, c)
				// The run's table holds every pair but the self-loops,
				// which no group holds.
				id := r.conns.ID(c.Src, c.Dst)
				if got := id >= 0 && p.breakConn(id); got != want {
					t.Fatalf("%s: breakConn(%v) = %v, want %v", what, c, got, want)
				}
			}
			if r.err != nil {
				t.Fatalf("%s: run failed: %v", what, r.err)
			}
			checkIndexAgainst(t, what, p, ref)
			if p.pendingStatic > 0 {
				pendingSeen++
			}
		}
	}
	if pendingSeen == 0 {
		t.Fatal("no check ran with pending preloaded traffic")
	}
}

// TestPreloadCoverageNamesSmallestConnection checks that the Preload
// coverage error names the smallest uncovered (Src, Dst), whatever order
// the programs send in.
func TestPreloadCoverageNamesSmallestConnection(t *testing.T) {
	covered := topology.NewWorkingSet(4)
	covered.Add(topology.Conn{Src: 0, Dst: 1})
	for _, tc := range []struct {
		name  string
		sends map[int][]int // source -> destinations, in program order
		want  string
	}{
		{"same source", map[int][]int{0: {1}, 2: {3, 1}}, "2->1"},
		{"two sources", map[int][]int{0: {1}, 1: {3}, 3: {0}}, "1->3"},
		{"later source listed first", map[int][]int{3: {2}, 0: {1, 2}}, "0->2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wl := &traffic.Workload{Name: "cover", N: 4, Programs: make([]traffic.Program, 4),
				StaticPhases: []*topology.WorkingSet{covered}}
			for src, dsts := range tc.sends {
				for _, d := range dsts {
					wl.Programs[src].Ops = append(wl.Programs[src].Ops, traffic.Send(d, 8))
				}
			}
			_, err := mustNew(t, Config{N: 4, K: 2, Mode: Preload}).Run(wl)
			want := "tdm: preload mode cannot serve " + tc.want + ": not in any static phase"
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("err = %v, want %q", err, want)
			}
		})
	}
}

// TestGroupLoadDoesNotAllocate pins a group that leaves managed slots empty
// and hands a slot back: one empty configuration held by the preloader
// serves every such slot, so neither allocates.
func TestGroupLoadDoesNotAllocate(t *testing.T) {
	// 15 single-connection configurations in groups of 4: the last group
	// fills three of the four slots.
	r, err := mustNew(t, Config{N: 16, K: 4, Mode: Preload}).start(traffic.Scatter(16, 8))
	if err != nil {
		t.Fatal(err)
	}
	p := r.pre
	last := len(p.groups) - 1
	if len(p.groups[last]) >= p.slots {
		t.Fatalf("last group has %d configurations for %d slots; want an empty slot", len(p.groups[last]), p.slots)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if err := p.load(last); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("loading a group allocates %.0f times per load, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1, func() {
		if !p.releaseSlot() {
			t.Fatal("no slot released")
		}
	}); allocs != 0 {
		t.Errorf("releasing a slot allocates %.0f times, want 0", allocs)
	}
}
