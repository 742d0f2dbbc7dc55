package core

import (
	"math/rand"
	"testing"

	"pmsnet/internal/bitmat"
)

// TestSparseRowVisitCases pins the sparse pass's row visit on hand-built
// rows at N=160 (three words per row), each run twice: once with every row
// on the word path and once with every row on the list path. Each case
// checks the exact changes and the dense twin's agreement with them.
func TestSparseRowVisitCases(t *testing.T) {
	const n = 160
	oddOnly := func(_ *bitmat.Matrix, u, v int) bool { return (u+v)%2 != 0 }
	ch := func(u, v int) Change { return Change{Src: u, Dst: v, Slot: 0} }
	// latchThenDrop establishes 9→50 with a request, then drops the request.
	latchThenDrop := func(tw *twin) {
		tw.request(9, 50, true)
		tw.pass()
		tw.request(9, 50, false)
	}
	cases := []struct {
		name     string
		rot      int // row origin a and column origin bo
		latch    bool
		hook     func(b *bitmat.Matrix, u, v int) bool
		conns    [][2]int // slot-0 connections loaded before the pass
		prep     func(tw *twin)
		reqs     [][2]int
		est, rel []Change
	}{
		{name: "release after origin, establish after it", rot: 100,
			conns: [][2]int{{5, 130}}, reqs: [][2]int{{5, 20}, {5, 110}, {5, 140}},
			est: []Change{ch(5, 140)}, rel: []Change{ch(5, 130)}},
		{name: "release after origin, establish wraps", rot: 100,
			conns: [][2]int{{5, 130}}, reqs: [][2]int{{5, 20}, {5, 110}},
			est: []Change{ch(5, 20)}, rel: []Change{ch(5, 130)}},
		{name: "release before origin", rot: 100,
			conns: [][2]int{{5, 30}}, reqs: [][2]int{{5, 20}, {5, 40}, {5, 110}},
			est: []Change{ch(5, 40)}, rel: []Change{ch(5, 30)}},
		{name: "release before origin does not wrap past it", rot: 100,
			conns: [][2]int{{5, 30}}, reqs: [][2]int{{5, 20}, {5, 110}},
			rel: []Change{ch(5, 30)}},
		{name: "origin zero, kept row skipped, busy output passed over", rot: 0,
			conns: [][2]int{{6, 3}}, reqs: [][2]int{{6, 3}, {7, 3}, {7, 150}},
			est: []Change{ch(7, 150)}},
		{name: "origin mid-word", rot: 70,
			reqs: [][2]int{{9, 65}, {9, 69}, {9, 71}, {10, 65}},
			est:  []Change{ch(9, 71), ch(10, 65)}},
		{name: "hook refuses the first candidate", rot: 0, hook: oddOnly,
			conns: [][2]int{{8, 10}}, reqs: [][2]int{{5, 41}, {5, 42}, {8, 12}, {8, 13}},
			est: []Change{ch(5, 42), ch(8, 13)}, rel: []Change{ch(8, 10)}},
		{name: "latch-only row establishes", latch: true,
			prep: func(tw *twin) {
				latchThenDrop(tw)
				tw.each(func(s *Scheduler) {
					// An unpinned load clears the slot but keeps the latch.
					if err := s.LoadConfig(0, bitmat.NewSquare(n), false); err != nil {
						t.Fatal(err)
					}
				})
			},
			est: []Change{ch(9, 50)}},
		{name: "latched row keeps its connection", latch: true, prep: latchThenDrop},
		{name: "unlatched row releases its connection", prep: latchThenDrop,
			rel: []Change{ch(9, 50)}},
	}
	for _, c := range cases {
		for _, path := range []struct {
			name       string
			wordRowMin int
		}{{"words", 1}, {"lists", n + 1}} {
			t.Run(c.name+"/"+path.name, func(t *testing.T) {
				tw := newTwin(t, Params{N: n, K: 1, RotatePriority: true,
					LatchRequests: c.latch, CanEstablish: c.hook})
				cfg := bitmat.NewSquare(n)
				for _, uv := range c.conns {
					cfg.Set(uv[0], uv[1])
				}
				tw.each(func(s *Scheduler) {
					s.wordRowMin = path.wordRowMin
					if err := s.LoadConfig(0, cfg, false); err != nil {
						t.Fatal(err)
					}
				})
				if c.prep != nil {
					c.prep(tw)
				}
				for _, uv := range c.reqs {
					tw.request(uv[0], uv[1], true)
				}
				tw.each(func(s *Scheduler) { s.rot = c.rot })
				res := tw.pass()
				if !sameChanges(res.Established, c.est) || !sameChanges(res.Released, c.rel) {
					t.Fatalf("established %v released %v, want %v and %v",
						res.Established, res.Released, c.est, c.rel)
				}
			})
		}
	}
}

// churnPass builds a scheduler at N=n in a churning steady state: every row
// requests churnBase fixed destinations plus churnVary that change with the
// pass, from three request sets in turn. Three sets over four slots means
// each visit to a slot sees a different set than the last, so every pass
// releases connections and establishes new ones. next runs one pass.
func churnPass(n int) (next func() PassResult) {
	const churnBase, churnVary, sets = 7, 6, 3
	s := MustScheduler(Params{N: n, K: 4, RotatePriority: true, SkipEmptySlots: true})
	rng := rand.New(rand.NewSource(3))
	var reqs [sets]*bitmat.Sparse
	for i := range reqs {
		reqs[i] = bitmat.NewSparse(n, n)
	}
	for u := 0; u < n; u++ {
		for k := 0; k < churnBase; k++ {
			if v := rng.Intn(n); v != u {
				for _, sp := range reqs {
					sp.Set(u, v)
				}
			}
		}
		for _, sp := range reqs {
			for k := 0; k < churnVary; k++ {
				if v := rng.Intn(n); v != u {
					sp.Set(u, v)
				}
			}
		}
	}
	pass := 0
	next = func() PassResult {
		pass++
		return s.PassSparse(reqs[pass%sets])
	}
	for i := 0; i < 24; i++ {
		next()
	}
	return next
}

// TestPassSparseZeroAlloc checks that a churning sparse pass at N=1024, which
// releases and establishes connections every time, allocates nothing.
func TestPassSparseZeroAlloc(t *testing.T) {
	next := churnPass(1024)
	var est, rel int
	allocs := testing.AllocsPerRun(30, func() {
		res := next()
		est += len(res.Established)
		rel += len(res.Released)
	})
	if allocs != 0 {
		t.Fatalf("sparse pass allocates %.1f times per pass, want 0", allocs)
	}
	if est == 0 || rel == 0 {
		t.Fatalf("no churn: %d establishes and %d releases over the measured passes", est, rel)
	}
}

// BenchmarkPass1024SparseChurn measures one sparse pass at N=1024 with ~13
// requests per row while connections are released and re-established, the
// regime of bursty dynamic TDM at N=1024 (benchPassScale's steady state
// changes nothing after warm-up).
func BenchmarkPass1024SparseChurn(b *testing.B) {
	next := churnPass(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next()
	}
}
