package core

import (
	"math/rand"
	"testing"

	"pmsnet/internal/bitmat"
	"pmsnet/internal/topology"
)

// TestSparseRowVisitCases pins the sparse pass's row visit on hand-built
// rows at N=160, each run over two connection tables: "words", the complete
// table, whose rows span three id words and start and end mid-word, and
// "lists", a table of only the case's connections, whose rows are a few ids
// inside one word. Each case checks the exact changes and the dense twin's
// agreement with them.
func TestSparseRowVisitCases(t *testing.T) {
	const n = 160
	oddOnly := func(_ []int32, u, v int) bool { return (u+v)%2 != 0 }
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
		hook     func(cfg []int32, u, v int) bool
		conns    [][2]int // slot-0 connections loaded before the pass
		prep     func(tw *twin)
		reqs     [][2]int
		est, rel [][2]int
	}{
		{name: "release after origin, establish after it", rot: 100,
			conns: [][2]int{{5, 130}}, reqs: [][2]int{{5, 20}, {5, 110}, {5, 140}},
			est: [][2]int{{5, 140}}, rel: [][2]int{{5, 130}}},
		{name: "release after origin, establish wraps", rot: 100,
			conns: [][2]int{{5, 130}}, reqs: [][2]int{{5, 20}, {5, 110}},
			est: [][2]int{{5, 20}}, rel: [][2]int{{5, 130}}},
		{name: "release before origin", rot: 100,
			conns: [][2]int{{5, 30}}, reqs: [][2]int{{5, 20}, {5, 40}, {5, 110}},
			est: [][2]int{{5, 40}}, rel: [][2]int{{5, 30}}},
		{name: "release before origin does not wrap past it", rot: 100,
			conns: [][2]int{{5, 30}}, reqs: [][2]int{{5, 20}, {5, 110}},
			rel: [][2]int{{5, 30}}},
		{name: "origin zero, kept row skipped, busy output passed over", rot: 0,
			conns: [][2]int{{6, 3}}, reqs: [][2]int{{6, 3}, {7, 3}, {7, 150}},
			est: [][2]int{{7, 150}}},
		{name: "origin mid-word", rot: 70,
			reqs: [][2]int{{9, 65}, {9, 69}, {9, 71}, {10, 65}},
			est:  [][2]int{{9, 71}, {10, 65}}},
		{name: "hook refuses the first candidate", rot: 0, hook: oddOnly,
			conns: [][2]int{{8, 10}}, reqs: [][2]int{{5, 41}, {5, 42}, {8, 12}, {8, 13}},
			est: [][2]int{{5, 42}, {8, 13}}, rel: [][2]int{{8, 10}}},
		{name: "latch-only row establishes", latch: true,
			prep: func(tw *twin) {
				latchThenDrop(tw)
				tw.each(func(s *Scheduler) {
					// An unpinned load clears the slot but keeps the latch.
					if err := s.LoadConfig(0, bitmat.NewSquare(n).PortMap(), false); err != nil {
						t.Fatal(err)
					}
				})
			},
			est: [][2]int{{9, 50}}},
		{name: "latched row keeps its connection", latch: true, prep: latchThenDrop},
		{name: "unlatched row releases its connection", prep: latchThenDrop,
			rel: [][2]int{{9, 50}}},
	}
	for _, c := range cases {
		for _, tab := range []string{"words", "lists"} {
			t.Run(c.name+"/"+tab, func(t *testing.T) {
				conns := topology.NewCompleteConnTable(n)
				if tab == "lists" {
					pairs := append(append(append([][2]int{{9, 50}}, c.conns...), c.reqs...), c.est...)
					conns = topology.NewConnTable(n, func(src int, add func(dst int)) {
						for _, uv := range pairs {
							if uv[0] == src {
								add(uv[1])
							}
						}
					})
				}
				tw := newTwin(t, Params{N: n, K: 1, RotatePriority: true,
					LatchRequests: c.latch, CanEstablish: c.hook, Conns: conns})
				cfg := bitmat.NewSquare(n)
				for _, uv := range c.conns {
					cfg.Set(uv[0], uv[1])
				}
				tw.each(func(s *Scheduler) {
					if err := s.LoadConfig(0, cfg.PortMap(), false); err != nil {
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
				changes := func(uvs [][2]int) []Change {
					var out []Change
					for _, uv := range uvs {
						out = append(out, change(tw.sparse, uv[0], uv[1], 0))
					}
					return out
				}
				res := tw.pass()
				if !sameChanges(res.Established, changes(c.est)) || !sameChanges(res.Released, changes(c.rel)) {
					t.Fatalf("established %v released %v, want %v and %v",
						res.Established, res.Released, changes(c.est), changes(c.rel))
				}
			})
		}
	}
}

// churnPass builds a scheduler at N=n running alg in a churning steady
// state: every row requests churnBase fixed destinations plus churnVary that
// change with the pass, from three request sets in turn. Three sets over
// four slots means each visit to a slot sees a different set than the last,
// so every pass releases connections and establishes new ones. next runs one
// pass.
func churnPass(n int, alg Algorithm) (next func() PassResult) {
	const churnBase, churnVary, sets = 7, 6, 3
	rng := rand.New(rand.NewSource(3))
	var reqs [sets]*bitmat.Matrix
	for i := range reqs {
		reqs[i] = bitmat.NewSquare(n)
	}
	for u := 0; u < n; u++ {
		for k := 0; k < churnBase; k++ {
			if v := rng.Intn(n); v != u {
				for _, r := range reqs {
					r.Set(u, v)
				}
			}
		}
		for _, r := range reqs {
			for k := 0; k < churnVary; k++ {
				if v := rng.Intn(n); v != u {
					r.Set(u, v)
				}
			}
		}
	}
	// The table holds every requested connection, as a run's table holds
	// the connections its programs use.
	var row []int
	conns := topology.NewConnTable(n, func(src int, add func(dst int)) {
		for _, r := range reqs {
			for _, v := range r.AppendRowOnesFrom(row[:0], src, 0) {
				add(v)
			}
		}
	})
	var sps [sets]*topology.IDSet
	for i, r := range reqs {
		sps[i] = topology.NewIDSet(conns)
		r.Ones(func(u, v int) bool {
			setRequest(sps[i], u, v, true)
			return true
		})
	}
	s := MustScheduler(Params{N: n, K: 4, RotatePriority: true, SkipEmptySlots: true, Conns: conns, Algorithm: alg})
	pass := 0
	next = func() PassResult {
		pass++
		return s.PassSparse(sps[pass%sets])
	}
	for i := 0; i < 24; i++ {
		next()
	}
	return next
}

// TestPassSparseZeroAlloc checks that a churning sparse pass at N=1024, which
// releases and establishes connections every time, allocates nothing under
// every matching algorithm: iSLIP's grant and accept arrays and the pending
// cells both alternatives gather and wavefront sorts are scratch reused
// across passes.
func TestPassSparseZeroAlloc(t *testing.T) {
	for _, alg := range []Algorithm{AlgPaper, AlgISLIP, AlgWavefront} {
		t.Run(alg.String(), func(t *testing.T) {
			next := churnPass(1024, alg)
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
		})
	}
}

// BenchmarkPass1024SparseChurn measures one sparse pass at N=1024 with ~13
// requests per row while connections are released and re-established, the
// regime of bursty dynamic TDM at N=1024 (benchPassScale's steady state
// changes nothing after warm-up).
func BenchmarkPass1024SparseChurn(b *testing.B) {
	next := churnPass(1024, AlgPaper)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next()
	}
}
