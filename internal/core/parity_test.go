package core

import (
	"math/rand"
	"testing"

	"pmsnet/internal/bitmat"
	"pmsnet/internal/topology"
	"pmsnet/internal/traffic"
)

// Dense/sparse twin suite: drivePair covers request churn and evictions;
// these tests add every other state mutator the network layer calls between
// passes — bandwidth amplification, preloads, pinning, flushes — and traffic
// shaped by the workload generators. The dense Pass (oracle_test.go) is the
// oracle, PassSparse the production path; they must agree on every pass
// result and on all visible state, latches and pins included.

// twin holds the dense oracle and the sparse scheduler with the requests in
// each form: a matrix and a set over the connection table.
type twin struct {
	t      *testing.T
	dense  *Scheduler
	sparse *Scheduler
	r      *bitmat.Matrix
	sp     *topology.IDSet
}

func newTwin(t *testing.T, p Params) *twin {
	t.Helper()
	if p.Conns == nil {
		// One table for both, so their ids agree.
		p.Conns = topology.NewCompleteConnTable(p.N)
	}
	return &twin{
		t:      t,
		dense:  MustScheduler(p),
		sparse: MustScheduler(p),
		r:      bitmat.NewSquare(p.N),
		sp:     topology.NewIDSet(p.Conns),
	}
}

// request raises or drops the request u→v in both forms. A pair outside the
// connection table, such as a self-connection, cannot be requested and is
// skipped.
func (tw *twin) request(u, v int, on bool) {
	if tw.sp.Table().ID(u, v) < 0 {
		return
	}
	if on {
		tw.r.Set(u, v)
	} else {
		tw.r.Clear(u, v)
	}
	setRequest(tw.sp, u, v, on)
}

// pass runs one pass on both schedulers and demands identical results and
// identical post-state. It returns the dense result.
func (tw *twin) pass() PassResult {
	tw.t.Helper()
	want := tw.dense.Pass(tw.r)
	got := tw.sparse.PassSparse(tw.sp)
	if !passResultsEqual(want, got) {
		tw.t.Fatalf("pass diverged:\n dense  %+v\n sparse %+v", want, got)
	}
	tw.checkState()
	return want
}

// each applies the same mutation to both schedulers, then checks state.
func (tw *twin) each(f func(s *Scheduler)) {
	tw.t.Helper()
	f(tw.dense)
	f(tw.sparse)
	tw.checkState()
}

func (tw *twin) checkState() {
	tw.t.Helper()
	if !schedStatesEqual(tw.t, tw.dense, tw.sparse) {
		tw.t.FailNow()
	}
	p := tw.dense.Params()
	for slot := 0; slot < p.K; slot++ {
		if tw.dense.Pinned(slot) != tw.sparse.Pinned(slot) {
			tw.t.Fatalf("pinned(%d) diverged", slot)
		}
	}
	for u := 0; u < p.N; u++ {
		for v := 0; v < p.N; v++ {
			if tw.dense.Latched(u, v) != tw.sparse.Latched(u, v) {
				tw.t.Fatalf("latch diverged at (%d,%d)", u, v)
			}
		}
	}
	if err := tw.dense.CheckInvariants(); err != nil {
		tw.t.Fatalf("dense invariants: %v", err)
	}
	if err := tw.sparse.CheckInvariants(); err != nil {
		tw.t.Fatalf("sparse invariants: %v", err)
	}
}

// randomPartialPermutation returns an n×n partial permutation without
// self-loops, each row kept with probability one half.
func randomPartialPermutation(rng *rand.Rand, n int) *bitmat.Matrix {
	m := bitmat.NewSquare(n)
	for u, v := range rng.Perm(n) {
		if u != v && rng.Intn(2) == 0 {
			m.Set(u, v)
		}
	}
	return m
}

// TestEvictedConnectionStaysReleased evicts an established connection out of
// band (the predictor's move) and keeps passing requests that no longer ask
// for it: neither path may bring it back.
func TestEvictedConnectionStaysReleased(t *testing.T) {
	tw := newTwin(t, Params{N: 8, K: 2, LatchRequests: true})
	tw.request(0, 1, true)
	tw.request(2, 3, true)
	for i := 0; i < 8; i++ {
		tw.pass()
	}
	if !tw.dense.Connected(0, 1) {
		t.Fatal("0→1 never established")
	}
	if gd, gs := tw.dense.Evict(0, 1), tw.sparse.Evict(0, 1); gd != gs || gd == 0 {
		t.Fatalf("Evict removed %d (dense) and %d (sparse) slot entries", gd, gs)
	}
	tw.checkState()
	tw.request(0, 1, false)
	for i := 0; i < 8; i++ {
		tw.pass()
	}
	if tw.sparse.Connected(0, 1) {
		t.Fatal("evicted connection came back without a request")
	}
	if !tw.sparse.Connected(2, 3) {
		t.Fatal("eviction of 0→1 disturbed 2→3")
	}
}

// TestEvictPortSparesPinnedSlots covers AddBandwidth and EvictPort next to
// a pinned preload: the pinned slot survives both, the dynamic slots are
// cleaned, and later passes stay in lockstep.
func TestEvictPortSparesPinnedSlots(t *testing.T) {
	n, k := 8, 3
	tw := newTwin(t, Params{N: n, K: k, LatchRequests: true})

	// Slot 0 is a pinned preload containing 1→2; slots 1 and 2 stay dynamic.
	pre := bitmat.NewSquare(n)
	pre.Set(1, 2)
	tw.each(func(s *Scheduler) {
		if err := s.LoadConfig(0, pre.PortMap(), true); err != nil {
			t.Fatal(err)
		}
	})

	// Establish 3→2, which shares output 2 with the preload, plus 4→5.
	tw.request(3, 2, true)
	tw.request(4, 5, true)
	for i := 0; i < 3*k; i++ {
		tw.pass()
	}

	// AddBandwidth may only use dynamic slots.
	if ad, as := tw.dense.AddBandwidth(4, 5, k), tw.sparse.AddBandwidth(4, 5, k); ad != as {
		t.Fatalf("AddBandwidth added %d (dense) and %d (sparse) slots", ad, as)
	}
	tw.checkState()
	if tw.sparse.Config(0).Get(4, 5) {
		t.Fatal("AddBandwidth wrote into the pinned slot")
	}
	for i := 0; i < 2; i++ {
		tw.pass()
	}

	// EvictPort(2) removes the dynamic 3→2; the pinned preload keeps 1→2.
	ed, es := tw.dense.EvictPort(2), tw.sparse.EvictPort(2)
	if len(ed) == 0 || !sameChanges(ed, es) {
		t.Fatalf("EvictPort released %v (dense) and %v (sparse)", ed, es)
	}
	for _, c := range es {
		if c.Slot == 0 {
			t.Fatalf("EvictPort touched the pinned slot: %+v", c)
		}
	}
	if !tw.sparse.Config(0).Get(1, 2) {
		t.Fatal("pinned preload lost its connection")
	}
	if tw.sparse.Connected(3, 2) {
		t.Fatal("EvictPort left 3→2 in place")
	}
	tw.checkState()
	for i := 0; i < 3*k; i++ {
		tw.pass()
	}
}

func sameChanges(a, b []Change) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestQuickSparseDenseParityWithMutators drives random operation sequences —
// request churn, passes, evictions, port evictions, bandwidth amplification,
// preloads, pin changes and both flushes — through the twin.
func TestQuickSparseDenseParityWithMutators(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p, n := randomPairParams(rng)
		tw := newTwin(t, p)
		for step := 0; step < 200; step++ {
			u, v := rng.Intn(n), rng.Intn(n)
			switch op := rng.Intn(20); {
			case op < 10: // churn a few requests, then pass
				for m := rng.Intn(3); m >= 0; m-- {
					a, b := rng.Intn(n), rng.Intn(n)
					if a != b {
						tw.request(a, b, !tw.r.Get(a, b))
					}
				}
				tw.pass()
			case op < 12:
				tw.pass()
			case op < 14:
				if tw.dense.Evict(u, v) != tw.sparse.Evict(u, v) {
					t.Fatalf("seed %d step %d: Evict diverged", seed, step)
				}
				tw.checkState()
			case op == 14:
				if !sameChanges(tw.dense.EvictPort(u), tw.sparse.EvictPort(u)) {
					t.Fatalf("seed %d step %d: EvictPort diverged", seed, step)
				}
				tw.checkState()
			case op == 15:
				extra := 1 + rng.Intn(p.K)
				if tw.dense.AddBandwidth(u, v, extra) != tw.sparse.AddBandwidth(u, v, extra) {
					t.Fatalf("seed %d step %d: AddBandwidth diverged", seed, step)
				}
				tw.checkState()
			case op == 16:
				cfg := randomPartialPermutation(rng, n)
				slot, pin := rng.Intn(p.K), rng.Intn(2) == 0
				tw.each(func(s *Scheduler) {
					if err := s.LoadConfig(slot, cfg.PortMap(), pin); err != nil {
						t.Fatal(err)
					}
				})
			case op == 17:
				slot := rng.Intn(p.K)
				pin := !tw.dense.Pinned(slot)
				tw.each(func(s *Scheduler) { s.PinSlot(slot, pin) })
			case op == 18:
				tw.each((*Scheduler).Flush)
			default:
				tw.each((*Scheduler).FlushAll)
			}
		}
	}
}

// TestPassSparseAlgorithmParity runs every matching algorithm through
// PassSparse, as the network layer does, against its dense form through
// Pass: the id-keyed iSLIP and wavefront matchers must make the dense
// matchers' grants, accepts and diagonal sweep, hook calls included.
func TestPassSparseAlgorithmParity(t *testing.T) {
	for _, alg := range []Algorithm{AlgPaper, AlgISLIP, AlgWavefront} {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			for seed := int64(0); seed < 20; seed++ {
				rng := rand.New(rand.NewSource(seed))
				p, n := randomPairParams(rng)
				p.Algorithm = alg
				if !drivePair(t, rng, n, 25, MustScheduler(p), MustScheduler(p)) {
					t.Fatalf("seed %d diverged", seed)
				}
			}
		})
	}
}

// TestSparseDenseParityOnWorkloads feeds the twin the request streams of
// every registered workload generator at N=16. Each processor requests the
// destination of its next send until enough passes have found that
// connection in place to carry the message (one service per 64 bytes),
// then moves on; flush directives flush both schedulers; connections left
// unrequested for three passes are evicted, as a time-out predictor does.
// Generator traffic reaches shapes random churn rarely does: permutations,
// all-to-all rounds, incast and phase changes.
func TestSparseDenseParityOnWorkloads(t *testing.T) {
	const n = 16
	for i, name := range traffic.Names() {
		i, name := i, name
		t.Run(name, func(t *testing.T) {
			wl, err := traffic.Generate(name, n, 1)
			if err != nil {
				t.Fatal(err)
			}
			p := Params{
				N: n, K: 4, SLCopies: 2,
				RotatePriority: true,
				SkipEmptySlots: true,
				LatchRequests:  i%2 == 0,
			}
			runWorkloadTwin(t, newTwin(t, p), wl)
		})
	}
}

func runWorkloadTwin(t *testing.T, tw *twin, wl *traffic.Workload) {
	t.Helper()
	n := wl.N
	pc := make([]int, n)        // next op per processor
	remaining := make([]int, n) // services the head send still needs
	head := make([]int, n)      // head send destination, -1 when done
	advance := func(p int) {
		for head[p] = -1; pc[p] < len(wl.Programs[p].Ops); {
			op := wl.Programs[p].Ops[pc[p]]
			pc[p]++
			switch op.Kind {
			case traffic.OpSend, traffic.OpSendWait:
				head[p], remaining[p] = int(op.Dst), 1+int(op.Bytes())/64
				tw.request(p, int(op.Dst), true)
				return
			case traffic.OpFlush:
				tw.each((*Scheduler).Flush)
			}
		}
	}
	for p := 0; p < n; p++ {
		advance(p)
	}
	idle := map[[2]int]int{}
	var held [][2]int
	for pass := 0; ; pass++ {
		if pass == 100000 {
			t.Fatal("workload did not drain in 100000 passes")
		}
		busy := false
		for p := 0; p < n; p++ {
			busy = busy || head[p] >= 0
		}
		if !busy {
			break
		}
		tw.pass()
		for p := 0; p < n; p++ {
			if d := head[p]; d >= 0 && tw.dense.Connected(p, d) {
				if remaining[p]--; remaining[p] == 0 {
					tw.request(p, d, false)
					advance(p)
				}
			}
		}
		held = held[:0]
		tw.dense.BStar().Ones(func(u, v int) bool {
			held = append(held, [2]int{u, v})
			return true
		})
		for _, c := range held {
			if tw.r.Get(c[0], c[1]) {
				delete(idle, c)
			} else if idle[c]++; idle[c] == 3 {
				delete(idle, c)
				tw.each(func(s *Scheduler) { s.Evict(c[0], c[1]) })
			}
		}
	}
}

// FuzzSparseDenseOps feeds the twin fuzzer-chosen operation tapes: request
// churn, passes, evictions, port evictions, bandwidth amplification,
// preloads and flushes, in lockstep with the dense oracle. N reaches 161, so
// rows span up to three words and the rotation origin falls mid-word and
// wraps; one flag bit installs a CanEstablish hook that refuses every
// connection whose ports sum to an even number. The top two flag bits pick
// the matching algorithm: 0 and 3 the paper's, 1 iSLIP, 2 wavefront.
func FuzzSparseDenseOps(f *testing.F) {
	f.Add([]byte{1, 2, 3, 40, 5, 6, 0x80, 9}, uint8(12), uint8(3), uint8(0))
	f.Add([]byte{0xff, 0x00, 0x80, 0x7f, 0x22, 0x11}, uint8(20), uint8(4), uint8(7))
	f.Add([]byte("steady state then evict"), uint8(4), uint8(1), uint8(22))
	f.Add([]byte("wide rows, a refusing hook and a rotation that wraps mid-word"), uint8(150), uint8(202), uint8(36))
	// One seed per algorithm, each latching behind the refusing hook at N=16
	// with three SL copies over four slots: request churn with a pass every
	// third operation and an eviction every seventh. The tapes are short, as
	// the fuzzer's minimizer runs an input once per candidate cut.
	rng := rand.New(rand.NewSource(1))
	var tape []byte
	for i := 0; i < 20; i++ {
		op := byte(rng.Intn(9))
		switch {
		case i%3 == 2:
			op = 9
		case i%7 == 6:
			op = 12
		}
		tape = append(tape, byte(rng.Intn(256)), byte(rng.Intn(256)), op)
	}
	f.Add(tape, uint8(14), uint8(23), uint8(0xf6)) // paper
	f.Add(tape, uint8(14), uint8(23), uint8(0x76)) // iSLIP
	f.Add(tape, uint8(14), uint8(23), uint8(0xb6)) // wavefront
	f.Fuzz(func(t *testing.T, ops []byte, n8, k8, flags uint8) {
		n := 2 + int(n8)%160
		k := 1 + int(k8)%4
		var hook func(cfg []int32, u, v int) bool
		if flags&32 != 0 {
			hook = func(_ []int32, u, v int) bool { return (u+v)%2 != 0 }
		}
		tw := newTwin(t, Params{
			N:              n,
			K:              k,
			SLCopies:       1 + int(flags)%k,
			RotatePriority: flags&4 != 0,
			SkipEmptySlots: flags&8 != 0,
			LatchRequests:  flags&16 != 0,
			CanEstablish:   hook,
			Algorithm:      Algorithm(flags>>6) % 3,
		})
		// k8's upper six bits place the first rotation origin across the row.
		tw.each(func(s *Scheduler) { s.rot = int(k8>>2) * n / 64 })
		for i := 0; i+2 < len(ops); i += 3 {
			u, v := int(ops[i])%n, int(ops[i+1])%n
			switch op := ops[i+2] % 16; {
			case op < 6:
				tw.request(u, v, true)
			case op < 9:
				tw.request(u, v, false)
			case op < 12:
				tw.pass()
			case op == 12:
				tw.each(func(s *Scheduler) { s.Evict(u, v) })
			case op == 13:
				if ops[i]&1 == 0 {
					tw.each(func(s *Scheduler) { s.EvictPort(u) })
				} else {
					tw.each(func(s *Scheduler) { s.AddBandwidth(u, v, 1) })
				}
			case op == 14:
				cfg := bitmat.NewSquare(n)
				if u != v {
					cfg.Set(u, v)
				}
				slot, pin := u%k, ops[i+1]&1 == 0
				tw.each(func(s *Scheduler) {
					if err := s.LoadConfig(slot, cfg.PortMap(), pin); err != nil {
						t.Fatal(err)
					}
				})
			default:
				tw.each((*Scheduler).Flush)
			}
		}
	})
}
