package core

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"pmsnet/internal/bitmat"
	"pmsnet/internal/topology"
)

func newTest(n, k int) *Scheduler {
	return MustScheduler(Params{N: n, K: k, SkipEmptySlots: true})
}

func req(n int, conns ...[2]int) *bitmat.Matrix {
	r := bitmat.NewSquare(n)
	for _, c := range conns {
		r.Set(c[0], c[1])
	}
	return r
}

func TestParamsValidate(t *testing.T) {
	bad := []Params{
		{N: 0, K: 4},
		{N: 4, K: 0},
		{N: 4, K: 2, SLCopies: 3},
		{N: 4, K: 2, SLCopies: -1},
	}
	for i, p := range bad {
		if err := p.withDefaults().Validate(); err == nil {
			t.Errorf("case %d: expected error for %+v", i, p)
		}
	}
	if err := (Params{N: 4, K: 2}).withDefaults().Validate(); err != nil {
		t.Fatalf("default params should validate: %v", err)
	}
}

func TestNewSchedulerRejectsBadParams(t *testing.T) {
	if _, err := NewScheduler(Params{N: -1, K: 1}); err == nil {
		t.Fatal("expected an error for N=-1")
	}
	if _, err := NewScheduler(Params{N: 4, K: 0}); err == nil {
		t.Fatal("expected an error for K=0")
	}
	if s, err := NewScheduler(Params{N: 4, K: 2}); err != nil || s == nil {
		t.Fatalf("valid params rejected: %v", err)
	}
}

func TestMustSchedulerPanicsOnBadParams(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustScheduler(Params{N: -1, K: 1})
}

// TestPreScheduleTable1 reproduces the paper's Table 1 exhaustively: the
// four input cases of the pre-scheduling logic and the L value each produces.
func TestPreScheduleTable1(t *testing.T) {
	const n = 4
	cases := []struct {
		name        string
		request     bool // R(u,v)
		inOtherSlot bool // makes B*(u,v)=1 without B(s)(u,v)
		inThisSlot  bool // B(s)(u,v)
		wantL       bool
	}{
		{"not requested, not realized in s", false, false, false, false},
		{"not requested, realized in s (release)", false, false, true, true},
		{"not requested, realized elsewhere only", false, true, false, false},
		{"requested, realized in this slot", true, false, true, false},
		{"requested, realized in another slot", true, true, false, false},
		{"requested, realized nowhere (establish)", true, false, false, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := newTest(n, 2)
			u, v := 1, 2
			if c.inThisSlot {
				cfg := bitmat.NewSquare(n)
				cfg.Set(u, v)
				if err := s.LoadConfig(0, cfg, false); err != nil {
					t.Fatal(err)
				}
			}
			if c.inOtherSlot {
				cfg := bitmat.NewSquare(n)
				cfg.Set(u, v)
				if err := s.LoadConfig(1, cfg, false); err != nil {
					t.Fatal(err)
				}
			}
			r := bitmat.NewSquare(n)
			if c.request {
				r.Set(u, v)
			}
			l := s.PreSchedule(r, 0)
			if got := l.Get(u, v); got != c.wantL {
				t.Fatalf("L(%d,%d) = %v, want %v", u, v, got, c.wantL)
			}
		})
	}
}

// TestSLModuleTable2 exercises each row of the paper's Table 2 through
// ScheduleSlot: the action taken for every (L, A, D) combination.
func TestSLModuleTable2(t *testing.T) {
	const n = 4
	u, v := 1, 2

	t.Run("L=0 no change", func(t *testing.T) {
		s := newTest(n, 1)
		est, rel := s.ScheduleSlot(bitmat.NewSquare(n), 0)
		if len(est) != 0 || len(rel) != 0 {
			t.Fatal("empty request matrix must change nothing")
		}
	})

	t.Run("L=1 A=1 D=1 release", func(t *testing.T) {
		s := newTest(n, 1)
		cfg := bitmat.NewSquare(n)
		cfg.Set(u, v)
		if err := s.LoadConfig(0, cfg, false); err != nil {
			t.Fatal(err)
		}
		// No request for (u,v): release it.
		est, rel := s.ScheduleSlot(bitmat.NewSquare(n), 0)
		if len(est) != 0 || len(rel) != 1 || rel[0] != (Change{u, v, 0, -1}) {
			t.Fatalf("est=%v rel=%v, want single release of %d->%d", est, rel, u, v)
		}
		if s.Connected(u, v) {
			t.Fatal("connection should be gone")
		}
	})

	t.Run("L=1 A=1 D=0 output busy, no change", func(t *testing.T) {
		s := newTest(n, 1)
		cfg := bitmat.NewSquare(n)
		cfg.Set(0, v) // output v held by input 0
		if err := s.LoadConfig(0, cfg, false); err != nil {
			t.Fatal(err)
		}
		// Request (u,v) and keep (0,v) requested so it is not released.
		est, _ := s.ScheduleSlot(req(n, [2]int{0, v}, [2]int{u, v}), 0)
		if len(est) != 0 {
			t.Fatalf("est=%v, want none: output %d is busy", est, v)
		}
	})

	t.Run("L=1 A=0 D=1 input busy, no change", func(t *testing.T) {
		s := newTest(n, 1)
		cfg := bitmat.NewSquare(n)
		cfg.Set(u, 3) // input u held toward output 3
		if err := s.LoadConfig(0, cfg, false); err != nil {
			t.Fatal(err)
		}
		est, _ := s.ScheduleSlot(req(n, [2]int{u, 3}, [2]int{u, v}), 0)
		if len(est) != 0 {
			t.Fatalf("est=%v, want none: input %d is busy", est, u)
		}
	})

	t.Run("L=1 A=0 D=0 establish", func(t *testing.T) {
		s := newTest(n, 1)
		est, rel := s.ScheduleSlot(req(n, [2]int{u, v}), 0)
		if len(rel) != 0 || len(est) != 1 || est[0] != (Change{u, v, 0, -1}) {
			t.Fatalf("est=%v rel=%v, want single establish of %d->%d", est, rel, u, v)
		}
		if !s.Connected(u, v) {
			t.Fatal("connection should exist")
		}
	})

	t.Run("both ports busy establish-need, no phantom release", func(t *testing.T) {
		// The hazardous corner: (u,v) requested, not realized anywhere, but
		// output v and input u are both held by other connections. The SL
		// cell must NOT toggle B(s)(u,v) (the cell's own register bit
		// disambiguates release from establish).
		s := newTest(n, 1)
		cfg := bitmat.NewSquare(n)
		cfg.Set(0, v)
		cfg.Set(u, 3)
		if err := s.LoadConfig(0, cfg, false); err != nil {
			t.Fatal(err)
		}
		est, rel := s.ScheduleSlot(req(n, [2]int{0, v}, [2]int{u, 3}, [2]int{u, v}), 0)
		if len(est) != 0 || len(rel) != 0 {
			t.Fatalf("est=%v rel=%v, want no change", est, rel)
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestReleaseFreesPortsForLaterCellInSamePass(t *testing.T) {
	// Table 2's availability propagation: a release earlier in the scan
	// order frees ports that a later establish in the same pass can use.
	const n = 4
	s := newTest(n, 1)
	cfg := bitmat.NewSquare(n)
	cfg.Set(0, 2) // will be released (no request)
	if err := s.LoadConfig(0, cfg, false); err != nil {
		t.Fatal(err)
	}
	// Request (1,2): output 2 is busy until (0,2) is released, which happens
	// earlier in the row scan (row 0 before row 1).
	est, rel := s.ScheduleSlot(req(n, [2]int{1, 2}), 0)
	if len(rel) != 1 || rel[0] != (Change{0, 2, 0, -1}) {
		t.Fatalf("rel=%v, want release of 0->2", rel)
	}
	if len(est) != 1 || est[0] != (Change{1, 2, 0, -1}) {
		t.Fatalf("est=%v, want establish of 1->2 in the same pass", est)
	}
}

func TestPriorityWithoutRotation(t *testing.T) {
	// Two requests for the same output: the lower-numbered input wins
	// (paper: ports are available to R(u,v) before R(a,b) if u<a or v<b).
	const n = 4
	s := MustScheduler(Params{N: n, K: 1})
	est, _ := s.ScheduleSlot(req(n, [2]int{0, 3}, [2]int{2, 3}), 0)
	if len(est) != 1 || est[0].Src != 0 {
		t.Fatalf("est=%v, want input 0 to win output 3", est)
	}
}

func TestRotatingPriorityIsFair(t *testing.T) {
	// With rotation, inputs 0 and 2 should alternate winning output 3 when
	// the connection is torn down between passes.
	const n = 4
	s := MustScheduler(Params{N: n, K: 1, RotatePriority: true})
	wins := map[int]int{}
	for pass := 0; pass < 2*n; pass++ {
		r := req(n, [2]int{0, 3}, [2]int{2, 3})
		res := s.Pass(r)
		for _, e := range res.Established {
			wins[e.Src]++
		}
		// Tear down for the next round.
		s.Pass(bitmat.NewSquare(n))
	}
	if wins[0] == 0 || wins[2] == 0 {
		t.Fatalf("wins = %v: rotation should let both inputs win sometimes", wins)
	}
}

func TestPassCyclesSlotsAndGrantRow(t *testing.T) {
	const n = 4
	s := newTest(n, 2)
	// Two requests from input 0: only one can live per slot.
	r := req(n, [2]int{0, 1}, [2]int{0, 2})
	res1 := s.Pass(r)
	if len(res1.Established) != 1 {
		t.Fatalf("pass 1 established %v, want 1 connection", res1.Established)
	}
	res2 := s.Pass(r)
	if len(res2.Established) != 1 {
		t.Fatalf("pass 2 established %v, want the second connection", res2.Established)
	}
	if !s.Connected(0, 1) || !s.Connected(0, 2) {
		t.Fatal("both connections should be established across slots")
	}
	if s.Connections() != 2 {
		t.Fatalf("Connections = %d, want 2", s.Connections())
	}
	// Grants: each slot grants input 0 a different output.
	g0, g1 := s.GrantRow(0, 0), s.GrantRow(1, 0)
	if g0 == g1 || g0 < 0 || g1 < 0 {
		t.Fatalf("grants = %d,%d: want two distinct outputs", g0, g1)
	}
	if s.GrantRow(0, 3) != -1 {
		t.Fatal("input 3 should have no grant")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestTDMCounterSkipsEmptySlots(t *testing.T) {
	const n = 4
	s := MustScheduler(Params{N: n, K: 4, SkipEmptySlots: true})
	cfg := bitmat.NewSquare(n)
	cfg.Set(1, 2)
	if err := s.LoadConfig(2, cfg, false); err != nil {
		t.Fatal(err)
	}
	// Only slot 2 is non-empty: the TDM counter must return it every time.
	for i := 0; i < 5; i++ {
		slot, ok := s.NextFabricSlot()
		if !ok || slot != 2 {
			t.Fatalf("iteration %d: slot=%d ok=%v, want slot 2", i, slot, ok)
		}
		if got, _ := s.AppendSlotConns(nil, nil, slot); len(got) != 1 || got[0] != (topology.Conn{Src: 1, Dst: 2}) {
			t.Fatalf("slot connections = %v, want [1->2]", got)
		}
	}
	if got := s.ActiveSlots(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("ActiveSlots = %v, want [2]", got)
	}
}

func TestTDMCounterAllEmpty(t *testing.T) {
	s := newTest(4, 3)
	if _, ok := s.NextFabricSlot(); ok {
		t.Fatal("all-empty scheduler should report no fabric slot")
	}
}

func TestTDMCounterWithoutSkipping(t *testing.T) {
	const n = 4
	s := MustScheduler(Params{N: n, K: 3, SkipEmptySlots: false})
	cfg := bitmat.NewSquare(n)
	cfg.Set(0, 1)
	if err := s.LoadConfig(1, cfg, false); err != nil {
		t.Fatal(err)
	}
	var slots []int
	for i := 0; i < 6; i++ {
		slot, ok := s.NextFabricSlot()
		if !ok {
			t.Fatal("non-skipping counter should always return a slot")
		}
		var want []topology.Conn
		if slot == 1 {
			want = []topology.Conn{{Src: 0, Dst: 1}}
		}
		if got, _ := s.AppendSlotConns(nil, nil, slot); !slices.Equal(got, want) {
			t.Fatalf("slot %d connections = %v, want %v", slot, got, want)
		}
		slots = append(slots, slot)
	}
	want := []int{0, 1, 2, 0, 1, 2}
	for i := range want {
		if slots[i] != want[i] {
			t.Fatalf("slots = %v, want %v", slots, want)
		}
	}
}

func TestLatchedRequestsSurviveDrop(t *testing.T) {
	const n = 4
	s := MustScheduler(Params{N: n, K: 2, LatchRequests: true})
	s.Pass(req(n, [2]int{0, 1}))
	if !s.Connected(0, 1) || !s.Latched(0, 1) {
		t.Fatal("connection should be established and latched")
	}
	// Drop the request: with latching, both passes leave it in place.
	s.Pass(bitmat.NewSquare(n))
	s.Pass(bitmat.NewSquare(n))
	if !s.Connected(0, 1) {
		t.Fatal("latched connection must survive request drop")
	}
	// Evict: gone, latch cleared.
	if got := s.Evict(0, 1); got != 1 {
		t.Fatalf("Evict removed %d entries, want 1", got)
	}
	if s.Connected(0, 1) || s.Latched(0, 1) {
		t.Fatal("evicted connection should be fully gone")
	}
	if s.Stats().Evictions != 1 {
		t.Fatalf("eviction stat = %d, want 1", s.Stats().Evictions)
	}
}

func TestWithoutLatchingDropReleases(t *testing.T) {
	const n = 4
	s := MustScheduler(Params{N: n, K: 1})
	s.Pass(req(n, [2]int{0, 1}))
	if !s.Connected(0, 1) {
		t.Fatal("should be established")
	}
	s.Pass(bitmat.NewSquare(n))
	if s.Connected(0, 1) {
		t.Fatal("unlatched connection must be released when the request drops")
	}
}

func TestFlushSparesPinnedSlots(t *testing.T) {
	const n = 4
	s := MustScheduler(Params{N: n, K: 3, LatchRequests: true})
	pre := bitmat.NewSquare(n)
	pre.Set(3, 0)
	if err := s.LoadConfig(0, pre, true); err != nil {
		t.Fatal(err)
	}
	s.Pass(req(n, [2]int{1, 2}))
	if s.Connections() != 2 {
		t.Fatalf("Connections = %d, want 2", s.Connections())
	}
	s.Flush()
	if !s.Connected(3, 0) {
		t.Fatal("pinned preloaded connection must survive Flush")
	}
	if s.Connected(1, 2) || s.Latched(1, 2) {
		t.Fatal("dynamic connection must be flushed")
	}
	s.FlushAll()
	if s.Connections() != 0 || s.Pinned(0) {
		t.Fatal("FlushAll must clear and unpin everything")
	}
}

func TestPassSkipsPinnedSlots(t *testing.T) {
	const n = 4
	s := MustScheduler(Params{N: n, K: 2})
	pre := bitmat.NewSquare(n)
	pre.Set(0, 1)
	if err := s.LoadConfig(0, pre, true); err != nil {
		t.Fatal(err)
	}
	if s.DynamicSlotCount() != 1 {
		t.Fatalf("DynamicSlotCount = %d, want 1", s.DynamicSlotCount())
	}
	// Request conflicts with the preloaded connection's ports: it can only
	// go to slot 1; slot 0 must never be modified.
	res := s.Pass(req(n, [2]int{0, 2}))
	if len(res.Slots) != 1 || res.Slots[0] != 1 {
		t.Fatalf("pass scheduled into slots %v, want [1]", res.Slots)
	}
	if !s.Config(0).Equal(pre) {
		t.Fatal("pinned slot contents changed")
	}
	// No request for (0,1): without latching a dynamic slot would release
	// it, but the pinned slot is exempt from scheduling entirely.
	s.Pass(bitmat.NewSquare(n))
	if !s.Connected(0, 1) {
		t.Fatal("pinned connection must not be released by dynamic passes")
	}
}

func TestScheduleSlotOnPinnedSlotPanics(t *testing.T) {
	s := MustScheduler(Params{N: 4, K: 1})
	s.PinSlot(0, true)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.ScheduleSlot(bitmat.NewSquare(4), 0)
}

func TestLoadConfigValidation(t *testing.T) {
	s := newTest(4, 2)
	bad := bitmat.NewSquare(4)
	bad.Set(0, 1)
	bad.Set(2, 1)
	if err := s.LoadConfig(0, bad, false); err == nil {
		t.Fatal("expected error for conflicting configuration")
	}
	if err := s.LoadConfig(0, bitmat.NewSquare(5), false); err == nil {
		t.Fatal("expected error for wrong shape")
	}
}

func TestAddBandwidth(t *testing.T) {
	const n = 4
	s := MustScheduler(Params{N: n, K: 4})
	s.Pass(req(n, [2]int{0, 1}))
	if got := s.AddBandwidth(0, 1, 2); got != 2 {
		t.Fatalf("AddBandwidth = %d, want 2", got)
	}
	if got := len(s.SlotsOf(0, 1)); got != 3 {
		t.Fatalf("connection lives in %d slots, want 3", got)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Unknown connection: nothing to amplify.
	if got := s.AddBandwidth(2, 3, 1); got != 0 {
		t.Fatalf("AddBandwidth for unestablished connection = %d, want 0", got)
	}
	// Occupied ports limit extra slots.
	s2 := MustScheduler(Params{N: n, K: 2})
	s2.Pass(req(n, [2]int{0, 1}, [2]int{2, 3}))
	s2.Pass(req(n, [2]int{0, 3})) // second slot uses 0 and 3
	if got := s2.AddBandwidth(0, 1, 4); got != 0 {
		t.Fatalf("AddBandwidth = %d, want 0: both slots have port conflicts", got)
	}
}

func TestMultiSlotConnectionReleasedFromAllSlots(t *testing.T) {
	const n = 4
	s := MustScheduler(Params{N: n, K: 3})
	s.Pass(req(n, [2]int{0, 1}))
	s.AddBandwidth(0, 1, 2)
	if len(s.SlotsOf(0, 1)) != 3 {
		t.Fatal("setup failed")
	}
	// Drop the request; each pass releases the copy in the slot it scans.
	for i := 0; i < 3; i++ {
		s.Pass(bitmat.NewSquare(n))
	}
	if s.Connected(0, 1) {
		t.Fatalf("connection still in slots %v after three passes", s.SlotsOf(0, 1))
	}
}

func TestSLCopiesSchedulesMultipleSlotsPerPass(t *testing.T) {
	const n = 4
	s := MustScheduler(Params{N: n, K: 2, SLCopies: 2})
	r := req(n, [2]int{0, 1}, [2]int{0, 2})
	res := s.Pass(r)
	if len(res.Slots) != 2 {
		t.Fatalf("pass touched %v, want both slots", res.Slots)
	}
	if len(res.Established) != 2 {
		t.Fatalf("established %v, want both connections in one pass", res.Established)
	}
}

func TestStatsCounting(t *testing.T) {
	const n = 4
	s := MustScheduler(Params{N: n, K: 1})
	s.Pass(req(n, [2]int{0, 1}))
	s.Pass(bitmat.NewSquare(n))
	s.Flush()
	st := s.Stats()
	if st.Passes != 2 || st.Established != 1 || st.Released != 1 || st.Flushes != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	s := newTest(4, 2)
	for i, fn := range []func(){
		func() { s.Config(2) },
		func() { s.Config(-1) },
		func() { s.GrantRow(0, 4) },
		func() { s.GrantRow(3, 0) },
		func() { s.Evict(4, 0) },
		func() { s.AddBandwidth(0, 1, -1) },
		func() { s.PreSchedule(bitmat.NewSquare(5), 0) },
		func() { s.PinSlot(7, true) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

// TestQuickInvariantsUnderRandomRequests drives the scheduler with random
// request matrices and checks after every pass that all configurations stay
// partial permutations, B* stays in sync, and no connection exists that was
// never requested.
func TestQuickInvariantsUnderRandomRequests(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(12)
		k := 1 + rng.Intn(4)
		s := MustScheduler(Params{
			N:              n,
			K:              k,
			RotatePriority: rng.Intn(2) == 0,
			SkipEmptySlots: rng.Intn(2) == 0,
		})
		everRequested := bitmat.NewSquare(n)
		for pass := 0; pass < 30; pass++ {
			r := bitmat.NewSquare(n)
			for e := 0; e < n; e++ {
				u, v := rng.Intn(n), rng.Intn(n)
				if u != v {
					r.Set(u, v)
					everRequested.Set(u, v)
				}
			}
			s.Pass(r)
			if err := s.CheckInvariants(); err != nil {
				return false
			}
			if !s.BStar().ContainedIn(everRequested) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSteadyRequestsEventuallyServed verifies liveness: with a fixed
// realizable request set (a partial permutation) and K >= 1, every request
// is established within K passes and then never churns.
func TestQuickSteadyRequestsEventuallyServed(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(12)
		k := 1 + rng.Intn(4)
		s := MustScheduler(Params{N: n, K: k, SkipEmptySlots: true})
		perm := rng.Perm(n)
		r := bitmat.NewSquare(n)
		for u, v := range perm {
			if u != v {
				r.Set(u, v)
			}
		}
		for pass := 0; pass < k; pass++ {
			s.Pass(r)
		}
		if !r.ContainedIn(s.BStar()) {
			return false
		}
		// Stability: further passes change nothing.
		res := s.Pass(r)
		return len(res.Established) == 0 && len(res.Released) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickWorkingSetFullyCachedWithGreedyBound: the scheduler packs
// connections into slots first-fit, which (like first-fit edge coloring)
// may need up to 2d-1 slots for a degree-d working set — an established
// connection never migrates between slots. With K = 2d-1 every pending
// request always finds a free slot: the source's other d-1 edges and the
// destination's other d-1 edges together block at most 2d-2 slots. So after
// one full SL sweep over the K slots the set must be fully cached.
func TestQuickWorkingSetFullyCachedWithGreedyBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(12)
		d := 1 + rng.Intn(3)
		k := 2*d - 1
		// Build a request set with out/in degree <= d.
		r := bitmat.NewSquare(n)
		out := make([]int, n)
		in := make([]int, n)
		for tries := 0; tries < n*d*3; tries++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v && out[u] < d && in[v] < d && !r.Get(u, v) {
				r.Set(u, v)
				out[u]++
				in[v]++
			}
		}
		s := MustScheduler(Params{N: n, K: k})
		for pass := 0; pass < k; pass++ {
			s.Pass(r)
		}
		return r.ContainedIn(s.BStar())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPass128Dense(b *testing.B) {
	const n = 128
	s := MustScheduler(Params{N: n, K: 4, RotatePriority: true})
	rng := rand.New(rand.NewSource(9))
	r := bitmat.NewSquare(n)
	for i := 0; i < n; i++ {
		v := rng.Intn(n)
		if v != i {
			r.Set(i, v)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Pass(r)
	}
}

// --- large-N scaling benches (dense vs sparse passes) ---

// benchSparseRequests builds the scale-out benchmark pattern: one random
// destination per source, so the request matrix carries N nonzeros out of
// N² cells (occupancy 1/N — 0.1% at N=1024, well under the 5% gate) — the
// Solstice-style skew regime large multiprocessor request matrices live in.
func benchSparseRequests(n int) (*bitmat.Matrix, *bitmat.Sparse) {
	rng := rand.New(rand.NewSource(9))
	r := bitmat.NewSquare(n)
	sp := bitmat.NewSparse(n, n)
	for i := 0; i < n; i++ {
		v := rng.Intn(n)
		if v != i {
			r.Set(i, v)
			sp.Set(i, v)
		}
	}
	return r, sp
}

// benchPassScale measures the steady-state pass over a sparse request set:
// after a warm-up sweep establishes the working set, each iteration is one
// full scheduling pass whose cost is pure scanning — the axis the sparse
// representation attacks.
func benchPassScale(b *testing.B, n int, sparse bool) {
	b.Helper()
	p := Params{N: n, K: 4, RotatePriority: true, SkipEmptySlots: true}
	s := MustScheduler(p)
	r, sp := benchSparseRequests(n)
	for pass := 0; pass < p.K; pass++ {
		if sparse {
			s.PassSparse(sp)
		} else {
			s.Pass(r)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sparse {
			s.PassSparse(sp)
		} else {
			s.Pass(r)
		}
	}
}

func BenchmarkPass512Dense(b *testing.B)   { benchPassScale(b, 512, false) }
func BenchmarkPass512Sparse(b *testing.B)  { benchPassScale(b, 512, true) }
func BenchmarkPass1024Dense(b *testing.B)  { benchPassScale(b, 1024, false) }
func BenchmarkPass1024Sparse(b *testing.B) { benchPassScale(b, 1024, true) }
func BenchmarkPass2048Dense(b *testing.B)  { benchPassScale(b, 2048, false) }
func BenchmarkPass2048Sparse(b *testing.B) { benchPassScale(b, 2048, true) }

// BenchmarkSlotsOf1024 measures the per-pair slot index (satellite of the
// scale-out issue): SlotsOf used to rescan all K configuration matrices per
// call; the incrementally-maintained index answers from rowDst directly.
func BenchmarkSlotsOf1024(b *testing.B) {
	const n = 1024
	s := MustScheduler(Params{N: n, K: 8, RotatePriority: true})
	r, _ := benchSparseRequests(n)
	for pass := 0; pass < 8; pass++ {
		s.Pass(r)
	}
	pairs := make([][2]int, 0, n)
	r.Ones(func(u, v int) bool {
		pairs = append(pairs, [2]int{u, v})
		return true
	})
	var buf []int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		buf = s.AppendSlotsOf(buf[:0], p[0], p[1])
	}
}

// TestSlotIndexCarriesTableIDs checks that with a connection table every
// connection a pass, a preload or a port eviction reports, and every entry
// AppendSlotConns lists, carries the table's id for its pair.
func TestSlotIndexCarriesTableIDs(t *testing.T) {
	const n = 8
	conns := topology.NewConnTable(n, func(src int, add func(dst int)) {
		add((src + 1) % n)
		add((src + 3) % n)
	})
	s := MustScheduler(Params{N: n, K: 2, Conns: conns})
	cfg := bitmat.NewSquare(n)
	cfg.Set(2, 5)
	if err := s.LoadConfig(1, cfg, true); err != nil {
		t.Fatal(err)
	}
	req := bitmat.NewSquare(n)
	for u := 0; u < n; u++ {
		req.Set(u, (u+1)%n)
	}
	res := s.Pass(req)
	if len(res.Established) == 0 {
		t.Fatal("the pass established nothing")
	}
	for _, c := range res.Established {
		if want := conns.ID(c.Src, c.Dst); c.ID != want || want < 0 {
			t.Fatalf("established %d->%d with id %d, table says %d", c.Src, c.Dst, c.ID, want)
		}
	}
	for slot := 0; slot < 2; slot++ {
		list, ids := s.AppendSlotConns(nil, nil, slot)
		if len(list) != len(ids) {
			t.Fatalf("slot %d: %d connections, %d ids", slot, len(list), len(ids))
		}
		for i, c := range list {
			if ids[i] != conns.ID(c.Src, c.Dst) {
				t.Fatalf("slot %d lists %v with id %d, table says %d", slot, c, ids[i], conns.ID(c.Src, c.Dst))
			}
		}
	}
	for _, c := range s.EvictPort(3) {
		if c.ID != conns.ID(c.Src, c.Dst) {
			t.Fatalf("evicted %d->%d with id %d, table says %d", c.Src, c.Dst, c.ID, conns.ID(c.Src, c.Dst))
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
