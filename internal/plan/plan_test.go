package plan

import (
	"testing"

	"pmsnet/internal/bitmat"
	"pmsnet/internal/multistage"
	"pmsnet/internal/topology"
	"pmsnet/internal/traffic"
)

// skewedDemand builds the canonical planner test input: every port sends to
// shift-1 heavily and to a few further shifts lightly.
func skewedDemand(n int, heavy, light int64, shifts ...int) *Demand {
	d := NewDemand(n)
	for u := 0; u < n; u++ {
		for i, s := range shifts {
			w := light
			if i == 0 {
				w = heavy
			}
			d.Add(u, (u+s)%n, w)
		}
	}
	return d
}

func planOrDie(t *testing.T, p Planner, d *Demand, k, slots int, opts Options) *Schedule {
	t.Helper()
	s, err := p.Plan(d, k, slots, opts)
	if err != nil {
		t.Fatalf("%s.Plan: %v", p.Name(), err)
	}
	return s
}

// checkSchedule asserts the structural invariants every planner must keep:
// conflict-free configurations, shares filling each group within the pinned
// region, and covered+residual == input.
func checkSchedule(t *testing.T, s *Schedule, d *Demand) {
	t.Helper()
	for gi, g := range s.Groups {
		shares := 0
		for ei, e := range g {
			if !e.Config.IsPartialPermutation() {
				t.Fatalf("group %d entry %d is not conflict-free", gi, ei)
			}
			if e.Share < 1 {
				t.Fatalf("group %d entry %d has share %d", gi, ei, e.Share)
			}
			shares += e.Share
		}
		if shares > s.PreloadSlots {
			t.Fatalf("group %d uses %d shares, only %d slots pinned", gi, shares, s.PreloadSlots)
		}
	}
	for u := 0; u < d.N(); u++ {
		for v := 0; v < d.N(); v++ {
			if got := s.Covered.At(u, v) + s.Residual.At(u, v); got != d.At(u, v) {
				t.Fatalf("(%d,%d): covered %d + residual %d != demand %d",
					u, v, s.Covered.At(u, v), s.Residual.At(u, v), d.At(u, v))
			}
		}
	}
	flat := s.Configs()
	if len(flat) != len(s.Groups) {
		t.Fatalf("Configs returned %d groups, schedule has %d", len(flat), len(s.Groups))
	}
	for gi := range flat {
		if len(flat[gi]) > s.PreloadSlots {
			t.Fatalf("flattened group %d has %d configs for %d slots", gi, len(flat[gi]), s.PreloadSlots)
		}
	}
}

// TestNewNamesItsKind: each planner reports the name its kind parses from
// (the table itself is tested in internal/vocab).
func TestNewNamesItsKind(t *testing.T) {
	for _, k := range []Kind{KindStatic, KindSolstice, KindBvN} {
		if New(k).Name() != k.String() {
			t.Fatalf("New(%v).Name() = %q, want %q", k, New(k).Name(), k.String())
		}
	}
}

func TestFromWorkload(t *testing.T) {
	wl := &traffic.Workload{
		Name: "t", N: 4,
		Programs: []traffic.Program{
			{Ops: []traffic.Op{traffic.Send(1, 64), traffic.Send(1, 65), traffic.SendWait(2, 1)}},
			{Ops: []traffic.Op{traffic.Delay(10), traffic.Flush()}},
			{}, {},
		},
	}
	d := FromWorkload(wl, 64)
	if got := d.At(0, 1); got != 3 { // 1 slot + 2 slots (65 bytes)
		t.Fatalf("demand(0,1) = %d, want 3", got)
	}
	if got := d.At(0, 2); got != 1 {
		t.Fatalf("demand(0,2) = %d, want 1", got)
	}
	if got := d.Total(); got != 4 {
		t.Fatalf("total = %d, want 4", got)
	}
	if d.Conns() != 2 {
		t.Fatalf("conns = %d, want 2", d.Conns())
	}
}

func TestDemandRestrict(t *testing.T) {
	d := NewDemand(4)
	d.Set(0, 1, 5)
	d.Set(1, 2, 7)
	ws := topology.NewWorkingSet(4)
	ws.Add(topology.Conn{Src: 0, Dst: 1})
	r := d.Restrict(ws)
	if r.At(0, 1) != 5 || r.At(1, 2) != 0 {
		t.Fatalf("restrict kept wrong entries: %d, %d", r.At(0, 1), r.At(1, 2))
	}
}

// TestStaticMatchesDecomposeChunks pins the A/B contract: the static planner
// reproduces the unplanned preload path — the exact edge coloring chunked in
// order, one register per configuration.
func TestStaticMatchesDecomposeChunks(t *testing.T) {
	d := skewedDemand(16, 20, 2, 1, 2, 5, 7, 9, 11)
	want := topology.Decompose(d.WorkingSet())
	s := planOrDie(t, Static{}, d, 4, 4, Options{})
	checkSchedule(t, s, d)
	flat := s.Configs()
	var got []*bitmat.Matrix
	for _, g := range flat {
		got = append(got, g...)
	}
	if len(got) != len(want) {
		t.Fatalf("static planned %d configs, decomposition has %d", len(got), len(want))
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("config %d differs from the plain decomposition", i)
		}
	}
	if !s.Residual.IsZero() {
		t.Fatal("static planner must not spill to the dynamic path")
	}
}

func TestSolsticeCoversAndBeatsStatic(t *testing.T) {
	// Heavy shift-1 plus 7 light shifts: degree 8 against 4 pinned slots.
	d := skewedDemand(16, 64, 4, 1, 2, 3, 4, 5, 6, 7, 8)
	opts := Options{ReconfigSlots: 0.8, CoverAll: true}
	sol := planOrDie(t, Solstice{}, d, 4, 4, opts)
	checkSchedule(t, sol, d)
	if !sol.Residual.IsZero() {
		t.Fatal("CoverAll must cover everything")
	}
	// The planner's own drain estimate must beat the hand-written static
	// schedule on this skewed demand — the whole point of planning.
	st := planOrDie(t, Static{}, d, 4, 4, opts)
	if sol.DrainSlots >= st.DrainSlots {
		t.Fatalf("solstice drain %.1f not better than static %.1f", sol.DrainSlots, st.DrainSlots)
	}
	// The heaviest configuration must hold more than one register share.
	first := sol.Groups[0][0]
	if first.Demand != 64 {
		t.Fatalf("first planned config has per-cycle demand %d, want the hot 64", first.Demand)
	}
	if first.Share < 2 {
		t.Fatalf("hot config got share %d, want >1", first.Share)
	}
}

func TestSolsticeResidualSpill(t *testing.T) {
	// One heavy permutation plus a single featherweight connection: in
	// hybrid mode the featherweight cannot pay for a pinned register.
	d := NewDemand(8)
	for u := 0; u < 8; u++ {
		d.Set(u, (u+1)%8, 100)
	}
	d.Set(0, 5, 1)
	opts := Options{ReconfigSlots: 0.8}
	s := planOrDie(t, Solstice{}, d, 4, 2, opts)
	checkSchedule(t, s, d)
	if s.Residual.At(0, 5) != 1 {
		t.Fatalf("featherweight connection not spilled: residual=%d", s.Residual.At(0, 5))
	}
	if s.Residual.Total() != 1 {
		t.Fatalf("residual total %d, want 1", s.Residual.Total())
	}
	// CoverAll forces it back in.
	s = planOrDie(t, Solstice{}, d, 4, 2, Options{ReconfigSlots: 0.8, CoverAll: true})
	if !s.Residual.IsZero() {
		t.Fatal("CoverAll still spilled")
	}
}

func TestBvNExactCover(t *testing.T) {
	d := skewedDemand(12, 40, 3, 1, 3, 5)
	s := planOrDie(t, BvN{}, d, 4, 4, Options{ReconfigSlots: 0.8, CoverAll: true})
	checkSchedule(t, s, d)
	// With CoverAll, the covered demand is exactly the demand.
	for u := 0; u < d.N(); u++ {
		for v := 0; v < d.N(); v++ {
			if got, want := s.Covered.At(u, v), d.At(u, v); got != want {
				t.Fatalf("covered (%d,%d) = %d, want %d", u, v, got, want)
			}
		}
	}
}

func TestPlannersRespectRealizability(t *testing.T) {
	// Oracle: at most 2 connections per configuration — a harshly blocking
	// fabric. Every planned configuration must satisfy it.
	canRealize := func(cfg *bitmat.Matrix) bool { return cfg.Count() <= 2 }
	d := skewedDemand(8, 10, 2, 1, 2, 3)
	for _, p := range []Planner{Solstice{}, BvN{}} {
		s := planOrDie(t, p, d, 4, 4, Options{CoverAll: true, CanRealize: canRealize})
		checkSchedule(t, s, d)
		for gi, g := range s.Groups {
			for ei, e := range g {
				if e.Config.Count() > 2 {
					t.Fatalf("%s group %d entry %d violates the realizability oracle", p.Name(), gi, ei)
				}
			}
		}
	}
}

func TestPlanDeterministic(t *testing.T) {
	d := skewedDemand(16, 64, 4, 1, 2, 3, 4, 5, 6, 7, 8)
	for _, p := range []Planner{Static{}, Solstice{}, BvN{}} {
		a := planOrDie(t, p, d, 4, 4, Options{ReconfigSlots: 0.8, CoverAll: true})
		b := planOrDie(t, p, d, 4, 4, Options{ReconfigSlots: 0.8, CoverAll: true})
		if len(a.Groups) != len(b.Groups) || a.DrainSlots != b.DrainSlots || a.Reconfigs != b.Reconfigs {
			t.Fatalf("%s: two identical plans differ structurally", p.Name())
		}
		for gi := range a.Groups {
			if len(a.Groups[gi]) != len(b.Groups[gi]) {
				t.Fatalf("%s: group %d sizes differ", p.Name(), gi)
			}
			for ei := range a.Groups[gi] {
				x, y := a.Groups[gi][ei], b.Groups[gi][ei]
				if x.Share != y.Share || x.Demand != y.Demand || !x.Config.Equal(y.Config) {
					t.Fatalf("%s: group %d entry %d differs", p.Name(), gi, ei)
				}
			}
		}
	}
}

func TestPlanArgErrors(t *testing.T) {
	d := NewDemand(4)
	d.Set(0, 1, 1)
	for _, p := range []Planner{Static{}, Solstice{}, BvN{}} {
		if _, err := p.Plan(nil, 4, 4, Options{}); err == nil {
			t.Errorf("%s: nil demand accepted", p.Name())
		}
		if _, err := p.Plan(d, 0, 0, Options{}); err == nil {
			t.Errorf("%s: zero frame accepted", p.Name())
		}
		if _, err := p.Plan(d, 4, 5, Options{}); err == nil {
			t.Errorf("%s: preloadSlots > k accepted", p.Name())
		}
	}
}

func TestEmptyDemandPlansEmpty(t *testing.T) {
	d := NewDemand(8)
	for _, p := range []Planner{Static{}, Solstice{}, BvN{}} {
		s := planOrDie(t, p, d, 4, 4, Options{})
		if s.NumConfigs() != 0 {
			t.Errorf("%s planned %d configs for empty demand", p.Name(), s.NumConfigs())
		}
	}
}

func TestSplitRealizable(t *testing.T) {
	o, _ := multistage.NewOmega(8)
	t.Run("no-oracle", func(t *testing.T) {
		cfg := bitmat.FromPermutation([]int{3, 2, 1, 0, 7, 6, 5, 4})
		if got := splitRealizable(cfg, nil); len(got) != 1 || got[0] != cfg {
			t.Fatal("without an oracle the configuration must come back as is")
		}
	})
	t.Run("realizable", func(t *testing.T) {
		cfg := bitmat.FromPermutation([]int{1, 2, 3, 4, 5, 6, 7, 0}) // a shift routes on an Omega
		if got := splitRealizable(cfg, o.CanRealize); len(got) != 1 || got[0] != cfg {
			t.Fatal("a realizable configuration must come back as is")
		}
	})
	t.Run("blocked", func(t *testing.T) {
		cfg := bitmat.FromPermutation([]int{0, 4, 2, 6, 1, 5, 3, 7}) // bit reverse is Omega-blocked
		if o.CanRealize(cfg) {
			t.Fatal("bit reverse routed on the Omega")
		}
		got := splitRealizable(cfg, o.CanRealize)
		want := multistage.FirstFit(cfg, o.CanRealize)
		if len(got) < 2 || len(got) != len(want) {
			t.Fatalf("split into %d configurations, FirstFit gives %d", len(got), len(want))
		}
		for i := range got {
			if !got[i].Equal(want[i]) || !o.CanRealize(got[i]) {
				t.Fatalf("piece %d differs from FirstFit or is unrealizable", i)
			}
		}
	})
}
