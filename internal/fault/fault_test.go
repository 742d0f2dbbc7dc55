package fault

import (
	"reflect"
	"testing"

	"pmsnet/internal/sim"
)

func TestBackoffTable(t *testing.T) {
	cases := []struct {
		base, cap sim.Time
		attempt   int
		want      sim.Time
	}{
		// Defaults (base 200, cap 3200): 200, 400, 800, 1600, 3200, 3200...
		{0, 0, 0, 200},
		{0, 0, 1, 400},
		{0, 0, 2, 800},
		{0, 0, 3, 1600},
		{0, 0, 4, 3200},
		{0, 0, 5, 3200},
		{0, 0, 100, 3200},
		// Custom base/cap.
		{100, 1000, 0, 100},
		{100, 1000, 1, 200},
		{100, 1000, 3, 800},
		{100, 1000, 4, 1000}, // 1600 saturates at the cap
		{100, 1000, 50, 1000},
		// Base above cap: always the cap.
		{5000, 1000, 0, 1000},
		// Huge attempt counts must not overflow.
		{200, 3200, 1 << 20, 3200},
	}
	for _, c := range cases {
		if got := Backoff(c.base, c.cap, c.attempt); got != c.want {
			t.Errorf("Backoff(%d, %d, %d) = %d, want %d", c.base, c.cap, c.attempt, got, c.want)
		}
	}
}

func TestRetryDelayFollowsPlan(t *testing.T) {
	eng := sim.NewEngine()
	inj, err := NewInjector(&Plan{CorruptProb: 0.5, RetryBase: 50, RetryCap: 400}, eng, 4)
	if err != nil || inj == nil {
		t.Fatalf("NewInjector: %v (inj=%v)", err, inj)
	}
	want := []sim.Time{50, 100, 200, 400, 400}
	for attempt, w := range want {
		if got := inj.RetryDelay(attempt); got != w {
			t.Errorf("RetryDelay(%d) = %d, want %d", attempt, got, w)
		}
	}
	// A nil injector still yields the package-default schedule.
	var nilInj *Injector
	if got := nilInj.RetryDelay(2); got != 800 {
		t.Errorf("nil RetryDelay(2) = %d, want 800", got)
	}
}

func TestPlanActive(t *testing.T) {
	var nilPlan *Plan
	if nilPlan.Active() {
		t.Error("nil plan reports active")
	}
	if (&Plan{Seed: 7, RetryBase: 100}).Active() {
		t.Error("plan with only seed/retry knobs reports active")
	}
	actives := []*Plan{
		{LinkMTBF: 1000, LinkMTTR: 10},
		{CorruptProb: 0.1},
		{RequestLossProb: 0.1},
		{GrantLossProb: 0.1},
		{Links: []LinkFault{{Port: 0, At: 5}}},
		{Crosspoints: []CrosspointFault{{In: 0, Out: 1, At: 5}}},
	}
	for i, p := range actives {
		if !p.Active() {
			t.Errorf("plan %d should be active", i)
		}
	}
}

func TestValidateRejections(t *testing.T) {
	bad := []*Plan{
		{CorruptProb: -0.1},
		{CorruptProb: 1.5},
		{RequestLossProb: 2},
		{GrantLossProb: -1},
		{LinkMTBF: -5, LinkMTTR: 5},
		{LinkMTBF: 100},                 // MTBF without MTTR
		{LinkMTTR: 100},                 // MTTR without MTBF
		{RetryBase: 500, RetryCap: 100}, // cap below base
		{Links: []LinkFault{{Port: -1, At: 0}}},
		{Crosspoints: []CrosspointFault{{In: -1, Out: 0, At: 0}}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("plan %d (%+v) should fail validation", i, p)
		}
	}
	var nilPlan *Plan
	if err := nilPlan.Validate(); err != nil {
		t.Errorf("nil plan should validate: %v", err)
	}
	if err := (&Plan{}).Validate(); err != nil {
		t.Errorf("zero plan should validate: %v", err)
	}
}

func TestNewInjectorFastPath(t *testing.T) {
	eng := sim.NewEngine()
	for _, p := range []*Plan{nil, {}, {Seed: 42, RetryBase: 100, RetryCap: 200}} {
		inj, err := NewInjector(p, eng, 8)
		if err != nil {
			t.Fatalf("inactive plan %+v: %v", p, err)
		}
		if inj != nil {
			t.Fatalf("inactive plan %+v produced a live injector", p)
		}
	}
	// An inactive but structurally broken plan still reports its error.
	if _, err := NewInjector(&Plan{RetryBase: 500, RetryCap: 100}, eng, 8); err == nil {
		t.Error("broken inactive plan should error")
	}
	// Port-range checks need the system size, so they live in NewInjector.
	if _, err := NewInjector(&Plan{Links: []LinkFault{{Port: 8, At: 1}}}, eng, 8); err == nil {
		t.Error("link fault on port 8 of an 8-port system should error")
	}
	if _, err := NewInjector(&Plan{Crosspoints: []CrosspointFault{{In: 2, Out: 9, At: 1}}}, eng, 8); err == nil {
		t.Error("crosspoint fault 2:9 of an 8-port system should error")
	}
}

func TestNilInjectorIsInert(t *testing.T) {
	var inj *Injector
	inj.Start()
	if !inj.PortUp(3) || inj.PairDown(0, 1) || inj.PairBlocked(0, 1) {
		t.Error("nil injector reports faults")
	}
	if inj.DrawCorrupt() || inj.DrawRequestLoss() || inj.DrawGrantLoss() {
		t.Error("nil injector draws faults")
	}
	if inj.Counters() != (Counters{}) {
		t.Error("nil injector counts faults")
	}
	if inj.DegradedTime() != 0 {
		t.Error("nil injector reports degraded time")
	}
}

// TestScriptedFaultTimeline drives a scripted plan under a deterministic
// clock and checks the exact fault state and degraded-time accounting at
// every phase boundary.
func TestScriptedFaultTimeline(t *testing.T) {
	eng := sim.NewEngine()
	plan := &Plan{
		Links: []LinkFault{
			{Port: 1, At: 100, For: 50}, // transient: down [100,150)
			{Port: 2, At: 120},          // permanent from 120
		},
		Crosspoints: []CrosspointFault{{In: 0, Out: 3, At: 40}},
	}
	inj, err := NewInjector(plan, eng, 4)
	if err != nil {
		t.Fatal(err)
	}
	type ev struct {
		kind string
		a, b int
	}
	var log []ev
	inj.OnPortDown = func(p int, perm bool) {
		b := 0
		if perm {
			b = 1
		}
		log = append(log, ev{"down", p, b})
	}
	inj.OnPortUp = func(p int) { log = append(log, ev{"up", p, 0}) }
	inj.OnCrosspointDead = func(in, out int) { log = append(log, ev{"xdead", in, out}) }
	inj.Start()

	eng.Run(60)
	if !inj.deadX[[2]int{0, 3}] || !inj.PairBlocked(0, 3) {
		t.Error("crosspoint 0:3 should be dead by t=60")
	}
	if !inj.PortUp(1) || !inj.PortUp(2) {
		t.Error("links should still be up at t=60")
	}
	if got := inj.DegradedTime(); got != 20 {
		t.Errorf("degraded time at t=60 = %d, want 20 (since the crosspoint died at 40)", got)
	}

	eng.Run(130)
	if inj.PortUp(1) || inj.portDead[1] {
		t.Error("port 1 should be transiently down at t=130")
	}
	if !inj.PairDown(1, 0) || inj.PairBlocked(1, 0) {
		t.Error("pair 1->0 should be down but not blocked at t=130")
	}
	if !inj.portDead[2] || !inj.PairBlocked(2, 0) || !inj.PairBlocked(0, 2) {
		t.Error("port 2 should be permanently dead at t=130")
	}

	eng.Run(1000)
	if !inj.PortUp(1) {
		t.Error("port 1 should have repaired")
	}
	if !inj.portDead[2] {
		t.Error("permanent failure must not repair")
	}
	want := []ev{{"xdead", 0, 3}, {"down", 1, 0}, {"down", 2, 1}, {"up", 1, 0}}
	if !reflect.DeepEqual(log, want) {
		t.Errorf("callback log = %v, want %v", log, want)
	}
	c := inj.Counters()
	if c.LinkFailures != 2 || c.LinkRepairs != 1 || c.CrosspointDeaths != 1 {
		t.Errorf("counters = %+v, want 2 failures / 1 repair / 1 crosspoint death", c)
	}
	// The crosspoint death and the permanent link failure never end, so the
	// run is degraded from t=40 through the clock's final value — the last
	// event (port 1's repair at t=150): 150 - 40 = 110.
	if got := inj.DegradedTime(); got != 110 {
		t.Errorf("degraded time after drain = %d, want 110", got)
	}
}

// TestInjectorDeterminism checks that two injectors with the same plan make
// identical draw sequences, and a different seed makes a different one.
func TestInjectorDeterminism(t *testing.T) {
	plan := &Plan{Seed: 7, CorruptProb: 0.3, RequestLossProb: 0.2, GrantLossProb: 0.1}
	draw := func(p *Plan) [3][]bool {
		inj, err := NewInjector(p, sim.NewEngine(), 4)
		if err != nil {
			t.Fatal(err)
		}
		var out [3][]bool
		for i := 0; i < 200; i++ {
			out[0] = append(out[0], inj.DrawCorrupt())
			out[1] = append(out[1], inj.DrawRequestLoss())
			out[2] = append(out[2], inj.DrawGrantLoss())
		}
		return out
	}
	a, b := draw(plan), draw(plan)
	if !reflect.DeepEqual(a, b) {
		t.Error("same plan produced different draw sequences")
	}
	other := *plan
	other.Seed = 8
	if reflect.DeepEqual(a, draw(&other)) {
		t.Error("different seeds produced identical draw sequences")
	}
}

// TestStreamsIndependent checks that each fault class draws from its own
// random stream: enabling or exercising one class never shifts another's
// sequence, and zero-probability draws consume no randomness at all.
func TestStreamsIndependent(t *testing.T) {
	corruptOnly := &Plan{Seed: 3, CorruptProb: 0.4}
	both := &Plan{Seed: 3, CorruptProb: 0.4, RequestLossProb: 0.5}

	seqA := corruptSeq(t, corruptOnly, false)
	// Same plan, but with request-loss draws interleaved between corrupt
	// draws: CorruptProb's stream must not notice.
	seqB := corruptSeq(t, both, true)
	if !reflect.DeepEqual(seqA, seqB) {
		t.Error("interleaved request-loss draws shifted the corruption stream")
	}
}

func corruptSeq(t *testing.T, p *Plan, interleave bool) []bool {
	t.Helper()
	inj, err := NewInjector(p, sim.NewEngine(), 4)
	if err != nil {
		t.Fatal(err)
	}
	var out []bool
	for i := 0; i < 200; i++ {
		if interleave {
			inj.DrawRequestLoss()
			inj.DrawGrantLoss() // zero probability: must consume nothing
		}
		out = append(out, inj.DrawCorrupt())
	}
	return out
}

// TestOverlappingFaultsMerge checks that a second failure of an
// already-down port neither double-counts nor double-repairs.
func TestOverlappingFaultsMerge(t *testing.T) {
	eng := sim.NewEngine()
	plan := &Plan{Links: []LinkFault{
		{Port: 0, At: 10, For: 100}, // down [10,110)
		{Port: 0, At: 50, For: 10},  // swallowed by the first
	}}
	inj, err := NewInjector(plan, eng, 2)
	if err != nil {
		t.Fatal(err)
	}
	inj.Start()
	eng.Run(70)
	if inj.PortUp(0) {
		t.Error("port 0 should still be down at t=70 despite the nested fault's repair")
	}
	eng.Run(1000)
	c := inj.Counters()
	if c.LinkFailures != 1 || c.LinkRepairs != 1 {
		t.Errorf("counters = %+v, want exactly 1 failure and 1 repair", c)
	}
	if got := inj.DegradedTime(); got != 100 {
		t.Errorf("degraded time = %d, want 100", got)
	}
}

func TestParseRoundTrip(t *testing.T) {
	specs := []string{
		"",
		"seed=7",
		"corrupt=0.01",
		"mtbf=50us,mttr=5us",
		"seed=3,corrupt=0.005,reqloss=0.01,grantloss=0.02,retry=100,retrycap=1600",
		"link=3@10000",
		"link=3@10us+5us",
		"xpoint=2:9@1us",
		"seed=1,mtbf=200us,mttr=2us,link=0@5us+1us,link=7@80us,xpoint=1:2@3us",
	}
	for _, spec := range specs {
		p, err := Parse(spec)
		if err != nil {
			t.Errorf("Parse(%q): %v", spec, err)
			continue
		}
		p2, err := Parse(p.String())
		if err != nil {
			t.Errorf("re-Parse(%q -> %q): %v", spec, p.String(), err)
			continue
		}
		if !reflect.DeepEqual(p, p2) {
			t.Errorf("round trip of %q changed the plan:\n  first:  %+v\n  second: %+v", spec, p, p2)
		}
	}
}

func TestParseValues(t *testing.T) {
	p, err := Parse("seed=9,mtbf=50us,mttr=5us,corrupt=0.01,reqloss=0.02,grantloss=0.03,retry=100ns,retrycap=1600,link=3@10us+5us,xpoint=2:1@1us")
	if err != nil {
		t.Fatal(err)
	}
	want := &Plan{
		Seed:            9,
		LinkMTBF:        50 * sim.Microsecond,
		LinkMTTR:        5 * sim.Microsecond,
		CorruptProb:     0.01,
		RequestLossProb: 0.02,
		GrantLossProb:   0.03,
		RetryBase:       100,
		RetryCap:        1600,
		Links:           []LinkFault{{Port: 3, At: 10 * sim.Microsecond, For: 5 * sim.Microsecond}},
		Crosspoints:     []CrosspointFault{{In: 2, Out: 1, At: sim.Microsecond}},
	}
	if !reflect.DeepEqual(p, want) {
		t.Errorf("Parse = %+v, want %+v", p, want)
	}
	if !p.Active() {
		t.Error("parsed plan should be active")
	}
}

func TestParseRejections(t *testing.T) {
	bad := []string{
		"bogus",                  // not key=value
		"speed=1",                // unknown key
		"seed=abc",               // bad int
		"corrupt=lots",           // bad float
		"corrupt=1.5",            // fails validation
		"mtbf=50us",              // MTBF without MTTR
		"retry=-5",               // negative duration
		"link=3",                 // missing @AT
		"link=x@10",              // bad port
		"link=3@10+0",            // zero-duration transient
		"xpoint=2@1us",           // missing :OUT
		"xpoint=a:b@1us",         // bad ports
		"retry=500,retrycap=100", // cap below base
	}
	for _, spec := range bad {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) should fail", spec)
		}
	}
}
