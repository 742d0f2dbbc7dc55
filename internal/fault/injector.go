package fault

import (
	"fmt"
	"math/rand"

	"pmsnet/internal/probe"
	"pmsnet/internal/sim"
)

// Counters tallies injected fault events.
type Counters struct {
	LinkFailures     uint64
	LinkRepairs      uint64
	CrosspointDeaths uint64
	Corrupted        uint64
	RequestsLost     uint64
	GrantsLost       uint64
}

// Random-stream ids. Each fault class draws from its own stream so that, for
// a fixed plan seed, enabling one class never perturbs the event sequence of
// another.
const (
	streamCorrupt = 1
	streamRequest = 2
	streamGrant   = 3
	streamLink    = 1000 // +port
)

// Injector realizes a Plan on a simulation engine. All methods are safe on a
// nil receiver (a nil injector injects nothing), so models can hold one
// unconditionally.
type Injector struct {
	plan Plan
	eng  *sim.Engine
	n    int

	rngCorrupt *rand.Rand
	rngRequest *rand.Rand
	rngGrant   *rand.Rand

	portDown []bool // link currently down
	portDead []bool // link permanently down
	deadX    map[[2]int]bool

	// Callbacks, invoked at the simulated instant a fault fires. Set them
	// before Start; nil callbacks are skipped.
	OnPortDown       func(port int, permanent bool)
	OnPortUp         func(port int)
	OnCrosspointDead func(in, out int)

	counters Counters

	// probe observes fault events (nil when observability is off).
	probe *probe.Probe

	// Degraded-mode accounting: the run is degraded while at least one link
	// is down or one crosspoint is dead.
	activeFaults  int
	degradedSince sim.Time
	degradedTotal sim.Time
}

// NewInjector builds an injector for an N-port system, or returns (nil, nil)
// when the plan is nil or inactive — the fault-free fast path that keeps
// zero-fault runs bit-identical to runs without a plan.
func NewInjector(p *Plan, eng *sim.Engine, n int) (*Injector, error) {
	if !p.Active() {
		return nil, p.Validate()
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	plan := p.withDefaults()
	for i, l := range plan.Links {
		if l.Port >= n {
			return nil, fmt.Errorf("fault: link fault %d names port %d of an %d-port system", i, l.Port, n)
		}
	}
	for i, x := range plan.Crosspoints {
		if x.In >= n || x.Out >= n {
			return nil, fmt.Errorf("fault: crosspoint fault %d names %d:%d of an %d-port system", i, x.In, x.Out, n)
		}
	}
	return &Injector{
		plan:       plan,
		eng:        eng,
		n:          n,
		rngCorrupt: sim.NewRNG(plan.Seed, streamCorrupt),
		rngRequest: sim.NewRNG(plan.Seed, streamRequest),
		rngGrant:   sim.NewRNG(plan.Seed, streamGrant),
		portDown:   make([]bool, n),
		portDead:   make([]bool, n),
		deadX:      make(map[[2]int]bool),
	}, nil
}

// SetProbe attaches an observability probe for fault injected/recovered
// events. Safe on a nil receiver; nil detaches.
func (inj *Injector) SetProbe(p *probe.Probe) {
	if inj != nil {
		inj.probe = p
	}
}

// Start schedules the plan's fault events: every scripted link and crosspoint
// fault, plus one stochastic fail/repair process per port when MTBF is set.
// Call it after the callbacks are installed and before the engine runs.
func (inj *Injector) Start() {
	if inj == nil {
		return
	}
	for _, l := range inj.plan.Links {
		l := l
		inj.eng.At(l.At, "fault-link-down", func() { inj.portFail(l.Port, l.For) })
	}
	for _, x := range inj.plan.Crosspoints {
		x := x
		inj.eng.At(x.At, "fault-xpoint-dead", func() { inj.crosspointDie(x.In, x.Out) })
	}
	if inj.plan.LinkMTBF > 0 {
		for p := 0; p < inj.n; p++ {
			rng := sim.NewRNG(inj.plan.Seed, streamLink+uint64(p))
			inj.scheduleNextFailure(p, rng)
		}
	}
}

// expDraw returns an exponential time with the given mean, at least 1 ns.
func expDraw(rng *rand.Rand, mean sim.Time) sim.Time {
	d := sim.Time(rng.ExpFloat64() * float64(mean))
	if d < 1 {
		d = 1
	}
	return d
}

func (inj *Injector) scheduleNextFailure(port int, rng *rand.Rand) {
	inj.eng.After(expDraw(rng, inj.plan.LinkMTBF), "fault-link-down", func() {
		if inj.portDead[port] {
			return // a scripted permanent failure got there first
		}
		repair := expDraw(rng, inj.plan.LinkMTTR)
		inj.portFail(port, repair)
		inj.eng.After(repair, "fault-link-next", func() { inj.scheduleNextFailure(port, rng) })
	})
}

func (inj *Injector) portFail(port int, dur sim.Time) {
	if inj.portDead[port] || inj.portDown[port] {
		return // already down; overlapping faults merge
	}
	inj.portDown[port] = true
	if dur == 0 {
		inj.portDead[port] = true
	}
	inj.counters.LinkFailures++
	inj.faultBegan()
	if inj.probe != nil {
		permanent := int64(0)
		if dur == 0 {
			permanent = 1
		}
		inj.probe.Emit(probe.Event{Kind: probe.FaultInjected, At: inj.eng.Now(),
			Src: int32(port), Dst: -1, Aux: permanent})
	}
	if inj.OnPortDown != nil {
		inj.OnPortDown(port, dur == 0)
	}
	if dur > 0 {
		inj.eng.After(dur, "fault-link-up", func() { inj.portRepair(port) })
	}
}

func (inj *Injector) portRepair(port int) {
	if inj.portDead[port] || !inj.portDown[port] {
		return
	}
	inj.portDown[port] = false
	inj.counters.LinkRepairs++
	inj.faultEnded()
	if inj.probe != nil {
		inj.probe.Emit(probe.Event{Kind: probe.FaultRecovered, At: inj.eng.Now(),
			Src: int32(port), Dst: -1})
	}
	if inj.OnPortUp != nil {
		inj.OnPortUp(port)
	}
}

func (inj *Injector) crosspointDie(u, v int) {
	key := [2]int{u, v}
	if inj.deadX[key] {
		return
	}
	inj.deadX[key] = true
	inj.counters.CrosspointDeaths++
	inj.faultBegan()
	if inj.probe != nil {
		inj.probe.Emit(probe.Event{Kind: probe.FaultInjected, At: inj.eng.Now(),
			Src: int32(u), Dst: int32(v), ID: 1, Aux: 1})
	}
	if inj.OnCrosspointDead != nil {
		inj.OnCrosspointDead(u, v)
	}
}

func (inj *Injector) faultBegan() {
	if inj.activeFaults == 0 {
		inj.degradedSince = inj.eng.Now()
	}
	inj.activeFaults++
}

func (inj *Injector) faultEnded() {
	inj.activeFaults--
	if inj.activeFaults == 0 {
		inj.degradedTotal += inj.eng.Now() - inj.degradedSince
	}
}

// --- state queries (all nil-safe) ---

// PortUp reports whether the port's serial link is currently usable.
func (inj *Injector) PortUp(port int) bool {
	return inj == nil || !inj.portDown[port]
}

// PairDown reports whether traffic in→out cannot move right now: an endpoint
// link is down or the crosspoint is dead.
func (inj *Injector) PairDown(in, out int) bool {
	if inj == nil {
		return false
	}
	return inj.portDown[in] || inj.portDown[out] || inj.deadX[[2]int{in, out}]
}

// PairBlocked reports whether traffic in→out can never move again: a
// permanently failed endpoint link or a dead crosspoint. Messages for a
// blocked pair must be dropped, not retried.
func (inj *Injector) PairBlocked(in, out int) bool {
	if inj == nil {
		return false
	}
	return inj.portDead[in] || inj.portDead[out] || inj.deadX[[2]int{in, out}]
}

// --- stochastic draws (all nil-safe; a zero probability consumes no
// randomness, so enabling one fault class never shifts another's stream) ---

// DrawCorrupt decides whether one transferred payload arrives corrupted.
func (inj *Injector) DrawCorrupt() bool {
	if inj == nil || inj.plan.CorruptProb == 0 {
		return false
	}
	if inj.rngCorrupt.Float64() < inj.plan.CorruptProb {
		inj.counters.Corrupted++
		return true
	}
	return false
}

// DrawRequestLoss decides whether one scheduler-request token is lost.
func (inj *Injector) DrawRequestLoss() bool {
	if inj == nil || inj.plan.RequestLossProb == 0 {
		return false
	}
	if inj.rngRequest.Float64() < inj.plan.RequestLossProb {
		inj.counters.RequestsLost++
		return true
	}
	return false
}

// DrawGrantLoss decides whether one scheduler-grant token is lost.
func (inj *Injector) DrawGrantLoss() bool {
	if inj == nil || inj.plan.GrantLossProb == 0 {
		return false
	}
	if inj.rngGrant.Float64() < inj.plan.GrantLossProb {
		inj.counters.GrantsLost++
		return true
	}
	return false
}

// RetryDelay returns the NIC retry-timer delay for attempt number `attempt`
// (0-based), following the plan's exponential backoff.
func (inj *Injector) RetryDelay(attempt int) sim.Time {
	if inj == nil {
		return Backoff(0, 0, attempt)
	}
	return Backoff(inj.plan.RetryBase, inj.plan.RetryCap, attempt)
}

// Counters returns the injected-fault tallies so far.
func (inj *Injector) Counters() Counters {
	if inj == nil {
		return Counters{}
	}
	return inj.counters
}

// DegradedTime returns the total simulated time (up to now) during which at
// least one fault was active — the run's time in degraded mode.
func (inj *Injector) DegradedTime() sim.Time {
	if inj == nil {
		return 0
	}
	total := inj.degradedTotal
	if inj.activeFaults > 0 {
		total += inj.eng.Now() - inj.degradedSince
	}
	return total
}
