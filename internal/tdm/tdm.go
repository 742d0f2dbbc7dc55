// Package tdm implements the predictive multiplexed switching network — the
// paper's proposed system. A 100 ns slot clock cycles the fabric through
// the scheduler's K configurations; connections are established reactively
// by the scheduling-logic array (internal/core), proactively by preloading
// compiled configurations, or both at once.
//
// Three modes reproduce the paper's evaluation:
//
//   - Dynamic: all K slots are scheduled reactively from the NICs' request
//     matrix ("Dynamic TDM" in Figure 4). An optional predictor latches
//     connections past their last request and evicts them later (§3.2).
//   - Preload: all K slots are pinned with compiled configurations obtained
//     by decomposing the workload's statically-known phases; a preload
//     controller swaps configuration groups as their traffic drains
//     ("Preload" in Figure 4).
//   - Hybrid: k slots are pinned with the static pattern and the remaining
//     K−k slots are scheduled reactively (Figure 5).
//
// The fabric the slots are realized on is pluggable (fabric.Backend): the
// baseline crossbar or the blocking Omega network. On the Omega the scheduler
// only establishes connections that keep each slot's configuration
// realizable, and the preload controller decomposes working sets under the
// same constraint.
//
// Slot timing: a slot is 100 ns — 80 raw bytes at 6.4 Gb/s — of which 64
// bytes are usable payload; the remainder covers the guard band and slot
// framing (see DESIGN.md for why this reconciles the paper's "8–64 bytes in
// one cycle" and "over 80 bytes fragmented" statements). Grants are issued
// by the scheduler at slot boundaries, so NICs need no slot bookkeeping.
package tdm

import (
	"fmt"

	"pmsnet/internal/bitmat"
	"pmsnet/internal/core"
	"pmsnet/internal/fabric"
	"pmsnet/internal/fault"
	"pmsnet/internal/link"
	"pmsnet/internal/metrics"
	"pmsnet/internal/netmodel"
	"pmsnet/internal/plan"
	"pmsnet/internal/predictor"
	"pmsnet/internal/probe"
	"pmsnet/internal/sim"
	"pmsnet/internal/topology"
	"pmsnet/internal/traffic"
)

// Mode selects how connections enter the network.
type Mode int

// TDM operating modes.
const (
	// Dynamic schedules every slot reactively.
	Dynamic Mode = iota
	// Preload pins every slot with compiled configurations.
	Preload
	// Hybrid pins PreloadSlots slots and schedules the rest reactively.
	Hybrid
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Dynamic:
		return "dynamic"
	case Preload:
		return "preload"
	case Hybrid:
		return "hybrid"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config parameterizes the TDM network.
type Config struct {
	// N is the processor count.
	N int
	// K is the multiplexing degree (number of configuration registers).
	K int
	// Mode selects dynamic, preload or hybrid operation.
	Mode Mode
	// PreloadSlots is the number of pinned slots in Hybrid mode (the
	// paper's k); ignored otherwise.
	PreloadSlots int
	// Planner, when non-nil, computes the preloaded slot schedule from the
	// workload's demand instead of the hand-written static decomposition:
	// per phase, the preloader derives an integer demand matrix (program
	// bytes per connection, restricted to the phase's working set) and pins
	// the planner's configuration groups, register shares included. The
	// plan's residual demand rides the dynamic slots (Hybrid mode; pure
	// Preload plans with CoverAll). Nil keeps today's static preload path
	// bit for bit. Only meaningful in Preload and Hybrid modes.
	Planner plan.Planner
	// NewPredictor, when non-nil, enables request latching (core extension
	// 3): connections survive their request dropping and are evicted by the
	// predictor. When nil, a connection is released as soon as its request
	// disappears (pure reactive operation). A fresh predictor is created
	// per run.
	NewPredictor func() predictor.Predictor
	// Link is the serial-link model; zero value means link.Paper().
	Link link.Model
	// SlotNs is the TDM slot duration; zero means 100 ns.
	SlotNs sim.Time
	// PayloadBytes is the usable payload per slot; zero means 64.
	PayloadBytes int
	// RotatePriority enables fair priority rotation in the scheduler
	// (default on via withDefaults).
	RotatePriority *bool
	// SkipEmptySlots enables TDM-counter empty-slot skipping (default on).
	SkipEmptySlots *bool
	// SLCopies is the number of scheduling-logic units (extension 1);
	// zero means 1.
	SLCopies int
	// AmplifyBytes enables bandwidth amplification (core extension 2): a
	// connection whose queue still holds more than this many bytes after a
	// slot transfer is inserted into an additional free slot, multiplying
	// its share of the link. Zero disables amplification.
	AmplifyBytes int
	// Fabric selects the switching-fabric backend (default crossbar).
	Fabric fabric.Kind
	// Algorithm selects the scheduler's matching algorithm (default: the
	// paper-exact Tables 1–2 array). The alternatives (iSLIP, wavefront) are
	// comparison baselines; only the paper algorithm is bit-pinned by the
	// golden reports.
	Algorithm core.Algorithm
	// Horizon bounds simulated time; zero means netmodel.DefaultHorizon.
	Horizon sim.Time
	// Faults, when non-nil and active, injects link failures, corrupted
	// slots, lost request/grant tokens and dead crosspoints per the plan. A
	// nil or inactive plan leaves the run bit-identical to a fault-free one.
	Faults *fault.Plan
	// SelfCheck runs the scheduler's state invariants after every simulation
	// event (the engine debug mode). Expensive; meant for tests.
	SelfCheck bool
	// Probe, when non-nil, receives the run's observability event stream
	// (slots, scheduler passes, connections, preloads, messages, faults).
	// Emission is purely observational: results are bit-identical with and
	// without a probe.
	Probe *probe.Probe
}

func boolPtr(b bool) *bool { return &b }

func (c Config) withDefaults() Config {
	if c.Link.BitsPerSecond == 0 {
		c.Link = link.Paper()
	}
	if c.SlotNs == 0 {
		c.SlotNs = 100
	}
	if c.PayloadBytes == 0 {
		c.PayloadBytes = 64
	}
	if c.RotatePriority == nil {
		c.RotatePriority = boolPtr(true)
	}
	if c.SkipEmptySlots == nil {
		c.SkipEmptySlots = boolPtr(true)
	}
	if c.SLCopies == 0 {
		c.SLCopies = 1
	}
	if c.Horizon == 0 {
		c.Horizon = netmodel.DefaultHorizon
	}
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.N <= 1 {
		return fmt.Errorf("tdm: need at least 2 processors, got %d", c.N)
	}
	if c.K <= 0 {
		return fmt.Errorf("tdm: multiplexing degree K=%d must be positive", c.K)
	}
	if c.PayloadBytes <= 0 {
		return fmt.Errorf("tdm: payload %d must be positive", c.PayloadBytes)
	}
	if c.SlotNs <= 0 {
		return fmt.Errorf("tdm: slot duration %v must be positive", c.SlotNs)
	}
	if c.Link.BytesInWindow(c.SlotNs) < c.PayloadBytes {
		return fmt.Errorf("tdm: payload %d B does not fit a %v slot at the line rate", c.PayloadBytes, c.SlotNs)
	}
	if c.AmplifyBytes < 0 {
		return fmt.Errorf("tdm: negative amplification threshold %d", c.AmplifyBytes)
	}
	if err := fabric.Check(c.Fabric, c.N); err != nil {
		return err
	}
	if !core.Algorithms.Valid(c.Algorithm) {
		return fmt.Errorf("tdm: unknown scheduling algorithm %s", c.Algorithm)
	}
	switch c.Mode {
	case Dynamic:
		if c.Planner != nil {
			return fmt.Errorf("tdm: a preload planner has nothing to plan in dynamic mode")
		}
	case Preload:
	case Hybrid:
		if c.PreloadSlots < 0 || c.PreloadSlots > c.K {
			return fmt.Errorf("tdm: hybrid preload slots %d outside [0,%d]", c.PreloadSlots, c.K)
		}
		if c.Planner != nil && c.PreloadSlots == 0 {
			return fmt.Errorf("tdm: a preload planner needs at least one pinned slot")
		}
	default:
		return fmt.Errorf("tdm: unknown mode %d", int(c.Mode))
	}
	return c.Link.Validate()
}

// Network is the predictive multiplexed switch.
type Network struct {
	cfg Config
}

// New builds a TDM network.
func New(cfg Config) (*Network, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Network{cfg: cfg}, nil
}

// Name implements netmodel.Network.
func (n *Network) Name() string {
	var name string
	switch n.cfg.Mode {
	case Dynamic:
		name = fmt.Sprintf("tdm-dynamic/k=%d", n.cfg.K)
	case Preload:
		name = fmt.Sprintf("tdm-preload/k=%d", n.cfg.K)
	default:
		name = fmt.Sprintf("tdm-hybrid/%dp+%dd", n.cfg.PreloadSlots, n.cfg.K-n.cfg.PreloadSlots)
	}
	if n.cfg.Fabric != fabric.KindCrossbar {
		name += "/" + n.cfg.Fabric.String()
	}
	if n.cfg.Algorithm != core.AlgPaper {
		name += "/" + n.cfg.Algorithm.String()
	}
	if n.cfg.Planner != nil {
		name += "/plan=" + n.cfg.Planner.Name()
	}
	return name
}

type run struct {
	cfg    Config
	eng    *sim.Engine
	driver *netmodel.Driver
	sched  *core.Scheduler
	// fab is the pluggable switching fabric the slots are realized on.
	fab  fabric.Backend
	pred predictor.Predictor

	// cp models the control links toward the scheduler: token signaling with
	// fault-aware loss/backoff, one control delay per signal.
	cp *netmodel.ControlPlane
	// reqWire drives reqView, the request matrix as the scheduler sees it:
	// NIC queue state delayed by the control-line latency, maintained in
	// sparse form (per-row nonzero lists over the dense words).
	reqWire *netmodel.RequestWire
	reqView *bitmat.Sparse
	// specReq holds speculative requests injected by a prefetching
	// predictor (predictor.Prefetcher): they are OR-ed into the request
	// matrix until the connection establishes, then cleared — the latch
	// keeps the connection alive from there.
	specReq *bitmat.Sparse
	// reqMerge is the reusable scratch for reqView|specReq so the per-pass
	// merge does not allocate.
	reqMerge *bitmat.Sparse
	// conns is the run's connection table (the driver's): every
	// per-connection structure of the run is indexed by its ids.
	conns *topology.ConnTable
	// connsBuf and idsBuf are the reusable slot-connection list and its
	// ids: the fabric's load and the data-plane grant loop's snapshot.
	connsBuf []topology.Conn
	idsBuf   []int32
	// deliverFn is the cached deliver method value, so scheduling a
	// message's delivery allocates no closure.
	deliverFn sim.ArgHandler
	// grants tracks the grant signals in flight toward the NICs.
	grants grantLine

	pre        *preloader
	slotTicker *sim.Ticker
	slTicker   *sim.Ticker
	stats      metrics.NetStats

	// probe observes the run (nil when observability is off).
	probe *probe.Probe

	// inj is the fault injector (nil for fault-free runs); err latches the
	// first unrecoverable model error so it surfaces instead of a misleading
	// stall diagnosis.
	inj *fault.Injector
	err error
	// Fault-recovery tallies owned by the TDM model (the driver owns the
	// rest, see netmodel.Driver.FaultStats).
	reschedules      uint64
	preloadFallbacks uint64
	maskedGrants     uint64
}

// fail latches the first model-level error and stops the engine; Run reports
// it instead of the stall it would otherwise manifest as.
func (r *run) fail(err error) {
	if r.err == nil {
		r.err = err
		r.eng.Stop()
	}
}

// Run implements netmodel.Network.
func (n *Network) Run(wl *traffic.Workload) (metrics.Result, error) {
	r, err := n.start(wl)
	if err != nil {
		return metrics.Result{}, err
	}
	return r.finish(n.Name())
}

// start builds a run of the workload and schedules its first events.
func (n *Network) start(wl *traffic.Workload) (*run, error) {
	cfg := n.cfg
	eng := sim.NewEngine()

	var pred predictor.Predictor
	if cfg.NewPredictor != nil {
		pred = cfg.NewPredictor()
	}
	fab, err := fabric.NewBackend(cfg.Fabric, cfg.N)
	if err != nil {
		return nil, err
	}
	var canEstablish func(b *bitmat.Matrix, u, v int) bool
	if !fab.Rearrangeable() {
		// One reusable trial matrix avoids a clone per realizability probe.
		trial := bitmat.NewSquare(cfg.N)
		canEstablish = func(b *bitmat.Matrix, u, v int) bool {
			trial.CopyFrom(b)
			trial.Set(u, v)
			return fab.CanRealize(trial)
		}
	}
	reqWire := netmodel.NewRequestWire(eng, cfg.N, cfg.Link.ControlDelay(), "request-wire")
	r := &run{
		cfg:      cfg,
		eng:      eng,
		fab:      fab,
		pred:     pred,
		reqWire:  reqWire,
		reqView:  reqWire.ViewSparse(),
		specReq:  bitmat.NewSparse(cfg.N, cfg.N),
		reqMerge: bitmat.NewSparse(cfg.N, cfg.N),
		probe:    cfg.Probe,
	}
	r.deliverFn = r.deliver

	driver, err := netmodel.NewDriver(eng, cfg.Link, wl, netmodel.Hooks{
		OnEnqueue: r.onEnqueue,
		OnFlush:   r.onFlush,
		OnIdle:    r.onIdle,
	})
	if err != nil {
		return nil, err
	}
	r.driver, r.conns = driver, driver.Conns
	r.grants.init(r.conns.Len())
	if cfg.Probe != nil {
		driver.SetProbe(cfg.Probe)
	}
	if pred != nil {
		pred.Start(r.conns)
	}
	r.sched, err = core.NewScheduler(core.Params{
		N:              cfg.N,
		K:              cfg.K,
		RotatePriority: *cfg.RotatePriority,
		SkipEmptySlots: *cfg.SkipEmptySlots,
		SLCopies:       cfg.SLCopies,
		LatchRequests:  pred != nil,
		CanEstablish:   canEstablish,
		Algorithm:      cfg.Algorithm,
		Conns:          r.conns,
	})
	if err != nil {
		return nil, err
	}
	if cfg.Probe != nil {
		r.sched.SetProbe(cfg.Probe, eng.Now)
	}

	inj, err := fault.NewInjector(cfg.Faults, eng, cfg.N)
	if err != nil {
		return nil, err
	}
	if inj != nil {
		r.inj = inj
		inj.OnPortDown = r.onPortDown
		inj.OnPortUp = r.onPortUp
		inj.OnCrosspointDead = r.onCrosspointDead
		inj.SetProbe(cfg.Probe)
		driver.AttachFaults(inj)
	}
	r.cp = netmodel.NewControlPlane(eng, driver, cfg.Link.ControlDelay(), inj)
	if cfg.SelfCheck {
		eng.SetInvariantCheck(r.checkInvariants)
	}

	// Preloaded slots (Preload: all; Hybrid: the first PreloadSlots).
	if cfg.Mode == Preload || (cfg.Mode == Hybrid && cfg.PreloadSlots > 0) {
		slots := cfg.K
		if cfg.Mode == Hybrid {
			slots = cfg.PreloadSlots
		}
		pre, err := newPreloader(r, wl, slots)
		if err != nil {
			return nil, err
		}
		r.pre = pre
	}

	// The slot clock drives the fabric; the SL clock drives reactive
	// scheduling (absent in pure preload mode, where every slot is pinned).
	r.slotTicker = eng.NewTicker(cfg.SlotNs, "tdm-slot", r.onSlot)
	r.slotTicker.StartAt(0)
	if cfg.Mode != Preload {
		r.slTicker = eng.NewTicker(r.sched.PassLatency(), "tdm-sl-pass", r.onSLPass)
		r.slTicker.Start()
	}

	if inj != nil {
		inj.Start()
	}
	driver.Start()
	return r, nil
}

// finish simulates the run to completion and assembles its result.
func (r *run) finish(name string) (metrics.Result, error) {
	res, err := r.driver.Finish(name, r.cfg.Horizon, metrics.NetStats{})
	if r.err != nil {
		return metrics.Result{}, r.err
	}
	if err != nil {
		return metrics.Result{}, err
	}
	// Merge scheduler counters into the run stats.
	st := r.sched.Stats()
	r.stats.SchedulerPasses = st.Passes
	r.stats.Established = st.Established
	r.stats.Released = st.Released
	r.stats.Evictions = st.Evictions
	r.stats.Flushes = st.Flushes
	if r.inj != nil {
		fs := r.driver.FaultStats()
		fs.Reschedules = r.reschedules
		fs.PreloadFallbacks = r.preloadFallbacks
		fs.MaskedGrants = r.maskedGrants
		r.stats.Faults = fs
	}
	res.Stats = r.stats
	return res, nil
}

// checkInvariants is the engine debug hook (Config.SelfCheck): scheduler
// state consistency, the NIC buffers' queue bookkeeping and the preloader's
// pending counts derived from it.
func (r *run) checkInvariants() error {
	if err := r.sched.CheckInvariants(); err != nil {
		return err
	}
	if err := r.reqView.CheckParity(); err != nil {
		return fmt.Errorf("tdm: request wire: %w", err)
	}
	if err := r.specReq.CheckParity(); err != nil {
		return fmt.Errorf("tdm: speculative requests: %w", err)
	}
	if err := r.driver.CheckBuffers(); err != nil {
		return err
	}
	if r.pre != nil {
		return r.pre.checkPending()
	}
	return nil
}

// onIdle stops the clocks so the event queue can drain.
func (r *run) onIdle() {
	r.slotTicker.Stop()
	if r.slTicker != nil {
		r.slTicker.Stop()
	}
}
