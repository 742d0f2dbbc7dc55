// Package pmsnet is a cycle-accurate simulation library for predictive
// multiplexed switching in multiprocessor interconnection networks,
// reproducing "Switch Design to Enable Predictive Multiplexed Switching in
// Multiprocessor Networks" (Ding et al., IPPS 2005).
//
// The library models a 128-processor system (any N) connected by a single
// central crossbar and a hardware connection scheduler. The switching
// paradigms are implemented on a shared discrete-event engine with the
// paper's timing constants (6.4 Gb/s serial links, 30/20/30 ns serdes and
// wire delays, 10 ns NIC operations, 80 ns scheduler passes at 128 ports,
// 100 ns TDM slots):
//
//   - Wormhole routing (input-queued digital crossbar, 128-byte worms)
//   - Circuit switching (per-message end-to-end circuits)
//   - Dynamic TDM (the paper's switch, scheduled reactively, with pluggable
//     connection-eviction predictors)
//   - Preload TDM (compiled communication: static phases decomposed into
//     conflict-free configurations and preloaded)
//   - Hybrid TDM (k preloaded slots + K−k dynamic slots)
//   - VOQ/iSLIP cell switch (extra baseline beyond the paper)
//   - Multi-hop mesh variants (per-hop wormhole vs end-to-end TDM circuits)
//
// Quick start:
//
//	wl := pmsnet.OrderedMesh(128, 64, 10)
//	rep, err := pmsnet.Run(pmsnet.Config{Switching: pmsnet.PreloadTDM, N: 128, K: 4}, wl)
//	if err != nil { ... }
//	fmt.Printf("efficiency %.3f\n", rep.Efficiency)
//
// The experiment harnesses that regenerate every table and figure of the
// paper live in internal/experiments; `go test -bench .` and cmd/figures
// print them.
package pmsnet

import (
	"fmt"
	"io"
	"strings"
	"time"

	"pmsnet/internal/circuit"
	"pmsnet/internal/compiler"
	"pmsnet/internal/core"
	"pmsnet/internal/fabric"
	"pmsnet/internal/fault"
	"pmsnet/internal/meshnet"
	"pmsnet/internal/metrics"
	"pmsnet/internal/netmodel"
	"pmsnet/internal/plan"
	"pmsnet/internal/predictor"
	"pmsnet/internal/runner"
	"pmsnet/internal/sim"
	"pmsnet/internal/tdm"
	"pmsnet/internal/trace"
	"pmsnet/internal/traffic"
	"pmsnet/internal/vocab"
	"pmsnet/internal/voq"
	"pmsnet/internal/wormhole"
)

// Switching selects a network model.
type Switching int

// Switching paradigms.
const (
	// Wormhole is the wormhole-routing baseline.
	Wormhole Switching = iota
	// CircuitSwitching is the per-message circuit baseline.
	CircuitSwitching
	// DynamicTDM is the predictive multiplexed switch with reactive
	// scheduling.
	DynamicTDM
	// PreloadTDM is the predictive multiplexed switch with compiled
	// (preloaded) configurations.
	PreloadTDM
	// HybridTDM splits the slots between preloaded and dynamic use.
	HybridTDM
	// VOQISLIP is an input-queued cell switch with virtual output queues
	// and iSLIP arbitration — a baseline beyond the paper's evaluation (the
	// design that became standard for crossbar routers).
	VOQISLIP
	// MeshWormhole is a multi-hop 2-D router mesh with XY routing and
	// per-hop (virtual cut-through) wormhole switching.
	MeshWormhole
	// MeshTDM is the multi-hop predictive multiplexed network: end-to-end
	// TDM circuits over XY paths through analog LVDS switches.
	MeshTDM
)

// Switchings is the paradigm vocabulary (the cmd/pmsim -net flag and the
// pmsd "switching" field), indexed by Switching.
var Switchings = vocab.New[Switching]("switching paradigm",
	"wormhole", "circuit", "tdm-dynamic", "tdm-preload", "tdm-hybrid",
	"voq-islip", "mesh-wormhole", "mesh-tdm")

// String implements fmt.Stringer.
func (s Switching) String() string { return Switchings.Name(s) }

// EvictionPolicy selects the connection-eviction predictor for the TDM
// modes (paper §3.2).
type EvictionPolicy int

// Eviction policies.
const (
	// ReleaseOnEmpty releases a connection as soon as its request drops
	// (no latching).
	ReleaseOnEmpty EvictionPolicy = iota
	// TimeoutEviction latches connections and evicts after
	// Config.EvictionTimeout of disuse — the paper's experimental setup.
	TimeoutEviction
	// CounterEviction evicts after Config.EvictionThreshold uses of other
	// connections while this one is idle.
	CounterEviction
	// NeverEvict keeps connections until an explicit flush.
	NeverEvict
	// MarkovPrefetch combines timeout eviction with a first-order
	// destination predictor that pre-establishes the learned next
	// connection of each source before its request arrives.
	MarkovPrefetch
)

// Evictions is the policy vocabulary (the cmd/pmsim -eviction flag and the
// pmsd "eviction" field), indexed by EvictionPolicy.
var Evictions = vocab.New[EvictionPolicy]("eviction policy",
	"reactive", "timeout", "counter", "never", "markov")

// String implements fmt.Stringer.
func (p EvictionPolicy) String() string { return Evictions.Name(p) }

// Fabric selects the switching-fabric backend for the TDM modes. The
// baselines model their own data paths and ignore it. It is the backend's
// own kind, so a Config's fabric reaches the TDM network unconverted.
type Fabric = fabric.Kind

// Fabric backends.
const (
	// FabricCrossbar is the paper's baseline single-stage crosspoint fabric,
	// where every partial permutation is realizable.
	FabricCrossbar = fabric.KindCrossbar
	// FabricOmega is a blocking log2(N)-stage Omega network: the scheduler
	// only establishes connections that keep each slot Omega-realizable, and
	// the preload controller decomposes working sets under the same
	// constraint. N must be a power of two.
	FabricOmega = fabric.KindOmega
)

// Fabrics is the fabric vocabulary (the cmd/pmsim -fabric flag and the pmsd
// "fabric" field), indexed by Fabric.
var Fabrics = fabric.Kinds

// Scheduler selects the matching algorithm the TDM scheduler runs each pass.
// The baselines model their own arbitration and ignore it. It is the
// scheduler core's own algorithm type.
type Scheduler = core.Algorithm

// Scheduling algorithms.
const (
	// SchedulerPaper is the paper-exact Tables 1–2 scheduling array (the
	// default): the change matrix L resolved by the N×N scheduling-logic
	// cells against the propagating port-availability signals.
	SchedulerPaper = core.AlgPaper
	// SchedulerISLIP is iSLIP (McKeown 1999, the Tiny Tera scheduler):
	// iterative request–grant–accept matching with desynchronizing
	// round-robin pointers, ~log2(N) iterations per pass.
	SchedulerISLIP = core.AlgISLIP
	// SchedulerWavefront is wavefront matching (after Tamir & Chi's
	// symmetric crossbar arbiters): requests resolved along conflict-free
	// anti-diagonals swept in rotated order.
	SchedulerWavefront = core.AlgWavefront
)

// Schedulers is the algorithm vocabulary (the cmd/pmsim -sched flag and the
// pmsd "scheduler" field), indexed by Scheduler.
var Schedulers = core.Algorithms

// Planner selects the offline preload planner for PreloadTDM/HybridTDM: the
// algorithm that turns each static phase's per-connection demand into the
// configuration groups pinned into the preloaded slots. The reactive modes
// and the baselines have no preloads to plan and reject a non-default value.
// It is the planner package's own kind.
type Planner = plan.Kind

// Preload planners.
const (
	// PlannerStatic is the hand-written decomposition (the default): each
	// phase's working set is edge-colored into conflict-free configurations
	// and chunked into groups in order, one slot register each. It is
	// demand-blind and bit-identical to the pre-planner behaviour.
	PlannerStatic = plan.KindStatic
	// PlannerSolstice is the Solstice-style greedy hybrid planner: repeated
	// heaviest-edge-first matchings cover the demand, registers are shared
	// in proportion to per-configuration demand, reconfigurations are
	// charged at the control plane's delay, and connections too light to
	// pay for a pinned register spill to the dynamic slots (HybridTDM).
	PlannerSolstice = plan.KindSolstice
	// PlannerBvN is the Birkhoff–von-Neumann planner: the demand matrix is
	// decomposed exactly into weighted partial permutations, so the planned
	// slot budget per connection equals its demand.
	PlannerBvN = plan.KindBvN
)

// Planners is the planner vocabulary (the cmd/pmsim -planner flag and the
// pmsd "planner" field), indexed by Planner.
var Planners = plan.Kinds

// Config selects and parameterizes a network.
type Config struct {
	// Switching selects the paradigm.
	Switching Switching
	// N is the processor count (at least 2).
	N int
	// K is the TDM multiplexing degree; ignored by the baselines. Zero
	// defaults to 4, the paper's Figure-4 value.
	K int
	// PreloadSlots is the number of pinned slots for HybridTDM.
	PreloadSlots int
	// Eviction selects the predictor for DynamicTDM/HybridTDM.
	Eviction EvictionPolicy
	// EvictionTimeout is the timeout predictor's period; zero defaults to
	// 500 ns.
	EvictionTimeout time.Duration
	// EvictionThreshold is the counter predictor's threshold; zero defaults
	// to 8.
	EvictionThreshold uint64
	// AmplifyBytes enables bandwidth amplification for the TDM modes: a
	// connection whose queue holds more than this many bytes after a slot
	// transfer is granted an additional slot (extension 2 of the switch
	// design). Zero disables amplification.
	AmplifyBytes int
	// Fabric selects the switching-fabric backend for the TDM modes: the
	// baseline crossbar (the zero value) or the blocking Omega network. The
	// scheduler and preload controller adapt to the Omega's blocking
	// constraints automatically; the baselines ignore the field.
	Fabric Fabric
	// Planner selects the offline preload planner for PreloadTDM and
	// HybridTDM: the default hand-written decomposition (the zero value,
	// bit-identical to the pre-planner behaviour), the Solstice-style greedy
	// hybrid planner, or the Birkhoff–von-Neumann optimizer. A non-default
	// planner on any other switching paradigm fails Validate — there are no
	// preloads to plan. Parse flag vocabulary with Planners.Parse.
	Planner Planner
	// Scheduler selects the matching algorithm for the TDM modes: the
	// paper-exact scheduling array (the zero value), iSLIP, or wavefront
	// matching. Only the paper algorithm is bit-pinned by the golden
	// reports; the alternatives are comparison baselines. The non-TDM
	// baselines ignore the field.
	Scheduler Scheduler
	// Faults, when non-nil and active, injects faults per the plan: link
	// failures (MTBF/MTTR or scripted), corrupted payloads caught by the
	// receiving NIC's CRC, lost scheduler request/grant tokens and dead
	// crossbar crosspoints. Recovery is automatic (retries with exponential
	// backoff, rescheduling around dead hardware, preload fallback to
	// dynamic slots) and accounted in the Report's Faults block. A nil or
	// inactive plan leaves every run bit-identical to the fault-free
	// simulation. Build plans directly or with ParseFaults.
	Faults *fault.Plan
	// Parallelism is the worker count for the multi-run entry points
	// (RunMany): 0 defaults to GOMAXPROCS, 1 runs serially, larger values
	// bound the number of simulations in flight. A single Run ignores it —
	// each simulation is single-threaded by design so that runs stay
	// reproducible; parallelism comes from running independent simulations
	// concurrently, with results always in input order.
	Parallelism int
	// Probe, when non-nil, streams typed simulation events (slot, scheduler,
	// connection, message and fault lifecycle) to the probe's sinks during
	// the run. Probes are purely observational: the Report is bit-identical
	// with or without one. Sinks run synchronously on the simulation
	// goroutine and are not safe to share across concurrent runs, so RunMany
	// rejects a non-nil Probe. Build with NewProbe and the sink
	// constructors (NewCounterSink, NewTimelineSink, NewTraceWriter).
	Probe *Probe
}

// ConfigError reports a Config field that failed validation.
type ConfigError struct {
	// Field is the offending Config field name, e.g. "N" or "Eviction".
	Field string
	// Value is the rejected value; nil when the value adds nothing to the
	// message.
	Value any
	// Reason says what is wrong with it.
	Reason string
}

// Error implements error.
func (e *ConfigError) Error() string {
	if e.Value == nil {
		return fmt.Sprintf("pmsnet: invalid Config.%s: %s", e.Field, e.Reason)
	}
	return fmt.Sprintf("pmsnet: invalid Config.%s (%v): %s", e.Field, e.Value, e.Reason)
}

// Validate checks the configuration without building a network. Every
// violation is reported as a *ConfigError naming the offending field; nil
// means Run would accept the configuration (given a valid workload).
// Defaults are applied before checking, so zero values that have documented
// defaults (K, EvictionTimeout, ...) pass.
func (c Config) Validate() error {
	c = c.withDefaults()
	if err := checkEnum("Switching", "paradigm", Switchings, c.Switching); err != nil {
		return err
	}
	if c.N < 2 {
		return &ConfigError{Field: "N", Value: c.N, Reason: "need at least 2 processors"}
	}
	if c.K <= 0 {
		return &ConfigError{Field: "K", Value: c.K, Reason: "multiplexing degree must be positive"}
	}
	switch c.Switching {
	case DynamicTDM, PreloadTDM, HybridTDM:
		if err := checkEnum("Eviction", "policy", Evictions, c.Eviction); err != nil {
			return err
		}
	}
	if c.Switching == HybridTDM && (c.PreloadSlots < 0 || c.PreloadSlots > c.K) {
		return &ConfigError{Field: "PreloadSlots", Value: c.PreloadSlots,
			Reason: fmt.Sprintf("must be within [0, K=%d]", c.K)}
	}
	if c.AmplifyBytes < 0 {
		return &ConfigError{Field: "AmplifyBytes", Value: c.AmplifyBytes, Reason: "must not be negative"}
	}
	if err := checkEnum("Fabric", "fabric", Fabrics, c.Fabric); err != nil {
		return err
	}
	if err := checkEnum("Planner", "planner", Planners, c.Planner); err != nil {
		return err
	}
	if c.Planner != PlannerStatic {
		switch c.Switching {
		case PreloadTDM:
		case HybridTDM:
			if c.PreloadSlots == 0 {
				return &ConfigError{Field: "Planner", Value: c.Planner.String(),
					Reason: "needs at least one preloaded slot (PreloadSlots) to plan for"}
			}
		default:
			return &ConfigError{Field: "Planner", Value: c.Planner.String(),
				Reason: fmt.Sprintf("preload planning needs preloaded slots; %s has none", c.Switching)}
		}
	}
	if err := checkEnum("Scheduler", "scheduler", Schedulers, c.Scheduler); err != nil {
		return err
	}
	switch c.Switching {
	case DynamicTDM, PreloadTDM, HybridTDM:
		if err := fabric.Check(c.Fabric, c.N); err != nil {
			return &ConfigError{Field: "Fabric", Value: c.Fabric.String(), Reason: err.Error()}
		}
	}
	if c.Parallelism < 0 {
		return &ConfigError{Field: "Parallelism", Value: c.Parallelism, Reason: "must not be negative"}
	}
	if err := c.Faults.Validate(); err != nil {
		return &ConfigError{Field: "Faults", Reason: err.Error()}
	}
	return nil
}

// checkEnum rejects an enum field whose value is outside its vocabulary
// table, naming the field and listing the valid names.
func checkEnum[T ~int](field, noun string, t vocab.Table[T], v T) error {
	if t.Valid(v) {
		return nil
	}
	return &ConfigError{Field: field, Value: int(v),
		Reason: fmt.Sprintf("unknown %s (valid: %s)", noun, strings.Join(t.Names(), ", "))}
}

func (c Config) withDefaults() Config {
	if c.K == 0 {
		c.K = 4
	}
	if c.EvictionTimeout == 0 {
		c.EvictionTimeout = 500 * time.Nanosecond
	}
	if c.EvictionThreshold == 0 {
		c.EvictionThreshold = 8
	}
	return c
}

func (c Config) predictorFactory() (func() predictor.Predictor, error) {
	switch c.Eviction {
	case ReleaseOnEmpty:
		return nil, nil
	case TimeoutEviction:
		t := sim.Time(c.EvictionTimeout.Nanoseconds())
		return func() predictor.Predictor { return predictor.NewTimeout(t) }, nil
	case CounterEviction:
		th := c.EvictionThreshold
		return func() predictor.Predictor { return predictor.NewCounter(th) }, nil
	case NeverEvict:
		return func() predictor.Predictor { return predictor.NewNever() }, nil
	case MarkovPrefetch:
		t := sim.Time(c.EvictionTimeout.Nanoseconds())
		return func() predictor.Predictor { return predictor.NewMarkov(t) }, nil
	default:
		return nil, fmt.Errorf("pmsnet: unknown eviction policy %d", int(c.Eviction))
	}
}

// network builds the internal model for a configuration.
func (c Config) network() (netmodel.Network, error) {
	c = c.withDefaults()
	if err := c.Faults.Validate(); err != nil {
		return nil, err
	}
	switch c.Switching {
	case Wormhole:
		return wormhole.New(wormhole.Config{N: c.N, Faults: c.Faults, Probe: c.Probe})
	case CircuitSwitching:
		return circuit.New(circuit.Config{N: c.N, Faults: c.Faults, Probe: c.Probe})
	case VOQISLIP:
		return voq.New(voq.Config{N: c.N, Faults: c.Faults, Probe: c.Probe})
	case MeshWormhole:
		return meshnet.NewWormhole(meshnet.WormholeConfig{N: c.N, Faults: c.Faults, Probe: c.Probe})
	case MeshTDM:
		return meshnet.NewTDM(meshnet.TDMConfig{N: c.N, K: c.K, Faults: c.Faults, Probe: c.Probe})
	case DynamicTDM, PreloadTDM, HybridTDM:
		pf, err := c.predictorFactory()
		if err != nil {
			return nil, err
		}
		cfg := tdm.Config{N: c.N, K: c.K, NewPredictor: pf, AmplifyBytes: c.AmplifyBytes,
			Fabric: c.Fabric, Algorithm: c.Scheduler, Faults: c.Faults, Probe: c.Probe}
		switch c.Switching {
		case PreloadTDM:
			cfg.Mode = tdm.Preload
			cfg.NewPredictor = nil
		case HybridTDM:
			cfg.Mode = tdm.Hybrid
			cfg.PreloadSlots = c.PreloadSlots
		}
		if c.Planner != PlannerStatic {
			cfg.Planner = plan.New(c.Planner)
		}
		return tdm.New(cfg)
	default:
		return nil, fmt.Errorf("pmsnet: unknown switching paradigm %d", int(c.Switching))
	}
}

// Workload is a simulation input: one command program per processor plus
// the statically-known communication phases. Build workloads with the
// pattern constructors or load them from command files with ReadTrace.
type Workload struct {
	w *traffic.Workload
}

// Name returns the workload label.
func (w *Workload) Name() string { return w.w.Name }

// Spec returns the canonical generator spec that built the workload (see
// ParseWorkloadSpec), or "" for workloads built by constructor or read from
// traces that omit it.
func (w *Workload) Spec() string { return w.w.Spec }

// Processors returns the processor count.
func (w *Workload) Processors() int { return w.w.N }

// Messages returns the total message count.
func (w *Workload) Messages() int { return w.w.MessageCount() }

// TotalBytes returns the total payload bytes.
func (w *Workload) TotalBytes() int64 { return w.w.TotalBytes() }

// Report is the outcome of one simulation run.
type Report struct {
	Network  string
	Workload string

	Messages int
	Bytes    int64
	// Makespan is the simulated time at which the last message arrived.
	Makespan time.Duration
	// Efficiency is the bottleneck-ideal time divided by the makespan.
	Efficiency float64

	LatencyMean time.Duration
	LatencyP50  time.Duration
	LatencyP95  time.Duration
	LatencyMax  time.Duration

	// LatencyHistogram is an ASCII rendering of the run's log-bucketed
	// latency distribution.
	LatencyHistogram string
	// HitRate is the connection-cache hit rate of the TDM modes.
	HitRate float64
	// Sched groups the scheduler-activity counters of the TDM modes.
	Sched SchedReport
	// Plan describes the preload planner's schedule when Config.Planner
	// selected one; the zero value when no planner ran.
	Plan PlanReport

	// Faults carries the fault-injection and recovery accounting; nil when
	// the run had no active fault plan.
	Faults *FaultReport
}

// SchedReport groups the scheduler-activity counters of the TDM modes,
// formerly flat Report fields (SchedulerPasses, Established, Released,
// Evictions, Preloads).
type SchedReport struct {
	// Passes counts scheduling passes (one per slot-window arbitration).
	Passes uint64
	// Established / Released / Evictions count connection-cache activity.
	Established uint64
	Released    uint64
	Evictions   uint64
	// Preloads counts preloaded configuration groups (PreloadTDM/HybridTDM).
	Preloads uint64
}

// PlanReport describes the preload planner's offline schedule: which planner
// ran and the shape of what it produced. All fields are zero when the run had
// no planner (Config.Planner == PlannerStatic leaves the hand-written preload
// path untouched and unreported).
type PlanReport struct {
	// Planner is the planner's canonical name ("solstice", "bvn"); empty
	// without a planner.
	Planner string
	// Configs counts planned slot configurations (register shares included)
	// and Groups the configuration groups they were packed into, summed
	// over the workload's static phases.
	Configs uint64
	Groups  uint64
	// ResidualConns counts connections the plan spilled to the dynamic
	// slots instead of pinning (HybridTDM residual traffic).
	ResidualConns uint64
	// DrainSlots is the planner's own drain estimate in TDM slots,
	// reconfiguration charges included, rounded up and summed over phases.
	DrainSlots uint64
}

// FaultReport is the fault-injection and recovery accounting of a run with
// an active fault plan. The message accounting is exact: every injected
// message is delivered (possibly after retries) or explicitly dropped, so
// Injected == Delivered + Dropped always holds.
type FaultReport struct {
	// Injected-fault tallies.
	LinkFailures     uint64
	LinkRepairs      uint64
	CrosspointDeaths uint64
	Corrupted        uint64
	RequestsLost     uint64
	GrantsLost       uint64

	// Recovery tallies.
	Retries          uint64
	Reschedules      uint64
	PreloadFallbacks uint64
	MaskedGrants     uint64

	// Message accounting.
	Injected  uint64
	Delivered uint64
	Dropped   uint64

	// DegradedTime is the simulated time with at least one fault active.
	DegradedTime time.Duration
}

func toReport(r metrics.Result) Report {
	hist := ""
	if r.Latencies != nil {
		hist = r.Latencies.String()
	}
	return Report{
		LatencyHistogram: hist,
		Network:          r.Network,
		Workload:         r.Workload,
		Messages:         r.Messages,
		Bytes:            r.Bytes,
		Makespan:         time.Duration(r.Makespan),
		Efficiency:       r.Efficiency,
		LatencyMean:      time.Duration(r.LatencyMean),
		LatencyP50:       time.Duration(r.LatencyP50),
		LatencyP95:       time.Duration(r.LatencyP95),
		LatencyMax:       time.Duration(r.LatencyMax),
		HitRate:          r.Stats.HitRate(),
		Sched: SchedReport{
			Passes:      r.Stats.SchedulerPasses,
			Established: r.Stats.Established,
			Released:    r.Stats.Released,
			Evictions:   r.Stats.Evictions,
			Preloads:    r.Stats.Preloads,
		},
		Plan: PlanReport{
			Planner:       r.Stats.Planner,
			Configs:       r.Stats.PlanConfigs,
			Groups:        r.Stats.PlanGroups,
			ResidualConns: r.Stats.PlanResidualConns,
			DrainSlots:    r.Stats.PlanDrainSlots,
		},
		Faults: toFaultReport(r.Stats.Faults),
	}
}

func toFaultReport(f metrics.FaultStats) *FaultReport {
	if !f.Enabled {
		return nil
	}
	return &FaultReport{
		LinkFailures:     f.LinkFailures,
		LinkRepairs:      f.LinkRepairs,
		CrosspointDeaths: f.CrosspointDeaths,
		Corrupted:        f.Corrupted,
		RequestsLost:     f.RequestsLost,
		GrantsLost:       f.GrantsLost,
		Retries:          f.Retries,
		Reschedules:      f.Reschedules,
		PreloadFallbacks: f.PreloadFallbacks,
		MaskedGrants:     f.MaskedGrants,
		Injected:         f.Injected,
		Delivered:        f.Delivered,
		Dropped:          f.Dropped,
		DegradedTime:     time.Duration(f.DegradedTime),
	}
}

// ParseFaults parses a fault-plan spec string (the cmd/pmsim --faults
// syntax) into a plan usable in Config.Faults. The spec is a comma- or
// space-separated list of key=value items, e.g.
// "seed=7,mtbf=1ms,mttr=10us,corrupt=0.001,link=3@50us+20us,xpoint=1:2@80us".
// An empty spec returns an inactive plan.
func ParseFaults(spec string) (*fault.Plan, error) { return fault.Parse(spec) }

// Run simulates the workload on the configured network to completion. The
// configuration is validated first; violations come back as *ConfigError.
func Run(cfg Config, wl *Workload) (Report, error) {
	if wl == nil || wl.w == nil {
		return Report{}, fmt.Errorf("pmsnet: nil workload")
	}
	if err := cfg.Validate(); err != nil {
		return Report{}, err
	}
	nw, err := cfg.network()
	if err != nil {
		return Report{}, err
	}
	res, err := nw.Run(wl.w)
	if err != nil {
		return Report{}, err
	}
	return toReport(res), nil
}

// RunMany simulates every workload under the same configuration, fanning the
// runs across cfg.Parallelism workers (0 = GOMAXPROCS). Each run builds its
// own network instance, so runs share nothing but the read-only workloads and
// fault plan; reports come back in workload order and are bit-identical to
// running each workload through Run serially. The first error cancels the
// remaining runs and is returned.
//
// The configuration is validated first; additionally, cfg.Probe must be nil —
// probe sinks run unsynchronized on each simulation goroutine, so a shared
// probe would race. Attach probes to individual Run calls instead.
func RunMany(cfg Config, wls []*Workload) ([]Report, error) {
	for i, wl := range wls {
		if wl == nil || wl.w == nil {
			return nil, fmt.Errorf("pmsnet: nil workload at index %d", i)
		}
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Probe != nil {
		return nil, &ConfigError{Field: "Probe",
			Reason: "probe sinks are not safe across concurrent runs; use Run for traced simulations"}
	}
	return runner.Map(runner.Options{Parallelism: cfg.Parallelism}, len(wls), func(i int) (Report, error) {
		nw, err := cfg.network()
		if err != nil {
			return Report{}, err
		}
		res, err := nw.Run(wls[i].w)
		if err != nil {
			return Report{}, err
		}
		return toReport(res), nil
	})
}

// --- the workload-generator registry ---

// WorkloadSpec is a parsed workload-generator invocation: a registered
// traffic family plus explicitly set parameters. Specs are strings of the
// form "name[:key=value,...]", e.g. "random-mesh", "all-reduce:algo=tree",
// "perm-churn:rounds=4,msgs=2" — the single pattern vocabulary shared by
// cmd/pmsim, cmd/pmsopt, cmd/pmsd and cmd/figures. WorkloadNames lists the
// registered families.
type WorkloadSpec struct {
	s *traffic.Spec
}

// ParseWorkloadSpec parses a generator spec, validating the family name and
// every parameter against the family's schema. Unknown names produce an
// error listing every valid name.
func ParseWorkloadSpec(spec string) (*WorkloadSpec, error) {
	s, err := traffic.ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	return &WorkloadSpec{s: s}, nil
}

// Name returns the generator family name.
func (s *WorkloadSpec) Name() string { return s.s.Name() }

// String renders the canonical spec form: parameters in schema order with
// canonical encodings, defaults elided. ParseWorkloadSpec(s.String())
// reproduces s.
func (s *WorkloadSpec) String() string { return s.s.String() }

// Default sets a parameter only when the spec did not set it explicitly —
// the overlay the CLIs use to fold flag values (e.g. -size, -msgs) under an
// explicit spec. Keys the family's schema does not have are ignored;
// invalid values for known keys error.
func (s *WorkloadSpec) Default(key, value string) error { return s.s.Default(key, value) }

// Generate builds the spec's workload for n processors at the given seed.
// Family contract violations (non-square N for transpose, ...) come back as
// errors. The workload carries the canonical spec (Workload.Spec), which
// the PMSTRACE serialization — and therefore Workload.Hash — folds in.
func (s *WorkloadSpec) Generate(n int, seed int64) (*Workload, error) {
	wl, err := s.s.Generate(n, seed)
	if err != nil {
		return nil, err
	}
	return &Workload{w: wl}, nil
}

// GenerateWorkload parses a generator spec and builds its workload in one
// step.
func GenerateWorkload(spec string, n int, seed int64) (*Workload, error) {
	s, err := ParseWorkloadSpec(spec)
	if err != nil {
		return nil, err
	}
	return s.Generate(n, seed)
}

// WorkloadNames returns the registered generator-family names in their
// canonical order — the vocabulary of the cmd/pmsim -pattern flag.
func WorkloadNames() []string { return traffic.Names() }

// WorkloadUsage renders the generator catalog as aligned usage lines — one
// per family: the name, its parameter schema with defaults, and a one-line
// description. The first whitespace-separated token of each line is the
// bare family name, so `pmsim -pattern list | awk '{print $1}'` yields the
// machine-readable vocabulary.
func WorkloadUsage() []string {
	gens := traffic.Generators()
	nameW, schemaW := 0, 0
	for _, g := range gens {
		if len(g.Name) > nameW {
			nameW = len(g.Name)
		}
		if len(g.Schema()) > schemaW {
			schemaW = len(g.Schema())
		}
	}
	out := make([]string, len(gens))
	for i, g := range gens {
		out[i] = fmt.Sprintf("%-*s  %-*s  %s", nameW, g.Name, schemaW, g.Schema(), g.Doc)
	}
	return out
}

// --- workload constructors (paper §5 patterns) ---

// ScatterWorkload builds the Scatter test: processor 0 sends a unique
// message of `bytes` bytes to every other processor.
func ScatterWorkload(n, bytes int) *Workload {
	return &Workload{w: traffic.Scatter(n, bytes)}
}

// OrderedMesh builds the Ordered Mesh test: deterministic nearest-neighbor
// rounds (E, W, N, S) on the 2-D processor mesh.
func OrderedMesh(n, bytes, rounds int) *Workload {
	return &Workload{w: traffic.OrderedMesh(n, bytes, rounds)}
}

// RandomMesh builds the Random Mesh test: `msgs` messages per processor to
// uniformly random mesh neighbors.
func RandomMesh(n, bytes, msgs int, seed int64) *Workload {
	return &Workload{w: traffic.RandomMesh(n, bytes, msgs, seed)}
}

// AllToAll builds a staggered all-to-all exchange.
func AllToAll(n, bytes int) *Workload {
	return &Workload{w: traffic.AllToAll(n, bytes)}
}

// TwoPhaseWorkload builds the Two Phase test: an all-to-all followed by 16
// random nearest-neighbor rounds, with a compiler flush between the phases.
func TwoPhaseWorkload(n, bytes int, seed int64) *Workload {
	return &Workload{w: traffic.TwoPhase(n, bytes, seed)}
}

// HotspotWorkload builds random-mesh background traffic plus a heavy stream
// from processor 0 to processor n-1 — the bandwidth-amplification stressor.
func HotspotWorkload(n, bytes, msgs, hotBytes, hotMsgs int, seed int64) *Workload {
	return &Workload{w: traffic.Hotspot(n, bytes, msgs, hotBytes, hotMsgs, seed)}
}

// MixWorkload builds the Figure-5 determinism mix: blocking sends separated
// by `think` of compute; a `determinism` fraction goes to each processor's
// two fixed favored destinations, the rest to uniformly random processors.
func MixWorkload(n, bytes, msgs int, determinism float64, think time.Duration, seed int64) *Workload {
	return &Workload{w: traffic.Mix(n, bytes, msgs, determinism, sim.Time(think.Nanoseconds()), seed)}
}

// AnalyzeWorkload runs the compile-/load-time communication analysis on a
// workload: it strips any existing annotations, segments every processor's
// send stream into phases, attaches the discovered per-phase working sets
// (so PreloadTDM can run the workload), and inserts FLUSH/PHASEHINT
// directives at the detected boundaries. It returns the annotated workload
// and the number of phases found.
func AnalyzeWorkload(wl *Workload) (*Workload, int, error) {
	if wl == nil || wl.w == nil {
		return nil, 0, fmt.Errorf("pmsnet: nil workload")
	}
	out, an, err := compiler.Analyze(wl.w, compiler.Options{InsertDirectives: true})
	if err != nil {
		return nil, 0, err
	}
	return &Workload{w: out}, an.PhaseCount(), nil
}

// TransposeWorkload builds the matrix-transpose permutation stream (n must
// be a perfect square).
func TransposeWorkload(n, bytes, msgs int) *Workload {
	return &Workload{w: traffic.Transpose(n, bytes, msgs)}
}

// BitReverseWorkload builds the bit-reversal (FFT) permutation stream (n
// must be a power of two).
func BitReverseWorkload(n, bytes, msgs int) *Workload {
	return &Workload{w: traffic.BitReverse(n, bytes, msgs)}
}

// ShiftWorkload builds the uniform-shift permutation stream.
func ShiftWorkload(n, bytes, msgs, distance int) *Workload {
	return &Workload{w: traffic.Shift(n, bytes, msgs, distance)}
}

// ConcatWorkloads joins workloads into one multi-phase program: each input
// becomes a phase, separated by compiler FLUSH directives and phase hints,
// with the per-phase working sets attached for the preload controller.
func ConcatWorkloads(name string, wls ...*Workload) *Workload {
	inner := make([]*traffic.Workload, len(wls))
	for i, w := range wls {
		if w == nil || w.w == nil {
			panic("pmsnet: nil workload in ConcatWorkloads")
		}
		inner[i] = w.w
	}
	return &Workload{w: traffic.Concat(name, inner...)}
}

// ReadTrace parses a PMSTRACE command file into a workload.
func ReadTrace(r io.Reader) (*Workload, error) {
	w, err := trace.Read(r)
	if err != nil {
		return nil, err
	}
	return &Workload{w: w}, nil
}

// WriteTrace serializes a workload as a PMSTRACE command file.
func WriteTrace(w io.Writer, wl *Workload) error {
	if wl == nil || wl.w == nil {
		return fmt.Errorf("pmsnet: nil workload")
	}
	return trace.Write(w, wl.w)
}
