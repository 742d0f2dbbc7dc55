// Package circuit implements the paper's circuit-switching baseline: a
// dedicated end-to-end pipe is established per message and torn down when
// the message completes. In the framework of paper §3, this is TDM with a
// multiplexing degree of one.
//
// Timing model (paper §5): "the delay to schedule a message includes the
// cable delay of 80 ns to send the request, 80 ns to schedule the request,
// and another 80 ns to send the grant back to the NIC. After that, the
// point-to-point delay is 30+20+20+30 ns" — the data stays serial through
// the LVDS/optical crossbar, so no serdes is needed at the switch and the
// propagation through the fabric itself is negligible.
package circuit

import (
	"fmt"

	"pmsnet/internal/core"
	"pmsnet/internal/fault"
	"pmsnet/internal/link"
	"pmsnet/internal/metrics"
	"pmsnet/internal/netmodel"
	"pmsnet/internal/nic"
	"pmsnet/internal/probe"
	"pmsnet/internal/sim"
	"pmsnet/internal/traffic"
)

// Config parameterizes the circuit-switched network.
type Config struct {
	// N is the processor count.
	N int
	// Link is the serial-link model; zero value means link.Paper().
	Link link.Model
	// Horizon bounds simulated time; zero means netmodel.DefaultHorizon.
	Horizon sim.Time
	// Faults, when non-nil and active, injects link failures, corrupted
	// payloads and lost request/grant tokens per the plan; nil leaves the
	// run bit-identical to a fault-free one.
	Faults *fault.Plan
	// Probe, when non-nil, receives the run's observability event stream.
	Probe *probe.Probe
}

func (c Config) withDefaults() Config {
	if c.Link.BitsPerSecond == 0 {
		c.Link = link.Paper()
	}
	if c.Horizon == 0 {
		c.Horizon = netmodel.DefaultHorizon
	}
	return c
}

// Network is the circuit-switching baseline.
type Network struct {
	cfg Config
}

// New builds a circuit-switched network.
func New(cfg Config) (*Network, error) {
	cfg = cfg.withDefaults()
	if cfg.N <= 1 {
		return nil, fmt.Errorf("circuit: need at least 2 processors, got %d", cfg.N)
	}
	if err := cfg.Link.Validate(); err != nil {
		return nil, err
	}
	return &Network{cfg: cfg}, nil
}

// Name implements netmodel.Network.
func (n *Network) Name() string { return "circuit" }

type run struct {
	cfg      Config
	eng      *sim.Engine
	driver   *netmodel.Driver
	cp       *netmodel.ControlPlane
	ports    *netmodel.PortEngine
	schedNs  sim.Time
	dataPipe sim.Time
	// outQueue holds pending circuit requests per output port; messages
	// queue directly (the request token carries no other state).
	outQueue [][]*nic.Message
	outBusy  []bool
	stats    metrics.NetStats
	inj      *fault.Injector
	probe    *probe.Probe

	// Cached ArgHandler method values: the fault-free per-message event
	// chain schedules through these instead of allocating closures.
	requestArrivedFn sim.ArgHandler
	scheduledFn      sim.ArgHandler
	grantArrivedFn   sim.ArgHandler
	deliverFn        sim.ArgHandler
	teardownFn       sim.ArgHandler
	sourceNextFn     sim.ArgHandler
	// Cached resend callbacks for the control plane's token-loss path.
	resendRequestFn func(arg any, attempt int)
	resendGrantFn   func(arg any, attempt int)
}

// Run implements netmodel.Network.
func (n *Network) Run(wl *traffic.Workload) (metrics.Result, error) {
	eng := sim.NewEngine()
	lm := n.cfg.Link
	r := &run{
		cfg:     n.cfg,
		eng:     eng,
		schedNs: core.ASICLatency(n.cfg.N),
		// Source serdes + wire to switch + LVDS switch + wire to
		// destination + destination serdes: 30+20+0+20+30.
		dataPipe: lm.SerializeNs + lm.WireNs + lvdsNs + lm.WireNs + lm.DeserializeNs,
		outQueue: make([][]*nic.Message, n.cfg.N),
		outBusy:  make([]bool, n.cfg.N),
		probe:    n.cfg.Probe,
	}
	r.requestArrivedFn = r.requestArrived
	r.scheduledFn = r.scheduled
	r.grantArrivedFn = r.grantArrived
	r.deliverFn = r.deliver
	r.teardownFn = r.teardown
	r.sourceNextFn = r.sourceNext
	r.resendRequestFn = r.resendRequest
	r.resendGrantFn = r.resendGrant
	driver, err := netmodel.NewDriver(eng, lm, wl, netmodel.Hooks{
		OnEnqueue: func(m *nic.Message, _ int32, _ bool) { r.ports.Kick(int(m.Src)) },
	})
	if err != nil {
		return metrics.Result{}, err
	}
	r.driver = driver
	r.ports = netmodel.NewPortEngine(driver, n.cfg.N, r.startMessage)
	if n.cfg.Probe != nil {
		driver.SetProbe(n.cfg.Probe)
	}
	inj, err := fault.NewInjector(n.cfg.Faults, eng, n.cfg.N)
	if err != nil {
		return metrics.Result{}, err
	}
	if inj != nil {
		r.inj = inj
		inj.SetProbe(n.cfg.Probe)
		driver.AttachFaults(inj)
	}
	r.cp = netmodel.NewControlPlane(eng, driver, lm.ControlDelay(), inj)
	if inj != nil {
		inj.Start()
	}
	driver.Start()
	return driver.Finish(n.Name(), n.cfg.Horizon, r.stats)
}

// lvdsNs is the traversal of the LVDS/optical crossbar (paper §5): under
// 2 ns, and neglected.
const lvdsNs sim.Time = 0

// startMessage raises a circuit request for a freshly popped message; the
// port engine serializes calls per source.
func (r *run) startMessage(_ int, m *nic.Message) {
	r.requestCircuit(m, 0)
}

// requestCircuit sends the circuit-request token toward the scheduler. With
// fault injection the token can be lost in transit; the NIC detects the
// missing grant by timeout and re-requests after an exponential backoff
// (attempt is the backoff exponent). Fault-free runs take the closure-free
// path: the message pointer rides the event, the handler is cached.
func (r *run) requestCircuit(m *nic.Message, attempt int) {
	// The request token travels to the scheduler over a control line.
	r.cp.SendRequest("request-at-scheduler", r.requestArrivedFn, m, attempt, r.resendRequestFn)
}

func (r *run) resendRequest(arg any, attempt int) {
	r.requestCircuit(arg.(*nic.Message), attempt)
}

// requestArrived queues the request token at the scheduler.
func (r *run) requestArrived(arg any) {
	m := arg.(*nic.Message)
	r.outQueue[m.Dst] = append(r.outQueue[m.Dst], m)
	r.kickOutput(int(m.Dst))
}

// kickOutput grants the circuit for the next queued request once the output
// port is free.
func (r *run) kickOutput(v int) {
	if r.outBusy[v] || len(r.outQueue[v]) == 0 {
		return
	}
	m := r.outQueue[v][0]
	r.outQueue[v] = r.outQueue[v][1:]
	r.outBusy[v] = true
	r.stats.SchedulerPasses++
	r.stats.Established++
	if r.probe != nil {
		now := r.eng.Now()
		r.probe.Emit(probe.Event{Kind: probe.SchedPassBegin, At: now})
		r.probe.Emit(probe.Event{Kind: probe.ConnEstablished, At: now,
			Src: m.Src, Dst: int32(v)})
		r.probe.Emit(probe.Event{Kind: probe.SchedPassEnd, At: now, Aux: 1})
	}
	// 80 ns to schedule, then the grant token travels back to the NIC.
	r.eng.AfterArg(r.schedNs, "circuit-scheduled", r.scheduledFn, m)
}

// scheduled fires when the scheduler has allocated the circuit; the grant
// token starts its trip back to the source NIC.
func (r *run) scheduled(arg any) {
	m := arg.(*nic.Message)
	r.sendGrant(m, 0)
}

// sendGrant carries the grant token from the scheduler back to the source
// NIC (80 ns control delay). With fault injection the token can be lost; the
// scheduler detects the unused circuit by timeout and re-sends the grant
// after an exponential backoff. The circuit's output port stays reserved
// throughout — a lost grant wastes port time, which is the point.
func (r *run) sendGrant(m *nic.Message, attempt int) {
	r.cp.SendGrant("grant-at-nic", r.grantArrivedFn, m, attempt, r.resendGrantFn)
}

func (r *run) resendGrant(arg any, attempt int) {
	r.sendGrant(arg.(*nic.Message), attempt)
}

// grantArrived starts the transfer: the source NIC holds the circuit and
// streams the whole message through it.
func (r *run) grantArrived(arg any) {
	m := arg.(*nic.Message)
	if r.probe != nil {
		r.probe.Emit(probe.Event{Kind: probe.MsgInjected, At: r.eng.Now(),
			Src: m.Src, Dst: m.Dst, ID: int64(m.ID)})
	}
	ser := r.cfg.Link.SerializationTime(int(m.Bytes))
	// The last byte leaves the source at +ser and reaches the destination
	// NIC one data-pipe latency later.
	r.eng.AfterArg(ser+r.dataPipe+nic.RecvOverhead, "deliver", r.deliverFn, m)
	// The circuit (and its output port) is held until the tail has cleared
	// the fabric; then it is torn down and the port can be granted again.
	r.eng.AfterArg(ser+r.cfg.Link.SerializeNs+r.cfg.Link.WireNs, "teardown", r.teardownFn, m)
	// The source NIC is free to request its next circuit as soon as it has
	// pushed the last byte into the serializer.
	r.eng.AfterArg(ser+nic.SendOverhead, "source-next", r.sourceNextFn, m)
}

func (r *run) deliver(arg any) {
	r.driver.Arrive(arg.(*nic.Message))
}

func (r *run) teardown(arg any) {
	m := arg.(*nic.Message)
	v := int(m.Dst)
	r.stats.Released++
	if r.probe != nil {
		r.probe.Emit(probe.Event{Kind: probe.ConnReleased, At: r.eng.Now(),
			Src: m.Src, Dst: int32(v)})
	}
	r.outBusy[v] = false
	r.kickOutput(v)
}

func (r *run) sourceNext(arg any) {
	r.ports.Next(int(arg.(*nic.Message).Src))
}
