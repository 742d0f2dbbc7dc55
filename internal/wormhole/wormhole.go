// Package wormhole implements the paper's wormhole-routing baseline: an
// input-queued switch on a conventional digital crossbar.
//
// Timing model (paper §5):
//
//   - Messages are segmented into worms of at most 128 bytes "to ensure
//     fairness within the network"; the flit size is 8 bytes, which
//     serializes in exactly 10 ns at the 6.4 Gb/s line rate.
//   - The delay through the switch includes scheduling the first flit of
//     each worm: 80 ns. All subsequent flits are routed in 10 ns each.
//   - The path to the switch costs 30 ns parallel→serial, 20 ns of wire and
//     30 ns serial→parallel (the digital crossbar operates on parallel
//     data); the path from the switch to the destination NIC costs the same
//     again, plus the 10 ns NIC receive operation.
//   - When a message is broken into multiple worms, the cable delay is seen
//     once: later worms are buffered within the crossbar switch while
//     earlier worms drain, so they pipeline behind it.
//
// Contention: a worm needs both its switch input port and its output port
// for the duration of its transfer (arbitration + flits); outputs serve
// worms in arrival order, and a worm at the head of its output queue whose
// input port is still draining an earlier worm blocks that output —
// wormhole's head-of-line blocking. A source holds back its next worm until
// the previous one has begun moving through the switch (single-worm input
// buffering).
package wormhole

import (
	"fmt"

	"pmsnet/internal/fault"
	"pmsnet/internal/link"
	"pmsnet/internal/metrics"
	"pmsnet/internal/netmodel"
	"pmsnet/internal/nic"
	"pmsnet/internal/probe"
	"pmsnet/internal/sim"
	"pmsnet/internal/traffic"
)

// Paper §5 constants.
const (
	// MaxWormBytes limits worm size for fairness.
	MaxWormBytes = 128
	// FlitBytes is the flit size.
	FlitBytes = 8
	// ArbitrationNs is the time to schedule the first flit of a worm.
	ArbitrationNs sim.Time = 80
	// FlitNs is one flit's traversal of the digital crossbar, which
	// converts serial to parallel at its ports.
	FlitNs sim.Time = 10
)

// Config parameterizes the wormhole network.
type Config struct {
	// N is the processor count.
	N int
	// Link is the serial-link model; zero value means link.Paper().
	Link link.Model
	// Horizon bounds simulated time; zero means netmodel.DefaultHorizon.
	Horizon sim.Time
	// Faults, when non-nil and active, injects link failures and corrupted
	// worms per the plan; nil leaves the run bit-identical to a fault-free
	// one.
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

// Network is the wormhole baseline.
type Network struct {
	cfg Config
}

// New builds a wormhole network.
func New(cfg Config) (*Network, error) {
	cfg = cfg.withDefaults()
	if cfg.N <= 1 {
		return nil, fmt.Errorf("wormhole: need at least 2 processors, got %d", cfg.N)
	}
	if err := cfg.Link.Validate(); err != nil {
		return nil, err
	}
	return &Network{cfg: cfg}, nil
}

// Name implements netmodel.Network.
func (n *Network) Name() string { return "wormhole" }

// worm is one in-flight segment of a message. Worm structs are recycled
// through the run's free list: a worm's last event is its switch traversal
// completing, after which the struct returns to the pool.
type worm struct {
	bytes int
	msg   *nic.Message
	idx   int // worm index within the message
	last  bool
	// pending counts the conditions gating the source's next worm: the
	// current worm fully serialized, and its switch traversal begun.
	pending int
	readyAt sim.Time
}

type run struct {
	cfg    Config
	eng    *sim.Engine
	driver *netmodel.Driver

	outQueue [][]*worm
	outBusy  []bool
	// inBusy marks switch input ports currently draining a worm; a worm
	// needs both ports.
	inBusy []bool
	// waitingOnInput lists outputs whose head worm is blocked on an input.
	waitingOnInput [][]int
	// ports serializes each source's transmit process.
	ports *netmodel.PortEngine
	// inputPipe is the one-way latency from a source NIC to the switch
	// input (serialize + wire + deserialize at the digital switch).
	inputPipe sim.Time
	// outputPipe is switch-output to destination-NIC latency.
	outputPipe sim.Time

	// wormFree recycles worm structs; waitScratch is reused when draining a
	// blocked-output list. The cached ArgHandler method values carry each
	// worm through its event chain without per-event closures.
	wormFree    []*worm
	waitScratch []int
	probe       *probe.Probe
	condMetFn   sim.ArgHandler
	atSwitchFn  sim.ArgHandler
	wormNextFn  sim.ArgHandler
	throughFn   sim.ArgHandler
	deliverFn   sim.ArgHandler
}

// Run implements netmodel.Network.
func (n *Network) Run(wl *traffic.Workload) (metrics.Result, error) {
	eng := sim.NewEngine()
	r := &run{
		cfg:            n.cfg,
		eng:            eng,
		outQueue:       make([][]*worm, n.cfg.N),
		outBusy:        make([]bool, n.cfg.N),
		inBusy:         make([]bool, n.cfg.N),
		waitingOnInput: make([][]int, n.cfg.N),
		probe:          n.cfg.Probe,
	}
	lm := n.cfg.Link
	r.inputPipe = lm.SerializeNs + lm.WireNs + lm.DeserializeNs
	r.outputPipe = lm.SerializeNs + lm.WireNs + lm.DeserializeNs
	r.condMetFn = r.conditionMet
	r.atSwitchFn = r.atSwitch
	r.wormNextFn = r.wormNext
	r.throughFn = r.throughSwitch
	r.deliverFn = r.deliver

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
		inj.SetProbe(n.cfg.Probe)
		driver.AttachFaults(inj)
		inj.Start()
	}
	driver.Start()
	return driver.Finish(n.Name(), n.cfg.Horizon, metrics.NetStats{})
}

// startMessage transmits a freshly popped message's worms; the port engine
// serializes calls per source.
func (r *run) startMessage(s int, m *nic.Message) {
	r.sendWorm(s, m, 0)
}

// wormCount returns the number of worms a message of the given size splits
// into; wormBytes returns the size of worm i. Pure index math — the hot
// path never materializes the split as a slice.
func wormCount(bytes int) int { return (bytes + MaxWormBytes - 1) / MaxWormBytes }

func wormBytes(bytes, i int) int {
	w := bytes - i*MaxWormBytes
	if w > MaxWormBytes {
		w = MaxWormBytes
	}
	return w
}

// splitWorms segments a message into worm sizes — the reference form of the
// wormCount/wormBytes index math, kept for tests and documentation.
func splitWorms(bytes int) []int {
	var out []int
	for i := 0; i < wormCount(bytes); i++ {
		out = append(out, wormBytes(bytes, i))
	}
	return out
}

// newWorm takes a worm struct off the free list or makes one.
func (r *run) newWorm() *worm {
	if n := len(r.wormFree); n > 0 {
		w := r.wormFree[n-1]
		r.wormFree = r.wormFree[:n-1]
		return w
	}
	return &worm{}
}

// freeWorm recycles a worm whose last event has fired.
func (r *run) freeWorm(w *worm) {
	w.msg = nil
	r.wormFree = append(r.wormFree, w)
}

// sendWorm transmits worm i of the message from its source. The source may
// move to the next worm only when (a) the current worm has fully left the
// source link and (b) it has begun its switch traversal, freeing the input
// buffer.
func (r *run) sendWorm(s int, m *nic.Message, i int) {
	if i == 0 && r.probe != nil {
		r.probe.Emit(probe.Event{Kind: probe.MsgInjected, At: r.eng.Now(),
			Src: m.Src, Dst: m.Dst, ID: int64(m.ID)})
	}
	bytes := wormBytes(int(m.Bytes), i)
	serDone := r.eng.Now() + r.cfg.Link.SerializationTime(bytes)
	headArrives := r.eng.Now() + r.inputPipe

	w := r.newWorm()
	w.bytes, w.msg, w.idx = bytes, m, i
	w.last = i == wormCount(int(m.Bytes))-1
	w.pending, w.readyAt = 2, 0
	r.eng.AtArg(serDone, "worm-serialized", r.condMetFn, w)
	r.eng.AtArg(headArrives, "worm-at-switch", r.atSwitchFn, w)
}

// conditionMet retires one of the worm's two source-gating conditions; when
// both have passed, the source's next step runs at the later of the two.
func (r *run) conditionMet(arg any) {
	w := arg.(*worm)
	if now := r.eng.Now(); now > w.readyAt {
		w.readyAt = now
	}
	w.pending--
	if w.pending == 0 {
		r.eng.AtArg(w.readyAt, "worm-next", r.wormNextFn, w)
	}
}

// wormNext advances the source: the next worm of the same message, or the
// next message.
func (r *run) wormNext(arg any) {
	w := arg.(*worm)
	m := w.msg
	if w.idx+1 < wormCount(int(m.Bytes)) {
		r.sendWorm(int(m.Src), m, w.idx+1)
	} else {
		r.ports.Next(int(m.Src))
	}
}

// atSwitch queues the worm's head at its output port.
func (r *run) atSwitch(arg any) {
	w := arg.(*worm)
	r.outQueue[w.msg.Dst] = append(r.outQueue[w.msg.Dst], w)
	r.kickOutput(int(w.msg.Dst))
}

// kickOutput serves the next waiting worm on an idle output port. The worm
// also needs its switch input port; if that is still draining an earlier
// worm, this output stalls until the input frees (head-of-line blocking).
func (r *run) kickOutput(v int) {
	if r.outBusy[v] || len(r.outQueue[v]) == 0 {
		return
	}
	w := r.outQueue[v][0]
	u := w.msg.Src
	if r.inBusy[u] {
		r.waitingOnInput[u] = append(r.waitingOnInput[u], v)
		return
	}
	r.outQueue[v] = r.outQueue[v][1:]
	r.outBusy[v] = true
	r.inBusy[u] = true
	r.conditionMet(w) // traversal begins: the source input buffer frees
	// Scheduling the head flit (80 ns) + one switch traversal per flit.
	flits := (w.bytes + FlitBytes - 1) / FlitBytes
	xfer := ArbitrationNs + sim.Time(flits)*FlitNs
	r.eng.AfterArg(xfer, "worm-through-switch", r.throughFn, w)
}

// throughSwitch fires when the worm's tail clears the crossbar: both ports
// free, the last worm heads for the destination NIC, and any outputs that
// stalled on this input get another chance. This is the worm's final event,
// so the struct returns to the pool here.
func (r *run) throughSwitch(arg any) {
	w := arg.(*worm)
	u, v := int(w.msg.Src), int(w.msg.Dst)
	r.outBusy[v] = false
	r.inBusy[u] = false
	if w.last {
		// Remaining path: switch output to destination NIC, plus the NIC's
		// receive operation. Arrive runs the end-to-end CRC/fault check; a
		// failed check retransmits the whole message from the source.
		r.eng.AfterArg(r.outputPipe+nic.RecvOverhead, "deliver", r.deliverFn, w.msg)
	}
	r.freeWorm(w)
	// Drain the blocked-output list through the reusable scratch buffer:
	// kickOutput may re-append to waitingOnInput[u] while we iterate.
	waiting := append(r.waitScratch[:0], r.waitingOnInput[u]...)
	r.waitScratch = waiting
	r.waitingOnInput[u] = r.waitingOnInput[u][:0]
	r.kickOutput(v)
	for _, wv := range waiting {
		r.kickOutput(wv)
	}
}

func (r *run) deliver(arg any) {
	r.driver.Arrive(arg.(*nic.Message))
}
