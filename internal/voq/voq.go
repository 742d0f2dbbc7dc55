// Package voq implements an input-queued cell switch with virtual output
// queues and iSLIP arbitration — the scheduler that became the standard for
// crossbar routers shortly after the paper's era (McKeown, "The iSLIP
// Scheduling Algorithm for Input-Queued Switches", 1999).
//
// This baseline is NOT part of the paper's evaluation; it is included so the
// predictive multiplexed switch can be judged against the design that
// actually won in packet switching. The contrast is instructive: iSLIP
// recomputes a maximal matching from scratch every cell time (paying
// per-cell arbitration but adapting instantly), while the TDM switch
// amortizes scheduling over cached connections (paying multiplexing dilution
// but nothing per message once a connection is cached).
//
// Model: time is slotted in cell times (the serialization time of one cell,
// 64 bytes = 80 ns at 6.4 Gb/s). Each cell time, the switch runs the
// three-phase iSLIP handshake (request, rotating-priority grant,
// rotating-priority accept; pointers advance only on first-iteration
// matches) over the VOQ occupancy, then matched inputs transfer one cell.
// Arbitration is pipelined one cell time ahead, as in the hardware, so it
// adds latency but not occupancy. The path to and from the digital switch
// costs the same serdes/wire/NIC delays as the wormhole baseline.
package voq

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

// Config parameterizes the iSLIP switch.
type Config struct {
	// N is the processor count.
	N int
	// CellBytes is the fixed cell payload; zero means 64 (one 80 ns cell
	// time at the paper's line rate).
	CellBytes int
	// Iterations is the number of iSLIP iterations per cell time; zero
	// means 1 (the classic single-iteration iSLIP).
	Iterations int
	// Link is the serial-link model; zero value means link.Paper().
	Link link.Model
	// Horizon bounds simulated time; zero means netmodel.DefaultHorizon.
	Horizon sim.Time
	// Faults, when non-nil and active, injects link failures and corrupted
	// cells per the plan; nil leaves the run bit-identical to a fault-free
	// one.
	Faults *fault.Plan
	// Probe, when non-nil, receives the run's observability event stream.
	Probe *probe.Probe
}

func (c Config) withDefaults() Config {
	if c.CellBytes == 0 {
		c.CellBytes = 64
	}
	if c.Iterations == 0 {
		c.Iterations = 1
	}
	if c.Link.BitsPerSecond == 0 {
		c.Link = link.Paper()
	}
	if c.Horizon == 0 {
		c.Horizon = netmodel.DefaultHorizon
	}
	return c
}

// Network is the iSLIP VOQ baseline.
type Network struct {
	cfg Config
}

// New builds an iSLIP switch.
func New(cfg Config) (*Network, error) {
	cfg = cfg.withDefaults()
	if cfg.N <= 1 {
		return nil, fmt.Errorf("voq: need at least 2 processors, got %d", cfg.N)
	}
	if cfg.CellBytes <= 0 {
		return nil, fmt.Errorf("voq: cell size %d must be positive", cfg.CellBytes)
	}
	if cfg.Iterations <= 0 {
		return nil, fmt.Errorf("voq: iterations %d must be positive", cfg.Iterations)
	}
	if err := cfg.Link.Validate(); err != nil {
		return nil, err
	}
	return &Network{cfg: cfg}, nil
}

// Name implements netmodel.Network.
func (n *Network) Name() string {
	if n.cfg.Iterations == 1 {
		return "voq-islip"
	}
	return fmt.Sprintf("voq-islip/i=%d", n.cfg.Iterations)
}

type run struct {
	cfg       Config
	eng       *sim.Engine
	driver    *netmodel.Driver
	grantPtr  []int
	acceptPtr []int
	ticker    *sim.Ticker
	cellTime  sim.Time
	// outPipe is the switch-to-destination latency plus NIC receive.
	outPipe sim.Time
	// deliveries hands each message whose last cell crossed the switch to
	// the driver one cell time plus outPipe after its cell slot began.
	deliveries *sim.Line[*nic.Message]
	stats      metrics.NetStats
	probe      *probe.Probe
}

// Run implements netmodel.Network.
func (n *Network) Run(wl *traffic.Workload) (metrics.Result, error) {
	eng := sim.NewEngine()
	lm := n.cfg.Link
	r := &run{
		cfg:       n.cfg,
		eng:       eng,
		grantPtr:  make([]int, n.cfg.N),
		acceptPtr: make([]int, n.cfg.N),
		cellTime:  lm.SerializationTime(n.cfg.CellBytes),
		outPipe:   lm.SerializeNs + lm.WireNs + lm.DeserializeNs + nic.RecvOverhead,
		probe:     n.cfg.Probe,
	}
	driver, err := netmodel.NewDriver(eng, lm, wl, netmodel.Hooks{
		OnIdle: func() { r.ticker.Stop() },
	})
	if err != nil {
		return metrics.Result{}, err
	}
	r.driver = driver
	r.deliveries = sim.NewLine(eng, r.cellTime+r.outPipe, "voq-deliver", driver.Arrive)
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
	r.ticker = eng.NewTicker(r.cellTime, "voq-cell", r.onCell)
	// The first cell slot starts after one input-pipe latency (cells must
	// reach the switch) plus one cell time of pipelined arbitration.
	r.ticker.StartAt(lm.PipeLatency() + r.cellTime)
	driver.Start()
	return driver.Finish(n.Name(), n.cfg.Horizon, r.stats)
}

// onCell runs one iSLIP arbitration and transfers the matched cells.
func (r *run) onCell() {
	// Only the workload's processors have NICs; a wider switch's extra
	// ports are idle and never request, so arbitration skips them.
	n := len(r.driver.Buffers)
	r.stats.SlotsTotal++
	netmodel.EmitSlotStart(r.probe, r.eng.Now(), 0, r.cellTime)
	if r.probe != nil {
		r.probe.Emit(probe.Event{Kind: probe.SchedPassBegin, At: r.eng.Now()})
	}
	matchIn := make([]int, n) // matchIn[i] = output matched to input i, or -1
	matchOut := make([]int, n)
	for i := 0; i < n; i++ {
		matchIn[i] = -1
		matchOut[i] = -1
	}

	for iter := 0; iter < r.cfg.Iterations; iter++ {
		// Grant phase: each unmatched output grants the first requesting
		// unmatched input at or after its grant pointer.
		grants := make([]int, n) // grants[i] collects one grant per output; index by output
		for j := 0; j < n; j++ {
			grants[j] = -1
			if matchOut[j] != -1 {
				continue
			}
			for step := 0; step < n; step++ {
				i := (r.grantPtr[j] + step) % n
				if matchIn[i] != -1 || i == j {
					continue
				}
				if r.driver.Buffers[i].HasFor(j) {
					grants[j] = i
					break
				}
			}
		}
		// Accept phase: each input accepts the granting output closest to
		// its accept pointer.
		accepted := false
		for i := 0; i < n; i++ {
			if matchIn[i] != -1 {
				continue
			}
			best := -1
			for step := 0; step < n; step++ {
				j := (r.acceptPtr[i] + step) % n
				if grants[j] == i {
					best = j
					break
				}
			}
			if best == -1 {
				continue
			}
			matchIn[i] = best
			matchOut[best] = i
			accepted = true
			if iter == 0 {
				// Pointers move only on first-iteration matches — the rule
				// that gives iSLIP its desynchronization and fairness.
				r.grantPtr[best] = (i + 1) % n
				r.acceptPtr[i] = (best + 1) % n
			}
		}
		if !accepted {
			break
		}
	}

	slotStart := r.eng.Now()
	if r.probe != nil {
		matches := 0
		for i := 0; i < n; i++ {
			if matchIn[i] != -1 {
				matches++
			}
		}
		r.probe.Emit(probe.Event{Kind: probe.SchedPassEnd, At: slotStart,
			Aux: int64(matches)})
	}
	used := false
	for i := 0; i < n; i++ {
		j := matchIn[i]
		if j == -1 {
			continue
		}
		var injected *nic.Message
		if r.probe != nil {
			injected = r.driver.HeadUntransmitted(i, j)
		}
		sent, done := r.driver.Buffers[i].TransmitTo(j, r.cfg.CellBytes)
		if sent == 0 {
			continue
		}
		used = true
		if injected != nil {
			r.probe.Emit(probe.Event{Kind: probe.MsgInjected, At: slotStart,
				Src: int32(i), Dst: int32(j), ID: int64(injected.ID)})
		}
		if done != nil {
			r.deliveries.Push(done)
		}
	}
	if used {
		r.stats.SlotsUsed++
	}
	netmodel.EmitSlotEnd(r.probe, slotStart, 0, used)
}
