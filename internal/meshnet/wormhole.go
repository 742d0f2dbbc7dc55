package meshnet

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
	"pmsnet/internal/wormhole"
)

// WormholeConfig parameterizes the multi-hop wormhole mesh.
type WormholeConfig struct {
	// N is the processor count (one router per processor).
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

func (c WormholeConfig) withDefaults() WormholeConfig {
	if c.Link.BitsPerSecond == 0 {
		c.Link = link.Paper()
	}
	if c.Horizon == 0 {
		c.Horizon = netmodel.DefaultHorizon
	}
	return c
}

// Wormhole is the multi-hop baseline: virtual cut-through wormhole on a 2-D
// router mesh with XY routing. Every hop deserializes the worm, arbitrates
// the 5-port router (Table 3 latency model scaled to the port count),
// switches and reserializes — the per-hop digital cost the paper's
// connection-oriented approach avoids.
type Wormhole struct {
	cfg  WormholeConfig
	grid Grid
}

// NewWormhole builds the mesh wormhole network.
func NewWormhole(cfg WormholeConfig) (*Wormhole, error) {
	cfg = cfg.withDefaults()
	grid, err := NewGrid(cfg.N)
	if err != nil {
		return nil, err
	}
	if err := cfg.Link.Validate(); err != nil {
		return nil, err
	}
	return &Wormhole{cfg: cfg, grid: grid}, nil
}

// Name implements netmodel.Network.
func (w *Wormhole) Name() string { return "mesh-wormhole" }

type meshWorm struct {
	bytes   int
	msg     *nic.Message
	last    bool
	path    []Hop
	hop     int
	onStart func() // fires when the worm is granted its first mesh link
}

type wormholeRun struct {
	common
	cfg WormholeConfig
	// busy and waiting model each directed mesh link as a FIFO resource,
	// indexed by Hop.index.
	busy    []bool
	waiting [][]*meshWorm
	// ports serializes each source's transmit process.
	ports *netmodel.PortEngine
	// flit transfer time for one hop's stream (per flit, at link rate).
	flitNs sim.Time

	probe *probe.Probe
}

// Run implements netmodel.Network.
func (w *Wormhole) Run(wl *traffic.Workload) (metrics.Result, error) {
	eng := sim.NewEngine()
	r := &wormholeRun{
		common: common{
			grid: w.grid,
			tm:   newTiming(w.cfg.Link, 5),
			eng:  eng,
		},
		cfg:     w.cfg,
		busy:    make([]bool, w.cfg.N*links),
		waiting: make([][]*meshWorm, w.cfg.N*links),
		flitNs:  w.cfg.Link.SerializationTime(wormhole.FlitBytes),
		probe:   w.cfg.Probe,
	}
	driver, err := netmodel.NewDriver(eng, w.cfg.Link, wl, netmodel.Hooks{
		OnEnqueue: func(m *nic.Message, _ int32, _ bool) { r.ports.Kick(int(m.Src)) },
	})
	if err != nil {
		return metrics.Result{}, err
	}
	r.driver = driver
	r.ports = netmodel.NewPortEngine(driver, w.cfg.N, r.startMessage)
	if w.cfg.Probe != nil {
		driver.SetProbe(w.cfg.Probe)
	}
	inj, err := fault.NewInjector(w.cfg.Faults, eng, w.cfg.N)
	if err != nil {
		return metrics.Result{}, err
	}
	if inj != nil {
		inj.SetProbe(w.cfg.Probe)
		driver.AttachFaults(inj)
		inj.Start()
	}
	driver.Start()
	return driver.Finish(w.Name(), w.cfg.Horizon, metrics.NetStats{})
}

// startMessage segments a freshly popped message into worms; the port
// engine serializes calls per source.
func (r *wormholeRun) startMessage(s int, m *nic.Message) {
	r.sendWorm(s, m, splitWorms(int(m.Bytes)), 0)
}

func splitWorms(bytes int) []int {
	var out []int
	for bytes > 0 {
		w := bytes
		if w > wormhole.MaxWormBytes {
			w = wormhole.MaxWormBytes
		}
		out = append(out, w)
		bytes -= w
	}
	return out
}

// sendWorm injects worm i of a message: the head reaches the source router
// after the NIC-to-router pipe, then traverses the XY path hop by hop. The
// source starts the next worm when the current one has both fully left the
// source link and been granted its first mesh link.
func (r *wormholeRun) sendWorm(s int, m *nic.Message, worms []int, i int) {
	if i == 0 && r.probe != nil {
		r.probe.Emit(probe.Event{Kind: probe.MsgInjected, At: r.eng.Now(),
			Src: m.Src, Dst: m.Dst, ID: int64(m.ID)})
	}
	bytes := worms[i]
	serDone := r.eng.Now() + r.cfg.Link.SerializationTime(bytes)
	headAtRouter := r.eng.Now() + r.cfg.Link.PipeLatency()

	// The worm's resource path ends with the destination's ejection link,
	// which serializes concurrent arrivals from different mesh directions.
	path := append(r.grid.Path(int(m.Src), int(m.Dst)), Hop{From: int(m.Dst), Dir: DirEject})
	pending := 2
	var readyAt sim.Time
	conditionMet := func() {
		if now := r.eng.Now(); now > readyAt {
			readyAt = now
		}
		pending--
		if pending == 0 {
			r.eng.At(readyAt, "mesh-worm-next", func() {
				if i+1 < len(worms) {
					r.sendWorm(s, m, worms, i+1)
				} else {
					r.ports.Next(s)
				}
			})
		}
	}
	w := &meshWorm{
		bytes: bytes, msg: m, last: i == len(worms)-1,
		path: path, onStart: conditionMet,
	}
	r.eng.At(serDone, "mesh-worm-serialized", conditionMet)
	r.eng.At(headAtRouter, "mesh-worm-at-router", func() { r.requestHop(w) })
}

// requestHop queues the worm for its current hop's link.
func (r *wormholeRun) requestHop(w *meshWorm) {
	if w.hop >= len(w.path) {
		panic(fmt.Sprintf("meshnet: worm for %d->%d ran out of path", w.msg.Src, w.msg.Dst))
	}
	h := w.path[w.hop]
	i := h.index()
	r.waiting[i] = append(r.waiting[i], w)
	r.kickLink(h, i)
}

// kickLink grants link h, whose index is i, to the next waiting worm.
func (r *wormholeRun) kickLink(h Hop, i int32) {
	if r.busy[i] || len(r.waiting[i]) == 0 {
		return
	}
	w := r.waiting[i][0]
	r.waiting[i] = r.waiting[i][1:]
	r.busy[i] = true
	if w.hop == 0 {
		w.onStart()
	}
	flits := (w.bytes + wormhole.FlitBytes - 1) / wormhole.FlitBytes
	stream := sim.Time(flits) * r.flitNs

	if h.Dir == DirEject {
		// The router-to-NIC link: no arbitration, just the serialized
		// drain, then the pipe to the NIC and its receive overhead.
		r.eng.After(stream, "mesh-eject-free", func() {
			r.busy[i] = false
			r.kickLink(h, i)
		})
		r.eng.After(stream+r.cfg.Link.PipeLatency()+nic.RecvOverhead, "mesh-deliver", func() {
			if w.last {
				r.driver.Arrive(w.msg)
			}
		})
		return
	}

	// A mesh link streams the worm after the router's arbitration; the head
	// reaches the next router after arbitration, one switch traversal, and
	// the reserialize/wire/deserialize pipe.
	occupancy := r.tm.routerArb + stream
	headNext := r.tm.routerArb + 10 + r.cfg.Link.PipeLatency()
	r.eng.After(occupancy, "mesh-link-free", func() {
		r.busy[i] = false
		r.kickLink(h, i)
	})
	r.eng.After(headNext, "mesh-worm-advance", func() {
		w.hop++
		if w.hop >= len(w.path) {
			panic("meshnet: worm advanced past its ejection hop")
		}
		r.requestHop(w)
	})
}
