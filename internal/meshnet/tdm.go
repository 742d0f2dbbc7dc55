package meshnet

import (
	"fmt"
	"math/bits"

	"pmsnet/internal/bitmat"
	"pmsnet/internal/core"
	"pmsnet/internal/fault"
	"pmsnet/internal/link"
	"pmsnet/internal/metrics"
	"pmsnet/internal/netmodel"
	"pmsnet/internal/nic"
	"pmsnet/internal/probe"
	"pmsnet/internal/sim"
	"pmsnet/internal/topology"
	"pmsnet/internal/traffic"
)

// TDMConfig parameterizes the multi-hop TDM circuit mesh.
type TDMConfig struct {
	// N is the processor count.
	N int
	// K is the multiplexing degree.
	K int
	// SlotNs is the TDM slot duration; zero means 100 ns.
	SlotNs sim.Time
	// PayloadBytes is the usable payload per slot; zero means 64.
	PayloadBytes int
	// Link is the serial-link model; zero value means link.Paper().
	Link link.Model
	// Horizon bounds simulated time; zero means netmodel.DefaultHorizon.
	Horizon sim.Time
	// Faults, when non-nil and active, injects link failures and corrupted
	// slots per the plan; nil leaves the run bit-identical to a fault-free
	// one.
	Faults *fault.Plan
	// Probe, when non-nil, receives the run's observability event stream.
	Probe *probe.Probe
	// SelfCheck checks every NIC buffer's queue bookkeeping after every
	// simulation event (the engine debug mode). Expensive; meant for tests.
	SelfCheck bool
}

func (c TDMConfig) withDefaults() TDMConfig {
	if c.K == 0 {
		c.K = 4
	}
	if c.SlotNs == 0 {
		c.SlotNs = 100
	}
	if c.PayloadBytes == 0 {
		c.PayloadBytes = 64
	}
	if c.Link.BitsPerSecond == 0 {
		c.Link = link.Paper()
	}
	if c.Horizon == 0 {
		c.Horizon = netmodel.DefaultHorizon
	}
	return c
}

// TDM is the multi-hop predictive multiplexed network: end-to-end circuits
// over XY paths through LVDS switches, time-multiplexed across K slots. A
// slot's configuration is a set of link-disjoint paths (the path
// generalization of the crossbar's partial permutation); the signal stays in
// the analog domain at every intermediate router, so the end-to-end pipe
// costs one serialization, 20 ns of wire per hop and one deserialization —
// no per-hop buffering or arbitration, the property the paper's conclusions
// highlight for multi-hop networks.
type TDM struct {
	cfg  TDMConfig
	grid Grid
}

// NewTDM builds the multi-hop TDM network.
func NewTDM(cfg TDMConfig) (*TDM, error) {
	cfg = cfg.withDefaults()
	grid, err := NewGrid(cfg.N)
	if err != nil {
		return nil, err
	}
	if cfg.K <= 0 {
		return nil, fmt.Errorf("meshnet: multiplexing degree K=%d must be positive", cfg.K)
	}
	if cfg.PayloadBytes <= 0 || cfg.Link.BytesInWindow(cfg.SlotNs) < cfg.PayloadBytes {
		return nil, fmt.Errorf("meshnet: payload %d B does not fit a %v slot", cfg.PayloadBytes, cfg.SlotNs)
	}
	if err := cfg.Link.Validate(); err != nil {
		return nil, err
	}
	return &TDM{cfg: cfg, grid: grid}, nil
}

// Name implements netmodel.Network.
func (t *TDM) Name() string { return fmt.Sprintf("mesh-tdm/k=%d", t.cfg.K) }

type tdmRun struct {
	common
	cfg TDMConfig
	// reqWire drives reqView, the delayed requests as a set over the run's
	// connection ids, as in the crossbar switch.
	reqWire *netmodel.RequestWire
	reqView *topology.IDSet
	// conns is the run's connection table: the circuits are its
	// connections, and the per-circuit state below is indexed by its ids.
	conns *topology.ConnTable
	// estab[s] holds the circuits established in slot s, a bitset over
	// connection ids, and circuits[s] their number; occupied[s] holds the
	// links they reserve, a bitset over link indices (Hop.index).
	estab    [][]uint64
	circuits []int
	occupied [][]uint64
	// slotOf is each connection's slot, or -1.
	slotOf []int32
	// paths[id] locates connection id's full path, as link indices, in
	// pathLinks; a path is computed on the connection's first request.
	paths     []span
	pathLinks []int32

	// deliveries[h] hands each delivered message of a circuit over h mesh
	// hops to its destination NIC: one line per hop count, since the
	// pipe's delay grows with the hops.
	deliveries []*sim.Line[*nic.Message]

	slCursor   int
	tdmCursor  int
	slotTicker *sim.Ticker
	slTicker   *sim.Ticker
	stats      metrics.NetStats

	probe *probe.Probe
}

// span is a run of n entries of a slice from off; n == 0 is no run yet.
type span struct{ off, n int32 }

// Run implements netmodel.Network.
func (t *TDM) Run(wl *traffic.Workload) (metrics.Result, error) {
	eng := sim.NewEngine()
	r := &tdmRun{
		common: common{grid: t.grid, tm: newTiming(t.cfg.Link, 5), eng: eng},
		cfg:    t.cfg,
		probe:  t.cfg.Probe,
	}
	driver, err := netmodel.NewDriver(eng, t.cfg.Link, wl, netmodel.Hooks{
		OnEnqueue: r.onEnqueue,
		OnIdle: func() {
			r.slotTicker.Stop()
			r.slTicker.Stop()
		},
	})
	if err != nil {
		return metrics.Result{}, err
	}
	r.driver, r.conns = driver, driver.Conns
	words := func(n int) []uint64 { return make([]uint64, (n+63)/64) }
	r.estab = make([][]uint64, t.cfg.K)
	r.occupied = make([][]uint64, t.cfg.K)
	for s := range r.estab {
		r.estab[s] = words(r.conns.Len())
		r.occupied[s] = words(t.cfg.N * links)
	}
	r.circuits = make([]int, t.cfg.K)
	r.slotOf = make([]int32, r.conns.Len())
	for i := range r.slotOf {
		r.slotOf[i] = -1
	}
	r.paths = make([]span, r.conns.Len())
	// A delivery waits out the slot, then the end-to-end analog pipe:
	// serialize once, one wire delay per mesh hop (the two NIC pseudo-hops
	// carry no extra wire), deserialize once, NIC receive.
	for h := 0; h <= t.grid.Mesh.Cols+t.grid.Mesh.Rows-2; h++ {
		pipe := t.cfg.Link.SerializeNs + sim.Time(h)*r.tm.hopWire + t.cfg.Link.DeserializeNs + nic.RecvOverhead
		r.deliveries = append(r.deliveries, sim.NewLine(eng, t.cfg.SlotNs+pipe, "mesh-tdm-deliver", driver.Arrive))
	}
	r.reqWire = netmodel.NewRequestWire(eng, r.conns, t.cfg.Link.ControlDelay(), "mesh-request-wire")
	r.reqView = r.reqWire.View()
	if t.cfg.Probe != nil {
		driver.SetProbe(t.cfg.Probe)
	}
	if t.cfg.SelfCheck {
		eng.SetInvariantCheck(driver.CheckBuffers)
	}
	inj, err := fault.NewInjector(t.cfg.Faults, eng, t.cfg.N)
	if err != nil {
		return metrics.Result{}, err
	}
	if inj != nil {
		inj.SetProbe(t.cfg.Probe)
		driver.AttachFaults(inj)
		inj.Start()
	}
	r.slotTicker = eng.NewTicker(t.cfg.SlotNs, "mesh-slot", r.onSlot)
	r.slotTicker.StartAt(0)
	// The central path scheduler runs at the crossbar scheduler's cadence
	// for the same port count.
	r.slTicker = eng.NewTicker(core.ASICLatency(t.cfg.N), "mesh-sl", r.onPass)
	r.slTicker.Start()
	driver.Start()
	return driver.Finish(t.Name(), t.cfg.Horizon, r.stats)
}

func (r *tdmRun) onEnqueue(m *nic.Message, id int32, first bool) {
	if first {
		// The queue's 0→1 transition.
		if r.slotOf[id] >= 0 {
			r.stats.Hits++
		} else {
			r.stats.Misses++
		}
		r.reqWire.Set(int(m.Src), id, true)
	} else {
		r.stats.Hits++
	}
}

// onPass is one scheduling pass: release circuits whose requests dropped
// from the cursor slot, then establish pending requests whose whole XY path
// is free in that slot. Both walk connection ids in ascending order, which
// is (src, dst) order: the hardware's row-major scan.
func (r *tdmRun) onPass() {
	r.stats.SchedulerPasses++
	var passAt sim.Time
	var est, rel int64
	if r.probe != nil {
		passAt = r.eng.Now()
		r.probe.Emit(probe.Event{Kind: probe.SchedPassBegin, At: passAt})
	}
	s := r.slCursor
	r.slCursor = (r.slCursor + 1) % r.cfg.K

	estab, occupied, req := r.estab[s], r.occupied[s], r.reqView.IDs()
	for w, x := range estab {
		for x &^= req[w]; x != 0; x &= x - 1 {
			id := int32(w<<6 | bits.TrailingZeros64(x))
			for _, l := range r.path(id) {
				bitmat.MaskClear(occupied, int(l))
			}
			bitmat.MaskClear(estab, int(id))
			r.slotOf[id] = -1
			r.circuits[s]--
			r.stats.Released++
			if r.probe != nil {
				rel++
				c := r.conns.Conn(id)
				r.probe.Emit(probe.Event{Kind: probe.ConnReleased, At: passAt,
					Src: int32(c.Src), Dst: int32(c.Dst), Slot: int32(s)})
			}
		}
	}
	end := int32(r.conns.Len())
	for id := r.reqView.Next(0, end); id < end; id = r.reqView.Next(id+1, end) {
		if r.slotOf[id] >= 0 {
			continue
		}
		path := r.path(id)
		free := true
		for _, l := range path {
			if bitmat.MaskTest(occupied, int(l)) {
				free = false
				break
			}
		}
		if !free {
			continue
		}
		for _, l := range path {
			bitmat.MaskSet(occupied, int(l))
		}
		bitmat.MaskSet(estab, int(id))
		r.slotOf[id] = int32(s)
		r.circuits[s]++
		r.stats.Established++
		if r.probe != nil {
			est++
			c := r.conns.Conn(id)
			r.probe.Emit(probe.Event{Kind: probe.ConnEstablished, At: passAt,
				Src: int32(c.Src), Dst: int32(c.Dst), Slot: int32(s)})
		}
	}
	if r.probe != nil {
		r.probe.Emit(probe.Event{Kind: probe.SchedPassEnd, At: passAt, Aux: est, ID: rel})
	}
}

// path returns connection id's full path as link indices, computing it on
// the first call.
func (r *tdmRun) path(id int32) []int32 {
	p := r.paths[id]
	if p.n == 0 {
		c := r.conns.Conn(id)
		p.off = int32(len(r.pathLinks))
		r.pathLinks = r.grid.appendFullPath(r.pathLinks, c.Src, c.Dst)
		p.n = int32(len(r.pathLinks)) - p.off
		r.paths[id] = p
	}
	return r.pathLinks[p.off : p.off+p.n]
}

// onSlot advances the TDM counter (skipping empty slots) and lets every
// circuit of the selected slot carry one payload, in connection id order.
func (r *tdmRun) onSlot() {
	r.stats.SlotsTotal++
	s := -1
	for tried := 0; tried < r.cfg.K; tried++ {
		cand := r.tdmCursor
		r.tdmCursor = (r.tdmCursor + 1) % r.cfg.K
		if r.circuits[cand] > 0 {
			s = cand
			break
		}
	}
	netmodel.EmitSlotStart(r.probe, r.eng.Now(), int32(s), r.cfg.SlotNs)
	if s < 0 {
		netmodel.EmitSlotEnd(r.probe, r.eng.Now(), -1, false)
		return
	}
	slotStart := r.eng.Now()
	used := false
	src := -1 // a row cursor: the ids ascend
	for w, x := range r.estab[s] {
		for ; x != 0; x &= x - 1 {
			id := int32(w<<6 | bits.TrailingZeros64(x))
			src = r.conns.SrcFrom(src, id)
			buf := r.driver.Buffers[src]
			var injected *nic.Message
			if r.probe != nil {
				if h := buf.HeadOf(id); h != nil && h.Remaining() == int(h.Bytes) {
					injected = h
				}
			}
			sent, done, drained := buf.Transmit(id, r.cfg.PayloadBytes)
			if sent == 0 {
				continue
			}
			used = true
			if injected != nil {
				r.probe.Emit(probe.Event{Kind: probe.MsgInjected, At: slotStart,
					Src: int32(src), Dst: int32(r.conns.Dst(id)), ID: int64(injected.ID)})
			}
			if done == nil {
				continue
			}
			if r.probe != nil {
				if h := buf.HeadOf(id); h != nil {
					r.probe.Emit(probe.Event{Kind: probe.MsgHeadOfQueue, At: slotStart,
						Src: h.Src, Dst: h.Dst, ID: int64(h.ID)})
				}
			}
			if drained {
				r.reqWire.Set(src, id, false)
			}
			r.deliveries[r.paths[id].n-2].Push(done)
		}
	}
	if used {
		r.stats.SlotsUsed++
	}
	netmodel.EmitSlotEnd(r.probe, slotStart, int32(s), used)
}
