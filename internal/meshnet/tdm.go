package meshnet

import (
	"cmp"
	"fmt"
	"slices"

	"pmsnet/internal/bitmat"
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

// pathConn is one established end-to-end circuit.
type pathConn struct {
	src, dst int
	path     []Hop
}

type tdmRun struct {
	common
	cfg TDMConfig
	// reqWire drives reqView, the delayed request matrix, as in the
	// crossbar switch.
	reqWire *netmodel.RequestWire
	reqView *bitmat.Matrix
	// occupied[s] holds the links reserved in slot s; estab[s] the circuits.
	occupied []map[Hop]bool
	estab    []map[[2]int]*pathConn
	// slotOf maps a connection to its slot, or -1.
	slotOf map[[2]int]int

	slCursor   int
	tdmCursor  int
	slotTicker *sim.Ticker
	slTicker   *sim.Ticker
	stats      metrics.NetStats

	// Reusable scratch for the per-pass and per-slot scans.
	connBuf [][2]int
	rowBuf  []int

	probe *probe.Probe
}

// Run implements netmodel.Network.
func (t *TDM) Run(wl *traffic.Workload) (metrics.Result, error) {
	eng := sim.NewEngine()
	reqWire := netmodel.NewRequestWire(eng, t.cfg.N, t.cfg.Link.ControlDelay(), "mesh-request-wire")
	r := &tdmRun{
		common:   common{grid: t.grid, tm: newTiming(t.cfg.Link, 5), eng: eng},
		cfg:      t.cfg,
		reqWire:  reqWire,
		reqView:  reqWire.View(),
		occupied: make([]map[Hop]bool, t.cfg.K),
		estab:    make([]map[[2]int]*pathConn, t.cfg.K),
		slotOf:   make(map[[2]int]int),
		probe:    t.cfg.Probe,
	}
	for s := 0; s < t.cfg.K; s++ {
		r.occupied[s] = make(map[Hop]bool)
		r.estab[s] = make(map[[2]int]*pathConn)
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
	r.driver = driver
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

func (r *tdmRun) onEnqueue(m *nic.Message, _ int32, first bool) {
	u, v := int(m.Src), int(m.Dst)
	if first {
		// The queue's 0→1 transition.
		if _, ok := r.slotOf[[2]int{u, v}]; ok {
			r.stats.Hits++
		} else {
			r.stats.Misses++
		}
		r.reqWire.Set(u, v, true)
	} else {
		r.stats.Hits++
	}
}

// onPass is one scheduling pass: release circuits whose requests dropped
// from the cursor slot, then establish pending requests whose whole XY path
// is free in that slot.
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

	// Releases, in deterministic connection order.
	r.connBuf = appendSortedConns(r.connBuf[:0], r.estab[s])
	for _, key := range r.connBuf {
		pc := r.estab[s][key]
		if !r.reqView.Get(pc.src, pc.dst) {
			for _, h := range pc.path {
				delete(r.occupied[s], h)
			}
			delete(r.estab[s], key)
			delete(r.slotOf, key)
			r.stats.Released++
			if r.probe != nil {
				rel++
				r.probe.Emit(probe.Event{Kind: probe.ConnReleased, At: passAt,
					Src: int32(pc.src), Dst: int32(pc.dst), Slot: int32(s)})
			}
		}
	}
	// Establishments: scan requests in row-major order (the hardware scan),
	// word-level through a reusable column buffer.
	for u := 0; u < r.cfg.N; u++ {
		r.rowBuf = r.reqView.AppendRowOnes(r.rowBuf[:0], u)
		for _, v := range r.rowBuf {
			key := [2]int{u, v}
			if _, ok := r.slotOf[key]; ok {
				continue
			}
			path := r.grid.FullPath(u, v)
			free := true
			for _, h := range path {
				if r.occupied[s][h] {
					free = false
					break
				}
			}
			if !free {
				continue
			}
			for _, h := range path {
				r.occupied[s][h] = true
			}
			pc := &pathConn{src: u, dst: v, path: path}
			r.estab[s][key] = pc
			r.slotOf[key] = s
			r.stats.Established++
			if r.probe != nil {
				est++
				r.probe.Emit(probe.Event{Kind: probe.ConnEstablished, At: passAt,
					Src: int32(u), Dst: int32(v), Slot: int32(s)})
			}
		}
	}
	if r.probe != nil {
		r.probe.Emit(probe.Event{Kind: probe.SchedPassEnd, At: passAt, Aux: est, ID: rel})
	}
}

// onSlot advances the TDM counter (skipping empty slots) and lets every
// circuit of the selected slot carry one payload.
func (r *tdmRun) onSlot() {
	r.stats.SlotsTotal++
	s := -1
	for tried := 0; tried < r.cfg.K; tried++ {
		cand := r.tdmCursor
		r.tdmCursor = (r.tdmCursor + 1) % r.cfg.K
		if len(r.estab[cand]) > 0 {
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
	r.connBuf = appendSortedConns(r.connBuf[:0], r.estab[s])
	for _, key := range r.connBuf {
		pc := r.estab[s][key]
		var injected *nic.Message
		if r.probe != nil {
			injected = r.driver.HeadUntransmitted(pc.src, pc.dst)
		}
		sent, done := r.driver.Buffers[pc.src].TransmitTo(pc.dst, r.cfg.PayloadBytes)
		if sent == 0 {
			continue
		}
		used = true
		if injected != nil {
			r.probe.Emit(probe.Event{Kind: probe.MsgInjected, At: slotStart,
				Src: int32(pc.src), Dst: int32(pc.dst), ID: int64(injected.ID)})
		}
		if done != nil {
			if r.probe != nil {
				if h := r.driver.Buffers[pc.src].Head(pc.dst); h != nil {
					r.probe.Emit(probe.Event{Kind: probe.MsgHeadOfQueue, At: slotStart,
						Src: h.Src, Dst: h.Dst, ID: int64(h.ID)})
				}
			}
			if !r.driver.Buffers[pc.src].HasFor(pc.dst) {
				r.reqWire.Set(pc.src, pc.dst, false)
			}
			// End-to-end analog pipe: serialize once, one wire delay per
			// mesh hop (the two NIC pseudo-hops carry no extra wire),
			// deserialize once, NIC receive.
			meshHops := len(pc.path) - 2
			pipe := r.cfg.Link.SerializeNs +
				sim.Time(meshHops)*r.tm.hopWire +
				r.cfg.Link.DeserializeNs + nic.RecvOverhead
			m := done
			r.eng.At(slotStart+r.cfg.SlotNs+pipe, "mesh-tdm-deliver", func() {
				r.driver.Arrive(m)
			})
		}
	}
	if used {
		r.stats.SlotsUsed++
	}
	netmodel.EmitSlotEnd(r.probe, slotStart, int32(s), used)
}

// appendSortedConns appends the map's connection keys to dst in (src, dst)
// order so every pass and slot iterates deterministically; callers pass a
// reusable buffer to keep the per-tick scans allocation-free.
func appendSortedConns(dst [][2]int, m map[[2]int]*pathConn) [][2]int {
	dst = dst[:0]
	for k := range m {
		dst = append(dst, k)
	}
	slices.SortFunc(dst, func(a, b [2]int) int {
		if c := cmp.Compare(a[0], b[0]); c != 0 {
			return c
		}
		return cmp.Compare(a[1], b[1])
	})
	return dst
}
