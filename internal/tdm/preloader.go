package tdm

import (
	"fmt"
	"math"
	"slices"

	"pmsnet/internal/bitmat"
	"pmsnet/internal/plan"
	"pmsnet/internal/probe"
	"pmsnet/internal/topology"
	"pmsnet/internal/traffic"
)

// preloader is the compiled-communication controller (paper §3.1, §4
// extension 5). It decomposes each statically-known phase into conflict-free
// configurations (an exact bipartite edge coloring), chunks them into groups
// that fit the pinned slots, and swaps the loaded group when the traffic it
// serves has drained while other static traffic is still waiting.
//
// Group swaps are free of fabric time: the scheduler writes the
// configuration registers during the data phase of the preceding slot, and
// the new group takes effect at the next slot boundary.
type preloader struct {
	r     *run
	slots int
	// groups holds the configuration groups in phase order.
	groups [][]*bitmat.Matrix
	// groupsOf maps a connection's Conn.Key to every group containing it,
	// in group order. All lists share one backing array (indexGroups).
	groupsOf map[uint64][]int32
	// pendingInGroup counts pending connections per group;
	// pendingStatic counts pending connections covered by any group.
	pendingInGroup []int
	pendingStatic  int
	cur            int
	// slotsSinceLoad counts slot boundaries since the current group was
	// loaded; a group keeps the fabric for at least one full TDM cycle.
	slotsSinceLoad int
}

// newPreloader builds the controller and pins the first group. The workload
// must carry static phases; in pure Preload mode every connection of the
// workload must be covered by them (otherwise uncovered traffic would never
// be granted a slot).
func newPreloader(r *run, wl *traffic.Workload, slots int) (*preloader, error) {
	if len(wl.StaticPhases) == 0 {
		return nil, fmt.Errorf("tdm: %s mode needs static phases in the workload", r.cfg.Mode)
	}
	p := &preloader{r: r, slots: slots}
	if r.probe != nil {
		r.probe.Emit(probe.Event{Kind: probe.PlanBegin, At: r.eng.Now()})
	}
	if err := p.buildGroups(wl); err != nil {
		return nil, err
	}
	if r.probe != nil {
		r.probe.Emit(probe.Event{Kind: probe.PlanEnd, At: r.eng.Now(), Aux: int64(len(p.groups))})
	}
	p.indexGroups()
	p.pendingInGroup = make([]int, len(p.groups))

	if r.cfg.Mode == Preload {
		// Every connection the programs use must be statically covered.
		for _, c := range wl.ConnSet().Conns() {
			if len(p.groupsOf[c.Key()]) == 0 {
				return nil, fmt.Errorf("tdm: preload mode cannot serve %v: not in any static phase", c)
			}
		}
	}
	if err := p.load(0); err != nil {
		return nil, err
	}
	return p, nil
}

// buildGroups fills p.groups in phase order, through the configured planner
// or, without one, by chunking each phase's fabric decomposition into groups
// of p.slots configurations.
func (p *preloader) buildGroups(wl *traffic.Workload) error {
	if p.r.cfg.Planner != nil {
		return p.planPhases(wl)
	}
	for _, phase := range wl.StaticPhases {
		configs, err := p.r.fab.Decompose(phase)
		if err != nil {
			return fmt.Errorf("tdm: %w", err)
		}
		for start := 0; start < len(configs); start += p.slots {
			end := min(start+p.slots, len(configs))
			p.groups = append(p.groups, configs[start:end])
		}
	}
	return nil
}

// indexGroups builds groupsOf once every group exists. A planned
// configuration can occupy several of the group's slot registers (register
// shares), and a connection can sit in several of a group's configurations,
// so each group's configurations are first merged into one union matrix:
// membership is recorded once per (connection, group) and the pending
// accounting weighs each group by distinct waiting connections. A counting
// pass sizes the map and one backing array that every list is cut from.
func (p *preloader) indexGroups() {
	union := bitmat.NewSquare(p.r.cfg.N)
	members := func(fn func(key uint64, g int32)) {
		for gi, group := range p.groups {
			union.Reset()
			for _, cfg := range group {
				union.Or(cfg)
			}
			union.Ones(func(u, v int) bool {
				fn(topology.Conn{Src: u, Dst: v}.Key(), int32(gi))
				return true
			})
		}
	}
	counts := make(map[uint64]int32)
	total := 0
	members(func(key uint64, _ int32) {
		counts[key]++
		total++
	})
	backing := make([]int32, total)
	p.groupsOf = make(map[uint64][]int32, len(counts))
	off := 0
	for key, n := range counts {
		p.groupsOf[key] = backing[off : off : off+int(n)]
		off += int(n)
	}
	members(func(key uint64, g int32) {
		p.groupsOf[key] = append(p.groupsOf[key], g)
	})
}

// planPhases builds the groups through the configured planner instead of the
// hand-written decomposition: each static phase's demand (program bytes per
// connection, restricted to the phase's working set) is planned into
// configuration groups with register shares, charging group swaps at the
// control plane's reconfiguration delay in slot units. Residual demand the
// plan spilled is simply left out of the groups — it rides the dynamic slots
// like any unpinned traffic.
func (p *preloader) planPhases(wl *traffic.Workload) error {
	cfg := p.r.cfg
	demand := plan.FromWorkload(wl, cfg.PayloadBytes)
	opts := plan.Options{
		ReconfigSlots: float64(cfg.Link.ControlDelay()) / float64(cfg.SlotNs),
		CoverAll:      cfg.Mode == Preload,
		Decompose:     p.r.fab.Decompose,
	}
	if !p.r.fab.Rearrangeable() {
		opts.CanRealize = p.r.fab.CanRealize
	}
	for _, phase := range wl.StaticPhases {
		sched, err := cfg.Planner.Plan(demand.Restrict(phase), cfg.K, p.slots, opts)
		if err != nil {
			return fmt.Errorf("tdm: %s planner: %w", cfg.Planner.Name(), err)
		}
		p.groups = append(p.groups, sched.Configs()...)
		p.r.stats.PlanConfigs += uint64(sched.NumConfigs())
		p.r.stats.PlanGroups += uint64(len(sched.Groups))
		p.r.stats.PlanResidualConns += uint64(sched.Residual.Conns())
		p.r.stats.PlanDrainSlots += uint64(math.Ceil(sched.DrainSlots))
	}
	p.r.stats.Planner = cfg.Planner.Name()
	return nil
}

// load pins group gi into the managed slots; slots beyond the group's size
// are pinned empty.
func (p *preloader) load(gi int) error {
	p.cur = gi
	p.slotsSinceLoad = 0
	group := p.groups[gi]
	for i := 0; i < p.slots; i++ {
		cfg := bitmat.NewSquare(p.r.cfg.N)
		if i < len(group) {
			cfg = group[i]
		}
		if err := p.r.sched.LoadConfig(i, cfg, true); err != nil {
			return fmt.Errorf("tdm: preloader produced invalid configuration for slot %d of group %d: %w", i, gi, err)
		}
	}
	p.r.stats.Preloads++
	if p.r.probe != nil {
		pinned := len(group)
		if pinned > p.slots {
			pinned = p.slots
		}
		p.r.probe.Emit(probe.Event{Kind: probe.Preload, At: p.r.eng.Now(),
			Slot: int32(gi), Aux: int64(pinned)})
	}
	return nil
}

// pendingUp records that connection c now has traffic queued.
func (p *preloader) pendingUp(c topology.Conn) {
	gs := p.groupsOf[c.Key()]
	for _, g := range gs {
		p.pendingInGroup[g]++
	}
	if len(gs) > 0 {
		p.pendingStatic++
	}
}

// pendingDown records that connection c's queue drained.
func (p *preloader) pendingDown(c topology.Conn) {
	gs := p.groupsOf[c.Key()]
	for _, g := range gs {
		p.pendingInGroup[g]--
	}
	if len(gs) > 0 {
		p.pendingStatic--
	}
}

// checkPending recounts the pending counts from the NIC buffers: a
// connection is pending while its queue is non-empty.
func (p *preloader) checkPending() error {
	inGroup := make([]int, len(p.groups))
	static := 0
	for key, gs := range p.groupsOf {
		c := topology.ConnOfKey(key)
		if len(gs) == 0 || !p.r.driver.Buffers[c.Src].HasFor(c.Dst) {
			continue
		}
		for _, g := range gs {
			inGroup[g]++
		}
		static++
	}
	if static != p.pendingStatic {
		return fmt.Errorf("tdm: preloader counts %d pending connections, buffers hold %d", p.pendingStatic, static)
	}
	for g, n := range inGroup {
		if n != p.pendingInGroup[g] {
			return fmt.Errorf("tdm: preloader counts %d pending connections in group %d, buffers hold %d",
				p.pendingInGroup[g], g, n)
		}
	}
	return nil
}

// maybeAdvance swaps the loaded group when another group serves
// substantially more pending traffic than the current one. The 2x hysteresis
// keeps the controller from thrashing between comparably-loaded groups
// (every swap costs a slot); a drained current group (zero pending) always
// loses to any group with work. Candidates are scanned cyclically from the
// current group so equally-loaded groups are served round-robin.
//
// It reports whether a swap happened.
func (p *preloader) maybeAdvance() bool {
	p.slotsSinceLoad++
	if len(p.groups) < 2 || p.pendingStatic == 0 {
		return false
	}
	cur := p.pendingInGroup[p.cur]
	// Minimum residence: a fully drained group is abandoned immediately,
	// but a group that still has traffic keeps the fabric for at least one
	// whole TDM cycle, so every configuration in it gets at least one slot
	// before a swap decision is made.
	if cur > 0 && p.slotsSinceLoad < p.slots {
		return false
	}
	best, bestIdx := cur, p.cur
	for step := 1; step < len(p.groups); step++ {
		g := (p.cur + step) % len(p.groups)
		if p.pendingInGroup[g] > best {
			best, bestIdx = p.pendingInGroup[g], g
		}
	}
	if bestIdx == p.cur || best <= 2*cur {
		return false
	}
	if err := p.load(bestIdx); err != nil {
		p.r.fail(err)
		return false
	}
	return true
}

// breakConn invalidates every preloaded configuration entry carrying
// connection c after a fault (dead crosspoint or failed endpoint link). The
// entry is removed from its group matrices for the rest of the run — the
// compiled schedule is not revalidated at run time, so a repaired link does
// not restore it — and the currently loaded group is re-pinned if it was
// affected. From here on c's traffic is served only by dynamic slots. It
// reports whether any preloaded entry was broken.
func (p *preloader) breakConn(c topology.Conn) bool {
	gs := p.groupsOf[c.Key()]
	if len(gs) == 0 {
		return false
	}
	if p.r.driver.Buffers[c.Src].HasFor(c.Dst) {
		// Retire c's pending contribution while its group membership still
		// exists; the eventual real pendingDown will then be a no-op.
		p.pendingDown(c)
	}
	delete(p.groupsOf, c.Key())
	reload := false
	for _, g := range gs {
		for _, cfg := range p.groups[g] {
			if cfg.Get(c.Src, c.Dst) {
				cfg.Clear(c.Src, c.Dst)
			}
		}
		if int(g) == p.cur {
			reload = true
		}
	}
	if reload && p.slots > 0 {
		if err := p.load(p.cur); err != nil {
			p.r.fail(err)
		}
	}
	return true
}

// breakPort invalidates every preloaded entry whose connection uses port and
// returns how many were broken.
func (p *preloader) breakPort(port int) int {
	var broken []uint64
	for key := range p.groupsOf {
		if c := topology.ConnOfKey(key); c.Src == port || c.Dst == port {
			broken = append(broken, key)
		}
	}
	// Map iteration order is random; sort so the run stays deterministic.
	// Src sits in the key's high bits, so key order is (Src, Dst) order.
	slices.Sort(broken)
	for _, key := range broken {
		p.breakConn(topology.ConnOfKey(key))
	}
	return len(broken)
}

// releaseSlot hands the highest managed slot back to the dynamic scheduler:
// the slot is cleared and unpinned, shrinking the preloaded region by one.
// This is the graceful-degradation move for pure Preload mode, where no
// dynamic slot exists until a fault makes one necessary. It reports whether
// a slot was released.
func (p *preloader) releaseSlot() bool {
	if p.slots == 0 {
		return false
	}
	p.slots--
	if err := p.r.sched.LoadConfig(p.slots, bitmat.NewSquare(p.r.cfg.N), false); err != nil {
		p.r.fail(err)
		return false
	}
	return true
}
