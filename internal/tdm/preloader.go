package tdm

import (
	"fmt"
	"math"

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
	// groups holds the configuration groups in phase order, each
	// configuration a port map over the switch's ports.
	groups [][][]int32
	// groupStart and groupList list the groups holding each connection of
	// the run's table, in group order: connection id's groups are
	// groupList[groupStart[id]:groupStart[id+1]] (indexGroups). broken is a
	// bitset over ids that breakConn sets to empty a connection's list; nil
	// until a fault breaks one.
	groupStart []int32
	groupList  []int32
	broken     []uint64
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
	if err := p.buildGroups(wl); err != nil {
		return nil, err
	}
	if !r.fab.Rearrangeable() {
		// Every configuration is checked once, here: the slots it is pinned
		// into later carry it as it is.
		for gi, group := range p.groups {
			for i, cfg := range group {
				if !r.fab.CanRealize(cfg) {
					return nil, fmt.Errorf("tdm: configuration %d of preload group %d is not realizable on the %v fabric",
						i, gi, r.cfg.Fabric)
				}
			}
		}
	}
	if err := p.indexGroups(); err != nil {
		return nil, err
	}
	p.pendingInGroup = make([]int, len(p.groups))

	if r.cfg.Mode == Preload {
		// Every connection the programs use must be statically covered.
		if c, ok := p.firstUncovered(r.driver.SendIDs()); ok {
			return nil, fmt.Errorf("tdm: preload mode cannot serve %v: not in any static phase", c)
		}
	}
	if r.probe != nil {
		r.probe.Emit(probe.Event{Kind: probe.Plan, At: r.eng.Now(), Aux: int64(len(p.groups))})
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
	for _, phase := range p.phases(wl) {
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

// phases returns the workload's static phases over the switch's ports. A
// workload narrower than the switch runs with the extra ports idle; its
// phases widen to the switch so the fabric decomposes, checks and loads
// configurations of its own size.
func (p *preloader) phases(wl *traffic.Workload) []*topology.WorkingSet {
	n := p.r.cfg.N
	if wl.N == n {
		return wl.StaticPhases
	}
	wide := make([]*topology.WorkingSet, len(wl.StaticPhases))
	for i, phase := range wl.StaticPhases {
		wide[i] = topology.NewWorkingSetOfRows(n, func(src int, add func(dst int)) {
			if src < phase.Ports() {
				phase.EachDst(src, add)
			}
		})
	}
	return wide
}

// indexGroups builds the group lists once every group exists. A planned
// configuration can occupy several of the group's slot registers (register
// shares), and a connection can sit in several of a group's configurations,
// so membership is recorded once per (connection, group) and the pending
// accounting weighs each group by distinct waiting connections. One pass
// over the configurations' connections resolves each id once, keeps a
// group's first sighting of it and counts the connection's groups; a
// second pass lays the lists out by id, each in group order.
func (p *preloader) indexGroups() error {
	conns := p.r.conns
	lastGroup := make([]int32, conns.Len())
	for i := range lastGroup {
		lastGroup[i] = -1
	}
	p.groupStart = make([]int32, conns.Len()+1)
	var members []int32 // the ids each group holds, group after group
	groupEnd := make([]int, len(p.groups))
	for gi, group := range p.groups {
		for _, cfg := range group {
			for u, v := range cfg {
				if v < 0 {
					continue
				}
				id := conns.ID(u, int(v))
				if id < 0 {
					return fmt.Errorf("tdm: preloaded connection %v is outside the run's table",
						topology.Conn{Src: u, Dst: int(v)})
				}
				if lastGroup[id] != int32(gi) {
					lastGroup[id] = int32(gi)
					members = append(members, id)
					p.groupStart[id+1]++
				}
			}
		}
		groupEnd[gi] = len(members)
	}
	for id := range lastGroup {
		p.groupStart[id+1] += p.groupStart[id]
	}
	next := lastGroup // reused as each list's fill cursor
	copy(next, p.groupStart)
	p.groupList = make([]int32, len(members))
	gi := 0
	for i, id := range members {
		for i == groupEnd[gi] {
			gi++
		}
		p.groupList[next[id]] = int32(gi)
		next[id]++
	}
	return nil
}

// groupsOf returns every group holding connection id, in group order.
func (p *preloader) groupsOf(id int32) []int32 {
	if p.broken != nil && bitmat.MaskTest(p.broken, int(id)) {
		return nil
	}
	return p.groupList[p.groupStart[id]:p.groupStart[id+1]]
}

// firstUncovered returns the smallest (Src, Dst) connection the programs
// send on that no group holds. sendIDs are the driver's resolved sends; ids
// are in (Src, Dst) order, so the smallest uncovered id is that connection.
func (p *preloader) firstUncovered(sendIDs []int32) (topology.Conn, bool) {
	miss := int32(-1)
	for _, id := range sendIDs {
		if (miss < 0 || id < miss) && len(p.groupsOf(id)) == 0 {
			miss = id
		}
	}
	if miss < 0 {
		return topology.Conn{}, false
	}
	return p.r.conns.Conn(miss), true
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
	for _, phase := range p.phases(wl) {
		// The phase spans the switch's ports, so restricting the workload's
		// demand to it also widens the demand to them.
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
		var cfg []int32 // the empty configuration
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

// pendingUp records that connection id now has traffic queued.
func (p *preloader) pendingUp(id int32) {
	gs := p.groupsOf(id)
	for _, g := range gs {
		p.pendingInGroup[g]++
	}
	if len(gs) > 0 {
		p.pendingStatic++
	}
}

// pendingDown records that connection id's queue drained.
func (p *preloader) pendingDown(id int32) {
	gs := p.groupsOf(id)
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
	for u := 0; u < p.r.conns.Ports(); u++ {
		lo, hi := p.r.conns.Row(u)
		for id := lo; id < hi; id++ {
			gs := p.groupsOf(id)
			if len(gs) == 0 || !p.r.driver.Buffers[u].Has(id) {
				continue
			}
			for _, g := range gs {
				inGroup[g]++
			}
			static++
		}
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
// connection id after a fault (dead crosspoint or failed endpoint link). The
// entry is cleared from its groups' port maps for the rest of the run — the
// compiled schedule is not revalidated at run time, so a repaired link does
// not restore it — and the currently loaded group is re-pinned if it was
// affected. From here on its traffic is served only by dynamic slots. It
// reports whether any preloaded entry was broken.
func (p *preloader) breakConn(id int32) bool {
	gs := p.groupsOf(id)
	if len(gs) == 0 {
		return false
	}
	c := p.r.conns.Conn(id)
	if p.r.driver.Buffers[c.Src].Has(id) {
		// Retire the pending contribution while the group membership still
		// exists; the eventual real pendingDown will then be a no-op.
		p.pendingDown(id)
	}
	if p.broken == nil {
		p.broken = make([]uint64, (p.r.conns.Len()+63)/64)
	}
	bitmat.MaskSet(p.broken, int(id))
	reload := false
	for _, g := range gs {
		for _, cfg := range p.groups[g] {
			if cfg[c.Src] == int32(c.Dst) {
				cfg[c.Src] = -1
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
// returns how many were broken. Id order is (Src, Dst) order, so the
// entries break in that order.
func (p *preloader) breakPort(port int) int {
	broken := 0
	for u := 0; u < p.r.conns.Ports(); u++ {
		lo, hi := p.r.conns.Row(u)
		for id := lo; id < hi; id++ {
			if (u == port || p.r.conns.Dst(id) == port) && p.breakConn(id) {
				broken++
			}
		}
	}
	return broken
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
	if err := p.r.sched.LoadConfig(p.slots, nil, false); err != nil {
		p.r.fail(err)
		return false
	}
	return true
}
