package tdm

import (
	"fmt"
	"math"
	"math/bits"
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
	// groupStart and groupList list the groups holding each connection of
	// the run's table, in group order: connection id's groups are
	// groupList[groupStart[id]:groupStart[id+1]] (indexGroups). broken is a
	// bitset over ids that breakConn sets to empty a connection's list; nil
	// until a fault breaks one.
	groupStart []int32
	groupList  []int32
	broken     []uint64
	// empty is the all-zero configuration pinned into every managed slot a
	// group leaves unused; LoadConfig copies it, so one serves every slot.
	empty *bitmat.Matrix
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
	p := &preloader{r: r, slots: slots, empty: bitmat.NewSquare(r.cfg.N)}
	if err := p.buildGroups(wl); err != nil {
		return nil, err
	}
	if err := p.indexGroups(); err != nil {
		return nil, err
	}
	p.pendingInGroup = make([]int, len(p.groups))

	if r.cfg.Mode == Preload {
		// Every connection the programs use must be statically covered.
		if c, ok := p.firstUncovered(wl); ok {
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

// indexGroups builds the group lists once every group exists. A planned
// configuration can occupy several of the group's slot registers (register
// shares), and a connection can sit in several of a group's configurations,
// so each group's row is the OR of its configurations' rows: membership is
// recorded once per (connection, group) and the pending accounting weighs
// each group by distinct waiting connections. A counting pass sizes the
// lists; the filling pass lists each row's (dst, group) pairs, packed into
// one word with dst in the high half, and sorts them, which orders the row
// by dst, as the table's row is, and keeps each list in group order.
func (p *preloader) indexGroups() error {
	n := p.r.cfg.N
	conns := p.r.conns
	words := (n + 63) / 64
	union := make([]uint64, words)
	members, widest := 0, 0
	for u := 0; u < n; u++ {
		row := 0
		for _, group := range p.groups {
			rowUnion(union, group, u)
			for _, word := range union {
				row += bits.OnesCount64(word)
			}
		}
		members += row
		widest = max(widest, row)
	}

	p.groupStart = make([]int32, conns.Len()+1)
	p.groupList = make([]int32, 0, members)
	pairs := make([]uint64, 0, widest)
	for u := 0; u < n; u++ {
		pairs = pairs[:0]
		for gi, group := range p.groups {
			rowUnion(union, group, u)
			for w, word := range union {
				for ; word != 0; word &= word - 1 {
					v := w*64 + bits.TrailingZeros64(word)
					pairs = append(pairs, uint64(v)<<32|uint64(gi))
				}
			}
		}
		slices.Sort(pairs)
		lo, hi := conns.Row(u)
		i := 0
		for id := lo; id < hi; id++ {
			p.groupStart[id] = int32(len(p.groupList))
			for ; i < len(pairs) && int(pairs[i]>>32) == conns.Dst(id); i++ {
				p.groupList = append(p.groupList, int32(uint32(pairs[i])))
			}
		}
		if i < len(pairs) {
			return fmt.Errorf("tdm: preloaded connection %v is outside the run's table",
				topology.Conn{Src: u, Dst: int(pairs[i] >> 32)})
		}
	}
	p.groupStart[conns.Len()] = int32(len(p.groupList))
	return nil
}

// rowUnion sets union to the OR of row u over the group's configurations.
func rowUnion(union []uint64, group []*bitmat.Matrix, u int) {
	clear(union)
	for _, cfg := range group {
		for w, word := range cfg.RowWords(u) {
			union[w] |= word
		}
	}
}

// groupsOf returns every group holding connection id, in group order.
func (p *preloader) groupsOf(id int32) []int32 {
	if p.broken != nil && bitmat.MaskTest(p.broken, int(id)) {
		return nil
	}
	return p.groupList[p.groupStart[id]:p.groupStart[id+1]]
}

// firstUncovered returns the smallest (Src, Dst) connection the programs
// send on that no group holds.
func (p *preloader) firstUncovered(wl *traffic.Workload) (topology.Conn, bool) {
	for src, prog := range wl.Programs {
		miss := -1
		for _, op := range prog.Ops {
			if (op.Kind == traffic.OpSend || op.Kind == traffic.OpSendWait) &&
				(miss == -1 || op.Dst < miss) &&
				len(p.groupsOf(p.r.conns.ID(src, op.Dst))) == 0 {
				miss = op.Dst
			}
		}
		if miss != -1 {
			return topology.Conn{Src: src, Dst: miss}, true
		}
	}
	return topology.Conn{}, false
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
		cfg := p.empty
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
	for u := 0; u < p.r.cfg.N; u++ {
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
// entry is removed from its group matrices for the rest of the run — the
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
// returns how many were broken. Id order is (Src, Dst) order, so the
// entries break in that order.
func (p *preloader) breakPort(port int) int {
	broken := 0
	for u := 0; u < p.r.cfg.N; u++ {
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
	if err := p.r.sched.LoadConfig(p.slots, p.empty, false); err != nil {
		p.r.fail(err)
		return false
	}
	return true
}
