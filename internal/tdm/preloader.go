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
	// index lists every connection some group holds (indexGroups).
	index connIndex
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
	p.indexGroups()
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

// connIndex lists every connection that some group holds, with the groups
// holding it. Row u's entries are rowStart[u] to rowStart[u+1]-1 with their
// destinations ascending in dst, so the entries run in (Src, Dst) order.
// Entry i's groups are groups[i], in group order; breakConn empties a list.
// rowStart, dst and every list are cut from one backing array.
type connIndex struct {
	rowStart []int32
	dst      []int32
	groups   [][]int32
}

// indexGroups builds the index once every group exists. A planned
// configuration can occupy several of the group's slot registers (register
// shares), and a connection can sit in several of a group's configurations,
// so each group's row is the OR of its configurations' rows: membership is
// recorded once per (connection, group) and the pending accounting weighs
// each group by distinct waiting connections. A counting pass sizes the
// backing array; the filling pass lists each row's (dst, group) pairs,
// packed into one word with dst in the high half, and sorts them, which
// orders the row by dst and keeps each list in group order.
func (p *preloader) indexGroups() {
	n := p.r.cfg.N
	words := (n + 63) / 64
	union := make([]uint64, 2*words)
	union, all := union[:words], union[words:]
	conns, members, widest := 0, 0, 0
	for u := 0; u < n; u++ {
		clear(all)
		row := 0
		for _, group := range p.groups {
			rowUnion(union, group, u)
			for w, word := range union {
				row += bits.OnesCount64(word)
				all[w] |= word
			}
		}
		for _, word := range all {
			conns += bits.OnesCount64(word)
		}
		members += row
		widest = max(widest, row)
	}

	backing := make([]int32, n+1+conns+members)
	ix := &p.index
	ix.rowStart = backing[: n+1 : n+1]
	ix.dst = backing[n+1 : n+1+conns : n+1+conns]
	lists := backing[n+1+conns:]
	ix.groups = make([][]int32, conns)
	pairs := make([]uint64, 0, widest)
	e, m := 0, 0
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
		for i := 0; i < len(pairs); e++ {
			start, dst := m, pairs[i]>>32
			for ; i < len(pairs) && pairs[i]>>32 == dst; i++ {
				lists[m] = int32(uint32(pairs[i]))
				m++
			}
			ix.dst[e] = int32(dst)
			ix.groups[e] = lists[start:m:m]
		}
		ix.rowStart[u+1] = int32(e)
	}
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

// entry returns c's index entry, or -1 when no group holds c.
func (p *preloader) entry(c topology.Conn) int {
	ix := &p.index
	lo, hi := ix.rowStart[c.Src], ix.rowStart[c.Src+1]
	if i, ok := slices.BinarySearch(ix.dst[lo:hi], int32(c.Dst)); ok {
		return int(lo) + i
	}
	return -1
}

// groupsOf returns every group holding c, in group order.
func (p *preloader) groupsOf(c topology.Conn) []int32 {
	if i := p.entry(c); i >= 0 {
		return p.index.groups[i]
	}
	return nil
}

// firstUncovered returns the smallest (Src, Dst) connection the programs
// send on that no group holds.
func (p *preloader) firstUncovered(wl *traffic.Workload) (topology.Conn, bool) {
	for src, prog := range wl.Programs {
		miss := -1
		for _, op := range prog.Ops {
			if (op.Kind == traffic.OpSend || op.Kind == traffic.OpSendWait) &&
				(miss == -1 || op.Dst < miss) &&
				len(p.groupsOf(topology.Conn{Src: src, Dst: op.Dst})) == 0 {
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

// pendingUp records that connection c now has traffic queued.
func (p *preloader) pendingUp(c topology.Conn) {
	gs := p.groupsOf(c)
	for _, g := range gs {
		p.pendingInGroup[g]++
	}
	if len(gs) > 0 {
		p.pendingStatic++
	}
}

// pendingDown records that connection c's queue drained.
func (p *preloader) pendingDown(c topology.Conn) {
	gs := p.groupsOf(c)
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
	ix := &p.index
	for u := 0; u < p.r.cfg.N; u++ {
		for i := ix.rowStart[u]; i < ix.rowStart[u+1]; i++ {
			gs := ix.groups[i]
			if len(gs) == 0 || !p.r.driver.Buffers[u].HasFor(int(ix.dst[i])) {
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
// connection c after a fault (dead crosspoint or failed endpoint link). The
// entry is removed from its group matrices for the rest of the run — the
// compiled schedule is not revalidated at run time, so a repaired link does
// not restore it — and the currently loaded group is re-pinned if it was
// affected. From here on c's traffic is served only by dynamic slots. It
// reports whether any preloaded entry was broken.
func (p *preloader) breakConn(c topology.Conn) bool {
	i := p.entry(c)
	if i < 0 || len(p.index.groups[i]) == 0 {
		return false
	}
	if p.r.driver.Buffers[c.Src].HasFor(c.Dst) {
		// Retire c's pending contribution while its group membership still
		// exists; the eventual real pendingDown will then be a no-op.
		p.pendingDown(c)
	}
	gs := p.index.groups[i]
	p.index.groups[i] = nil
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
// returns how many were broken. The index runs in (Src, Dst) order, so the
// entries break in that order.
func (p *preloader) breakPort(port int) int {
	ix := &p.index
	broken := 0
	for u := 0; u < p.r.cfg.N; u++ {
		for i := ix.rowStart[u]; i < ix.rowStart[u+1]; i++ {
			if v := int(ix.dst[i]); (u == port || v == port) && p.breakConn(topology.Conn{Src: u, Dst: v}) {
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
