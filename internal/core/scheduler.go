// Package core implements the paper's primary contribution: the TDM
// connection scheduler of the predictive multiplexed switch (paper §4).
//
// The scheduler owns K configurations B(0) ... B(K-1), one per multiplexed
// time slot. Each is a partial permutation of the crossbar, held as a slot
// index (per slot: each input's output, each output's input, occupancy
// masks). Every other set the paper names is a set of connections, kept as
// a bitset over the ids of the run's connection table (Params.Conns): the
// request matrix R, the latch, and B*, the connections established in any
// slot. Two counters drive the scheduler:
//
//   - The TDM counter selects which configuration is copied into the fabric's
//     configuration register at each slot boundary, skipping slots whose
//     configuration is all zeros so that the effective multiplexing degree
//     shrinks to the active working set.
//   - The SL counter selects which slot the scheduling-logic array will try
//     to insert pending requests into, round-robin over the dynamic slots.
//
// One scheduling pass is one SL clock cycle of the hardware: the
// pre-scheduling logic (Table 1) compares the request matrix R against B*
// and the selected slot's B(s) to produce the change matrix L, and the NxN
// array of SL modules (Table 2, Figure 3) resolves L against the propagating
// port-availability signals A (outputs) and D (inputs), establishing and
// releasing connections. The pass is modeled bit-exactly; its hardware cost
// is modeled by the Table 3 latency figures (see latency.go).
//
// All five extensions listed in §4 are implemented: multiple SL copies
// (Params.SLCopies), multi-slot connections (AddBandwidth), request latching
// with explicit eviction (Params.LatchRequests, Evict), flush (Flush), and
// preloaded pinned configurations with dynamic coexistence (LoadConfig).
package core

import (
	"fmt"
	"math/bits"

	"pmsnet/internal/probe"
	"pmsnet/internal/sim"
	"pmsnet/internal/topology"
)

// Params configures a Scheduler.
type Params struct {
	// N is the crossbar port count.
	N int
	// K is the number of configuration registers (the maximum multiplexing
	// degree).
	K int
	// RotatePriority enables the round-robin rotation of the scheduling
	// array's priority origin (paper §4: "a more fair schedule can be
	// obtained by rotating the priority"). Without it, low-numbered ports
	// always win contention.
	RotatePriority bool
	// SkipEmptySlots enables the TDM counter feature that skips a count t
	// whose configuration B(t) is all zeros, reducing the effective
	// multiplexing degree.
	SkipEmptySlots bool
	// SLCopies is the number of scheduling-logic units working on different
	// slots in the same pass (extension 1). Must be at least 1 and at most K.
	SLCopies int
	// LatchRequests keeps a connection established after the NIC drops its
	// request (extension 3); connections are then released only by Evict or
	// Flush. When false, a connection is released as soon as its request
	// disappears.
	LatchRequests bool
	// CanEstablish, when non-nil, adds a fabric-realizability constraint to
	// the scheduling logic: a connection u→v is only established in a slot
	// whose configuration (not yet containing u→v) satisfies
	// CanEstablish(cfg, u, v). cfg is the configuration as a port map —
	// cfg[x] is the output input x connects to, or -1 — live and read-only.
	// Crossbars need no constraint beyond free ports; fabrics with limited
	// permutation capability — multistage networks — use this hook (paper
	// §4: "more complicated constraints may be derived for fabrics that have
	// limited permutation capabilities").
	CanEstablish func(cfg []int32, u, v int) bool
	// Algorithm selects the matching algorithm a pass runs: the paper-exact
	// Tables 1–2 scheduling array (the default), iSLIP, or wavefront
	// matching. See match.go for the alternatives' semantics and provenance.
	Algorithm Algorithm
	// Conns is the run's connection table, over at most N ports (a
	// workload may use fewer ports than the switch has). Its ids key the
	// scheduler's state: requests, latches and B* are sets of its
	// connections, and every connection a pass, preload or eviction reports
	// carries its id. Nil selects the complete table over N ports
	// (topology.NewCompleteConnTable), N(N−1) connections, for tests and
	// table generators.
	Conns *topology.ConnTable
}

// withDefaults normalizes zero values.
func (p Params) withDefaults() Params {
	if p.SLCopies == 0 {
		p.SLCopies = 1
	}
	return p
}

// Validate reports an error for inconsistent parameters.
func (p Params) Validate() error {
	if p.N <= 0 {
		return fmt.Errorf("core: port count N=%d must be positive", p.N)
	}
	if p.K <= 0 {
		return fmt.Errorf("core: multiplexing degree K=%d must be positive", p.K)
	}
	if p.SLCopies < 1 || p.SLCopies > p.K {
		return fmt.Errorf("core: SLCopies=%d must be in [1,%d]", p.SLCopies, p.K)
	}
	if !Algorithms.Valid(p.Algorithm) {
		return fmt.Errorf("core: unknown algorithm %d (valid: %v)", int(p.Algorithm), Algorithms.Names())
	}
	if p.Conns != nil && p.Conns.Ports() > p.N {
		return fmt.Errorf("core: connection table has %d ports, scheduler only %d", p.Conns.Ports(), p.N)
	}
	return nil
}

// Change records one connection established or released by a pass, with
// its id in Params.Conns.
type Change struct {
	Src, Dst int
	Slot     int
	ID       int32
}

// PassResult summarizes one scheduling pass. Its slices are scheduler-owned
// scratch buffers: they are valid until the next pass and must not be
// mutated or retained by the caller.
type PassResult struct {
	// Slots lists the slot indices the pass scheduled into (SLCopies long,
	// unless fewer dynamic slots exist).
	Slots []int
	// Established and Released list connection changes in scan order.
	Established []Change
	Released    []Change
}

// Stats counts scheduler activity since construction.
type Stats struct {
	Passes      uint64
	Established uint64
	Released    uint64
	Flushes     uint64
	Evictions   uint64
}

// Scheduler is the TDM connection scheduler. It is not safe for concurrent
// use; the simulation engine is single-threaded by design.
type Scheduler struct {
	p      Params
	conns  *topology.ConnTable
	pinned []bool
	// latch holds the connections kept past their request (extension 3).
	latch *topology.IDSet
	// held is B*, the connections established in any slot, as a bitset
	// over connection ids.
	held []uint64

	// The slot index is the only copy of the configurations. Each is a
	// partial permutation, so a slot holds at most one connection per input
	// row and per output column; the index stores it directly. All
	// configuration mutation funnels through setConn/clearConn (preloads
	// included), which also keep B* current.
	rowDst     [][]int32  // [slot][u] = v of the connection u→v, or -1
	rowID      [][]int32  // [slot][u] = Params.Conns id of u→rowDst, or -1
	colSrc     [][]int32  // [slot][v] = u of the connection u→v, or -1
	cfgRowMask [][]uint64 // [slot]: AI bitmask (input u occupied)
	cfgColMask [][]uint64 // [slot]: AO bitmask (output v occupied)
	cfgCount   []int      // [slot]: established connections

	slCursor  int
	tdmCursor int
	rot       int

	stats Stats

	// Reusable scratch, sized once at construction so the per-pass hot path
	// stays allocation-free after warmup.
	estBuf   []Change // established changes of the current pass
	relBuf   []Change // released changes of the current pass
	slotsBuf []int    // slots visited by the current pass
	loadIDs  []int32  // LoadConfig's resolved ids
	loadOuts []uint64 // LoadConfig's outputs in use, all clear between calls
	invBuf   []uint64 // CheckInvariants B* recomputation

	// Sparse-pass scratch (sparsepass.go).
	activeMask  []uint64 // row mask: rows the sparse pass must visit
	pendingMask []uint64 // per-pass row mask: rows with a request not in B*
	rowsBuf     []int    // rotated active-row iteration order

	// Alternative-algorithm scratch (match.go); nil for AlgPaper.
	match *matchState

	// Observability (nil when off). now supplies timestamps for emitted
	// events; the scheduler has no clock of its own.
	probe *probe.Probe
	now   func() sim.Time
}

// NewScheduler builds a scheduler. Invalid Params return an error with the
// offending field named, so callers that assemble parameters at run time
// (the TDM network builds one per Run) surface misconfiguration instead of
// panicking mid-simulation.
func NewScheduler(p Params) (*Scheduler, error) {
	p = p.withDefaults()
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid scheduler parameters: %w", err)
	}
	if p.Conns == nil {
		p.Conns = topology.NewCompleteConnTable(p.N)
	}
	s := &Scheduler{
		p:          p,
		conns:      p.Conns,
		pinned:     make([]bool, p.K),
		latch:      topology.NewIDSet(p.Conns),
		rowDst:     make([][]int32, p.K),
		rowID:      make([][]int32, p.K),
		colSrc:     make([][]int32, p.K),
		cfgRowMask: make([][]uint64, p.K),
		cfgColMask: make([][]uint64, p.K),
		cfgCount:   make([]int, p.K),
	}
	// The per-slot index, B* and every occupancy mask are carved from two
	// arenas, one allocation each. Full slice expressions cap each piece's
	// capacity, so an append that outgrows a piece reallocates instead of
	// spilling into its neighbour.
	occWords := (p.N + 63) / 64
	heldWords := (p.Conns.Len() + 63) / 64
	idx := make([]int32, 3*p.K*p.N)
	for j := range idx {
		idx[j] = -1
	}
	words := make([]uint64, (2*p.K+3)*occWords+heldWords)
	carveIdx := func() []int32 {
		piece := idx[:p.N:p.N]
		idx = idx[p.N:]
		return piece
	}
	carveWords := func(n int) []uint64 {
		piece := words[:n:n]
		words = words[n:]
		return piece
	}
	for i := 0; i < p.K; i++ {
		s.rowDst[i] = carveIdx()
		s.rowID[i] = carveIdx()
		s.colSrc[i] = carveIdx()
		s.cfgRowMask[i] = carveWords(occWords)
		s.cfgColMask[i] = carveWords(occWords)
	}
	s.held = carveWords(heldWords)
	s.activeMask = carveWords(occWords)
	s.pendingMask = carveWords(occWords)
	s.loadOuts = carveWords(occWords)
	// A pass visits at most SLCopies slots and, in each, establishes and
	// releases at most one connection per input row, so the change buffers
	// are sized for that once instead of growing through the first passes.
	changes := p.N * p.SLCopies
	buf := make([]Change, 2*changes)
	s.estBuf = buf[:0:changes]
	s.relBuf = buf[changes:changes]
	if p.Algorithm != AlgPaper {
		s.match = newMatchState(p)
	}
	return s, nil
}

// --- per-pair slot index ---

// setConn establishes u→v, connection id, in a slot, updating the slot
// index, the per-slot occupancy masks and B* together. The caller must have
// verified the slot's row u and column v are free (partial-permutation
// discipline); every establish path does.
func (s *Scheduler) setConn(slot, u, v int, id int32) {
	s.rowDst[slot][u] = int32(v)
	s.rowID[slot][u] = id
	s.colSrc[slot][v] = int32(u)
	maskSet(s.cfgRowMask[slot], u)
	maskSet(s.cfgColMask[slot], v)
	s.cfgCount[slot]++
	maskSet(s.held, int(id))
}

// clearConn releases u→v from a slot and returns its id. The connection
// must be present there. B* drops it only when it is gone from every slot
// (AddBandwidth can hold it in several).
func (s *Scheduler) clearConn(slot, u, v int) int32 {
	id := s.rowID[slot][u]
	s.rowDst[slot][u] = -1
	s.rowID[slot][u] = -1
	s.colSrc[slot][v] = -1
	maskClear(s.cfgRowMask[slot], u)
	maskClear(s.cfgColMask[slot], v)
	s.cfgCount[slot]--
	if s.slotCountOf(u, v) == 0 {
		maskClear(s.held, int(id))
	}
	return id
}

// clearSlot releases every connection of a slot through clearConn, in
// ascending row order. O(connections), not O(N²/64).
func (s *Scheduler) clearSlot(slot int) {
	mask := s.cfgRowMask[slot]
	for w, word := range mask {
		for word != 0 {
			u := w*64 + bits.TrailingZeros64(word)
			word &= word - 1
			s.clearConn(slot, u, int(s.rowDst[slot][u]))
		}
	}
}

// idOf returns the id of u→v, which must be in the connection table.
func (s *Scheduler) idOf(u, v int) int32 {
	id := s.conns.ID(u, v)
	if id < 0 {
		panic(fmt.Sprintf("core: connection %v is outside the connection table", topology.Conn{Src: u, Dst: v}))
	}
	return id
}

// heldID returns the id of src→dst if a slot holds it, else -1: O(K) slot
// index reads, no table search.
func (s *Scheduler) heldID(src, dst int) int32 {
	for i := 0; i < s.p.K; i++ {
		if s.rowDst[i][src] == int32(dst) {
			return s.rowID[i][src]
		}
	}
	return -1
}

// MustScheduler is NewScheduler for static configurations known to be valid
// (tests, table generators); it panics on error.
func MustScheduler(p Params) *Scheduler {
	s, err := NewScheduler(p)
	if err != nil {
		panic(err)
	}
	return s
}

// Params returns the scheduler's configuration, Conns filled in.
func (s *Scheduler) Params() Params { return s.p }

// SetProbe attaches an observability probe; now supplies event timestamps
// (typically the simulation engine's clock). A nil probe detaches. Emission is
// purely observational: scheduling decisions and statistics are identical with
// and without a probe.
func (s *Scheduler) SetProbe(p *probe.Probe, now func() sim.Time) {
	if p == nil {
		s.probe, s.now = nil, nil
		return
	}
	if now == nil {
		panic("core: SetProbe requires a clock")
	}
	s.probe, s.now = p, now
}

// Stats returns activity counters.
func (s *Scheduler) Stats() Stats { return s.stats }

// HeldIDs returns B* as a bitset over the ids of Params.Conns. It is live
// and read-only for callers: every establish, eviction and flush changes
// it.
func (s *Scheduler) HeldIDs() []uint64 { return s.held }

// Held reports whether connection id is established in any slot (in B*).
func (s *Scheduler) Held(id int32) bool { return maskTest(s.held, int(id)) }

// Connected reports whether the connection src→dst is established in any
// slot (in B*).
func (s *Scheduler) Connected(src, dst int) bool { return s.heldID(src, dst) >= 0 }

// slotCountOf returns the number of slots holding src→dst without
// materializing the slot list.
func (s *Scheduler) slotCountOf(src, dst int) int {
	n := 0
	for i := 0; i < s.p.K; i++ {
		if s.rowDst[i][src] == int32(dst) {
			n++
		}
	}
	return n
}

// AppendSlotConns appends the id of every connection of a slot to ids, in
// ascending order, and returns the extended slice — the data-plane grant
// snapshot, read straight from the slot index in O(connections) instead of
// N first-in-row word scans.
func (s *Scheduler) AppendSlotConns(ids []int32, slot int) []int32 {
	s.checkSlot(slot)
	for w, word := range s.cfgRowMask[slot] {
		for word != 0 {
			u := w*64 + bits.TrailingZeros64(word)
			word &= word - 1
			ids = append(ids, s.rowID[slot][u])
		}
	}
	return ids
}

func (s *Scheduler) checkSlot(slot int) {
	if slot < 0 || slot >= s.p.K {
		panic(fmt.Sprintf("core: slot %d outside [0,%d)", slot, s.p.K))
	}
}

func (s *Scheduler) checkPort(u int) {
	if u < 0 || u >= s.p.N {
		panic(fmt.Sprintf("core: port %d outside [0,%d)", u, s.p.N))
	}
}

// --- TDM counter (fabric side) ---

// NextFabricSlot advances the TDM counter and returns the slot whose
// configuration the fabric carries for the next time slot; the caller reads
// its connections with AppendSlotConns(slot). With SkipEmptySlots it skips
// all-zero configurations (paper §4, Figure 2); if every configuration is
// empty it reports ok=false and the fabric stays idle.
func (s *Scheduler) NextFabricSlot() (slot int, ok bool) {
	for tried := 0; tried < s.p.K; tried++ {
		t := s.tdmCursor
		s.tdmCursor = (s.tdmCursor + 1) % s.p.K
		if s.p.SkipEmptySlots && s.cfgCount[t] == 0 {
			continue
		}
		return t, true
	}
	return -1, false
}

// --- scheduling logic (SL side) ---

// occupancy bitmask helpers for the AO/AI vectors.
func maskTest(m []uint64, i int) bool { return m[i>>6]&(1<<(uint(i)&63)) != 0 }
func maskSet(m []uint64, i int)       { m[i>>6] |= 1 << (uint(i) & 63) }
func maskClear(m []uint64, i int)     { m[i>>6] &^= 1 << (uint(i) & 63) }

// dispatchSlot routes one slot evaluation to the configured matching
// algorithm. Each reads the requests as a set over the connection table;
// each is bit-identical to its dense form, which the tests keep as the
// oracle (oracle_test.go).
func (s *Scheduler) dispatchSlot(req *topology.IDSet, slot int) {
	s.checkSlot(slot)
	if s.pinned[slot] {
		panic(fmt.Sprintf("core: slot evaluation on pinned slot %d", slot))
	}
	switch s.p.Algorithm {
	case AlgISLIP:
		s.scheduleSlotISLIPSparse(req, slot)
	case AlgWavefront:
		s.scheduleSlotWavefrontSparse(req, slot)
	default:
		s.scheduleSlotSparse(req, slot)
	}
}

// finishSlot is the shared slot epilogue: latch maintenance and activity
// counters over the changes appended since (estStart, relStart).
func (s *Scheduler) finishSlot(slot, estStart, relStart int) {
	established := s.estBuf[estStart:]
	released := s.relBuf[relStart:]
	if s.p.LatchRequests {
		for _, c := range established {
			s.latch.Add(c.Src, c.ID)
		}
		for _, c := range released {
			// Released connections (evicted or flushed) lose their latch if
			// they are gone from every slot.
			if s.slotCountOf(c.Src, c.Dst) == 0 {
				s.latch.Remove(c.Src, c.ID)
			}
		}
	}
	s.stats.Established += uint64(len(established))
	s.stats.Released += uint64(len(released))
}

// PassSparse runs one scheduler pass: SLCopies scheduling-logic evaluations
// on the next dynamic (unpinned) slots in SL-counter order, then advances
// the priority rotation. It is the unit of work that costs PassLatency() in
// simulated time. The requests are a set over Params.Conns; a paper-algorithm
// evaluation costs in proportion to the active rows and their ids instead of
// N²/64 words. The returned slices are scheduler-owned and valid until the
// next pass.
func (s *Scheduler) PassSparse(req *topology.IDSet) PassResult {
	if req.Table() != s.conns {
		panic("core: request set over another connection table")
	}
	if s.probe == nil {
		return s.pass(req)
	}
	now := s.now()
	s.probe.Emit(probe.Event{Kind: probe.SchedPassBegin, At: now})
	res := s.pass(req)
	for _, c := range res.Established {
		s.probe.Emit(probe.Event{Kind: probe.ConnEstablished, At: now,
			Src: int32(c.Src), Dst: int32(c.Dst), Slot: int32(c.Slot)})
	}
	for _, c := range res.Released {
		s.probe.Emit(probe.Event{Kind: probe.ConnReleased, At: now,
			Src: int32(c.Src), Dst: int32(c.Dst), Slot: int32(c.Slot)})
	}
	s.probe.Emit(probe.Event{Kind: probe.SchedPassEnd, At: now,
		Aux: int64(len(res.Established)), ID: int64(len(res.Released))})
	return res
}

// pass is the probe-free body of PassSparse.
func (s *Scheduler) pass(req *topology.IDSet) PassResult {
	s.stats.Passes++
	dyn := s.DynamicSlotCount()
	if dyn == 0 {
		return PassResult{}
	}
	s.estBuf = s.estBuf[:0]
	s.relBuf = s.relBuf[:0]
	s.slotsBuf = s.slotsBuf[:0]
	if s.p.Algorithm == AlgPaper {
		s.computePendingMask(req)
	}
	for c := 0; c < min(s.p.SLCopies, dyn); c++ {
		s.dispatchSlot(req, s.nextSLSlot())
	}
	if s.p.RotatePriority {
		s.rot = (s.rot + 1) % s.p.N
	}
	return PassResult{Slots: s.slotsBuf, Established: s.estBuf, Released: s.relBuf}
}

// nextSLSlot advances the SL counter to the next dynamic slot, records the
// slot in the pass's slot list and returns it.
func (s *Scheduler) nextSLSlot() int {
	for {
		slot := s.slCursor
		s.slCursor = (s.slCursor + 1) % s.p.K
		if !s.pinned[slot] {
			s.slotsBuf = append(s.slotsBuf, slot)
			return slot
		}
	}
}

// DynamicSlotCount returns the number of slots available to reactive
// scheduling (K minus pinned slots).
func (s *Scheduler) DynamicSlotCount() int {
	n := 0
	for _, p := range s.pinned {
		if !p {
			n++
		}
	}
	return n
}

// --- extensions ---

// LoadConfig loads a predefined configuration into a slot (extension 5,
// compiled communication). The configuration is a port map over the N
// ports — cfg[u] is the output input u connects to, or -1 — or nil for the
// empty configuration. It must be a partial permutation of connections in
// Params.Conns; otherwise LoadConfig returns an error and leaves the slot
// unchanged. If pin is true the slot is excluded from dynamic scheduling
// until a later LoadConfig unpins it. The slot keeps its own copy.
func (s *Scheduler) LoadConfig(slot int, cfg []int32, pin bool) error {
	s.checkSlot(slot)
	if cfg != nil && len(cfg) != s.p.N {
		return fmt.Errorf("core: configuration maps %d ports, want %d", len(cfg), s.p.N)
	}
	s.loadIDs = s.loadIDs[:0]
	var err error
	for u, v := range cfg {
		if v < 0 {
			continue
		}
		id := s.conns.ID(u, int(v))
		switch {
		case id < 0:
			err = fmt.Errorf("core: configuration for slot %d holds %v, outside the connection table",
				slot, topology.Conn{Src: u, Dst: int(v)})
		case maskTest(s.loadOuts, int(v)):
			err = fmt.Errorf("core: configuration for slot %d is not a partial permutation (output %d used twice)", slot, v)
		default:
			maskSet(s.loadOuts, int(v))
			s.loadIDs = append(s.loadIDs, id)
			continue
		}
		break
	}
	for _, id := range s.loadIDs {
		maskClear(s.loadOuts, s.conns.Dst(id))
	}
	if err != nil {
		return err
	}
	s.clearSlot(slot)
	u := -1
	for _, id := range s.loadIDs {
		u = s.conns.SrcFrom(u, id)
		s.setConn(slot, u, s.conns.Dst(id), id)
	}
	s.pinned[slot] = pin
	return nil
}

// AddBandwidth tries to insert the established connection src→dst into up to
// `extra` additional dynamic slots (extension 2: a connection present in m
// slots gets m/K of the link bandwidth). It returns the number of slots
// actually added, limited by port availability. The connection must already
// be established.
func (s *Scheduler) AddBandwidth(src, dst, extra int) int {
	s.checkPort(src)
	s.checkPort(dst)
	if extra < 0 {
		panic(fmt.Sprintf("core: negative extra slot count %d", extra))
	}
	id := s.heldID(src, dst)
	if id < 0 {
		return 0
	}
	added := 0
	for slot := 0; slot < s.p.K && added < extra; slot++ {
		if s.pinned[slot] || s.rowDst[slot][src] >= 0 || s.colSrc[slot][dst] >= 0 {
			continue
		}
		if s.p.CanEstablish != nil && !s.p.CanEstablish(s.rowDst[slot], src, dst) {
			continue
		}
		s.setConn(slot, src, dst, id)
		added++
	}
	return added
}

// Evict releases a connection from every dynamic slot and clears its latch
// (the predictor's interface, paper §3.2). It returns the number of slot
// entries removed. Pinned slots are untouched: preloaded patterns are
// evicted by unloading their configuration, not per-connection.
func (s *Scheduler) Evict(src, dst int) int {
	s.checkPort(src)
	s.checkPort(dst)
	id := s.heldID(src, dst)
	if id < 0 {
		// Only its latch can remain.
		id = s.conns.ID(src, dst)
	}
	removed := 0
	for slot := 0; slot < s.p.K; slot++ {
		if s.pinned[slot] {
			continue
		}
		if s.rowDst[slot][src] == int32(dst) {
			s.clearConn(slot, src, dst)
			removed++
		}
	}
	latched := id >= 0 && s.latch.Has(id)
	if latched {
		s.latch.Remove(src, id)
	}
	if removed > 0 {
		s.stats.Evictions += uint64(removed)
		s.stats.Released += uint64(removed)
	}
	if (removed > 0 || latched) && s.probe != nil {
		s.probe.Emit(probe.Event{Kind: probe.ConnEvicted, At: s.now(),
			Src: int32(src), Dst: int32(dst), Aux: int64(removed)})
	}
	return removed
}

// EvictPort releases every dynamic-slot connection that uses port p as input
// or output and clears their latches — the scheduler's reaction to a link
// fault on p: cached configurations touching a failed port cannot be
// trusted, so they are invalidated and re-established on demand once the
// port recovers. Pinned slots are untouched (the preload controller owns
// them). It returns the released connections.
func (s *Scheduler) EvictPort(p int) []Change {
	s.checkPort(p)
	var out []Change
	for slot := 0; slot < s.p.K; slot++ {
		if s.pinned[slot] {
			continue
		}
		// Row side first, then column side, matching the original scan order.
		// A self-loop p→p clears colSrc[p] with the row entry, so it is not
		// reported twice.
		if v := s.rowDst[slot][p]; v >= 0 {
			id := s.clearConn(slot, p, int(v))
			out = append(out, Change{Src: p, Dst: int(v), Slot: slot, ID: id})
		}
		if u := s.colSrc[slot][p]; u >= 0 {
			id := s.clearConn(slot, int(u), p)
			out = append(out, Change{Src: int(u), Dst: p, Slot: slot, ID: id})
		}
	}
	for _, ch := range out {
		s.latch.Remove(ch.Src, ch.ID)
	}
	if len(out) > 0 {
		s.stats.Evictions += uint64(len(out))
		s.stats.Released += uint64(len(out))
		if s.probe != nil {
			now := s.now()
			for _, ch := range out {
				s.probe.Emit(probe.Event{Kind: probe.ConnEvicted, At: now,
					Src: int32(ch.Src), Dst: int32(ch.Dst), Slot: int32(ch.Slot), Aux: 1})
			}
		}
	}
	return out
}

// Flush clears every dynamic slot and all latches (extension 4: the
// compiler-inserted "flush all current connections" directive between
// program phases). Pinned preloaded slots survive.
func (s *Scheduler) Flush() {
	for slot := 0; slot < s.p.K; slot++ {
		if !s.pinned[slot] {
			s.clearSlot(slot)
		}
	}
	s.latch.Reset()
	s.stats.Flushes++
	if s.probe != nil {
		s.probe.Emit(probe.Event{Kind: probe.Flush, At: s.now()})
	}
}

// CheckInvariants verifies the structural invariants of the scheduler state:
// each slot's index is a consistent partial permutation (rowDst and colSrc
// mirror each other, the occupancy masks and counts match, every entry
// carries its table id), B* is the union of the slots' connections, and the
// latch's row mask matches its ids. It returns an error describing the
// first violation. Tests and the simulation's self-checks call this; it
// costs O(K·N + connections/64).
func (s *Scheduler) CheckInvariants() error {
	if s.invBuf == nil {
		s.invBuf = make([]uint64, len(s.held))
	}
	want := s.invBuf
	clear(want)
	for i := 0; i < s.p.K; i++ {
		count := 0
		for u, v := range s.rowDst[i] {
			if maskTest(s.cfgRowMask[i], u) != (v >= 0) {
				return fmt.Errorf("core: slot %d row mask out of sync at input %d", i, u)
			}
			if v < 0 {
				if s.rowID[i][u] != -1 {
					return fmt.Errorf("core: slot %d rowID[%d]=%d on an empty row", i, u, s.rowID[i][u])
				}
				continue
			}
			count++
			if int(s.colSrc[i][v]) != u {
				return fmt.Errorf("core: slot %d colSrc[%d]=%d, rowDst says %d", i, v, s.colSrc[i][v], u)
			}
			if id := s.conns.ID(u, int(v)); s.rowID[i][u] != id || id < 0 {
				return fmt.Errorf("core: slot %d rowID[%d]=%d, table says %d", i, u, s.rowID[i][u], id)
			}
			maskSet(want, int(s.rowID[i][u]))
		}
		for v, u := range s.colSrc[i] {
			if maskTest(s.cfgColMask[i], v) != (u >= 0) {
				return fmt.Errorf("core: slot %d column mask out of sync at output %d", i, v)
			}
			if u >= 0 && s.rowDst[i][u] != int32(v) {
				return fmt.Errorf("core: slot %d colSrc[%d]=%d, rowDst says %d", i, v, u, s.rowDst[i][u])
			}
		}
		if s.cfgCount[i] != count {
			return fmt.Errorf("core: slot %d count %d, index holds %d", i, s.cfgCount[i], count)
		}
	}
	for w, x := range want {
		if x != s.held[w] {
			return fmt.Errorf("core: B* out of sync with configurations in ids %d-%d", w*64, w*64+63)
		}
	}
	if err := s.latch.Check(); err != nil {
		return fmt.Errorf("core: latch: %w", err)
	}
	return nil
}
