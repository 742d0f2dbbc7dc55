// Package core implements the paper's primary contribution: the TDM
// connection scheduler of the predictive multiplexed switch (paper §4).
//
// The scheduler owns K configuration matrices B(0) ... B(K-1), one per
// multiplexed time slot. Each matrix is a partial permutation of the
// crossbar. Two counters drive it:
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
// (the OR of all configurations) and the selected slot's B(s) to produce the
// change matrix L, and the NxN array of SL modules (Table 2, Figure 3)
// resolves L against the propagating port-availability signals A (outputs)
// and D (inputs), establishing and releasing connections. The pass is
// modeled bit-exactly; its hardware cost is modeled by the Table 3 latency
// figures (see latency.go).
//
// All five extensions listed in §4 are implemented: multiple SL copies
// (Params.SLCopies), multi-slot connections (AddBandwidth), request latching
// with explicit eviction (Params.LatchRequests, Evict), flush (Flush), and
// preloaded pinned configurations with dynamic coexistence (LoadConfig,
// PinSlot).
package core

import (
	"fmt"
	"math/bits"

	"pmsnet/internal/bitmat"
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
	// whose configuration b (not yet containing u→v) satisfies
	// CanEstablish(b, u, v). Crossbars need no constraint beyond free ports;
	// fabrics with limited permutation capability — multistage networks —
	// use this hook (paper §4: "more complicated constraints may be derived
	// for fabrics that have limited permutation capabilities").
	CanEstablish func(b *bitmat.Matrix, u, v int) bool
	// Algorithm selects the matching algorithm a pass runs: the paper-exact
	// Tables 1–2 scheduling array (the default), iSLIP, or wavefront
	// matching. See match.go for the alternatives' semantics and provenance.
	Algorithm Algorithm
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
	return nil
}

// Change records one connection established or released by a pass.
type Change struct {
	Src, Dst int
	Slot     int
}

// PassResult summarizes one scheduling pass. Its slices are scheduler-owned
// scratch buffers: they are valid until the next Pass or ScheduleSlot call
// and must not be mutated or retained by the caller.
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
	p       Params
	configs []*bitmat.Matrix
	pinned  []bool
	latch   *bitmat.Sparse
	bstar   *bitmat.Matrix

	// Incrementally-maintained per-pair slot index. Every configuration is a
	// partial permutation, so a slot holds at most one connection per input
	// row and per output column; the index stores it directly. All config
	// mutation funnels through setConn/clearConn (including preloads), which
	// also keep B* current, so SlotsOf/slotCountOf/GrantRow are O(K) array
	// reads instead of O(K·N/64) word scans.
	rowDst     [][]int32  // [slot][u] = v of the connection u→v, or -1
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
	effBuf   *bitmat.Matrix // effectiveRequests result under latching
	lBuf     *bitmat.Matrix // PreSchedule change matrix
	occOut   []uint64       // AO bitmask: output v occupied in the slot
	occIn    []uint64       // AI bitmask: input u occupied in the slot
	colBuf   []int          // rotated set-column scan of one L row
	estBuf   []Change       // established changes of the current pass
	relBuf   []Change       // released changes of the current pass
	slotsBuf []int          // slots visited by the current pass
	invBuf   *bitmat.Matrix // CheckInvariants B* recomputation

	// Sparse-pass scratch (sparsepass.go).
	activeMask  []uint64 // row mask: rows the sparse pass must visit
	pendingMask []uint64 // per-pass row mask: rows with a request not in B*
	rowsBuf     []int    // rotated active-row iteration order
	wordRowMin  int      // row nonzeros at which to switch to the word path

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
	s := &Scheduler{
		p:          p,
		configs:    make([]*bitmat.Matrix, p.K),
		pinned:     make([]bool, p.K),
		latch:      bitmat.NewSparse(p.N, p.N),
		bstar:      bitmat.NewSquare(p.N),
		lBuf:       bitmat.NewSquare(p.N),
		rowDst:     make([][]int32, p.K),
		colSrc:     make([][]int32, p.K),
		cfgRowMask: make([][]uint64, p.K),
		cfgColMask: make([][]uint64, p.K),
		cfgCount:   make([]int, p.K),
	}
	// The per-slot index and every occupancy mask are carved from two
	// arenas, one allocation each. Full slice expressions cap each piece's
	// capacity, so an append that outgrows a piece reallocates instead of
	// spilling into its neighbour.
	occWords := (p.N + 63) / 64
	idx := make([]int32, 2*p.K*p.N)
	for j := range idx {
		idx[j] = -1
	}
	words := make([]uint64, (2*p.K+4)*occWords)
	carveIdx := func() []int32 {
		piece := idx[:p.N:p.N]
		idx = idx[p.N:]
		return piece
	}
	carveWords := func() []uint64 {
		piece := words[:occWords:occWords]
		words = words[occWords:]
		return piece
	}
	for i := range s.configs {
		s.configs[i] = bitmat.NewSquare(p.N)
		s.rowDst[i] = carveIdx()
		s.colSrc[i] = carveIdx()
		s.cfgRowMask[i] = carveWords()
		s.cfgColMask[i] = carveWords()
	}
	if p.LatchRequests {
		s.effBuf = bitmat.NewSquare(p.N)
	}
	s.occOut = carveWords()
	s.occIn = carveWords()
	s.activeMask = carveWords()
	s.pendingMask = carveWords()
	// A pass visits at most SLCopies slots and, in each, establishes and
	// releases at most one connection per input row, so the change buffers
	// are sized for that once instead of growing through the first passes.
	changes := p.N * p.SLCopies
	buf := make([]Change, 2*changes)
	s.estBuf = buf[:0:changes]
	s.relBuf = buf[changes:changes]
	s.wordRowMin = wordRowThreshold(p.N)
	if p.Algorithm != AlgPaper {
		s.match = newMatchState(p)
	}
	return s, nil
}

// --- per-pair slot index ---

// setConn establishes u→v in a slot, updating the configuration matrix, the
// slot index, the per-slot occupancy masks and B* together. The caller must
// have verified the slot's row u and column v are free (partial-permutation
// discipline); every establish path does.
func (s *Scheduler) setConn(slot, u, v int) {
	s.configs[slot].Set(u, v)
	s.rowDst[slot][u] = int32(v)
	s.colSrc[slot][v] = int32(u)
	maskSet(s.cfgRowMask[slot], u)
	maskSet(s.cfgColMask[slot], v)
	s.cfgCount[slot]++
	s.bstar.Set(u, v)
}

// clearConn releases u→v from a slot. The connection must be present there.
// B* drops the bit only when the pair is gone from every slot (AddBandwidth
// can hold it in several).
func (s *Scheduler) clearConn(slot, u, v int) {
	s.configs[slot].Clear(u, v)
	s.rowDst[slot][u] = -1
	s.colSrc[slot][v] = -1
	maskClear(s.cfgRowMask[slot], u)
	maskClear(s.cfgColMask[slot], v)
	s.cfgCount[slot]--
	if s.slotCountOf(u, v) == 0 {
		s.bstar.Clear(u, v)
	}
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

// MustScheduler is NewScheduler for static configurations known to be valid
// (tests, table generators); it panics on error.
func MustScheduler(p Params) *Scheduler {
	s, err := NewScheduler(p)
	if err != nil {
		panic(err)
	}
	return s
}

// Params returns the scheduler's configuration.
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

// Config returns a copy of configuration matrix B(slot).
func (s *Scheduler) Config(slot int) *bitmat.Matrix {
	s.checkSlot(slot)
	return s.configs[slot].Clone()
}

// BStar returns a copy of B*, the OR of all configuration matrices: every
// connection currently established in any slot. B* is maintained
// incrementally by the connection index, so this is just a copy.
func (s *Scheduler) BStar() *bitmat.Matrix {
	return s.bstar.Clone()
}

// BStarView returns B* itself, without the copy BStar makes. The matrix is
// live and read-only for callers: every establish, eviction and flush
// changes it.
func (s *Scheduler) BStarView() *bitmat.Matrix { return s.bstar }

// Connected reports whether the connection src→dst is established in any
// slot (the B* bit).
func (s *Scheduler) Connected(src, dst int) bool {
	return s.bstar.Get(src, dst)
}

// SlotsOf returns the slots in which src→dst is established (more than one
// under AddBandwidth).
func (s *Scheduler) SlotsOf(src, dst int) []int {
	return s.AppendSlotsOf(nil, src, dst)
}

// AppendSlotsOf appends the slots in which src→dst is established to dst
// and returns the extended slice — the allocation-free variant of SlotsOf
// for hot paths that hold a reusable buffer. The slot index makes this O(K)
// array reads instead of K row-word scans.
func (s *Scheduler) AppendSlotsOf(dst []int, src, dstPort int) []int {
	for i := 0; i < s.p.K; i++ {
		if s.rowDst[i][src] == int32(dstPort) {
			dst = append(dst, i)
		}
	}
	return dst
}

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

// Connections returns the number of distinct established connections.
func (s *Scheduler) Connections() int {
	return s.bstar.Count()
}

// ActiveSlots returns the indices of slots with a non-empty configuration —
// the effective multiplexing degree the TDM counter cycles through when
// empty-slot skipping is on.
func (s *Scheduler) ActiveSlots() []int {
	return s.AppendActiveSlots(nil)
}

// AppendActiveSlots appends the active slot indices to dst and returns the
// extended slice — the allocation-free variant of ActiveSlots.
func (s *Scheduler) AppendActiveSlots(dst []int) []int {
	for i, n := range s.cfgCount {
		if n > 0 {
			dst = append(dst, i)
		}
	}
	return dst
}

// ActiveSlotCount returns the number of non-empty slots without
// materializing the index list.
func (s *Scheduler) ActiveSlotCount() int {
	n := 0
	for _, c := range s.cfgCount {
		if c > 0 {
			n++
		}
	}
	return n
}

// AppendSlotConns appends every connection of a slot to dst in ascending
// row order and returns the extended slice — the list the fabric register
// is loaded with and the data-plane grant snapshot, read straight from the
// slot index in O(connections) instead of N first-in-row word scans.
func (s *Scheduler) AppendSlotConns(dst []topology.Conn, slot int) []topology.Conn {
	s.checkSlot(slot)
	mask := s.cfgRowMask[slot]
	for w, word := range mask {
		for word != 0 {
			u := w*64 + bits.TrailingZeros64(word)
			word &= word - 1
			dst = append(dst, topology.Conn{Src: u, Dst: int(s.rowDst[slot][u])})
		}
	}
	return dst
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
// configuration the fabric carries for the next time slot; the caller loads
// the fabric from AppendSlotConns(slot). With SkipEmptySlots it skips
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

// GrantRow returns the grant signal G_u for NIC u in the given slot: the
// output port u may send to during that slot, or -1 when u has no grant.
// At most one bit of a configuration row is set, so the grant is a single
// port.
func (s *Scheduler) GrantRow(slot, u int) int {
	s.checkSlot(slot)
	s.checkPort(u)
	return int(s.rowDst[slot][u])
}

// --- scheduling logic (SL side) ---

// effectiveRequests returns R | latch when latching is on, otherwise R.
// The latch matrix holds requests the scheduler has decided to remember
// after the NIC dropped them (extension 3). Under latching the result is
// the scheduler's effBuf scratch, valid until the next call.
func (s *Scheduler) effectiveRequests(r *bitmat.Matrix) *bitmat.Matrix {
	if !s.p.LatchRequests {
		return r
	}
	s.effBuf.CopyFrom(r)
	s.effBuf.Or(s.latch.Matrix())
	return s.effBuf
}

// PreSchedule computes the change matrix L of Table 1 for slot `slot` given
// request matrix r: L(u,v)=1 when the connection should be released from the
// slot (not requested but realized there) or established (requested and
// realized nowhere). The result is a scheduler-owned scratch matrix, valid
// until the next PreSchedule, ScheduleSlot or Pass call.
func (s *Scheduler) PreSchedule(r *bitmat.Matrix, slot int) *bitmat.Matrix {
	s.checkSlot(slot)
	s.checkShape(r)
	eff := s.effectiveRequests(r)

	// Release term: not requested, realized in slot s -> B(s) &^ Reff.
	l := s.lBuf
	l.CopyFrom(s.configs[slot])
	l.AndNot(eff)
	// Establish term: requested, realized nowhere -> Reff &^ B*, fused into
	// the same scan.
	l.OrAndNot(eff, s.bstar)
	return l
}

func (s *Scheduler) checkShape(m *bitmat.Matrix) {
	if m.Rows() != s.p.N || m.Cols() != s.p.N {
		panic(fmt.Sprintf("core: matrix is %dx%d, scheduler is %dx%d", m.Rows(), m.Cols(), s.p.N, s.p.N))
	}
}

// ScheduleSlot runs one SL-array evaluation (Table 2) against slot `slot`,
// mutating B(slot). It returns the changes it made in scheduler-owned
// scratch slices, valid until the next ScheduleSlot or Pass call. The array
// is scanned in the rotated priority order: rows from origin a, columns from
// origin b, with the availability signals A (per output column) and D (per
// input row) initialized from AO/AI and updated as connections are released
// and established, exactly as the propagating hardware signals would be.
func (s *Scheduler) ScheduleSlot(r *bitmat.Matrix, slot int) (established, released []Change) {
	s.estBuf = s.estBuf[:0]
	s.relBuf = s.relBuf[:0]
	s.dispatchSlot(r, nil, slot)
	return s.estBuf, s.relBuf
}

// occupancy bitmask helpers for the AO/AI vectors.
func maskTest(m []uint64, i int) bool { return m[i>>6]&(1<<(uint(i)&63)) != 0 }
func maskSet(m []uint64, i int)       { m[i>>6] |= 1 << (uint(i) & 63) }
func maskClear(m []uint64, i int)     { m[i>>6] &^= 1 << (uint(i) & 63) }

// dispatchSlot routes one slot evaluation to the configured matching
// algorithm. For the paper algorithm, a non-nil sp selects the sparse-path
// evaluation (bit-identical to the dense one — see sparsepass.go); the
// alternative matchers consume the dense form either way.
func (s *Scheduler) dispatchSlot(r *bitmat.Matrix, sp *bitmat.Sparse, slot int) {
	switch s.p.Algorithm {
	case AlgISLIP:
		s.scheduleSlotISLIP(r, slot)
	case AlgWavefront:
		s.scheduleSlotWavefront(r, slot)
	default:
		if sp != nil {
			s.scheduleSlotSparse(sp, slot)
		} else {
			s.scheduleSlot(r, slot)
		}
	}
}

// scheduleSlot is the allocation-free SL-array evaluation shared by
// ScheduleSlot and Pass. It appends changes to estBuf/relBuf without
// resetting them, so one Pass accumulates across its SLCopies slots.
func (s *Scheduler) scheduleSlot(r *bitmat.Matrix, slot int) {
	s.checkSlot(slot)
	if s.pinned[slot] {
		panic(fmt.Sprintf("core: ScheduleSlot on pinned slot %d", slot))
	}
	l := s.PreSchedule(r, slot)
	if l.IsZero() {
		return
	}
	b := s.configs[slot]
	n := s.p.N
	estStart, relStart := len(s.estBuf), len(s.relBuf)

	// A[v]: output v occupied in this slot (paper's AO). D[u]: input u
	// occupied (paper's AI). The slot index maintains both masks
	// incrementally; the pass works on copies it mutates as it goes.
	s.occOut = append(s.occOut[:0], s.cfgColMask[slot]...)
	s.occIn = append(s.occIn[:0], s.cfgRowMask[slot]...)

	a, bo := 0, 0
	if s.p.RotatePriority {
		a, bo = s.rot%n, s.rot%n
	}

	for i := 0; i < n; i++ {
		u := (a + i) % n
		if !l.RowAny(u) {
			continue
		}
		// Visit this row's L=1 cells in rotated column order, word-at-a-time.
		s.colBuf = l.AppendRowOnesFrom(s.colBuf[:0], u, bo)
		for _, v := range s.colBuf {
			// Each SL cell holds its own register bit B(s)(u,v), so it can
			// distinguish the release case (bit set, ports necessarily
			// occupied by this very connection) from an establish request
			// whose ports happen to be busy.
			if b.Get(u, v) {
				// Table 2 row (L=1, A=1, D=1): release, ports become free.
				s.clearConn(slot, u, v)
				maskClear(s.occOut, v)
				maskClear(s.occIn, u)
				s.relBuf = append(s.relBuf, Change{Src: u, Dst: v, Slot: slot})
			} else if !maskTest(s.occOut, v) && !maskTest(s.occIn, u) {
				if s.p.CanEstablish != nil && !s.p.CanEstablish(b, u, v) {
					// Fabric constraint: the connection would make this
					// slot's configuration unrealizable; treat it like a
					// port conflict and leave it for another slot.
					continue
				}
				// Table 2 row (L=1, A=0, D=0): establish, ports become busy.
				s.setConn(slot, u, v)
				maskSet(s.occOut, v)
				maskSet(s.occIn, u)
				s.estBuf = append(s.estBuf, Change{Src: u, Dst: v, Slot: slot})
			}
			// Mixed availability (Table 2 middle rows): no change; the
			// signals pass through unchanged.
		}
	}
	s.finishSlot(slot, estStart, relStart)
}

// finishSlot is the shared slot epilogue: latch maintenance and activity
// counters over the changes appended since (estStart, relStart).
func (s *Scheduler) finishSlot(slot, estStart, relStart int) {
	established := s.estBuf[estStart:]
	released := s.relBuf[relStart:]
	if s.p.LatchRequests {
		for _, c := range established {
			s.latch.Set(c.Src, c.Dst)
		}
		for _, c := range released {
			// Released connections (evicted or flushed) lose their latch if
			// they are gone from every slot.
			if s.slotCountOf(c.Src, c.Dst) == 0 {
				s.latch.Clear(c.Src, c.Dst)
			}
		}
	}
	s.stats.Established += uint64(len(established))
	s.stats.Released += uint64(len(released))
}

// Pass runs one scheduler pass: SLCopies scheduling-logic evaluations on the
// next dynamic (unpinned) slots in SL-counter order, then advances the
// priority rotation. It is the unit of work that costs PassLatency() in
// simulated time. The returned slices are scheduler-owned and valid until
// the next Pass or ScheduleSlot call.
func (s *Scheduler) Pass(r *bitmat.Matrix) PassResult {
	return s.passProbed(r, nil)
}

// PassSparse is Pass taking the request matrix in sparse form. For the
// paper algorithm it runs the sparse-path evaluation — cost proportional to
// the active rows and their nonzeros instead of N²/64 words — and is
// bit-identical to Pass over sp's dense form. The alternative algorithms
// consume the dense backing either way.
func (s *Scheduler) PassSparse(sp *bitmat.Sparse) PassResult {
	return s.passProbed(sp.Matrix(), sp)
}

// passProbed wraps the pass body with probe emission when attached.
func (s *Scheduler) passProbed(r *bitmat.Matrix, sp *bitmat.Sparse) PassResult {
	if s.probe == nil {
		return s.pass(r, sp)
	}
	now := s.now()
	s.probe.Emit(probe.Event{Kind: probe.SchedPassBegin, At: now})
	res := s.pass(r, sp)
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

// pass is the probe-free body of Pass. A non-nil sp must wrap r (sp.Matrix()
// == r); it selects the sparse-path slot evaluation for the paper algorithm.
func (s *Scheduler) pass(r *bitmat.Matrix, sp *bitmat.Sparse) PassResult {
	s.stats.Passes++
	dyn := s.DynamicSlotCount()
	if dyn == 0 {
		return PassResult{}
	}

	copies := s.p.SLCopies
	if copies > dyn {
		copies = dyn
	}
	s.estBuf = s.estBuf[:0]
	s.relBuf = s.relBuf[:0]
	s.slotsBuf = s.slotsBuf[:0]
	if sp != nil && s.p.Algorithm == AlgPaper {
		s.computePendingMask(sp)
	}
	for c := 0; c < copies; c++ {
		// Advance the SL cursor to the next dynamic slot.
		var slot int
		for {
			slot = s.slCursor
			s.slCursor = (s.slCursor + 1) % s.p.K
			if !s.pinned[slot] {
				break
			}
		}
		s.dispatchSlot(r, sp, slot)
		s.slotsBuf = append(s.slotsBuf, slot)
	}
	if s.p.RotatePriority {
		s.rot = (s.rot + 1) % s.p.N
	}
	return PassResult{Slots: s.slotsBuf, Established: s.estBuf, Released: s.relBuf}
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
// compiled communication). The configuration must be a partial permutation.
// If pin is true the slot is excluded from dynamic scheduling until
// UnpinSlot or FlushAll.
func (s *Scheduler) LoadConfig(slot int, cfg *bitmat.Matrix, pin bool) error {
	s.checkSlot(slot)
	if cfg.Rows() != s.p.N || cfg.Cols() != s.p.N {
		return fmt.Errorf("core: configuration is %dx%d, want %dx%d", cfg.Rows(), cfg.Cols(), s.p.N, s.p.N)
	}
	if !cfg.IsPartialPermutation() {
		return fmt.Errorf("core: configuration for slot %d is not a partial permutation", slot)
	}
	s.clearSlot(slot)
	cfg.Ones(func(u, v int) bool {
		s.setConn(slot, u, v)
		return true
	})
	s.pinned[slot] = pin
	return nil
}

// PinSlot marks a slot as preloaded so dynamic scheduling leaves it alone.
func (s *Scheduler) PinSlot(slot int, pin bool) {
	s.checkSlot(slot)
	s.pinned[slot] = pin
}

// Pinned reports whether a slot is pinned.
func (s *Scheduler) Pinned(slot int) bool {
	s.checkSlot(slot)
	return s.pinned[slot]
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
	if !s.Connected(src, dst) {
		return 0
	}
	added := 0
	for slot := 0; slot < s.p.K && added < extra; slot++ {
		if s.pinned[slot] || s.rowDst[slot][src] >= 0 || s.colSrc[slot][dst] >= 0 {
			continue
		}
		if s.p.CanEstablish != nil && !s.p.CanEstablish(s.configs[slot], src, dst) {
			continue
		}
		s.setConn(slot, src, dst)
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
	latched := s.latch.Get(src, dst)
	if latched {
		s.latch.Clear(src, dst)
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
			s.clearConn(slot, p, int(v))
			out = append(out, Change{Src: p, Dst: int(v), Slot: slot})
		}
		if u := s.colSrc[slot][p]; u >= 0 {
			s.clearConn(slot, int(u), p)
			out = append(out, Change{Src: int(u), Dst: p, Slot: slot})
		}
	}
	for _, ch := range out {
		s.latch.Clear(ch.Src, ch.Dst)
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

// FlushAll clears everything, including pinned slots, and unpins them.
func (s *Scheduler) FlushAll() {
	for slot := 0; slot < s.p.K; slot++ {
		s.clearSlot(slot)
		s.pinned[slot] = false
	}
	s.latch.Reset()
	s.stats.Flushes++
	if s.probe != nil {
		s.probe.Emit(probe.Event{Kind: probe.Flush, At: s.now()})
	}
}

// Latched reports whether a dropped request for src→dst is being held.
func (s *Scheduler) Latched(src, dst int) bool {
	return s.latch.Get(src, dst)
}

// CheckInvariants verifies the structural invariants of the scheduler state:
// every configuration is a partial permutation, B* equals the OR of the
// configurations, the per-pair slot index (rowDst/colSrc, occupancy masks,
// counts) matches the matrices, and the sparse latch matches its dense
// backing. It returns an error describing the first violation. Tests and the
// simulation's self-checks call this; it is cheap (O(K·N²/64)).
func (s *Scheduler) CheckInvariants() error {
	for i, c := range s.configs {
		if !c.IsPartialPermutation() {
			return fmt.Errorf("core: B(%d) is not a partial permutation", i)
		}
	}
	if s.invBuf == nil {
		s.invBuf = bitmat.NewSquare(s.p.N)
	}
	want := s.invBuf
	want.Reset()
	for _, c := range s.configs {
		want.Or(c)
	}
	if !s.bstar.Equal(want) {
		return fmt.Errorf("core: B* out of sync with configurations")
	}
	for i, c := range s.configs {
		count := 0
		for u := 0; u < s.p.N; u++ {
			v := c.FirstInRow(u)
			if int(s.rowDst[i][u]) != v {
				return fmt.Errorf("core: slot %d rowDst[%d]=%d, matrix says %d", i, u, s.rowDst[i][u], v)
			}
			if maskTest(s.cfgRowMask[i], u) != (v >= 0) {
				return fmt.Errorf("core: slot %d row mask out of sync at input %d", i, u)
			}
			if v >= 0 {
				count++
				if int(s.colSrc[i][v]) != u {
					return fmt.Errorf("core: slot %d colSrc[%d]=%d, matrix says %d", i, v, s.colSrc[i][v], u)
				}
			}
		}
		for v := 0; v < s.p.N; v++ {
			has := c.ColAny(v)
			if maskTest(s.cfgColMask[i], v) != has {
				return fmt.Errorf("core: slot %d column mask out of sync at output %d", i, v)
			}
			if !has && s.colSrc[i][v] != -1 {
				return fmt.Errorf("core: slot %d colSrc[%d]=%d, column is empty", i, v, s.colSrc[i][v])
			}
		}
		if s.cfgCount[i] != count {
			return fmt.Errorf("core: slot %d count %d, matrix holds %d", i, s.cfgCount[i], count)
		}
	}
	if err := s.latch.CheckParity(); err != nil {
		return fmt.Errorf("core: latch: %w", err)
	}
	return nil
}
