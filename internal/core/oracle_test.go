package core

import (
	"fmt"
	"math/bits"

	"pmsnet/internal/bitmat"
)

// The dense oracle: every matching algorithm evaluated over N×N matrices.
// Pass, ScheduleSlot and PreSchedule take the requests as a matrix, build
// the latch and B* as matrices from the id-keyed state, and run the same
// slot index mutations, epilogue and SL counter as PassSparse. The parity
// suites (identity_test.go, parity_test.go) hold PassSparse bit-identical
// to them. They emit no probe events.

// denseScratch holds the oracle's N×N matrices, its port masks and its
// column buffer. All of them are per-call scratch, rebuilt from the
// scheduler's state on every evaluation, so the schedulers of one size
// share one set; the package's tests run serially.
type denseScratch struct {
	eff   *bitmat.Matrix // R | latch
	bstar *bitmat.Matrix // B*
	l     *bitmat.Matrix // Table 1's change matrix; the matchers' pending cells

	occOut []uint64 // AO bitmask: output v occupied in the slot
	occIn  []uint64 // AI bitmask: input u occupied in the slot
	colBuf []int    // rotated set-column scan of one L row
}

var denseScratchByN = map[int]*denseScratch{}

func (s *Scheduler) denseMats() *denseScratch {
	n := s.p.N
	d := denseScratchByN[n]
	if d == nil {
		d = &denseScratch{eff: bitmat.NewSquare(n), bstar: bitmat.NewSquare(n), l: bitmat.NewSquare(n)}
		denseScratchByN[n] = d
	}
	return d
}

// setIDs sets in m the cell of every connection in the id bitset, resolving
// sources with a row cursor.
func (s *Scheduler) setIDs(m *bitmat.Matrix, ids []uint64) {
	src := -1
	for w, x := range ids {
		for ; x != 0; x &= x - 1 {
			id := int32(w<<6 | bits.TrailingZeros64(x))
			src = s.conns.SrcFrom(src, id)
			m.Set(src, s.conns.Dst(id))
		}
	}
}

// bstarMatrix returns B* as a matrix in the dense scratch, valid until the
// next call.
func (s *Scheduler) bstarMatrix() *bitmat.Matrix {
	m := s.denseMats().bstar
	m.Reset()
	s.setIDs(m, s.held)
	return m
}

// effectiveRequests returns R | latch when latching is on, otherwise R.
// The latch holds requests the scheduler has decided to remember after the
// NIC dropped them (extension 3). Under latching the result is dense
// scratch, valid until the next call.
func (s *Scheduler) effectiveRequests(r *bitmat.Matrix) *bitmat.Matrix {
	if !s.p.LatchRequests {
		return r
	}
	eff := s.denseMats().eff
	eff.CopyFrom(r)
	s.setIDs(eff, s.latch.IDs())
	return eff
}

// PreSchedule computes the change matrix L of Table 1 for slot `slot` given
// request matrix r: L(u,v)=1 when the connection should be released from the
// slot (not requested but realized there) or established (requested and
// realized nowhere). The result is dense scratch, valid until the next
// PreSchedule, ScheduleSlot or Pass call.
func (s *Scheduler) PreSchedule(r *bitmat.Matrix, slot int) *bitmat.Matrix {
	s.checkSlot(slot)
	s.checkShape(r)
	eff := s.effectiveRequests(r)
	l := s.denseMats().l
	l.Reset()
	// Release term: not requested, realized in slot s -> B(s) &^ Reff.
	for u, v := range s.rowDst[slot] {
		if v >= 0 && !eff.Get(u, int(v)) {
			l.Set(u, int(v))
		}
	}
	// Establish term: requested, realized nowhere -> Reff &^ B*.
	l.OrAndNot(eff, s.bstarMatrix())
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
	s.dispatchDense(r, slot)
	return s.estBuf, s.relBuf
}

// dispatchDense routes one dense slot evaluation to the configured matching
// algorithm, as dispatchSlot routes the id-keyed ones.
func (s *Scheduler) dispatchDense(r *bitmat.Matrix, slot int) {
	switch s.p.Algorithm {
	case AlgISLIP:
		s.scheduleSlotISLIP(r, slot)
	case AlgWavefront:
		s.scheduleSlotWavefront(r, slot)
	default:
		s.scheduleSlot(r, slot)
	}
}

// scheduleSlot is the dense SL-array evaluation, the oracle the sparse path
// is tested against. It appends changes to estBuf/relBuf without resetting
// them, so one Pass accumulates across its SLCopies slots.
func (s *Scheduler) scheduleSlot(r *bitmat.Matrix, slot int) {
	s.checkSlot(slot)
	if s.pinned[slot] {
		panic(fmt.Sprintf("core: ScheduleSlot on pinned slot %d", slot))
	}
	l := s.PreSchedule(r, slot)
	if l.IsZero() {
		return
	}
	rowDst := s.rowDst[slot]
	n := s.p.N
	estStart, relStart := len(s.estBuf), len(s.relBuf)
	d := s.denseMats()

	// A[v]: output v occupied in this slot (paper's AO). D[u]: input u
	// occupied (paper's AI). The slot index maintains both masks
	// incrementally; the pass works on copies it mutates as it goes.
	d.occOut = append(d.occOut[:0], s.cfgColMask[slot]...)
	d.occIn = append(d.occIn[:0], s.cfgRowMask[slot]...)

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
		d.colBuf = l.AppendRowOnesFrom(d.colBuf[:0], u, bo)
		for _, v := range d.colBuf {
			// Each SL cell holds its own register bit B(s)(u,v), so it can
			// distinguish the release case (bit set, ports necessarily
			// occupied by this very connection) from an establish request
			// whose ports happen to be busy.
			if rowDst[u] == int32(v) {
				// Table 2 row (L=1, A=1, D=1): release, ports become free.
				id := s.clearConn(slot, u, v)
				maskClear(d.occOut, v)
				maskClear(d.occIn, u)
				s.relBuf = append(s.relBuf, Change{Src: u, Dst: v, Slot: slot, ID: id})
			} else if !maskTest(d.occOut, v) && !maskTest(d.occIn, u) {
				if s.p.CanEstablish != nil && !s.p.CanEstablish(rowDst, u, v) {
					// Fabric constraint: the connection would make this
					// slot's configuration unrealizable; treat it like a
					// port conflict and leave it for another slot.
					continue
				}
				// Table 2 row (L=1, A=0, D=0): establish, ports become busy.
				id := s.idOf(u, v)
				s.setConn(slot, u, v, id)
				maskSet(d.occOut, v)
				maskSet(d.occIn, u)
				s.estBuf = append(s.estBuf, Change{Src: u, Dst: v, Slot: slot, ID: id})
			}
			// Mixed availability (Table 2 middle rows): no change; the
			// signals pass through unchanged.
		}
	}
	s.finishSlot(slot, estStart, relStart)
}

// Pass runs one scheduler pass: SLCopies scheduling-logic evaluations on the
// next dynamic (unpinned) slots in SL-counter order, then advances the
// priority rotation. Pass takes the request matrix in dense form and runs the
// dense evaluation, the oracle PassSparse is tested against; every request
// must be a connection of Params.Conns. The returned slices are
// scheduler-owned and valid until the next Pass or ScheduleSlot call.
func (s *Scheduler) Pass(r *bitmat.Matrix) PassResult {
	s.checkShape(r)
	return s.passDense(r)
}

// passDense is pass with the dense slot evaluations.
func (s *Scheduler) passDense(r *bitmat.Matrix) PassResult {
	s.stats.Passes++
	dyn := s.DynamicSlotCount()
	if dyn == 0 {
		return PassResult{}
	}
	s.estBuf = s.estBuf[:0]
	s.relBuf = s.relBuf[:0]
	s.slotsBuf = s.slotsBuf[:0]
	for c := 0; c < min(s.p.SLCopies, dyn); c++ {
		s.dispatchDense(r, s.nextSLSlot())
	}
	if s.p.RotatePriority {
		s.rot = (s.rot + 1) % s.p.N
	}
	return PassResult{Slots: s.slotsBuf, Established: s.estBuf, Released: s.relBuf}
}

// releaseVanished releases every connection of the slot whose effective
// request is gone — the shared prologue of both alternative matchers,
// matching the paper algorithm's release term B(s) &^ Reff.
func (s *Scheduler) releaseVanished(eff *bitmat.Matrix, slot int) {
	mask := s.cfgRowMask[slot]
	for w, word := range mask {
		for word != 0 {
			u := w*64 + bits.TrailingZeros64(word)
			word &= word - 1
			v := int(s.rowDst[slot][u])
			if !eff.Get(u, v) {
				id := s.clearConn(slot, u, v)
				s.relBuf = append(s.relBuf, Change{Src: u, Dst: v, Slot: slot, ID: id})
			}
		}
	}
}

// pendingCells returns the slot's pending cells after releaseVanished:
// Reff &^ B*, in dense scratch. A cell the evaluation establishes takes its
// row, so later cells of the row fail the row-occupancy test and the
// snapshot stays exact without being updated.
func (s *Scheduler) pendingCells(eff *bitmat.Matrix) *bitmat.Matrix {
	pend := s.denseMats().l
	pend.CopyFrom(eff)
	pend.AndNot(s.bstarMatrix())
	return pend
}

// candidate reports whether u→v is pending for this slot: effectively
// requested, realized in no slot, with both ports free here. The slot
// occupancy masks are maintained live by setConn, so the test stays correct
// as the match grows.
func (s *Scheduler) candidate(pend *bitmat.Matrix, slot, u, v int) bool {
	return !maskTest(s.cfgRowMask[slot], u) && !maskTest(s.cfgColMask[slot], v) && pend.Get(u, v)
}

// scheduleSlotISLIP is one slot evaluation under iSLIP.
func (s *Scheduler) scheduleSlotISLIP(r *bitmat.Matrix, slot int) {
	s.checkSlot(slot)
	if s.pinned[slot] {
		panic(fmt.Sprintf("core: ScheduleSlot on pinned slot %d", slot))
	}
	eff := s.effectiveRequests(r)
	estStart, relStart := len(s.estBuf), len(s.relBuf)
	s.releaseVanished(eff, slot)
	pend := s.pendingCells(eff)

	m := s.match
	cfg := s.rowDst[slot]
	n := s.p.N
	for it := 0; it < m.maxIter; it++ {
		// Grant: each free output offers to the requesting free input closest
		// to its pointer.
		for v := 0; v < n; v++ {
			m.grantOf[v] = -1
			if maskTest(s.cfgColMask[slot], v) {
				continue
			}
			p := m.grantPtr[v]
			for k := 0; k < n; k++ {
				u := (p + k) % n
				if s.candidate(pend, slot, u, v) {
					m.grantOf[v] = int32(u)
					break
				}
			}
		}
		// Accept: each free input takes the offering output closest to its
		// pointer; pointers advance only on first-iteration accepts.
		accepted := false
		for u := 0; u < n; u++ {
			if maskTest(s.cfgRowMask[slot], u) {
				continue
			}
			p := m.acceptPtr[u]
			acc := -1
			for k := 0; k < n; k++ {
				v := (p + k) % n
				if int(m.grantOf[v]) == u && !maskTest(s.cfgColMask[slot], v) {
					acc = v
					break
				}
			}
			if acc < 0 {
				continue
			}
			if s.p.CanEstablish != nil && !s.p.CanEstablish(cfg, u, acc) {
				// Fabric constraint: the accept would make the slot
				// unrealizable; drop it without moving the pointers, leaving
				// the request for another slot.
				continue
			}
			id := s.idOf(u, acc)
			s.setConn(slot, u, acc, id)
			s.estBuf = append(s.estBuf, Change{Src: u, Dst: acc, Slot: slot, ID: id})
			accepted = true
			if it == 0 {
				m.grantPtr[acc] = (u + 1) % n
				m.acceptPtr[u] = (acc + 1) % n
			}
		}
		if !accepted {
			break
		}
	}
	s.finishSlot(slot, estStart, relStart)
}

// scheduleSlotWavefront is one slot evaluation under wavefront matching:
// anti-diagonal d holds the cells {(u,v): (u+v) mod N == d}, whose rows and
// columns are pairwise distinct, so a diagonal resolves without conflict.
// Diagonals sweep from the rotation origin for fairness.
func (s *Scheduler) scheduleSlotWavefront(r *bitmat.Matrix, slot int) {
	s.checkSlot(slot)
	if s.pinned[slot] {
		panic(fmt.Sprintf("core: ScheduleSlot on pinned slot %d", slot))
	}
	eff := s.effectiveRequests(r)
	estStart, relStart := len(s.estBuf), len(s.relBuf)
	s.releaseVanished(eff, slot)
	pend := s.pendingCells(eff)

	cfg := s.rowDst[slot]
	n := s.p.N
	off := 0
	if s.p.RotatePriority {
		off = s.rot % n
	}
	for i := 0; i < n; i++ {
		d := (off + i) % n
		for u := 0; u < n; u++ {
			if maskTest(s.cfgRowMask[slot], u) {
				continue
			}
			v := d - u
			if v < 0 {
				v += n
			}
			if !s.candidate(pend, slot, u, v) {
				continue
			}
			if s.p.CanEstablish != nil && !s.p.CanEstablish(cfg, u, v) {
				continue
			}
			id := s.idOf(u, v)
			s.setConn(slot, u, v, id)
			s.estBuf = append(s.estBuf, Change{Src: u, Dst: v, Slot: slot, ID: id})
		}
	}
	s.finishSlot(slot, estStart, relStart)
}
