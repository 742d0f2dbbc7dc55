// Sparse-path slot evaluation for the paper algorithm.
//
// The dense evaluation, which the tests keep as the oracle (scheduleSlot in
// oracle_test.go), materializes the full change matrix L and scans all
// N²/64 words of it per slot; at N ≥ 512 that scan dominates pass cost even
// when almost every word is zero. The sparse path reads the
// requests, the latch and B* as bitsets over connection ids. It visits only
// the rows that can hold an L cell, and in each row does only the work that
// can change B(slot): cost proportional to the active rows and the id words
// they scan before their first establish. Row u's requests are the set bits
// of its id range Row(u), and ids ascend in destination order, so a scan of
// that range is a scan of the row in column order. Two arguments make it
// bit-identical to the dense evaluation.
//
// Row locality. L's row u is a function of row u of B(slot), Reff and B*
// only. During a slot scan the only mutations are setConn/clearConn on cells
// of the row being visited (latch updates are deferred to the finishSlot
// epilogue), so when the scan reaches row u, row u of every input matrix
// still holds its pre-scan value — reading the row's inputs live at visit
// time sees exactly the L snapshot the dense evaluation precomputed.
//
// AI is held for the whole visit, or until the row's first establish. A
// Table 2 cell establishes only where its input port (AI) and output port
// (AO) are both free. A row whose slot connection u→v0 is still in Reff has
// no release cell, so AI stays set and no cell of the row can act: the row
// is skipped. A row whose u→v0 has left Reff releases it at v0; the cells
// before v0 in rotated column order met a busy AI, so the establish search
// starts just after v0. Once a row establishes, AI is set for the rest of
// the row, so the search is a first-fit scan in rotated column order that
// stops at the first candidate — in Reff, not in B*, its output free — that
// the CanEstablish hook accepts; the hook sees the same calls, in the same
// order, as in the dense evaluation.
package core

import (
	"math/bits"

	"pmsnet/internal/bitmat"
	"pmsnet/internal/topology"
)

// computePendingMask fills s.pendingMask with the rows holding at least one
// request realized nowhere (row of R &^ B* nonempty) — the only rows whose
// visit can yield an establish cell. pass calls it once before the slot loop;
// the mask stays a valid superset for the whole pass because establishes only
// grow B*, and a release removes a pair that is by definition unrequested at
// release time and — since R is fixed for the pass and latch bits are only
// minted for established (hence requested) pairs — stays out of Reff until
// the pass ends.
func (s *Scheduler) computePendingMask(req *topology.IDSet) {
	pm := s.pendingMask
	clear(pm)
	ids := req.IDs()
	for wi, w := range req.Rows() {
		for ; w != 0; w &= w - 1 {
			b := bits.TrailingZeros64(w)
			lo, hi := s.conns.Row(wi*64 + b)
			for k := lo >> 6; k <= (hi-1)>>6; k++ {
				if ids[k]&^s.held[k]&idRangeMask(k, lo, hi) != 0 {
					pm[wi] |= 1 << uint(b)
					break
				}
			}
		}
	}
}

// scheduleSlotSparse is scheduleSlot evaluated from the id-keyed requests:
// the same Table 1–2 semantics, restricted to the rows that can hold a
// change cell. It requires the pass to have called computePendingMask first.
func (s *Scheduler) scheduleSlotSparse(req *topology.IDSet, slot int) {
	n := s.p.N

	// A row can hold an L cell only if it has an unserved request (the
	// pending mask — a row whose requests are all realized in B* cannot
	// yield an establish), a latched request, or a connection in this slot.
	am := s.activeMask
	for w, x := range s.pendingMask {
		am[w] = x | s.cfgRowMask[slot][w]
	}
	if s.p.LatchRequests {
		// The table may span fewer ports, and so fewer mask words.
		for w, x := range s.latch.Rows() {
			am[w] |= x
		}
	}

	a, bo := 0, 0
	if s.p.RotatePriority {
		a, bo = s.rot%n, s.rot%n
	}
	s.rowsBuf = bitmat.AppendMaskOnesFrom(s.rowsBuf[:0], am, n, a)
	if len(s.rowsBuf) == 0 {
		return
	}
	estStart, relStart := len(s.estBuf), len(s.relBuf)
	rowDst := s.rowDst[slot] // B(slot)'s row u is the one connection u→rowDst[u], if any
	for _, u := range s.rowsBuf {
		// Row u's ids [lo, hi) ascend in column order, so a scan of an id
		// range in rotated column order needs only column limits.
		lo, hi := s.conns.Row(u)
		v0 := int(rowDst[u])
		if v0 < 0 {
			if !s.establishFirst(req, slot, u, lo, hi, bo, n) {
				s.establishFirst(req, slot, u, lo, hi, 0, bo)
			}
			continue
		}
		if s.wanted(req, s.rowID[slot][u]) {
			continue // no release cell: AI is held for the whole visit
		}
		// The cells after the released column start at the id after the
		// released connection's.
		id := s.clearConn(slot, u, v0)
		s.relBuf = append(s.relBuf, Change{Src: u, Dst: v0, Slot: slot, ID: id})
		if v0 < bo {
			s.establishFirst(req, slot, u, id+1, hi, 0, bo)
		} else if !s.establishFirst(req, slot, u, id+1, hi, 0, n) {
			s.establishFirst(req, slot, u, lo, id, 0, bo)
		}
	}
	s.finishSlot(slot, estStart, relStart)
}

// establishFirst establishes row u's first candidate among its ids [a, b)
// whose column lies in [from, to), ascending, and reports whether it found
// one. A candidate is in Reff, not in B* and has its output column free in
// the slot; the CanEstablish hook may refuse it, and the scan moves on. The
// id words give the candidates as Reff &^ B* a word at a time. Columns
// ascend with ids, so the scan skips the candidates before from and stops
// at the first one at or past to: the rotation column bounds a scan with no
// search of the row.
func (s *Scheduler) establishFirst(req *topology.IDSet, slot, u int, a, b int32, from, to int) bool {
	if a >= b || from >= to {
		return false
	}
	reqIDs := req.IDs()
	var latchIDs []uint64
	if s.p.LatchRequests {
		latchIDs = s.latch.IDs()
	}
	colMask := s.cfgColMask[slot]
	for w := a >> 6; w <= (b-1)>>6; w++ {
		c := reqIDs[w]
		if latchIDs != nil {
			c |= latchIDs[w]
		}
		c &^= s.held[w]
		c &= idRangeMask(w, a, b)
		for c != 0 {
			id := w<<6 | int32(bits.TrailingZeros64(c))
			c &= c - 1
			v := s.conns.Dst(id)
			if v < from {
				continue
			}
			if v >= to {
				return false
			}
			if !maskTest(colMask, v) && s.tryEstablish(slot, u, v, id) {
				return true
			}
		}
	}
	return false
}

// idRangeMask masks id word k to the ids in [lo, hi), a range that meets
// word k.
func idRangeMask(k, lo, hi int32) uint64 {
	m := ^uint64(0)
	if k == lo>>6 {
		m &^= 1<<(uint32(lo)&63) - 1
	}
	if k == (hi-1)>>6 && hi&63 != 0 {
		m &= 1<<(uint32(hi)&63) - 1
	}
	return m
}

// wanted reports whether connection id is in Reff: requested, or latched
// under latching.
func (s *Scheduler) wanted(req *topology.IDSet, id int32) bool {
	return req.Has(id) || s.p.LatchRequests && s.latch.Has(id)
}

// tryEstablish is Table 2's establish row (L=1, A=0, D=0) for a cell whose
// ports are free, and the establish step of iSLIP and wavefront: unless the
// CanEstablish hook refuses it — the connection would make the slot's
// configuration unrealizable, a conflict like a busy port — it sets u→v
// (connection id) in the slot and records the change.
func (s *Scheduler) tryEstablish(slot, u, v int, id int32) bool {
	if s.p.CanEstablish != nil && !s.p.CanEstablish(s.rowDst[slot], u, v) {
		return false
	}
	s.setConn(slot, u, v, id)
	s.estBuf = append(s.estBuf, Change{Src: u, Dst: v, Slot: slot, ID: id})
	return true
}
