// Sparse-path slot evaluation for the paper algorithm.
//
// The dense path (scheduleSlot) materializes the full change matrix L and
// scans all N²/64 words of it per slot; at N ≥ 512 that scan dominates pass
// cost even when almost every word is zero. The sparse path visits only the
// rows that can hold an L cell, and in each row does only the work that can
// change B(slot): cost proportional to the active rows and the candidates
// they scan before their first establish. Two arguments make it
// bit-identical to the dense path.
//
// Row locality. L's row u is a function of row u of B(slot), Reff and B*
// only. During a slot scan the only mutations are setConn/clearConn on cells
// of the row being visited (latch updates are deferred to the finishSlot
// epilogue), so when the scan reaches row u, row u of every input matrix
// still holds its pre-scan value — reading the row's inputs live at visit
// time sees exactly the L snapshot the dense path precomputed.
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
// order, as in the dense path.
package core

import (
	"fmt"
	"math/bits"
	"slices"

	"pmsnet/internal/bitmat"
)

// wordRowThreshold is the adaptive row-occupancy cutoff: a row whose request
// (+latch) lists hold at least this many nonzeros scans for its first
// establish with word operations, at most N/64 of them whatever its
// occupancy, instead of probing B* and AO per nonzero. Dense rows (all-to-all
// phases) pay word-scan prices; sparse rows never scan a full row. The cutoff
// is max(8, N/64): at least the break-even probe count, and proportional to
// the row's word count at large N.
func wordRowThreshold(n int) int {
	if t := n / 64; t > 8 {
		return t
	}
	return 8
}

// computePendingMask fills s.pendingMask with the rows holding at least one
// request realized nowhere (row of R &^ B* nonempty) — the only rows whose
// visit can yield an establish cell. pass calls it once before the slot loop;
// the mask stays a valid superset for the whole pass because establishes only
// grow B*, and a release removes a pair that is by definition unrequested at
// release time and — since R is fixed for the pass and latch bits are only
// minted for established (hence requested) pairs — stays out of Reff until
// the pass ends.
func (s *Scheduler) computePendingMask(sp *bitmat.Sparse) {
	pm := s.pendingMask
	for i := range pm {
		pm[i] = 0
	}
	for wi, w := range sp.RowMask() {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &= w - 1
			u := wi*64 + b
			if row := sp.Row(u); len(row) >= s.wordRowMin {
				reqRow := sp.Matrix().RowWords(u)
				bsRow := s.bstar.RowWords(u)
				for k, rw := range reqRow {
					if rw&^bsRow[k] != 0 {
						pm[wi] |= 1 << uint(b)
						break
					}
				}
			} else {
				for _, v := range row {
					if !s.bstar.Get(u, int(v)) {
						pm[wi] |= 1 << uint(b)
						break
					}
				}
			}
		}
	}
}

// scheduleSlotSparse is scheduleSlot evaluated from a sparse request matrix:
// the same Table 1–2 semantics, restricted to the rows that can hold a change
// cell. It requires the pass to have called computePendingMask first.
func (s *Scheduler) scheduleSlotSparse(sp *bitmat.Sparse, slot int) {
	s.checkSlot(slot)
	if s.pinned[slot] {
		panic(fmt.Sprintf("core: ScheduleSlot on pinned slot %d", slot))
	}
	n := s.p.N

	// A row can hold an L cell only if it has an unserved request (the
	// pending mask — a row whose requests are all realized in B* cannot
	// yield an establish), a latched request, or a connection in this slot.
	am := s.activeMask
	if spMask, cfgMask := s.pendingMask, s.cfgRowMask[slot]; s.p.LatchRequests {
		lm := s.latch.RowMask()
		for w := range am {
			am[w] = spMask[w] | lm[w] | cfgMask[w]
		}
	} else {
		for w := range am {
			am[w] = spMask[w] | cfgMask[w]
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
		from := bo
		if v0 := int(rowDst[u]); v0 >= 0 {
			if sp.Get(u, v0) || (s.p.LatchRequests && s.latch.Get(u, v0)) {
				continue // no release cell: AI is held for the whole visit
			}
			s.clearConn(slot, u, v0)
			s.relBuf = append(s.relBuf, Change{Src: u, Dst: v0, Slot: slot})
			if v0 < bo {
				s.establishFirst(sp, slot, u, v0+1, bo)
				continue
			}
			from = v0 + 1
		}
		if !s.establishFirst(sp, slot, u, from, n) {
			s.establishFirst(sp, slot, u, 0, bo)
		}
	}
	s.finishSlot(slot, estStart, relStart)
}

// establishFirst establishes row u's first candidate in columns [lo, hi),
// ascending, and reports whether it found one. A candidate is in Reff, not
// in B* and has its output column free in the slot; the CanEstablish hook
// may refuse it, and the scan moves on. Rows with wordRowMin or more request
// (+latch) nonzeros scan whole words; sparser rows walk their merged lists.
func (s *Scheduler) establishFirst(sp *bitmat.Sparse, slot, u, lo, hi int) bool {
	if lo >= hi {
		return false
	}
	reqRow := sp.Row(u)
	var latchRow []int32
	if s.p.LatchRequests {
		latchRow = s.latch.Row(u)
	}
	if len(reqRow)+len(latchRow) >= s.wordRowMin {
		return s.establishFirstWords(sp, slot, u, lo, hi)
	}
	colMask := s.cfgColMask[slot]
	i, _ := slices.BinarySearch(reqRow, int32(lo))
	j, _ := slices.BinarySearch(latchRow, int32(lo))
	for i < len(reqRow) || j < len(latchRow) {
		var v int32
		if j >= len(latchRow) || (i < len(reqRow) && reqRow[i] <= latchRow[j]) {
			v = reqRow[i]
			if j < len(latchRow) && latchRow[j] == v {
				j++
			}
			i++
		} else {
			v = latchRow[j]
			j++
		}
		if int(v) >= hi {
			return false
		}
		if !s.bstar.Get(u, int(v)) && !maskTest(colMask, int(v)) && s.tryEstablish(slot, u, int(v)) {
			return true
		}
	}
	return false
}

// establishFirstWords is establishFirst for high-occupancy rows: the
// candidates of each word are Reff &^ B* &^ AO, masked to [lo, hi).
func (s *Scheduler) establishFirstWords(sp *bitmat.Sparse, slot, u, lo, hi int) bool {
	reqRow := sp.Matrix().RowWords(u)
	bsRow := s.bstar.RowWords(u)
	colMask := s.cfgColMask[slot]
	var latchRow []uint64
	if s.p.LatchRequests {
		latchRow = s.latch.Matrix().RowWords(u)
	}
	first, last := lo>>6, (hi-1)>>6
	for w := first; w <= last; w++ {
		c := reqRow[w]
		if latchRow != nil {
			c |= latchRow[w]
		}
		c &^= bsRow[w] | colMask[w]
		if w == first {
			c &^= 1<<(uint(lo)&63) - 1
		}
		if w == last && hi&63 != 0 {
			c &= 1<<(uint(hi)&63) - 1
		}
		for c != 0 {
			v := w*64 + bits.TrailingZeros64(c)
			c &= c - 1
			if s.tryEstablish(slot, u, v) {
				return true
			}
		}
	}
	return false
}

// tryEstablish is Table 2's establish row (L=1, A=0, D=0) for a cell whose
// ports are free: unless the CanEstablish hook refuses it — the connection
// would make the slot's configuration unrealizable, a conflict like a busy
// port — it sets u→v in the slot and records the change.
func (s *Scheduler) tryEstablish(slot, u, v int) bool {
	if s.p.CanEstablish != nil && !s.p.CanEstablish(s.configs[slot], u, v) {
		return false
	}
	s.setConn(slot, u, v)
	s.estBuf = append(s.estBuf, Change{Src: u, Dst: v, Slot: slot})
	return true
}
