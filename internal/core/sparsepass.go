// Sparse-path slot evaluation for the paper algorithm.
//
// The dense path (scheduleSlot) materializes the full change matrix L and
// scans all N²/64 words of it per slot; at N ≥ 512 that scan dominates pass
// cost even when almost every word is zero. The sparse path computes the
// same L cells row by row, on the fly, touching only the rows that can hold
// one — cost proportional to the active rows and their nonzeros.
//
// Bit-identity with the dense path rests on row locality. L's row u is a
// function of row u of B(slot), Reff and B* only. During a slot scan the
// only mutations are setConn/clearConn on cells of the row being visited
// (latch updates are deferred to the finishSlot epilogue), so when the scan
// reaches row u, row u of every input matrix still holds its pre-scan value
// — computing the row's cells lazily at visit time yields exactly the L
// snapshot the dense path precomputed.
package core

import (
	"fmt"
	"math/bits"

	"pmsnet/internal/bitmat"
)

// wordRowThreshold is the adaptive row-occupancy cutoff: a row whose request
// (+latch) lists hold at least this many nonzeros computes its change cells
// with the dense word formula instead of per-cell probes. Per-cell costs one
// B* bit probe per nonzero; the word path costs N/64 word operations for the
// whole row regardless of occupancy — so dense rows (all-to-all phases) pay
// word-scan prices while genuinely sparse rows never touch a full word scan.
// The cutoff returns max(8, N/64): at least the break-even probe count, and
// proportional to the row's word count at large N.
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
	b := s.configs[slot]
	for _, u := range s.rowsBuf {
		s.cellBuf = s.appendRowCells(s.cellBuf[:0], sp, slot, u)
		s.applyRowCells(s.cellBuf, slot, u, bo, b)
	}
	s.finishSlot(slot, estStart, relStart)
}

// appendRowCells appends row u's L cells — ascending column order — to dst
// and returns the extended slice. It reads only row-u state plus B*'s row u.
// The release cell (the slot's connection, no longer requested) is
// merged into the establish candidates (requested, realized nowhere) at its
// column position; the two kinds never collide, since an establish candidate
// has its B* bit clear and the release cell has it set.
func (s *Scheduler) appendRowCells(dst []int32, sp *bitmat.Sparse, slot, u int) []int32 {
	nnz := len(sp.Row(u))
	if s.p.LatchRequests {
		nnz += len(s.latch.Row(u))
	}
	if nnz >= s.wordRowMin {
		return s.appendRowCellsWords(dst, sp, slot, u)
	}
	rel := int32(-1)
	if v := s.rowDst[slot][u]; v >= 0 {
		vv := int(v)
		if !sp.Get(u, vv) && !(s.p.LatchRequests && s.latch.Get(u, vv)) {
			rel = v
		}
	}
	reqRow := sp.Row(u)
	var latchRow []int32
	if s.p.LatchRequests {
		latchRow = s.latch.Row(u)
	}
	i, j := 0, 0
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
		if rel >= 0 && rel < v {
			dst = append(dst, rel)
			rel = -1
		}
		if !s.bstar.Get(u, int(v)) {
			dst = append(dst, v)
		}
	}
	if rel >= 0 {
		dst = append(dst, rel)
	}
	return dst
}

// appendRowCellsWords is appendRowCells for high-occupancy rows: it computes
// row u of the paper's change matrix L = (B(s) &^ Reff) | (Reff &^ B*) with
// word operations on the dense backings — exactly the dense path's formula,
// restricted to one row — and extracts the set bits in ascending column
// order. The release cell (B(s) minus Reff) and the establish candidates
// (Reff minus B*) are disjoint bit sets, so the word OR yields the same
// merged, ascending cell sequence the list merge produces.
func (s *Scheduler) appendRowCellsWords(dst []int32, sp *bitmat.Sparse, slot, u int) []int32 {
	bRow := s.configs[slot].RowWords(u)
	reqRow := sp.Matrix().RowWords(u)
	bsRow := s.bstar.RowWords(u)
	var latchRow []uint64
	if s.p.LatchRequests {
		latchRow = s.latch.Matrix().RowWords(u)
	}
	for w, eff := range reqRow {
		if latchRow != nil {
			eff |= latchRow[w]
		}
		l := (bRow[w] &^ eff) | (eff &^ bsRow[w])
		for l != 0 {
			b := bits.TrailingZeros64(l)
			dst = append(dst, int32(w*64+b))
			l &= l - 1
		}
	}
	return dst
}

// applyRowCells applies one row's cells in rotated column order — columns
// [bo, N) then [0, bo), matching the dense path's AppendRowOnesFrom scan —
// with the live Table 2 availability logic.
func (s *Scheduler) applyRowCells(cells []int32, slot, u, bo int, b *bitmat.Matrix) {
	split := len(cells)
	for k, v := range cells {
		if int(v) >= bo {
			split = k
			break
		}
	}
	s.applyCells(cells[split:], slot, u, b)
	s.applyCells(cells[:split], slot, u, b)
}

// applyCells is the sparse path's Table 2 cell loop, identical in effect to
// the dense scheduleSlot inner loop: the slot occupancy masks maintained by
// setConn/clearConn are the live AO/AI signals.
func (s *Scheduler) applyCells(cells []int32, slot, u int, b *bitmat.Matrix) {
	rowDst := s.rowDst[slot] // B(slot)'s bit (u, v) is rowDst[u] == v
	for _, vv := range cells {
		v := int(vv)
		if rowDst[u] == vv {
			s.clearConn(slot, u, v)
			s.relBuf = append(s.relBuf, Change{Src: u, Dst: v, Slot: slot})
		} else if !maskTest(s.cfgColMask[slot], v) && !maskTest(s.cfgRowMask[slot], u) {
			if s.p.CanEstablish != nil && !s.p.CanEstablish(b, u, v) {
				continue
			}
			s.setConn(slot, u, v)
			s.estBuf = append(s.estBuf, Change{Src: u, Dst: v, Slot: slot})
		}
	}
}
