// Alternative matching algorithms behind the scheduler's algorithm switch.
//
// The paper's Tables 1–2 scheduling array is the default and the only
// bit-pinned algorithm; the two alternatives here are classic crossbar
// schedulers included for comparison:
//
//   - iSLIP (McKeown, "The iSLIP Scheduling Algorithm for Input-Queued
//     Switches", IEEE/ACM ToN 1999; deployed in the Tiny Tera prototype):
//     iterative request–grant–accept matching with per-output grant pointers
//     and per-input accept pointers that advance only on first-iteration
//     accepts, which desynchronizes the pointers and approaches a maximal
//     match in about log2(N) iterations.
//
//   - Wavefront matching (after the wavefront/wrapped-wavefront arbiter line
//     of Tamir & Chi, "Symmetric Crossbar Arbiters for VLSI Communication
//     Switches", IEEE TPDS 1993): cells on one anti-diagonal share no row or
//     column, so each diagonal is resolved conflict-free in a single step and
//     the diagonals sweep in rotated order for fairness.
//
// Both reuse the pass structure of the paper algorithm — release connections
// whose requests vanished, then match pending requests into the slot — so
// they plug into PassSparse, latching, eviction and the fabric CanEstablish
// hook unchanged. Like the paper algorithm they read the requests, the latch
// and B* as bitsets over connection ids: one slot evaluation gathers the
// pending cells of the slot's free rows once, so an iSLIP iteration costs
// O(pending + N) and a wavefront sweep O(pending · log pending), with no N×N
// state. The dense forms they replaced are the tests' oracle
// (oracle_test.go), and the id forms are bit-identical to it.
package core

import (
	"math/bits"
	"slices"

	"pmsnet/internal/topology"
	"pmsnet/internal/vocab"
)

// Algorithm selects the matching algorithm a scheduling pass runs. The zero
// value is the paper-exact algorithm, so zero-valued configurations keep
// their meaning.
type Algorithm int

// Matching algorithms.
const (
	// AlgPaper is the paper-exact Tables 1–2 scheduling array (default).
	AlgPaper Algorithm = iota
	// AlgISLIP is iterative request–grant–accept matching with rotating
	// grant/accept pointers.
	AlgISLIP
	// AlgWavefront resolves requests along conflict-free anti-diagonals.
	AlgWavefront
)

// Algorithms is the algorithm vocabulary (the pmsim -sched flag), indexed
// by Algorithm.
var Algorithms = vocab.New[Algorithm]("scheduling algorithm", "paper", "islip", "wavefront")

// String implements fmt.Stringer.
func (a Algorithm) String() string { return Algorithms.Name(a) }

// matchState holds the alternative matchers' persistent pointers and
// per-evaluation scratch; nil on AlgPaper schedulers.
type matchState struct {
	// iSLIP pointers, persistent across passes. grantPtr[v] is the input the
	// output-v grant arbiter prefers; acceptPtr[u] is the output the input-u
	// accept arbiter prefers.
	grantPtr  []int
	acceptPtr []int
	// grantOf[v] is the input granted by output v in the current iteration,
	// or -1.
	grantOf []int32
	// acceptOf[u] is the granting output input u accepts in the current
	// iteration, or -1 outside the accept step.
	acceptOf []int32
	// cells holds one evaluation's pending cells (appendPending).
	cells []uint64
	// maxIter bounds the request–grant–accept iterations: ceil(log2(N)),
	// at least 1 — iSLIP's convergence horizon.
	maxIter int
}

func newMatchState(p Params) *matchState {
	m := &matchState{
		grantPtr:  make([]int, p.N),
		acceptPtr: make([]int, p.N),
		grantOf:   make([]int32, p.N),
		acceptOf:  make([]int32, p.N),
		maxIter:   bits.Len(uint(p.N - 1)),
	}
	for u := range m.acceptOf {
		m.acceptOf[u] = -1
	}
	if m.maxIter < 1 {
		m.maxIter = 1
	}
	return m
}

// releaseUnrequested releases every connection of the slot that is neither
// requested nor latched — the shared prologue of both alternative matchers,
// matching the paper algorithm's release term B(s) &^ Reff.
func (s *Scheduler) releaseUnrequested(req *topology.IDSet, slot int) {
	for w, word := range s.cfgRowMask[slot] {
		for ; word != 0; word &= word - 1 {
			u := w*64 + bits.TrailingZeros64(word)
			if id := s.rowID[slot][u]; !s.wanted(req, id) {
				v := int(s.rowDst[slot][u])
				s.clearConn(slot, u, v)
				s.relBuf = append(s.relBuf, Change{Src: u, Dst: v, Slot: slot, ID: id})
			}
		}
	}
}

// appendPending appends the slot's pending cells after releaseUnrequested —
// Reff &^ B* over the rows free in the slot — to cells, each as
// uint64(u)<<32 | id, in ascending id order. A cell the evaluation
// establishes takes its row, so the other cells of the row fail the live
// row test and the list stays exact without being updated.
func (s *Scheduler) appendPending(cells []uint64, req *topology.IDSet, slot int) []uint64 {
	reqIDs, latchIDs := req.IDs(), []uint64(nil)
	if s.p.LatchRequests {
		latchIDs = s.latch.IDs()
	}
	latchRows := s.latch.Rows()
	for w, rows := range req.Rows() {
		if latchIDs != nil {
			rows |= latchRows[w]
		}
		for rows &^= s.cfgRowMask[slot][w]; rows != 0; rows &= rows - 1 {
			u := w*64 + bits.TrailingZeros64(rows)
			lo, hi := s.conns.Row(u)
			for k := lo >> 6; k <= (hi-1)>>6; k++ {
				c := reqIDs[k]
				if latchIDs != nil {
					c |= latchIDs[k]
				}
				c &^= s.held[k]
				c &= idRangeMask(k, lo, hi)
				for ; c != 0; c &= c - 1 {
					cells = append(cells, uint64(u)<<32|uint64(k<<6)|uint64(bits.TrailingZeros64(c)))
				}
			}
		}
	}
	return cells
}

// ringDist is the distance from pointer p forward to x on a ring of n.
func ringDist(p, x, n int) int {
	if x < p {
		return x - p + n
	}
	return x - p
}

// scheduleSlotISLIPSparse is one slot evaluation under iSLIP.
func (s *Scheduler) scheduleSlotISLIPSparse(req *topology.IDSet, slot int) {
	estStart, relStart := len(s.estBuf), len(s.relBuf)
	s.releaseUnrequested(req, slot)
	m := s.match
	m.cells = s.appendPending(m.cells[:0], req, slot)

	rowMask, colMask := s.cfgRowMask[slot], s.cfgColMask[slot]
	n := s.p.N
	for it := 0; it < m.maxIter; it++ {
		// Grant: each free output offers to the requesting free input closest
		// to its pointer.
		for v := range m.grantOf {
			m.grantOf[v] = -1
		}
		for _, c := range m.cells {
			u, v := int(c>>32), s.conns.Dst(int32(c))
			if maskTest(rowMask, u) || maskTest(colMask, v) {
				continue
			}
			if g := m.grantOf[v]; g < 0 || ringDist(m.grantPtr[v], u, n) < ringDist(m.grantPtr[v], int(g), n) {
				m.grantOf[v] = int32(u)
			}
		}
		// Each input picks the offering output closest to its pointer.
		for v, u := range m.grantOf {
			if u < 0 {
				continue
			}
			if a := m.acceptOf[u]; a < 0 || ringDist(m.acceptPtr[u], v, n) < ringDist(m.acceptPtr[u], int(a), n) {
				m.acceptOf[u] = int32(v)
			}
		}
		// Accept, inputs in ascending order; pointers advance only on
		// first-iteration accepts.
		accepted := false
		for u, acc := range m.acceptOf {
			if acc < 0 {
				continue
			}
			m.acceptOf[u] = -1
			if !s.tryEstablish(slot, u, int(acc), s.idOf(u, int(acc))) {
				// Fabric constraint: the accept would make the slot
				// unrealizable; drop it without moving the pointers, leaving
				// the request for another slot.
				continue
			}
			accepted = true
			if it == 0 {
				m.grantPtr[acc] = (u + 1) % n
				m.acceptPtr[u] = (int(acc) + 1) % n
			}
		}
		if !accepted {
			break
		}
	}
	s.finishSlot(slot, estStart, relStart)
}

// scheduleSlotWavefrontSparse is one slot evaluation under wavefront
// matching: anti-diagonal d holds the cells {(u,v): (u+v) mod N == d}, whose
// rows and columns are pairwise distinct, so a diagonal resolves without
// conflict. Diagonals sweep from the rotation origin for fairness, and
// within one the rows ascend. The pending cells are sorted into that order —
// by the diagonal's place in the sweep, then by id, which ascends with the
// row — and walked with live port tests.
func (s *Scheduler) scheduleSlotWavefrontSparse(req *topology.IDSet, slot int) {
	estStart, relStart := len(s.estBuf), len(s.relBuf)
	s.releaseUnrequested(req, slot)
	m := s.match
	m.cells = s.appendPending(m.cells[:0], req, slot)
	cells := m.cells

	rowMask, colMask := s.cfgRowMask[slot], s.cfgColMask[slot]
	n := s.p.N
	off := 0
	if s.p.RotatePriority {
		off = s.rot % n
	}
	for i, c := range cells {
		u, id := int(c>>32), uint32(c)
		d := ringDist(off, (u+s.conns.Dst(int32(id)))%n, n)
		cells[i] = uint64(d)<<32 | uint64(id)
	}
	slices.Sort(cells)
	for _, c := range cells {
		id := int32(c)
		v := s.conns.Dst(id)
		u := (int(c>>32) + off - v + n) % n
		if !maskTest(rowMask, u) && !maskTest(colMask, v) {
			s.tryEstablish(slot, u, v, id)
		}
	}
	s.finishSlot(slot, estStart, relStart)
}
