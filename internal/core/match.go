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
// they plug into Pass, latching, eviction and the fabric CanEstablish hook
// unchanged.
package core

import (
	"fmt"
	"math/bits"

	"pmsnet/internal/bitmat"
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
	// maxIter bounds the request–grant–accept iterations: ceil(log2(N)),
	// at least 1 — iSLIP's convergence horizon.
	maxIter int
}

func newMatchState(p Params) *matchState {
	m := &matchState{
		grantPtr:  make([]int, p.N),
		acceptPtr: make([]int, p.N),
		grantOf:   make([]int32, p.N),
		maxIter:   bits.Len(uint(p.N - 1)),
	}
	if m.maxIter < 1 {
		m.maxIter = 1
	}
	return m
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

// candidate reports whether u→v is pending for this slot: effectively
// requested, realized in no slot, with both ports free here. The slot
// occupancy masks are maintained live by setConn, so the test stays correct
// as the match grows.
func (s *Scheduler) candidate(eff *bitmat.Matrix, slot, u, v int) bool {
	return !maskTest(s.cfgRowMask[slot], u) && !maskTest(s.cfgColMask[slot], v) &&
		eff.Get(u, v) && !s.bstar.Get(u, v)
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

	m := s.match
	b := s.configs[slot]
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
				if s.candidate(eff, slot, u, v) {
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
			if s.p.CanEstablish != nil && !s.p.CanEstablish(b, u, acc) {
				// Fabric constraint: the accept would make the slot
				// unrealizable; drop it without moving the pointers, leaving
				// the request for another slot.
				continue
			}
			id := s.setConn(slot, u, acc)
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

	b := s.configs[slot]
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
			if !s.candidate(eff, slot, u, v) {
				continue
			}
			if s.p.CanEstablish != nil && !s.p.CanEstablish(b, u, v) {
				continue
			}
			id := s.setConn(slot, u, v)
			s.estBuf = append(s.estBuf, Change{Src: u, Dst: v, Slot: slot, ID: id})
		}
	}
	s.finishSlot(slot, estStart, relStart)
}
