package core

// Scheduler queries and controls that only the tests use.

import (
	"math/bits"

	"pmsnet/internal/bitmat"
	"pmsnet/internal/probe"
)

// BStar returns B*, the connections established in any slot, as a matrix
// built from the held ids.
func (s *Scheduler) BStar() *bitmat.Matrix {
	m := bitmat.NewSquare(s.p.N)
	s.setIDs(m, s.held)
	return m
}

// Config returns configuration B(slot) as a matrix built from the slot
// index.
func (s *Scheduler) Config(slot int) *bitmat.Matrix {
	s.checkSlot(slot)
	m := bitmat.NewSquare(s.p.N)
	for u, v := range s.rowDst[slot] {
		if v >= 0 {
			m.Set(u, int(v))
		}
	}
	return m
}

// Connections returns the number of distinct established connections.
func (s *Scheduler) Connections() int {
	n := 0
	for _, x := range s.held {
		n += bits.OnesCount64(x)
	}
	return n
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

// GrantRow returns the grant signal G_u for NIC u in the given slot: the
// output port u may send to during that slot, or -1 when u has no grant.
// At most one bit of a configuration row is set, so the grant is a single
// port.
func (s *Scheduler) GrantRow(slot, u int) int {
	s.checkSlot(slot)
	s.checkPort(u)
	return int(s.rowDst[slot][u])
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

// Latched reports whether a dropped request for src→dst is being held.
func (s *Scheduler) Latched(src, dst int) bool {
	id := s.conns.ID(src, dst)
	return id >= 0 && s.latch.Has(id)
}
