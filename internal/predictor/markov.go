package predictor

import (
	"fmt"
	"math/bits"

	"pmsnet/internal/bitmat"
	"pmsnet/internal/sim"
	"pmsnet/internal/topology"
)

// Prefetcher is the optional interface for predictors that also *add*
// connections ahead of their first request — the direction of Sakr et al.
// and Kaxiras & Young that paper §3.2 discusses ("predict the connections in
// the working set W(j+1) while W(j) is being used"). A network that finds a
// predictor implementing Prefetcher pre-establishes the returned
// connections speculatively.
type Prefetcher interface {
	Predictor
	// Prefetch returns, in ascending order, the ids of connections likely
	// to be used soon that are worth establishing ahead of their request.
	// The caller establishes (some of) them and reports outcomes via
	// OnEstablish/OnRelease as usual. The slice is reused by the next
	// Prefetch call.
	Prefetch(now sim.Time) []int32
}

// markovSupport is the observation count from which a transition is
// trusted: one sighting.
const markovSupport = 1

// Markov is a first-order per-source destination predictor with time-out
// eviction. For every source it learns the transition counts between
// consecutive destinations; after source u talks to v, the most frequent
// successor destination v' is nominated for pre-establishment. Eviction
// behaves exactly like the Timeout predictor.
//
// A transition v -> v' at source u links two connections of u's row, so
// the counts are kept per predecessor connection id: a list of (successor
// id, count) in one arena, and the current most frequent successor, which
// only changes when a count grows. A predicted successor was itself used,
// so every prefetch names a connection in the run's table.
type Markov struct {
	Timeout *Timeout

	conns *topology.ConnTable
	succ  []successors // by predecessor connection id
	trans []transition // the successor lists' entries
	// last and pending are per source: the connection it used last (-1
	// before its first use) and its current prediction, valid while its
	// bit in predicted is set.
	last, pending []int32
	predicted     []uint64
	out           []int32
}

// successors is one connection's learned successors: the head of its list
// in Markov.trans and the most frequent one (-1 when none) with its count.
type successors struct {
	head, best, bestN int32
}

// transition counts n sightings of connection to after the list's owner.
type transition struct {
	to, n, next int32
}

// NewMarkov builds a Markov prefetching predictor with the given eviction
// timeout.
func NewMarkov(timeout sim.Time) *Markov {
	return &Markov{Timeout: NewTimeout(timeout)}
}

// Name implements Predictor.
func (m *Markov) Name() string {
	return fmt.Sprintf("markov(%v,%d)", m.Timeout.timeout, markovSupport)
}

// Start implements Predictor: successor state per connection id and a
// last use and prediction per source.
func (m *Markov) Start(t *topology.ConnTable) {
	m.Timeout.Start(t)
	m.conns = t
	m.succ = make([]successors, t.Len())
	for i := range m.succ {
		m.succ[i] = successors{head: -1, best: -1}
	}
	m.trans = m.trans[:0]
	n := t.Ports()
	m.last = make([]int32, n)
	for i := range m.last {
		m.last[i] = -1
	}
	m.pending = make([]int32, n)
	m.predicted = make([]uint64, (n+63)/64)
}

// OnEstablish implements Predictor.
func (m *Markov) OnEstablish(id int32, now sim.Time) { m.Timeout.OnEstablish(id, now) }

// OnUse implements Predictor. It learns the destination transition and
// prepares the next prediction for the source.
func (m *Markov) OnUse(id int32, now sim.Time) {
	m.Timeout.OnUse(id, now)
	src := m.conns.SrcFrom(-1, id)
	if prev := m.last[src]; prev >= 0 && prev != id {
		m.count(prev, id)
	}
	m.last[src] = id
	if s := m.succ[id]; s.bestN >= markovSupport {
		m.pending[src] = s.best
		bitmat.MaskSet(m.predicted, src)
	} else {
		bitmat.MaskClear(m.predicted, src)
	}
}

// count records one sighting of next after prev, both of one source, and
// keeps prev's most frequent successor current: counts only grow, so the
// successor just counted replaces it when it now has more sightings, or as
// many and a lower id (a lower destination).
func (m *Markov) count(prev, next int32) {
	s := &m.succ[prev]
	i := s.head
	for i >= 0 && m.trans[i].to != next {
		i = m.trans[i].next
	}
	if i < 0 {
		i = int32(len(m.trans))
		m.trans = append(m.trans, transition{to: next, next: s.head})
		s.head = i
	}
	m.trans[i].n++
	if n := m.trans[i].n; n > s.bestN || (n == s.bestN && next < s.best) {
		s.best, s.bestN = next, n
	}
}

// OnRelease implements Predictor.
func (m *Markov) OnRelease(id int32) { m.Timeout.OnRelease(id) }

// Evictions implements Predictor.
func (m *Markov) Evictions(now sim.Time, held []uint64) []int32 {
	return m.Timeout.Evictions(now, held)
}

// Prefetch implements Prefetcher: the current per-source predictions, each
// returned once. One prediction per source, so source order is id order.
func (m *Markov) Prefetch(sim.Time) []int32 {
	out := m.out[:0]
	for w, x := range m.predicted {
		for ; x != 0; x &= x - 1 {
			out = append(out, m.pending[w<<6|bits.TrailingZeros64(x)])
		}
		m.predicted[w] = 0
	}
	m.out = out
	return out
}

// interface checks
var (
	_ Predictor  = (*Markov)(nil)
	_ Prefetcher = (*Markov)(nil)
)
