package predictor

import (
	"cmp"
	"fmt"
	"slices"

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
	// Prefetch returns connections likely to be used soon that are worth
	// establishing ahead of their request. The caller establishes (some of)
	// them and reports outcomes via OnEstablish/OnRelease as usual.
	Prefetch(now sim.Time) []topology.Conn
}

// Markov is a first-order per-source destination predictor with time-out
// eviction. For every source it learns the transition counts between
// consecutive destinations; after source u talks to v, the most frequent
// successor destination v' (if seen at least MinSupport times) is nominated
// for pre-establishment. Eviction behaves exactly like the Timeout
// predictor.
type Markov struct {
	Timeout *Timeout
	// MinSupport is the minimum observation count before a transition is
	// trusted.
	MinSupport int

	// trans[u][v][v'] counts v -> v' transitions at source u.
	trans map[int]map[int]map[int]int
	last  map[int]int // last destination per source
	// pending holds the current prediction per source.
	pending map[int]topology.Conn
}

// NewMarkov builds a Markov prefetching predictor with the given eviction
// timeout and transition support threshold.
func NewMarkov(timeout sim.Time, minSupport int) *Markov {
	if minSupport <= 0 {
		panic(fmt.Sprintf("predictor: markov support %d must be positive", minSupport))
	}
	return &Markov{
		Timeout:    NewTimeout(timeout),
		MinSupport: minSupport,
		trans:      make(map[int]map[int]map[int]int),
		last:       make(map[int]int),
		pending:    make(map[int]topology.Conn),
	}
}

// Name implements Predictor.
func (m *Markov) Name() string {
	return fmt.Sprintf("markov(%v,%d)", m.Timeout.timeout, m.MinSupport)
}

// Start implements Predictor.
func (m *Markov) Start(t *topology.ConnTable) { m.Timeout.Start(t) }

// OnEstablish implements Predictor.
func (m *Markov) OnEstablish(c Conn, now sim.Time) { m.Timeout.OnEstablish(c, now) }

// OnUse implements Predictor. It learns the destination transition and
// prepares the next prediction for the source.
func (m *Markov) OnUse(c Conn, now sim.Time) {
	m.Timeout.OnUse(c, now)
	if prev, ok := m.last[c.Src]; ok && prev != c.Dst {
		byPrev, ok := m.trans[c.Src]
		if !ok {
			byPrev = make(map[int]map[int]int)
			m.trans[c.Src] = byPrev
		}
		succ, ok := byPrev[prev]
		if !ok {
			succ = make(map[int]int)
			byPrev[prev] = succ
		}
		succ[c.Dst]++
	}
	m.last[c.Src] = c.Dst
	if next, ok := m.predictNext(c.Src, c.Dst); ok {
		m.pending[c.Src] = topology.Conn{Src: c.Src, Dst: next}
	} else {
		delete(m.pending, c.Src)
	}
}

// predictNext returns the learned most-frequent successor of dst at src.
// Ties break toward the lowest destination for determinism.
func (m *Markov) predictNext(src, dst int) (int, bool) {
	succ := m.trans[src][dst]
	best, bestCount := -1, 0
	for v, count := range succ {
		if count > bestCount || (count == bestCount && best >= 0 && v < best) {
			best, bestCount = v, count
		}
	}
	if bestCount < m.MinSupport {
		return 0, false
	}
	return best, true
}

// OnRelease implements Predictor.
func (m *Markov) OnRelease(c Conn) { m.Timeout.OnRelease(c) }

// Evictions implements Predictor.
func (m *Markov) Evictions(now sim.Time, held []uint64) []Conn {
	return m.Timeout.Evictions(now, held)
}

// Prefetch implements Prefetcher: the current per-source predictions, each
// returned once.
func (m *Markov) Prefetch(sim.Time) []topology.Conn {
	if len(m.pending) == 0 {
		return nil
	}
	out := make([]topology.Conn, 0, len(m.pending))
	for _, c := range m.pending {
		out = append(out, c)
	}
	m.pending = make(map[int]topology.Conn)
	// One prediction per source, so source order is (Src, Dst) order.
	slices.SortFunc(out, func(a, b topology.Conn) int { return cmp.Compare(a.Src, b.Src) })
	return out
}

// interface checks
var (
	_ Predictor  = (*Markov)(nil)
	_ Prefetcher = (*Markov)(nil)
)
