package predictor

import (
	"cmp"
	"fmt"
	"slices"

	"pmsnet/internal/bitmat"
	"pmsnet/internal/sim"
	"pmsnet/internal/topology"
	"pmsnet/internal/traffic"
)

// The map-keyed Counter, Oracle and Markov the id-indexed predictors
// replaced, kept unchanged but for their names as the references the
// parity checks hold the predictors to. They key their state by refConn,
// a connection's port pair plus its id, and sort to get a deterministic
// order.

// refConn is a connection as the reference predictors take it: its port
// pair and its id in the run's connection table.
type refConn struct {
	topology.Conn
	ID int32
}

// sortRefConns orders connections for deterministic eviction order.
func sortRefConns(cs []refConn) {
	slices.SortFunc(cs, func(a, b refConn) int {
		if c := cmp.Compare(a.Src, b.Src); c != 0 {
			return c
		}
		return cmp.Compare(a.Dst, b.Dst)
	})
}

// refCounter is the map-keyed counter predictor.
type refCounter struct {
	threshold uint64
	totalUses uint64
	atLastUse map[refConn]uint64
	idle      map[refConn]uint64
	out       []refConn
}

func newRefCounter(threshold uint64) *refCounter {
	if threshold == 0 {
		panic("predictor: counter threshold must be positive")
	}
	return &refCounter{
		threshold: threshold,
		atLastUse: make(map[refConn]uint64),
		idle:      make(map[refConn]uint64),
	}
}

func (p *refCounter) OnEstablish(c refConn, _ sim.Time) { p.atLastUse[c] = p.totalUses }

func (p *refCounter) OnUse(c refConn, _ sim.Time) {
	p.totalUses++
	p.atLastUse[c] = p.totalUses
	delete(p.idle, c)
}

func (p *refCounter) OnIdleGrant(c refConn, _ sim.Time) {
	p.idle[c]++
}

func (p *refCounter) OnRelease(c refConn) {
	delete(p.atLastUse, c)
	delete(p.idle, c)
}

func (p *refCounter) Evictions(_ sim.Time, held []uint64) []refConn {
	out := p.out[:0]
	for c, at := range p.atLastUse {
		// Uses by other connections since c's last use (c's own last use is
		// included in totalUses and in at, so the difference counts exactly
		// the *other* uses since then) plus the slot grants c wasted while
		// other traffic waited.
		if p.totalUses-at+p.idle[c] >= p.threshold && bitmat.MaskTest(held, int(c.ID)) {
			out = append(out, c)
		}
	}
	sortRefConns(out)
	p.out = out
	return out
}

// refOracle is the map-keyed oracle predictor.
type refOracle struct {
	remaining map[topology.Conn]int
	// done counts each nominated connection's pending nominations; an
	// OnRelease retires one.
	done map[refConn]int
	out  []refConn
}

func newRefOracle(uses map[topology.Conn]int) *refOracle {
	rem := make(map[topology.Conn]int, len(uses))
	for c, n := range uses {
		if n < 0 {
			panic(fmt.Sprintf("predictor: negative use count for %v", c))
		}
		rem[c] = n
	}
	return &refOracle{remaining: rem, done: make(map[refConn]int)}
}

func (p *refOracle) OnEstablish(c refConn, _ sim.Time) {
	if _, ok := p.remaining[c.Conn]; !ok {
		// A connection the oracle never saw in the plan has zero future
		// uses; evict as soon as possible.
		p.done[c]++
	}
}

func (p *refOracle) OnUse(c refConn, _ sim.Time) {
	n, ok := p.remaining[c.Conn]
	if !ok {
		return
	}
	n--
	p.remaining[c.Conn] = n
	if n <= 0 {
		p.done[c]++
		delete(p.remaining, c.Conn)
	}
}

func (p *refOracle) OnRelease(c refConn) {
	if n := p.done[c]; n > 1 {
		p.done[c] = n - 1
	} else {
		delete(p.done, c)
	}
}

func (p *refOracle) Evictions(_ sim.Time, held []uint64) []refConn {
	out := p.out[:0]
	for c := range p.done {
		if bitmat.MaskTest(held, int(c.ID)) {
			out = append(out, c)
		}
	}
	sortRefConns(out)
	p.out = out
	return out
}

// connUses counts messages per connection — the reference oracle's plan.
func connUses(wl *traffic.Workload) map[topology.Conn]int {
	uses := make(map[topology.Conn]int)
	for p, prog := range wl.Programs {
		for _, op := range prog.Ops {
			if op.IsSend() {
				uses[topology.Conn{Src: p, Dst: int(op.Dst)}]++
			}
		}
	}
	return uses
}

// refMarkov is the map-keyed Markov prefetcher, its time-out eviction on
// the map-scan reference.
type refMarkov struct {
	Timeout *refTimeout
	// MinSupport is the minimum observation count before a transition is
	// trusted.
	MinSupport int

	// trans[u][v][v'] counts v -> v' transitions at source u.
	trans map[int]map[int]map[int]int
	last  map[int]int // last destination per source
	// pending holds the current prediction per source.
	pending map[int]topology.Conn
}

func newRefMarkov(timeout sim.Time, minSupport int) *refMarkov {
	if minSupport <= 0 {
		panic(fmt.Sprintf("predictor: markov support %d must be positive", minSupport))
	}
	return &refMarkov{
		Timeout:    &refTimeout{timeout: timeout, lastUse: map[refConn]sim.Time{}},
		MinSupport: minSupport,
		trans:      make(map[int]map[int]map[int]int),
		last:       make(map[int]int),
		pending:    make(map[int]topology.Conn),
	}
}

func (m *refMarkov) OnEstablish(c refConn, now sim.Time) { m.Timeout.touch(c, now) }

func (m *refMarkov) OnUse(c refConn, now sim.Time) {
	m.Timeout.touch(c, now)
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
func (m *refMarkov) predictNext(src, dst int) (int, bool) {
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

func (m *refMarkov) OnRelease(c refConn) { m.Timeout.release(c) }

func (m *refMarkov) Evictions(now sim.Time, held []uint64) []refConn {
	return m.Timeout.evictions(now, held)
}

func (m *refMarkov) Prefetch(sim.Time) []topology.Conn {
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

// refTimeout is the map-scan time-out predictor Timeout replaced, with the
// B* filter its caller used to apply folded in. The parity tests hold
// Timeout to it, and refMarkov evicts with it.
type refTimeout struct {
	timeout sim.Time
	lastUse map[refConn]sim.Time
}

func (p *refTimeout) touch(c refConn, now sim.Time) { p.lastUse[c] = now }

func (p *refTimeout) release(c refConn) { delete(p.lastUse, c) }

func (p *refTimeout) evictions(now sim.Time, held []uint64) []refConn {
	var out []refConn
	for c, last := range p.lastUse {
		if now-last >= p.timeout && bitmat.MaskTest(held, int(c.ID)) {
			out = append(out, c)
		}
	}
	sortRefConns(out)
	return out
}
