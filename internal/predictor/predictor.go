// Package predictor implements the connection-eviction predictors of paper
// §3.2.
//
// In the predictive multiplexed switch, *adding* a connection to the working
// set costs only its first use (a compulsory miss); the interesting decision
// is when to *remove* one so the multiplexing degree stays small. A
// Predictor observes connection usage and nominates connections for
// eviction. The paper's experiments use the simple time-out predictor; the
// counter predictor from §3.2 (reset on use, incremented when other
// connections are used, evict at a threshold) and two reference points
// (never-evict, and an oracle that knows the future) are provided for the
// ablation benchmarks.
package predictor

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"pmsnet/internal/bitmat"
	"pmsnet/internal/sim"
	"pmsnet/internal/topology"
)

// Predictor decides when established connections should be evicted from the
// network's configuration registers. Implementations are not safe for
// concurrent use.
//
// Time never goes backwards: across all calls on one predictor, the now
// arguments must be non-decreasing. The simulator's engine clock guarantees
// this; Timeout (and so Markov) relies on it to keep its connections in
// last-use order and panics when a call violates it.
type Predictor interface {
	// Name identifies the predictor in results.
	Name() string
	// OnEstablish tells the predictor a connection entered the working set.
	OnEstablish(c topology.Conn, now sim.Time)
	// OnUse tells the predictor a connection carried traffic.
	OnUse(c topology.Conn, now sim.Time)
	// OnRelease tells the predictor a connection left the working set for
	// any reason (eviction it requested, a flush, or a scheduler release),
	// so it can drop its state.
	OnRelease(c topology.Conn)
	// Evictions returns, in (Src, Dst) order and without duplicates, the
	// connections that should be evicted now and are set in held — the
	// scheduler's B*, the connections currently established. The caller is
	// expected to evict them and then call OnRelease for each. The slice is
	// reused by the next Evictions call; OnRelease leaves it intact.
	Evictions(now sim.Time, held *bitmat.Matrix) []topology.Conn
}

// sortConns orders connections for deterministic eviction order.
func sortConns(cs []topology.Conn) {
	slices.SortFunc(cs, func(a, b topology.Conn) int {
		if c := cmp.Compare(a.Src, b.Src); c != 0 {
			return c
		}
		return cmp.Compare(a.Dst, b.Dst)
	})
}

// --- Never ---

// Never keeps every connection forever; the multiplexing degree only shrinks
// via explicit flushes. Baseline for ablations.
type Never struct{}

// NewNever returns the never-evict predictor.
func NewNever() *Never { return &Never{} }

// Name implements Predictor.
func (*Never) Name() string { return "never" }

// OnEstablish implements Predictor.
func (*Never) OnEstablish(topology.Conn, sim.Time) {}

// OnUse implements Predictor.
func (*Never) OnUse(topology.Conn, sim.Time) {}

// OnRelease implements Predictor.
func (*Never) OnRelease(topology.Conn) {}

// Evictions implements Predictor.
func (*Never) Evictions(sim.Time, *bitmat.Matrix) []topology.Conn { return nil }

// --- Timeout ---

// Timeout evicts a connection that has not been used for a fixed period —
// the predictor used in the paper's experiments ("a connection is removed if
// it is not used for a certain period of time").
//
// The sweep is incremental. Live connections sit in an intrusive list in
// last-use order, oldest first, so a sweep pops only the ones that just
// passed the timeout. Those move into an expired bitset indexed [Src][Dst]
// and stay there until they are used again or released. Evictions ANDs the
// expired rows with the held matrix word by word; walking the result in
// row-major order yields (Src, Dst) order without a sort.
type Timeout struct {
	timeout sim.Time
	now     sim.Time // latest time seen; calls must not go back

	index      map[topology.Conn]int32
	nodes      []lruNode
	free       int32 // free-node list through lruNode.next; none when < 0
	head, tail int32 // live list, oldest first; empty when < 0

	expired     [][]uint64 // expired[src] is a bitset over dst
	expiredRows []uint64   // bitset over src: rows that may hold expired bits
	out         []topology.Conn
}

// lruNode is one tracked connection. A node is either on the live list or
// expired (its bit set in Timeout.expired); free nodes chain through next.
type lruNode struct {
	c          topology.Conn
	last       sim.Time
	prev, next int32
	expired    bool
}

// NewTimeout builds a time-out predictor. timeout must be positive.
func NewTimeout(timeout sim.Time) *Timeout {
	if timeout <= 0 {
		panic(fmt.Sprintf("predictor: timeout %v must be positive", timeout))
	}
	return &Timeout{
		timeout: timeout,
		index:   make(map[topology.Conn]int32),
		free:    -1,
		head:    -1,
		tail:    -1,
	}
}

// Name implements Predictor.
func (p *Timeout) Name() string { return fmt.Sprintf("timeout(%v)", p.timeout) }

// OnEstablish implements Predictor.
func (p *Timeout) OnEstablish(c topology.Conn, now sim.Time) { p.touch(c, now) }

// OnUse implements Predictor.
func (p *Timeout) OnUse(c topology.Conn, now sim.Time) { p.touch(c, now) }

// OnRelease implements Predictor.
func (p *Timeout) OnRelease(c topology.Conn) {
	i, ok := p.index[c]
	if !ok {
		return
	}
	p.detach(i)
	delete(p.index, c)
	p.nodes[i].next = p.free
	p.free = i
}

// Evictions implements Predictor.
func (p *Timeout) Evictions(now sim.Time, held *bitmat.Matrix) []topology.Conn {
	p.advance(now)
	for p.head >= 0 && now-p.nodes[p.head].last >= p.timeout {
		n := &p.nodes[p.head]
		p.unlink(p.head)
		n.expired = true
		if n.c.Src >= len(p.expired) {
			p.expired = append(p.expired, make([][]uint64, n.c.Src+1-len(p.expired))...)
		}
		p.expired[n.c.Src] = setGrow(p.expired[n.c.Src], n.c.Dst)
		p.expiredRows = setGrow(p.expiredRows, n.c.Src)
	}
	out := p.out[:0]
	for rw, rows := range p.expiredRows {
		for rows != 0 {
			src := rw<<6 | bits.TrailingZeros64(rows)
			rows &= rows - 1
			row, live := p.expired[src], false
			hw := held.RowWords(src)
			for w, x := range row {
				if x == 0 {
					continue
				}
				live = true
				for x &= hw[w]; x != 0; x &= x - 1 {
					out = append(out, topology.Conn{Src: src, Dst: w<<6 | bits.TrailingZeros64(x)})
				}
			}
			if !live {
				// Rows are marked eagerly and unmarked here, once a sweep
				// finds them empty.
				bitmat.MaskClear(p.expiredRows, src)
			}
		}
	}
	p.out = out
	return out
}

// Tracked returns the number of connections under observation.
func (p *Timeout) Tracked() int { return len(p.index) }

// advance enforces the monotone-time contract of Predictor.
func (p *Timeout) advance(now sim.Time) {
	if now < p.now {
		panic(fmt.Sprintf("predictor: %s called at %v after %v; time must not go backwards",
			p.Name(), now, p.now))
	}
	p.now = now
}

// touch records a use of c at now, tracking it if it is new: the node moves
// to the tail of the live list, which stays in last-use order because time
// never goes backwards.
func (p *Timeout) touch(c topology.Conn, now sim.Time) {
	p.advance(now)
	i, ok := p.index[c]
	if ok {
		p.detach(i)
	} else {
		if p.free >= 0 {
			i = p.free
			p.free = p.nodes[i].next
		} else {
			i = int32(len(p.nodes))
			p.nodes = append(p.nodes, lruNode{})
		}
		p.nodes[i] = lruNode{c: c}
		p.index[c] = i
	}
	n := &p.nodes[i]
	n.last, n.prev, n.next = now, p.tail, -1
	if p.tail >= 0 {
		p.nodes[p.tail].next = i
	} else {
		p.head = i
	}
	p.tail = i
}

// detach takes node i off the live list or out of the expired bitset.
func (p *Timeout) detach(i int32) {
	n := &p.nodes[i]
	if n.expired {
		n.expired = false
		bitmat.MaskClear(p.expired[n.c.Src], n.c.Dst)
		return
	}
	p.unlink(i)
}

// unlink removes live node i from the list.
func (p *Timeout) unlink(i int32) {
	n := &p.nodes[i]
	if n.prev >= 0 {
		p.nodes[n.prev].next = n.next
	} else {
		p.head = n.next
	}
	if n.next >= 0 {
		p.nodes[n.next].prev = n.prev
	} else {
		p.tail = n.prev
	}
}

// setGrow sets bit i of mask, growing the mask to hold it.
func setGrow(mask []uint64, i int) []uint64 {
	if w := i >> 6; w >= len(mask) {
		mask = append(mask, make([]uint64, w+1-len(mask))...)
	}
	bitmat.MaskSet(mask, i)
	return mask
}

// --- Counter ---

// IdleGrantObserver is an optional predictor interface: the network reports
// a TDM slot that granted a connection which had nothing to send while its
// source NIC had traffic waiting for other destinations — a provably wasted
// grant. Counting these closes the liveness hole of purely usage-driven
// predictors: with a network full of single-use stale connections nothing
// is ever "used", so a pure use-counter would freeze and starve the waiting
// traffic forever.
type IdleGrantObserver interface {
	// OnIdleGrant reports one wasted slot grant for connection c.
	OnIdleGrant(c topology.Conn, now sim.Time)
}

// Counter is the paper's alternative predictor: each connection has a
// counter that resets to zero when the connection is used and increments
// every time *another* connection is used; the connection is evicted when
// the counter reaches a threshold. Unlike Timeout, it does not evict during
// pure computation phases when no communication happens at all.
//
// Counter also implements IdleGrantObserver: a slot grant wasted on an idle
// connection while its source has other traffic pending counts against the
// connection as well. Without this, a working set of single-use connections
// deadlocks the switch (no use anywhere → no counter movement → no eviction
// → waiting requests starve); during pure compute phases no traffic is
// pending, so the paper's no-eviction-while-computing property still holds.
type Counter struct {
	threshold uint64
	totalUses uint64
	atLastUse map[topology.Conn]uint64
	idle      map[topology.Conn]uint64
	out       []topology.Conn
}

// NewCounter builds a counter predictor. threshold must be positive.
func NewCounter(threshold uint64) *Counter {
	if threshold == 0 {
		panic("predictor: counter threshold must be positive")
	}
	return &Counter{
		threshold: threshold,
		atLastUse: make(map[topology.Conn]uint64),
		idle:      make(map[topology.Conn]uint64),
	}
}

// Name implements Predictor.
func (p *Counter) Name() string { return fmt.Sprintf("counter(%d)", p.threshold) }

// OnEstablish implements Predictor.
func (p *Counter) OnEstablish(c topology.Conn, _ sim.Time) { p.atLastUse[c] = p.totalUses }

// OnUse implements Predictor.
func (p *Counter) OnUse(c topology.Conn, _ sim.Time) {
	p.totalUses++
	p.atLastUse[c] = p.totalUses
	delete(p.idle, c)
}

// OnIdleGrant implements IdleGrantObserver.
func (p *Counter) OnIdleGrant(c topology.Conn, _ sim.Time) {
	p.idle[c]++
}

// OnRelease implements Predictor.
func (p *Counter) OnRelease(c topology.Conn) {
	delete(p.atLastUse, c)
	delete(p.idle, c)
}

// Evictions implements Predictor.
func (p *Counter) Evictions(_ sim.Time, held *bitmat.Matrix) []topology.Conn {
	out := p.out[:0]
	for c, at := range p.atLastUse {
		// Uses by other connections since c's last use (c's own last use is
		// included in totalUses and in at, so the difference counts exactly
		// the *other* uses since then) plus the slot grants c wasted while
		// other traffic waited.
		if p.totalUses-at+p.idle[c] >= p.threshold && held.Get(c.Src, c.Dst) {
			out = append(out, c)
		}
	}
	sortConns(out)
	p.out = out
	return out
}

var _ IdleGrantObserver = (*Counter)(nil)

// --- Oracle ---

// Oracle knows each connection's total use count in advance (extracted from
// the workload) and evicts a connection immediately after its final use.
// It is the eviction upper bound for ablation comparisons.
type Oracle struct {
	remaining map[topology.Conn]int
	// done counts each nominated connection's pending nominations; an
	// OnRelease retires one.
	done map[topology.Conn]int
	out  []topology.Conn
}

// NewOracle builds an oracle from the per-connection total use counts of the
// workload that will run.
func NewOracle(uses map[topology.Conn]int) *Oracle {
	rem := make(map[topology.Conn]int, len(uses))
	for c, n := range uses {
		if n < 0 {
			panic(fmt.Sprintf("predictor: negative use count for %v", c))
		}
		rem[c] = n
	}
	return &Oracle{remaining: rem, done: make(map[topology.Conn]int)}
}

// Name implements Predictor.
func (*Oracle) Name() string { return "oracle" }

// OnEstablish implements Predictor.
func (p *Oracle) OnEstablish(c topology.Conn, _ sim.Time) {
	if _, ok := p.remaining[c]; !ok {
		// A connection the oracle never saw in the plan has zero future
		// uses; evict as soon as possible.
		p.done[c]++
	}
}

// OnUse implements Predictor.
func (p *Oracle) OnUse(c topology.Conn, _ sim.Time) {
	n, ok := p.remaining[c]
	if !ok {
		return
	}
	n--
	p.remaining[c] = n
	if n <= 0 {
		p.done[c]++
		delete(p.remaining, c)
	}
}

// OnRelease implements Predictor.
func (p *Oracle) OnRelease(c topology.Conn) {
	if n := p.done[c]; n > 1 {
		p.done[c] = n - 1
	} else {
		delete(p.done, c)
	}
}

// Evictions implements Predictor.
func (p *Oracle) Evictions(_ sim.Time, held *bitmat.Matrix) []topology.Conn {
	out := p.out[:0]
	for c := range p.done {
		if held.Get(c.Src, c.Dst) {
			out = append(out, c)
		}
	}
	sortConns(out)
	p.out = out
	return out
}
