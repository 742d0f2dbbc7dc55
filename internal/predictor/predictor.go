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

// Conn is a connection as the network reports it to a predictor: its port
// pair and its id in the run's connection table.
type Conn struct {
	topology.Conn
	ID int32
}

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
	// Start hands the predictor the run's connection table before any
	// other call: every connection passed in later is in it, with its id
	// there, so per-connection state can be sized once.
	Start(t *topology.ConnTable)
	// OnEstablish tells the predictor a connection entered the working set.
	OnEstablish(c Conn, now sim.Time)
	// OnUse tells the predictor a connection carried traffic.
	OnUse(c Conn, now sim.Time)
	// OnRelease tells the predictor a connection left the working set for
	// any reason (eviction it requested, a flush, or a scheduler release),
	// so it can drop its state.
	OnRelease(c Conn)
	// Evictions returns, in (Src, Dst) order and without duplicates, the
	// connections that should be evicted now and whose id is set in held —
	// the scheduler's B*, the connections currently established, as a
	// bitset over connection ids. The caller is expected to evict them and
	// then call OnRelease for each. The slice is reused by the next
	// Evictions call; OnRelease leaves it intact.
	Evictions(now sim.Time, held []uint64) []Conn
}

// sortConns orders connections for deterministic eviction order.
func sortConns(cs []Conn) {
	slices.SortFunc(cs, func(a, b Conn) int {
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

// Start implements Predictor.
func (*Never) Start(*topology.ConnTable) {}

// OnEstablish implements Predictor.
func (*Never) OnEstablish(Conn, sim.Time) {}

// OnUse implements Predictor.
func (*Never) OnUse(Conn, sim.Time) {}

// OnRelease implements Predictor.
func (*Never) OnRelease(Conn) {}

// Evictions implements Predictor.
func (*Never) Evictions(sim.Time, []uint64) []Conn { return nil }

// --- Timeout ---

// Timeout evicts a connection that has not been used for a fixed period —
// the predictor used in the paper's experiments ("a connection is removed if
// it is not used for a certain period of time").
//
// Its state is sized once, at Start, from the run's connection table: one
// 16-byte node per connection id. The sweep is incremental. Live
// connections sit in an intrusive list through the nodes in last-use order,
// oldest first, so a sweep pops only the ones that just passed the timeout.
// Those move into an expired bitset over ids and stay there until they are
// used again or released. Evictions ANDs the expired set with the held set
// word by word; id order is (Src, Dst) order, so the result needs no sort.
type Timeout struct {
	timeout sim.Time
	now     sim.Time // latest time seen; calls must not go back

	conns      *topology.ConnTable
	nodes      []lruNode // by connection id
	tracked    int
	head, tail int32    // live list, oldest first; empty when < 0
	expired    []uint64 // bitset over connection ids
	out        []Conn
}

// lruNode is one connection's state: its last use and, while it is live,
// its list links. A node off the list has prev == offList; it is tracked
// while its expired bit is set.
type lruNode struct {
	last       sim.Time
	prev, next int32
}

// offList marks a node that is not on the live list.
const offList = -2

// NewTimeout builds a time-out predictor. timeout must be positive.
func NewTimeout(timeout sim.Time) *Timeout {
	if timeout <= 0 {
		panic(fmt.Sprintf("predictor: timeout %v must be positive", timeout))
	}
	return &Timeout{timeout: timeout, head: -1, tail: -1}
}

// Name implements Predictor.
func (p *Timeout) Name() string { return fmt.Sprintf("timeout(%v)", p.timeout) }

// Start implements Predictor: one node and one expired bit per connection.
func (p *Timeout) Start(t *topology.ConnTable) {
	p.conns = t
	p.nodes = make([]lruNode, t.Len())
	for i := range p.nodes {
		p.nodes[i].prev = offList
	}
	p.expired = make([]uint64, (t.Len()+63)/64)
	p.tracked, p.head, p.tail = 0, -1, -1
}

// OnEstablish implements Predictor.
func (p *Timeout) OnEstablish(c Conn, now sim.Time) { p.touch(c.ID, now) }

// OnUse implements Predictor.
func (p *Timeout) OnUse(c Conn, now sim.Time) { p.touch(c.ID, now) }

// OnRelease implements Predictor.
func (p *Timeout) OnRelease(c Conn) {
	if p.detach(c.ID) {
		p.tracked--
	}
}

// Evictions implements Predictor.
func (p *Timeout) Evictions(now sim.Time, held []uint64) []Conn {
	p.advance(now)
	for p.head >= 0 && now-p.nodes[p.head].last >= p.timeout {
		i := p.head
		p.unlink(i)
		bitmat.MaskSet(p.expired, int(i))
	}
	out := p.out[:0]
	src := -1 // a row cursor: the ids ascend, so one search resolves them all
	for w, x := range p.expired {
		for x &= held[w]; x != 0; x &= x - 1 {
			id := int32(w<<6 | bits.TrailingZeros64(x))
			src = p.conns.SrcFrom(src, id)
			out = append(out, Conn{Conn: topology.Conn{Src: src, Dst: p.conns.Dst(id)}, ID: id})
		}
	}
	p.out = out
	return out
}

// Tracked returns the number of connections under observation.
func (p *Timeout) Tracked() int { return p.tracked }

// advance enforces the monotone-time contract of Predictor.
func (p *Timeout) advance(now sim.Time) {
	if now < p.now {
		panic(fmt.Sprintf("predictor: %s called at %v after %v; time must not go backwards",
			p.Name(), now, p.now))
	}
	p.now = now
}

// touch records a use of connection id at now, tracking it if it is new:
// the node moves to the tail of the live list, which stays in last-use
// order because time never goes backwards.
func (p *Timeout) touch(id int32, now sim.Time) {
	p.advance(now)
	if !p.detach(id) {
		p.tracked++
	}
	n := &p.nodes[id]
	n.last, n.prev, n.next = now, p.tail, -1
	if p.tail >= 0 {
		p.nodes[p.tail].next = id
	} else {
		p.head = id
	}
	p.tail = id
}

// detach takes node id off the live list or out of the expired set and
// reports whether it was tracked.
func (p *Timeout) detach(id int32) bool {
	if p.nodes[id].prev != offList {
		p.unlink(id)
		return true
	}
	if bitmat.MaskTest(p.expired, int(id)) {
		bitmat.MaskClear(p.expired, int(id))
		return true
	}
	return false
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
	n.prev = offList
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
	OnIdleGrant(c Conn, now sim.Time)
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
	atLastUse map[Conn]uint64
	idle      map[Conn]uint64
	out       []Conn
}

// NewCounter builds a counter predictor. threshold must be positive.
func NewCounter(threshold uint64) *Counter {
	if threshold == 0 {
		panic("predictor: counter threshold must be positive")
	}
	return &Counter{
		threshold: threshold,
		atLastUse: make(map[Conn]uint64),
		idle:      make(map[Conn]uint64),
	}
}

// Name implements Predictor.
func (p *Counter) Name() string { return fmt.Sprintf("counter(%d)", p.threshold) }

// Start implements Predictor.
func (*Counter) Start(*topology.ConnTable) {}

// OnEstablish implements Predictor.
func (p *Counter) OnEstablish(c Conn, _ sim.Time) { p.atLastUse[c] = p.totalUses }

// OnUse implements Predictor.
func (p *Counter) OnUse(c Conn, _ sim.Time) {
	p.totalUses++
	p.atLastUse[c] = p.totalUses
	delete(p.idle, c)
}

// OnIdleGrant implements IdleGrantObserver.
func (p *Counter) OnIdleGrant(c Conn, _ sim.Time) {
	p.idle[c]++
}

// OnRelease implements Predictor.
func (p *Counter) OnRelease(c Conn) {
	delete(p.atLastUse, c)
	delete(p.idle, c)
}

// Evictions implements Predictor.
func (p *Counter) Evictions(_ sim.Time, held []uint64) []Conn {
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
	done map[Conn]int
	out  []Conn
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
	return &Oracle{remaining: rem, done: make(map[Conn]int)}
}

// Name implements Predictor.
func (*Oracle) Name() string { return "oracle" }

// Start implements Predictor.
func (*Oracle) Start(*topology.ConnTable) {}

// OnEstablish implements Predictor.
func (p *Oracle) OnEstablish(c Conn, _ sim.Time) {
	if _, ok := p.remaining[c.Conn]; !ok {
		// A connection the oracle never saw in the plan has zero future
		// uses; evict as soon as possible.
		p.done[c]++
	}
}

// OnUse implements Predictor.
func (p *Oracle) OnUse(c Conn, _ sim.Time) {
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

// OnRelease implements Predictor.
func (p *Oracle) OnRelease(c Conn) {
	if n := p.done[c]; n > 1 {
		p.done[c] = n - 1
	} else {
		delete(p.done, c)
	}
}

// Evictions implements Predictor.
func (p *Oracle) Evictions(_ sim.Time, held []uint64) []Conn {
	out := p.out[:0]
	for c := range p.done {
		if bitmat.MaskTest(held, int(c.ID)) {
			out = append(out, c)
		}
	}
	sortConns(out)
	p.out = out
	return out
}
