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
//
// A connection is named by its id in the run's connection table
// (topology.ConnTable), the key every layer of a run shares. Each predictor
// sizes its per-connection state from the table in Start and indexes it by
// id; id order is (Src, Dst) order, so a walk over an id bitset yields
// nominations in a deterministic order without a sort.
package predictor

import (
	"fmt"
	"math/bits"

	"pmsnet/internal/bitmat"
	"pmsnet/internal/sim"
	"pmsnet/internal/topology"
	"pmsnet/internal/traffic"
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
	// Start hands the predictor the run's connection table before any
	// other call: every connection id passed in later is one of its ids,
	// so per-connection state can be sized once.
	Start(t *topology.ConnTable)
	// OnEstablish tells the predictor connection id entered the working
	// set.
	OnEstablish(id int32, now sim.Time)
	// OnUse tells the predictor connection id carried traffic.
	OnUse(id int32, now sim.Time)
	// OnRelease tells the predictor connection id left the working set for
	// any reason (eviction it requested, a flush, or a scheduler release),
	// so it can drop its state.
	OnRelease(id int32)
	// Evictions returns, in ascending id order and without duplicates, the
	// connections that should be evicted now and whose id is set in held —
	// the scheduler's B*, the connections currently established, as a
	// bitset over connection ids. The caller is expected to evict them and
	// then call OnRelease for each. The slice is reused by the next
	// Evictions call; OnRelease leaves it intact.
	Evictions(now sim.Time, held []uint64) []int32
}

// appendBoth appends the ids set in both a and b to out, ascending.
func appendBoth(out []int32, a, b []uint64) []int32 {
	for w, x := range a {
		for x &= b[w]; x != 0; x &= x - 1 {
			out = append(out, int32(w<<6|bits.TrailingZeros64(x)))
		}
	}
	return out
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
func (*Never) OnEstablish(int32, sim.Time) {}

// OnUse implements Predictor.
func (*Never) OnUse(int32, sim.Time) {}

// OnRelease implements Predictor.
func (*Never) OnRelease(int32) {}

// Evictions implements Predictor.
func (*Never) Evictions(sim.Time, []uint64) []int32 { return nil }

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

	nodes      []lruNode // by connection id
	head, tail int32     // live list, oldest first; empty when < 0
	expired    []uint64  // bitset over connection ids
	out        []int32
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
	p.nodes = make([]lruNode, t.Len())
	for i := range p.nodes {
		p.nodes[i].prev = offList
	}
	p.expired = make([]uint64, (t.Len()+63)/64)
	p.head, p.tail = -1, -1
}

// OnEstablish implements Predictor.
func (p *Timeout) OnEstablish(id int32, now sim.Time) { p.touch(id, now) }

// OnUse implements Predictor.
func (p *Timeout) OnUse(id int32, now sim.Time) { p.touch(id, now) }

// OnRelease implements Predictor.
func (p *Timeout) OnRelease(id int32) { p.detach(id) }

// Evictions implements Predictor.
func (p *Timeout) Evictions(now sim.Time, held []uint64) []int32 {
	p.advance(now)
	for p.head >= 0 && now-p.nodes[p.head].last >= p.timeout {
		i := p.head
		p.unlink(i)
		bitmat.MaskSet(p.expired, int(i))
	}
	p.out = appendBoth(p.out[:0], p.expired, held)
	return p.out
}

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
	p.detach(id)
	n := &p.nodes[id]
	n.last, n.prev, n.next = now, p.tail, -1
	if p.tail >= 0 {
		p.nodes[p.tail].next = id
	} else {
		p.head = id
	}
	p.tail = id
}

// detach takes node id off the live list or out of the expired set.
func (p *Timeout) detach(id int32) {
	if p.nodes[id].prev != offList {
		p.unlink(id)
	} else {
		bitmat.MaskClear(p.expired, int(id))
	}
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
	// OnIdleGrant reports one wasted slot grant for connection id.
	OnIdleGrant(id int32, now sim.Time)
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
//
// Its state is sized at Start: per connection id, the use count at its last
// use and its wasted grants, plus a bitset of the tracked ids. Evictions
// walks the tracked ids that are held, word by word, in id order.
type Counter struct {
	threshold uint64
	totalUses uint64
	atLastUse []uint64 // by connection id, while tracked
	idle      []uint64 // wasted grants since the last use, by connection id
	tracked   []uint64 // bitset over connection ids
	out       []int32
}

// NewCounter builds a counter predictor. threshold must be positive.
func NewCounter(threshold uint64) *Counter {
	if threshold == 0 {
		panic("predictor: counter threshold must be positive")
	}
	return &Counter{threshold: threshold}
}

// Name implements Predictor.
func (p *Counter) Name() string { return fmt.Sprintf("counter(%d)", p.threshold) }

// Start implements Predictor.
func (p *Counter) Start(t *topology.ConnTable) {
	p.totalUses = 0
	p.atLastUse = make([]uint64, t.Len())
	p.idle = make([]uint64, t.Len())
	p.tracked = make([]uint64, (t.Len()+63)/64)
}

// OnEstablish implements Predictor.
func (p *Counter) OnEstablish(id int32, _ sim.Time) {
	p.atLastUse[id] = p.totalUses
	bitmat.MaskSet(p.tracked, int(id))
}

// OnUse implements Predictor.
func (p *Counter) OnUse(id int32, _ sim.Time) {
	p.totalUses++
	p.atLastUse[id] = p.totalUses
	bitmat.MaskSet(p.tracked, int(id))
	p.idle[id] = 0
}

// OnIdleGrant implements IdleGrantObserver.
func (p *Counter) OnIdleGrant(id int32, _ sim.Time) { p.idle[id]++ }

// OnRelease implements Predictor.
func (p *Counter) OnRelease(id int32) {
	bitmat.MaskClear(p.tracked, int(id))
	p.idle[id] = 0
}

// Evictions implements Predictor.
func (p *Counter) Evictions(_ sim.Time, held []uint64) []int32 {
	out := p.out[:0]
	for w, x := range p.tracked {
		for x &= held[w]; x != 0; x &= x - 1 {
			id := int32(w<<6 | bits.TrailingZeros64(x))
			// Uses by other connections since id's last use (its own last
			// use is included in totalUses and in atLastUse, so the
			// difference counts exactly the *other* uses since then) plus
			// the slot grants it wasted while other traffic waited.
			if p.totalUses-p.atLastUse[id]+p.idle[id] >= p.threshold {
				out = append(out, id)
			}
		}
	}
	p.out = out
	return out
}

var _ IdleGrantObserver = (*Counter)(nil)

// --- Oracle ---

// Oracle knows each connection's total use count in advance (extracted from
// the workload) and evicts a connection immediately after its final use.
// It is the eviction upper bound for ablation comparisons.
type Oracle struct {
	wl *traffic.Workload
	// remaining counts each connection's future uses; it is zero for a
	// connection whose uses are exhausted or that no program sends on.
	remaining []int32
	// done counts each nominated connection's pending nominations; an
	// OnRelease retires one. nominated holds the ids whose count is
	// positive.
	done      []int32
	nominated []uint64
	out       []int32
}

// NewOracle builds an oracle for a run of wl: Start counts its sends per
// connection.
func NewOracle(wl *traffic.Workload) *Oracle { return &Oracle{wl: wl} }

// Name implements Predictor.
func (*Oracle) Name() string { return "oracle" }

// Start implements Predictor: it resolves every send of the workload to its
// connection id once. The table must be the one of a run of that workload.
func (p *Oracle) Start(t *topology.ConnTable) {
	p.remaining = make([]int32, t.Len())
	p.done = make([]int32, t.Len())
	p.nominated = make([]uint64, (t.Len()+63)/64)
	for src, prog := range p.wl.Programs {
		for _, op := range prog.Ops {
			if op.IsSend() {
				id := t.ID(src, int(op.Dst))
				if id < 0 {
					panic(fmt.Sprintf("predictor: oracle's workload sends %d->%d, outside the run's table", src, op.Dst))
				}
				p.remaining[id]++
			}
		}
	}
}

// OnEstablish implements Predictor.
func (p *Oracle) OnEstablish(id int32, _ sim.Time) {
	if p.remaining[id] == 0 {
		// A connection with no future use: evict as soon as possible.
		p.nominate(id)
	}
}

// OnUse implements Predictor.
func (p *Oracle) OnUse(id int32, _ sim.Time) {
	if p.remaining[id] == 0 {
		return
	}
	p.remaining[id]--
	if p.remaining[id] == 0 {
		p.nominate(id)
	}
}

// nominate adds one pending nomination of id.
func (p *Oracle) nominate(id int32) {
	p.done[id]++
	bitmat.MaskSet(p.nominated, int(id))
}

// OnRelease implements Predictor.
func (p *Oracle) OnRelease(id int32) {
	if p.done[id] > 1 {
		p.done[id]--
	} else {
		p.done[id] = 0
		bitmat.MaskClear(p.nominated, int(id))
	}
}

// Evictions implements Predictor.
func (p *Oracle) Evictions(_ sim.Time, held []uint64) []int32 {
	p.out = appendBoth(p.out[:0], p.nominated, held)
	return p.out
}
