package tdm

// Control-plane handlers: queue-transition tracking, request/grant token
// signaling toward the scheduler, flushes, and the reactive scheduling pass.

import (
	"math/bits"

	"pmsnet/internal/bitmat"
	"pmsnet/internal/nic"
	"pmsnet/internal/predictor"
	"pmsnet/internal/sim"
)

// onEnqueue tracks queue transitions, drives the delayed request wire and
// counts connection-cache hits and misses.
func (r *run) onEnqueue(m *nic.Message, id int32, first bool) {
	u, v := int(m.Src), int(m.Dst)
	if r.inj != nil && r.inj.PairBlocked(u, v) {
		// A dead crosspoint or permanently failed endpoint link: no route
		// will ever exist, so the message is dropped at the source NIC.
		for _, dm := range r.driver.Buffers[u].DrainFor(v) {
			r.driver.Drop(dm)
		}
		return
	}
	if first {
		// The queue was empty: this message must wait for a connection
		// unless one is already cached — the working-set hit/miss the paper
		// discusses.
		if r.sched.Held(id) {
			r.stats.Hits++
		} else {
			r.stats.Misses++
		}
		r.raiseRequest(u, v, id, 0)
		if r.pre != nil {
			r.pre.pendingUp(id)
		}
	} else {
		// The message joins a standing backlog and rides the connection the
		// backlog already has (or is already waiting for): a hit.
		r.stats.Hits++
	}
}

// raiseRequest asserts the request wire of u→v (connection id) toward the
// scheduler. With fault injection, the raise transition can be lost; the NIC
// detects the missing grant by timeout and re-raises after an exponential
// backoff (attempt is the backoff exponent). Clears are not subject to loss:
// the request line is level-sampled every pass, so a stale low is corrected
// by the next sample.
func (r *run) raiseRequest(u, v int, id int32, attempt int) {
	if r.cp.RequestTokenLost() {
		r.cp.RetryAfter(attempt, "request-retry", func() {
			if r.driver.Buffers[u].Has(id) && !r.sched.Held(id) &&
				!(r.inj.PairBlocked(u, v)) {
				r.driver.CountRetry()
				r.raiseRequest(u, v, id, attempt+1)
			}
		})
		return
	}
	r.reqWire.Set(u, id, true)
}

// onFlush handles the compiler's FLUSH directive: the request reaches the
// scheduler after the control delay and clears all dynamic connections.
func (r *run) onFlush(int) {
	r.cp.After("flush", func() {
		if r.pred != nil {
			for w, x := range r.sched.HeldIDs() {
				for ; x != 0; x &= x - 1 {
					r.pred.OnRelease(int32(w<<6 | bits.TrailingZeros64(x)))
				}
			}
		}
		r.sched.Flush()
	})
}

// onSLPass runs one scheduling pass and applies predictor evictions and
// prefetches.
func (r *run) onSLPass() {
	req := r.reqView
	if pf, ok := r.pred.(predictor.Prefetcher); ok {
		src := -1 // a row cursor: the ids ascend
		for _, id := range pf.Prefetch(r.eng.Now()) {
			src = r.conns.SrcFrom(src, id)
			if !r.sched.Held(id) {
				r.specReq.Add(src, id)
			}
		}
	}
	if !r.specReq.IsEmpty() {
		r.reqMerge.CopyFrom(r.reqView)
		r.reqMerge.Or(r.specReq)
		req = r.reqMerge
	}
	res := r.sched.PassSparse(req)
	for _, c := range res.Established {
		r.deliverGrant(c.Src, c.Dst, c.ID, 0)
		r.specReq.Remove(c.Src, c.ID)
	}
	if r.pred != nil {
		now := r.eng.Now()
		for _, c := range res.Established {
			r.pred.OnEstablish(c.ID, now)
		}
		for _, c := range res.Released {
			r.pred.OnRelease(c.ID)
		}
		// The predictor nominates only connections still in B*. Evict clears
		// no B* bit but its own, so the live set read here is as good as a
		// snapshot taken before the loop. The ids ascend, so a row cursor
		// resolves their sources.
		src := -1
		for _, id := range r.pred.Evictions(now, r.sched.HeldIDs()) {
			src = r.conns.SrcFrom(src, id)
			// Never evict a connection that still has traffic queued; the
			// predictor only sees usage, not queue occupancy.
			if !r.driver.Buffers[src].Has(id) {
				r.sched.Evict(src, r.conns.Dst(id))
				r.pred.OnRelease(id)
			}
		}
	}
}

// deliverGrant sends the grant signal for a freshly established connection
// u→v (id) toward NIC u. With fault injection, the grant token can be lost:
// the NIC never learns it may transmit, and the scheduler re-sends the grant
// after an exponential-backoff timeout (attempt is the backoff exponent).
// Until a grant arrives, the connection's slots pass unused.
func (r *run) deliverGrant(u, v int, id int32, attempt int) {
	if r.cp.GrantTokenLost() {
		// The NIC must not use the connection until a grant arrives.
		r.grants.send(id, sim.MaxTime)
		r.cp.RetryAfter(attempt, "grant-retry", func() {
			if r.sched.Held(id) {
				r.driver.CountRetry()
				r.deliverGrant(u, v, id, attempt+1)
			}
		})
		return
	}
	r.grants.send(id, r.eng.Now()+r.cp.Delay())
}

// grantLine tracks the grant signals in flight toward the NICs. A grant
// takes one control delay to reach its NIC, so a slot that starts earlier
// cannot carry data on a connection established this recently. Preloaded
// configurations are known to the NICs from load time and have no such
// penalty.
//
// A connection's pending bit is set from its establish until its grant
// arrives (until a re-send, for a lost grant). Every grant takes the same
// delay, so grants arrive in the order they were sent: they wait in a FIFO
// that the slot clock pops up to each slot's start, and a bit still set
// then means the grant has not arrived. The state is one bit per
// connection plus the grants in flight.
type grantLine struct {
	pending []uint64 // bitset over connection ids
	fifo    []grant  // in flight, oldest first from head
	head    int
}

// grant is one grant in flight: connection id may be used from at on. A
// grant superseded by a newer one for its connection has id -1.
type grant struct {
	id int32
	at sim.Time
}

func (g *grantLine) init(conns int) { g.pending = make([]uint64, (conns+63)/64) }

// send records a grant for id that reaches its NIC at `at`; sim.MaxTime is
// a lost grant, which holds the connection until the grant is sent again.
func (g *grantLine) send(id int32, at sim.Time) {
	if bitmat.MaskTest(g.pending, int(id)) {
		// The newer grant supersedes the one in flight.
		for i := g.head; i < len(g.fifo); i++ {
			if g.fifo[i].id == id {
				g.fifo[i].id = -1
			}
		}
	}
	bitmat.MaskSet(g.pending, int(id))
	if at != sim.MaxTime {
		g.fifo = append(g.fifo, grant{id: id, at: at})
	}
}

// arrive lands every grant that reaches its NIC by now.
func (g *grantLine) arrive(now sim.Time) {
	for g.head < len(g.fifo) && g.fifo[g.head].at <= now {
		if id := g.fifo[g.head].id; id >= 0 {
			bitmat.MaskClear(g.pending, int(id))
		}
		g.head++
	}
	if g.head > 0 && 2*g.head >= len(g.fifo) {
		g.fifo = g.fifo[:copy(g.fifo, g.fifo[g.head:])]
		g.head = 0
	}
}

// waiting reports whether connection id's grant has not reached its NIC.
func (g *grantLine) waiting(id int32) bool { return bitmat.MaskTest(g.pending, int(id)) }
