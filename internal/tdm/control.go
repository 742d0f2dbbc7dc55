package tdm

// Control-plane handlers: queue-transition tracking, request/grant token
// signaling toward the scheduler, flushes, and the reactive scheduling pass.

import (
	"pmsnet/internal/core"
	"pmsnet/internal/nic"
	"pmsnet/internal/predictor"
	"pmsnet/internal/sim"
	"pmsnet/internal/topology"
)

// onEnqueue tracks queue transitions, drives the delayed request wire and
// counts connection-cache hits and misses.
func (r *run) onEnqueue(m *nic.Message) {
	u, v := m.Src, m.Dst
	if r.inj != nil && r.inj.PairBlocked(u, v) {
		// A dead crosspoint or permanently failed endpoint link: no route
		// will ever exist, so the message is dropped at the source NIC.
		for _, dm := range r.driver.Buffers[u].DrainFor(v) {
			r.driver.Drop(dm)
		}
		return
	}
	if r.queued.Inc(u, v) {
		// The queue was empty: this message must wait for a connection
		// unless one is already cached — the working-set hit/miss the paper
		// discusses.
		if r.sched.Connected(u, v) {
			r.stats.Hits++
		} else {
			r.stats.Misses++
		}
		r.raiseRequest(u, v, 0)
		if r.pre != nil {
			r.pre.pendingUp(topology.Conn{Src: u, Dst: v})
		}
	} else {
		// The message joins a standing backlog and rides the connection the
		// backlog already has (or is already waiting for): a hit.
		r.stats.Hits++
	}
}

// raiseRequest asserts the request wire toward the scheduler. With fault
// injection, the raise transition can be lost; the NIC detects the missing
// grant by timeout and re-raises after an exponential backoff (attempt is the
// backoff exponent). Clears are not subject to loss: the request line is
// level-sampled every pass, so a stale low is corrected by the next sample.
func (r *run) raiseRequest(u, v, attempt int) {
	if r.cp.RequestTokenLost() {
		r.cp.RetryAfter(attempt, "request-retry", func() {
			if r.queued.Count(u, v) > 0 && !r.sched.Connected(u, v) &&
				!(r.inj.PairBlocked(u, v)) {
				r.driver.CountRetry()
				r.raiseRequest(u, v, attempt+1)
			}
		})
		return
	}
	r.reqWire.Set(u, v, true)
}

// onFlush handles the compiler's FLUSH directive: the request reaches the
// scheduler after the control delay and clears all dynamic connections.
func (r *run) onFlush(int) {
	r.cp.After("flush", func() {
		if r.pred != nil {
			for _, c := range bstarConns(r.sched) {
				r.pred.OnRelease(c)
			}
		}
		r.sched.Flush()
	})
}

func bstarConns(s *core.Scheduler) []topology.Conn {
	var out []topology.Conn
	s.BStar().Ones(func(u, v int) bool {
		out = append(out, topology.Conn{Src: u, Dst: v})
		return true
	})
	return out
}

// onSLPass runs one scheduling pass and applies predictor evictions and
// prefetches.
func (r *run) onSLPass() {
	req := r.reqView
	if pf, ok := r.pred.(predictor.Prefetcher); ok {
		for _, c := range pf.Prefetch(r.eng.Now()) {
			if !r.sched.Connected(c.Src, c.Dst) {
				r.specReq.Set(c.Src, c.Dst)
			}
		}
	}
	if !r.specReq.IsZero() {
		r.reqMerge.CopyFrom(r.reqView)
		r.reqMerge.Or(r.specReq)
		req = r.reqMerge
	}
	res := r.sched.PassSparse(req)
	for _, c := range res.Established {
		r.deliverGrant(c.Src, c.Dst, 0)
		r.specReq.Clear(c.Src, c.Dst)
	}
	if r.pred != nil {
		now := r.eng.Now()
		for _, c := range res.Established {
			r.pred.OnEstablish(topology.Conn{Src: c.Src, Dst: c.Dst}, now)
		}
		for _, c := range res.Released {
			r.pred.OnRelease(topology.Conn{Src: c.Src, Dst: c.Dst})
		}
		// The predictor nominates only connections still in B*. Evict clears
		// no B* bit but its own, so the live matrix read here is as good as a
		// snapshot taken before the loop.
		for _, c := range r.pred.Evictions(now, r.sched.BStarView()) {
			// Never evict a connection that still has traffic queued; the
			// predictor only sees usage, not queue occupancy.
			if r.queued.Count(c.Src, c.Dst) == 0 {
				r.sched.Evict(c.Src, c.Dst)
				r.pred.OnRelease(c)
			}
		}
	}
}

// deliverGrant sends the grant signal for a freshly established connection
// toward NIC u. With fault injection, the grant token can be lost: the NIC
// never learns it may transmit, and the scheduler re-sends the grant after an
// exponential-backoff timeout (attempt is the backoff exponent). Until a
// grant arrives, the connection's slots pass unused.
func (r *run) deliverGrant(u, v, attempt int) {
	if r.cp.GrantTokenLost() {
		// The NIC must not use the connection until a grant arrives.
		r.grantAt[u][v] = sim.MaxTime
		r.cp.RetryAfter(attempt, "grant-retry", func() {
			if r.sched.Connected(u, v) {
				r.driver.CountRetry()
				r.deliverGrant(u, v, attempt+1)
			}
		})
		return
	}
	r.grantAt[u][v] = r.eng.Now() + r.cp.Delay()
}
