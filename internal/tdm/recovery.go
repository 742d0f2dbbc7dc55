package tdm

// Fault-reaction handlers: link failures and repairs, dead crosspoints, and
// the queue/preload bookkeeping they unwind.

// onPortDown is the injector's link-failure callback. The scheduler evicts
// every dynamic connection touching the port (its cached TDM configurations
// are stale) and forgets the port's pending requests; preloaded
// configurations containing the port are invalidated for good — their
// traffic falls back to dynamic scheduling, the cache-invalidation semantics
// of a broken compiled schedule. A permanent failure additionally drops all
// traffic from and toward the port: no recovery is possible. A port past
// the workload's processors is idle and has nothing to unwind.
func (r *run) onPortDown(p int, permanent bool) {
	if r.idle(p) {
		return
	}
	changes := r.sched.EvictPort(p)
	r.reschedules += uint64(len(changes))
	if r.pred != nil {
		for _, c := range changes {
			r.pred.OnRelease(c.ID)
		}
	}
	lo, hi := r.conns.Row(p)
	for id := lo; id < hi; id++ {
		r.reqWire.ClearNow(p, id)
		r.specReq.Remove(p, id)
	}
	for x := 0; x < r.cfg.N; x++ {
		if id := r.conns.ID(x, p); id >= 0 {
			r.reqWire.ClearNow(x, id)
			r.specReq.Remove(x, id)
		}
	}
	if r.pre != nil {
		if n := r.pre.breakPort(p); n > 0 {
			r.preloadFallbacks += uint64(n)
			r.ensureDynamicFallback()
		}
	}
	if permanent {
		buf := r.driver.Buffers[p]
		msgs := buf.DrainAll()
		// Each p->dst queue is retired once, at its last drained message:
		// the point where it drained when messages left one at a time.
		// lastOf is indexed by p's row of the connection table.
		lastOf := make([]int, hi-lo)
		ids := make([]int32, len(msgs))
		for i, m := range msgs {
			ids[i] = buf.Conn(int(m.Dst))
			lastOf[ids[i]-lo] = i
		}
		for i, m := range msgs {
			if lastOf[ids[i]-lo] == i {
				r.retirePair(p, int(m.Dst), ids[i])
			}
			r.driver.Drop(m)
		}
		for u := 0; u < r.conns.Ports(); u++ {
			if u != p {
				r.dropPair(u, p)
			}
		}
	}
}

// onPortUp is the injector's link-repair callback: the NIC re-raises every
// request the failure suppressed so dynamic scheduling can re-establish the
// connections. Broken preloaded entries stay broken — the compiled schedule
// is not revalidated at run time — so their traffic keeps using dynamic
// slots.
func (r *run) onPortUp(p int) {
	for x := 0; x < r.cfg.N; x++ {
		if x == p {
			continue
		}
		if id := r.conns.ID(p, x); id >= 0 && r.driver.Buffers[p].Has(id) {
			r.raiseRequest(p, x, id, 0)
		}
		if id := r.conns.ID(x, p); id >= 0 && r.driver.Buffers[x].Has(id) {
			r.raiseRequest(x, p, id, 0)
		}
	}
}

// onCrosspointDead is the injector's crosspoint-failure callback: the pair
// (in,out) is permanently unroutable through the central fabric. Cached and
// preloaded configurations using the crosspoint are invalidated and the
// pair's queued traffic is dropped. A crosspoint of an idle port carries
// nothing.
func (r *run) onCrosspointDead(in, out int) {
	if r.idle(in) || r.idle(out) {
		return
	}
	// Every connection in B* or the preloaded groups is in the table; a
	// pair outside it has nothing to invalidate but its requests.
	id := r.conns.ID(in, out)
	if r.sched.Connected(in, out) {
		r.sched.Evict(in, out)
		r.reschedules++
		if r.pred != nil {
			r.pred.OnRelease(id)
		}
	}
	if id >= 0 {
		r.reqWire.ClearNow(in, id)
		r.specReq.Remove(in, id)
		if r.pre != nil && r.pre.breakConn(id) {
			r.preloadFallbacks++
			r.ensureDynamicFallback()
		}
	}
	r.dropPair(in, out)
}

// idle reports whether port p is past the workload's processors. A workload
// narrower than the switch runs with the extra ports idle: they hold no NIC
// and no connection, so a fault on one is counted and moves no traffic.
func (r *run) idle(p int) bool { return p >= r.conns.Ports() }

// retirePair unwinds the queue bookkeeping of the u->v queue (connection
// id) just emptied without delivery: it clears the request wire and the
// preloader's pending count, exactly as completeMessage does when a queue
// drains.
func (r *run) retirePair(u, v int, id int32) {
	r.reqWire.Set(u, id, false)
	if r.pre != nil {
		r.pre.pendingDown(id)
	}
}

// dropPair drops every message queued from u toward v — the bulk-drop path
// when the pair becomes permanently unreachable.
func (r *run) dropPair(u, v int) {
	msgs := r.driver.Buffers[u].DrainFor(v)
	if len(msgs) == 0 {
		return
	}
	r.retirePair(u, v, r.conns.ID(u, v))
	for _, m := range msgs {
		r.driver.Drop(m)
	}
}

// ensureDynamicFallback guarantees at least one dynamically scheduled slot
// and a running scheduling-logic clock, so traffic orphaned by a broken
// preloaded configuration can still be served. In pure Preload mode this
// releases one pinned slot back to the scheduler and starts the SL ticker —
// the graceful-degradation path; in Hybrid mode dynamic slots already exist
// and this is a no-op.
func (r *run) ensureDynamicFallback() {
	if r.sched.DynamicSlotCount() == 0 {
		if r.pre == nil || !r.pre.releaseSlot() {
			return
		}
	}
	if r.slTicker == nil {
		r.slTicker = r.eng.NewTicker(r.sched.PassLatency(), "tdm-sl-pass", r.onSLPass)
		r.slTicker.Start()
	}
}
