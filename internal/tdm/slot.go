package tdm

// Data-plane handlers: the slot-boundary transfer loop and message
// completion.

import (
	"pmsnet/internal/netmodel"
	"pmsnet/internal/nic"
	"pmsnet/internal/predictor"
	"pmsnet/internal/probe"
	"pmsnet/internal/sim"
)

// onSlot is the slot-boundary handler: pick the next configuration and let
// every NIC it grants transmit one slot payload.
func (r *run) onSlot() {
	r.stats.SlotsTotal++
	if r.pre != nil {
		// The scheduler writes configuration registers during the data
		// phase of the previous slot, so a group swap takes effect at this
		// boundary without stealing fabric time.
		r.pre.maybeAdvance()
	}
	slot, ok := r.sched.NextFabricSlot()
	if r.probe != nil {
		s := int32(-1)
		if ok {
			s = int32(slot)
		}
		netmodel.EmitSlotStart(r.probe, r.eng.Now(), s, r.cfg.SlotNs)
	}
	if !ok {
		netmodel.EmitSlotEnd(r.probe, r.eng.Now(), -1, false)
		return
	}
	// The slot's connection ids, read from the scheduler's slot index in
	// ascending order in O(connections): the grants the transmit loop below
	// serves. The configuration was realizable when it entered its slot
	// (see checkRealizable), so the fabric carries it as it is. The ids
	// ascend, so a row cursor resolves their sources.
	r.idsBuf = r.sched.AppendSlotConns(r.idsBuf[:0], slot)
	slotStart := r.eng.Now()
	r.grants.arrive(slotStart)
	used := false
	u := -1
	for _, id := range r.idsBuf {
		u = r.conns.SrcFrom(u, id)
		v := r.conns.Dst(id)
		if r.grants.waiting(id) {
			// The grant for this freshly established connection has not
			// reached the NIC yet; the slot passes unused for this port.
			continue
		}
		buf := r.driver.Buffers[u]
		if r.inj != nil {
			if r.inj.PairDown(u, v) {
				// The pair's link is down or its crosspoint is dead: the
				// grant is wasted and the payload stays queued.
				r.maskedGrants++
				continue
			}
			if buf.Has(id) && r.inj.DrawCorrupt() {
				// The slot payload fails the destination NIC's CRC; the
				// bytes stay queued and go out again in the next granted
				// slot — a slot-granularity retransmission.
				buf.HeadOf(id).NoteRetry()
				r.driver.CountRetry()
				continue
			}
		}
		var injected *nic.Message
		if r.probe != nil {
			// The head message's first byte enters the network this slot iff
			// nothing of it has been transmitted yet.
			if h := buf.HeadOf(id); h != nil && h.Remaining() == int(h.Bytes) {
				injected = h
			}
		}
		sent, done, drained := buf.Transmit(id, r.cfg.PayloadBytes)
		if sent == 0 {
			// A wasted grant: the connection is established but has nothing
			// to send. If its source NIC is holding traffic for other
			// destinations, tell idle-grant-aware predictors — this is the
			// signal that the connection is squatting on a slot others need.
			if obs, ok := r.pred.(predictor.IdleGrantObserver); ok && buf.Len() > 0 {
				obs.OnIdleGrant(id, slotStart)
			}
			continue
		}
		used = true
		if injected != nil {
			r.probe.Emit(probe.Event{Kind: probe.MsgInjected, At: slotStart,
				Src: int32(u), Dst: int32(v), ID: int64(injected.ID)})
		}
		if r.pred != nil {
			r.pred.OnUse(id, slotStart)
		}
		if done != nil {
			r.completeMessage(done, id, drained, slotStart)
		}
		if r.cfg.AmplifyBytes > 0 && buf.Bytes(id) > int64(r.cfg.AmplifyBytes) {
			// The backlog outruns one slot per cycle: give the connection
			// another slot if ports are free somewhere (extension 2).
			if added := r.sched.AddBandwidth(u, v, 1); added > 0 {
				r.stats.Amplifications += uint64(added)
			}
		}
	}
	if used {
		r.stats.SlotsUsed++
	}
	netmodel.EmitSlotEnd(r.probe, slotStart, int32(slot), used)
}

// completeMessage retires a message whose last payload was granted in the
// slot starting now, at slotStart, on connection id, whose queue that
// drained when drained is set: the last byte clears the pipe one slot plus
// the link latency later, then the destination NIC spends its receive
// overhead (the deliveries line's delay).
func (r *run) completeMessage(m *nic.Message, id int32, drained bool, slotStart sim.Time) {
	u := int(m.Src)
	if r.probe != nil {
		// Transmit already dequeued m, so the current head is its successor
		// reaching the front of the u→v queue.
		if h := r.driver.Buffers[u].HeadOf(id); h != nil {
			r.probe.Emit(probe.Event{Kind: probe.MsgHeadOfQueue, At: slotStart,
				Src: h.Src, Dst: h.Dst, ID: int64(h.ID)})
		}
	}
	if drained {
		r.reqWire.Set(u, id, false)
		if r.pre != nil {
			r.pre.pendingDown(id)
		}
	}
	r.deliveries.Push(m)
}
