package tdm

// Data-plane handlers: the slot-boundary transfer loop and message
// completion.

import (
	"fmt"

	"pmsnet/internal/netmodel"
	"pmsnet/internal/nic"
	"pmsnet/internal/predictor"
	"pmsnet/internal/probe"
	"pmsnet/internal/sim"
	"pmsnet/internal/topology"
)

// onSlot is the slot-boundary handler: pick the next configuration, copy it
// to the fabric, and let every granted NIC transmit one slot payload.
func (r *run) onSlot() {
	r.stats.SlotsTotal++
	if r.pre != nil {
		// The scheduler writes configuration registers during the data
		// phase of the previous slot, so a group swap takes effect at this
		// boundary without stealing fabric time.
		r.pre.maybeAdvance()
	}
	slot, cfg, ok := r.sched.NextFabricSlot()
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
	if err := r.fab.Apply(cfg); err != nil {
		r.fail(fmt.Errorf("tdm: scheduler produced unrealizable configuration for slot %d: %w", slot, err))
		return
	}
	slotStart := r.eng.Now()
	used := false
	// Snapshot the slot's connections from the scheduler's slot index —
	// O(connections), in the same ascending-row order as the former
	// first-in-row scan over all N rows.
	r.connsBuf = r.sched.AppendSlotConns(r.connsBuf[:0], slot)
	for _, conn := range r.connsBuf {
		u, v := conn.Src, conn.Dst
		if len(r.grantAt) > 0 {
			key := topology.Conn{Src: u, Dst: v}.Key()
			if at, ok := r.grantAt[key]; ok {
				if at > slotStart {
					// The grant for this freshly established connection has
					// not reached the NIC yet; the slot passes unused for
					// this port.
					continue
				}
				delete(r.grantAt, key)
			}
		}
		if r.inj != nil {
			if r.inj.PairDown(u, v) {
				// The pair's link is down or its crosspoint is dead: the
				// grant is wasted and the payload stays queued.
				r.maskedGrants++
				continue
			}
			if r.driver.Buffers[u].HasFor(v) && r.inj.DrawCorrupt() {
				// The slot payload fails the destination NIC's CRC; the
				// bytes stay queued and go out again in the next granted
				// slot — a slot-granularity retransmission.
				if m := r.driver.Buffers[u].Head(v); m != nil {
					m.Retries++
				}
				r.driver.CountRetry()
				continue
			}
		}
		var injected *nic.Message
		if r.probe != nil {
			// The head message's first byte enters the network this slot iff
			// nothing of it has been transmitted yet.
			injected = r.driver.HeadUntransmitted(u, v)
		}
		sent, done := r.driver.Buffers[u].TransmitTo(v, r.cfg.PayloadBytes)
		if sent == 0 {
			// A wasted grant: the connection is established but has nothing
			// to send. If its source NIC is holding traffic for other
			// destinations, tell idle-grant-aware predictors — this is the
			// signal that the connection is squatting on a slot others need.
			if obs, ok := r.pred.(predictor.IdleGrantObserver); ok &&
				r.driver.Buffers[u].Len() > 0 {
				obs.OnIdleGrant(topology.Conn{Src: u, Dst: v}, slotStart)
			}
			continue
		}
		used = true
		if injected != nil {
			r.probe.Emit(probe.Event{Kind: probe.MsgInjected, At: slotStart,
				Src: int32(u), Dst: int32(v), ID: int64(injected.ID)})
		}
		if r.pred != nil {
			r.pred.OnUse(topology.Conn{Src: u, Dst: v}, slotStart)
		}
		if done != nil {
			r.completeMessage(done, slotStart)
		}
		if r.cfg.AmplifyBytes > 0 &&
			r.driver.Buffers[u].BytesFor(v) > int64(r.cfg.AmplifyBytes) {
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
// slot starting at slotStart: the last byte clears the pipe one slot plus
// the link latency later, then the destination NIC spends its receive
// overhead.
func (r *run) completeMessage(m *nic.Message, slotStart sim.Time) {
	u, v := m.Src, m.Dst
	if r.probe != nil {
		// TransmitTo already dequeued m, so the current head is its successor
		// reaching the front of the u→v queue.
		if h := r.driver.Buffers[u].Head(v); h != nil {
			r.probe.Emit(probe.Event{Kind: probe.MsgHeadOfQueue, At: slotStart,
				Src: int32(h.Src), Dst: int32(h.Dst), ID: int64(h.ID)})
		}
	}
	if !r.driver.Buffers[u].HasFor(v) {
		r.reqWire.Set(u, v, false)
		if r.pre != nil {
			r.pre.pendingDown(topology.Conn{Src: u, Dst: v})
		}
	}
	deliverAt := slotStart + r.cfg.SlotNs + r.cfg.Link.PipeLatency() + nic.RecvOverhead
	r.eng.AtArg(deliverAt, "tdm-deliver", r.deliverFn, m)
}

// deliver hands a completed message to the driver (see completeMessage).
func (r *run) deliver(arg any) { r.driver.Deliver(arg.(*nic.Message)) }
