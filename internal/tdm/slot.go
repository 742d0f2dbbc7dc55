package tdm

// Data-plane handlers: the slot-boundary transfer loop and message
// completion.

import (
	"fmt"

	"pmsnet/internal/bitmat"
	"pmsnet/internal/netmodel"
	"pmsnet/internal/nic"
	"pmsnet/internal/predictor"
	"pmsnet/internal/probe"
	"pmsnet/internal/sim"
	"pmsnet/internal/topology"
)

// onSlot is the slot-boundary handler: pick the next configuration, load
// its connection list into the fabric, and let every granted NIC transmit
// one slot payload.
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
	// The slot's connections and their ids, read from the scheduler's slot
	// index in ascending source order in O(connections): the list the
	// fabric is loaded with and the grants the transmit loop below serves.
	// From here on each connection is served by its id; nothing is looked
	// up.
	r.connsBuf, r.idsBuf = r.sched.AppendSlotConns(r.connsBuf[:0], r.idsBuf[:0], slot)
	if r.cfg.SelfCheck {
		if err := checkSlotConns(r.sched.Config(slot), r.connsBuf); err != nil {
			r.fail(fmt.Errorf("tdm: slot %d: %w", slot, err))
			return
		}
	}
	if err := r.fab.Apply(r.connsBuf); err != nil {
		r.fail(fmt.Errorf("tdm: scheduler produced unrealizable configuration for slot %d: %w", slot, err))
		return
	}
	slotStart := r.eng.Now()
	r.grants.arrive(slotStart)
	used := false
	for i, conn := range r.connsBuf {
		u, v, id := conn.Src, conn.Dst, r.idsBuf[i]
		if id < 0 {
			r.fail(fmt.Errorf("tdm: slot %d carries %v, a connection outside the run's table", slot, conn))
			return
		}
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
				obs.OnIdleGrant(predictor.Conn{Conn: conn, ID: id}, slotStart)
			}
			continue
		}
		used = true
		if injected != nil {
			r.probe.Emit(probe.Event{Kind: probe.MsgInjected, At: slotStart,
				Src: int32(u), Dst: int32(v), ID: int64(injected.ID)})
		}
		if r.pred != nil {
			r.pred.OnUse(predictor.Conn{Conn: conn, ID: id}, slotStart)
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

// checkSlotConns is the self-check's matrix-level cross-check of a slot's
// connection list against the slot's configuration matrix B(slot): the list
// must run in strictly ascending source order, each row's first set column
// must be its list entry (or -1 for a row the list skips), and the matrix
// may hold no other bit. With the fabric's own check on the list, this is
// the full partial-permutation check of B(slot), at O(N²/64) per slot.
func checkSlotConns(cfg *bitmat.Matrix, conns []topology.Conn) error {
	if got := cfg.Count(); got != len(conns) {
		return fmt.Errorf("configuration holds %d connections, its list %d", got, len(conns))
	}
	next := 0
	for u := 0; u < cfg.Rows(); u++ {
		want := -1
		if next < len(conns) && conns[next].Src == u {
			want = conns[next].Dst
			next++
		}
		if got := cfg.FirstInRow(u); got != want {
			return fmt.Errorf("row %d connects to %d, its list entry to %d", u, got, want)
		}
	}
	if next != len(conns) {
		return fmt.Errorf("list entry %v is out of ascending source order", conns[next])
	}
	return nil
}

// completeMessage retires a message whose last payload was granted in the
// slot starting at slotStart, on connection id, whose queue that drained
// when drained is set: the last byte clears the pipe one slot plus the link
// latency later, then the destination NIC spends its receive overhead.
func (r *run) completeMessage(m *nic.Message, id int32, drained bool, slotStart sim.Time) {
	u, v := int(m.Src), int(m.Dst)
	if r.probe != nil {
		// Transmit already dequeued m, so the current head is its successor
		// reaching the front of the u→v queue.
		if h := r.driver.Buffers[u].HeadOf(id); h != nil {
			r.probe.Emit(probe.Event{Kind: probe.MsgHeadOfQueue, At: slotStart,
				Src: h.Src, Dst: h.Dst, ID: int64(h.ID)})
		}
	}
	if drained {
		r.reqWire.Set(u, v, false)
		if r.pre != nil {
			r.pre.pendingDown(id)
		}
	}
	deliverAt := slotStart + r.cfg.SlotNs + r.cfg.Link.PipeLatency() + nic.RecvOverhead
	r.eng.AtArg(deliverAt, "tdm-deliver", r.deliverFn, m)
}

// deliver hands a completed message to the driver (see completeMessage).
func (r *run) deliver(arg any) { r.driver.Deliver(arg.(*nic.Message)) }
