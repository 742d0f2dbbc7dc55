package predictor

import (
	"fmt"

	"pmsnet/internal/bitmat"
	"pmsnet/internal/sim"
	"pmsnet/internal/topology"
)

// ScheduleSlack is the first *principled* eviction signal: instead of
// guessing from observed idleness (Timeout) or relative use counts
// (Counter), it consumes the preload planner's per-connection service budget
// (plan.Schedule.PlannedUses) — the number of slots the plan says each
// connection needs. A connection that has used up its budget has, according
// to the plan, no future traffic, and is nominated for eviction immediately;
// its slack is gone. Connections the plan never saw, and planned connections
// whose traffic diverges from the plan (demand is an estimate, not an
// oracle), fall back to the classic idle timeout so the predictor can never
// starve the cache by trusting a stale plan.
type ScheduleSlack struct {
	planned  map[topology.Conn]uint64
	used     map[topology.Conn]uint64
	lastUse  map[topology.Conn]sim.Time
	fallback sim.Time
	spent    map[topology.Conn]struct{} // budgets used up, not yet released
	out      []topology.Conn
}

// NewScheduleSlack builds the predictor from a plan's per-connection slot
// budget (copied, not retained) and an idle-timeout fallback for unplanned
// or misplanned connections. fallback must be positive.
func NewScheduleSlack(planned map[topology.Conn]uint64, fallback sim.Time) *ScheduleSlack {
	if fallback <= 0 {
		panic(fmt.Sprintf("predictor: schedule-slack fallback %v must be positive", fallback))
	}
	p := &ScheduleSlack{
		planned:  make(map[topology.Conn]uint64, len(planned)),
		used:     make(map[topology.Conn]uint64),
		lastUse:  make(map[topology.Conn]sim.Time),
		fallback: fallback,
		spent:    make(map[topology.Conn]struct{}),
	}
	for c, n := range planned {
		if n > 0 {
			p.planned[c] = n
		}
	}
	return p
}

// Name implements Predictor.
func (p *ScheduleSlack) Name() string { return fmt.Sprintf("schedule-slack(%v)", p.fallback) }

// Slack returns the connection's remaining planned budget in slots, or 0
// when the budget is spent or the plan never covered it.
func (p *ScheduleSlack) Slack(c topology.Conn) uint64 {
	total, ok := p.planned[c]
	if !ok || p.used[c] >= total {
		return 0
	}
	return total - p.used[c]
}

// OnEstablish implements Predictor.
func (p *ScheduleSlack) OnEstablish(c topology.Conn, now sim.Time) {
	p.lastUse[c] = now
}

// OnUse implements Predictor.
func (p *ScheduleSlack) OnUse(c topology.Conn, now sim.Time) {
	p.lastUse[c] = now
	if _, ok := p.planned[c]; !ok {
		return
	}
	p.used[c]++
	if p.used[c] == p.planned[c] {
		// Crossing the budget exactly once nominates the connection once,
		// even when traffic overshoots the plan.
		p.spent[c] = struct{}{}
	}
}

// OnRelease implements Predictor.
func (p *ScheduleSlack) OnRelease(c topology.Conn) {
	delete(p.lastUse, c)
	delete(p.spent, c)
}

// Evictions implements Predictor.
func (p *ScheduleSlack) Evictions(now sim.Time, held *bitmat.Matrix) []topology.Conn {
	out := p.out[:0]
	for c := range p.spent {
		if held.Get(c.Src, c.Dst) {
			out = append(out, c)
		}
	}
	for c, last := range p.lastUse {
		// Either unplanned, or the budget is spent but the connection was
		// already nominated and not yet released — the spent set covers the
		// latter, so avoid duplicates.
		if _, spent := p.spent[c]; !spent && p.Slack(c) == 0 && now-last >= p.fallback &&
			held.Get(c.Src, c.Dst) {
			out = append(out, c)
		}
	}
	sortConns(out)
	p.out = out
	return out
}
