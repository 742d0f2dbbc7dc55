// Package metrics computes the run statistics the paper's figures report.
//
// Figure 4 and Figure 5 plot link efficiency against message size and
// determinism. We define efficiency as bottleneck-ideal time divided by
// measured makespan: the ideal time is the pure serialization time of the
// busiest port's traffic at the raw line rate, i.e. the time a perfectly
// pipelined, overhead-free network would need. An efficiency of 1.0 means
// the bottleneck link never idled and carried no overhead.
package metrics

import (
	"fmt"
	"slices"

	"pmsnet/internal/link"
	"pmsnet/internal/sim"
)

// Record is one delivered message.
type Record struct {
	Src, Dst, Bytes    int
	Created, Delivered sim.Time
}

// NetStats carries the network-model counters that the paper's discussion
// refers to (scheduler work, connection cache behaviour, slot utilization).
// Models fill in what applies to them; zero values mean "not applicable".
type NetStats struct {
	SchedulerPasses uint64
	Established     uint64
	Released        uint64
	Evictions       uint64
	Flushes         uint64
	// Hits counts messages whose connection was already established when
	// they reached the head of their queue; Misses counts those that had to
	// wait for scheduling. Their ratio is the connection-cache hit rate.
	Hits, Misses uint64
	// SchedCacheHits / SchedCacheMisses count memoized scheduling passes:
	// hits replayed a recorded grant set, misses ran the scheduling array.
	// Zero when the pass cache is disabled. These are performance counters,
	// not model state — every other field is bit-identical whether the
	// cache is on or off.
	SchedCacheHits, SchedCacheMisses uint64
	// SchedWarmHits / SchedWarmMisses count warm-started scheduling passes:
	// hits repaired the previous pass's masks incrementally from the request
	// journal, misses rebuilt them from scratch. SchedDirtyRows totals the
	// rows re-evaluated across incremental passes. Zero unless warm-start
	// scheduling is enabled; like the cache counters these are pure
	// performance telemetry — the only fields allowed to differ between
	// warm-on and warm-off runs.
	SchedWarmHits, SchedWarmMisses, SchedDirtyRows uint64
	// SlotsUsed / SlotsTotal measure TDM slot utilization: a used slot
	// carried at least one byte.
	SlotsUsed, SlotsTotal uint64
	// Preloads counts configuration groups loaded by the preload controller.
	Preloads uint64
	// Planner names the preload planner that computed the pinned schedule
	// ("solstice", "bvn", ...); empty when the preloads were hand-written
	// (no planner configured). The Plan* counters below describe its
	// schedule: PlanConfigs distinct planned configurations, PlanGroups
	// configuration groups, PlanResidualConns connections the plan spilled
	// to the dynamic path, PlanDrainSlots the planner's own drain estimate
	// in slots (reconfiguration charges included, rounded up). All zero
	// without a planner.
	Planner                                                    string
	PlanConfigs, PlanGroups, PlanResidualConns, PlanDrainSlots uint64
	// Amplifications counts extra slots granted to hot connections
	// (bandwidth amplification, core extension 2).
	Amplifications uint64
	// Faults carries the fault-injection and recovery counters when the run
	// had a fault plan.
	Faults FaultStats
}

// FaultStats accounts for injected faults and the recovery work they caused.
// The accounting invariant is exact: every message the workload injected is
// either delivered (possibly after retries) or explicitly dropped —
// Injected == Delivered + Dropped, checked by Reconciles.
type FaultStats struct {
	// Enabled is true when the run had an active fault plan.
	Enabled bool

	// Injected-fault tallies.
	LinkFailures     uint64
	LinkRepairs      uint64
	CrosspointDeaths uint64
	Corrupted        uint64
	RequestsLost     uint64
	GrantsLost       uint64

	// Recovery tallies.
	// Retries counts retransmissions and control-token re-sends.
	Retries uint64
	// Reschedules counts connections the scheduler evicted to route around
	// a fault (and that dynamic scheduling must re-establish on demand).
	Reschedules uint64
	// PreloadFallbacks counts preloaded connections invalidated by a fault,
	// whose traffic fell back to dynamic scheduling.
	PreloadFallbacks uint64
	// MaskedGrants counts TDM slot grants wasted because the granted pair's
	// link was down or crosspoint dead.
	MaskedGrants uint64

	// Message accounting.
	Injected  uint64
	Delivered uint64
	Dropped   uint64

	// DegradedTime is the simulated time during which at least one fault
	// was active.
	DegradedTime sim.Time
}

// Reconciles reports whether the message accounting balances exactly:
// Injected == Delivered + Dropped. It is vacuously true without a fault
// plan.
func (f FaultStats) Reconciles() bool {
	if !f.Enabled {
		return true
	}
	return f.Injected == f.Delivered+f.Dropped
}

// HitRate returns Hits/(Hits+Misses), or 0 when no lookups happened.
func (s NetStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Result is the outcome of one simulation run.
type Result struct {
	Network  string
	Workload string
	N        int

	Messages int
	Bytes    int64
	// Makespan is the delivery time of the last message.
	Makespan sim.Time
	// Ideal is the bottleneck port's pure serialization time.
	Ideal sim.Time
	// Efficiency = Ideal / Makespan in [0,1].
	Efficiency float64

	LatencyMean sim.Time
	LatencyP50  sim.Time
	LatencyP95  sim.Time
	LatencyMax  sim.Time

	// FairnessJain is Jain's fairness index over the per-source mean
	// latencies: 1.0 when every sending processor sees the same mean
	// latency, approaching 1/sources when one processor is starved. The
	// scheduler's priority-rotation ablation reads this column.
	FairnessJain float64

	// Latencies is the log-bucketed latency histogram of the run.
	Latencies *Histogram

	Stats NetStats
}

// String renders a one-line summary.
func (r Result) String() string {
	return fmt.Sprintf("%s on %s: %d msgs, %d B, makespan %v, efficiency %.3f (hit rate %.2f)",
		r.Network, r.Workload, r.Messages, r.Bytes, r.Makespan, r.Efficiency, r.Stats.HitRate())
}

// Compute assembles a Result from delivered-message records.
//
// It panics if any record is undelivered (Delivered before Created) — a
// model that loses messages is broken, and silently computing an efficiency
// for it would hide the bug.
func Compute(network, workload string, n int, lm link.Model, recs []Record, stats NetStats) Result {
	res := Result{Network: network, Workload: workload, N: n, Messages: len(recs), Stats: stats}
	if len(recs) == 0 {
		return res
	}

	outBytes := make([]int64, n)
	inBytes := make([]int64, n)
	lat := make([]sim.Time, 0, len(recs))
	var latSum int64
	for _, r := range recs {
		if r.Delivered < r.Created {
			panic(fmt.Sprintf("metrics: message %d->%d delivered at %v before created at %v",
				r.Src, r.Dst, r.Delivered, r.Created))
		}
		if r.Src < 0 || r.Src >= n || r.Dst < 0 || r.Dst >= n {
			panic(fmt.Sprintf("metrics: record endpoints %d->%d outside %d ports", r.Src, r.Dst, n))
		}
		res.Bytes += int64(r.Bytes)
		outBytes[r.Src] += int64(r.Bytes)
		inBytes[r.Dst] += int64(r.Bytes)
		if r.Delivered > res.Makespan {
			res.Makespan = r.Delivered
		}
		l := r.Delivered - r.Created
		lat = append(lat, l)
		latSum += int64(l)
	}

	var maxPortBytes int64
	for p := 0; p < n; p++ {
		if outBytes[p] > maxPortBytes {
			maxPortBytes = outBytes[p]
		}
		if inBytes[p] > maxPortBytes {
			maxPortBytes = inBytes[p]
		}
	}
	res.Ideal = lm.SerializationTime(int(maxPortBytes))
	if res.Makespan > 0 {
		res.Efficiency = float64(res.Ideal) / float64(res.Makespan)
	}

	slices.Sort(lat)
	res.LatencyMean = sim.Time(latSum / int64(len(lat)))
	res.LatencyP50 = percentile(lat, 50)
	res.LatencyP95 = percentile(lat, 95)
	res.LatencyMax = lat[len(lat)-1]
	res.FairnessJain = jainIndex(recs, n)
	res.Latencies = LatencyHistogram(recs)
	return res
}

// jainIndex computes Jain's fairness index over per-source mean latencies.
func jainIndex(recs []Record, n int) float64 {
	sums := make([]int64, n)
	counts := make([]int64, n)
	for _, r := range recs {
		sums[r.Src] += int64(r.Delivered - r.Created)
		counts[r.Src]++
	}
	var sum, sumSq float64
	sources := 0
	for p := 0; p < n; p++ {
		if counts[p] == 0 {
			continue
		}
		mean := float64(sums[p]) / float64(counts[p])
		sum += mean
		sumSq += mean * mean
		sources++
	}
	if sources == 0 || sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(sources) * sumSq)
}

// percentile returns the nearest-rank percentile of a sorted slice.
func percentile(sorted []sim.Time, p int) sim.Time {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := (p*len(sorted) + 99) / 100 // ceil(p/100 * len)
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}
