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

// ComputeEach assembles a Result from the count delivered messages that each
// passes to add, one call per message. The order does not matter: every
// statistic is a sum, an extreme, an order statistic or a histogram, so any
// order of the same messages gives the same Result.
//
// It panics if any record is undelivered (Delivered before Created) or if
// each passes other than count records — a model that loses messages is
// broken, and silently computing an efficiency for it would hide the bug.
func ComputeEach(network, workload string, n int, lm link.Model, count int, each func(add func(Record)), stats NetStats) Result {
	res := Result{Network: network, Workload: workload, N: n, Messages: count, Stats: stats}
	if count == 0 {
		return res
	}

	outBytes := make([]int64, n)
	inBytes := make([]int64, n)
	srcLatSums := make([]int64, n) // per-source latency sums and counts for Jain's index
	srcCounts := make([]int64, n)
	lat := make([]sim.Time, 0, count)
	hist := NewHistogram()
	var latSum int64
	each(func(r Record) {
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
		if l > res.LatencyMax {
			res.LatencyMax = l
		}
		srcLatSums[r.Src] += int64(l)
		srcCounts[r.Src]++
		hist.Add(l)
	})
	if len(lat) != count {
		panic(fmt.Sprintf("metrics: %d records for %d delivered messages", len(lat), count))
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

	res.LatencyMean = sim.Time(latSum / int64(len(lat)))
	// Select p95 first: it leaves the smallest r95 latencies in lat[:r95],
	// and p50 is the same order statistic of that prefix.
	r50, r95 := nearestRank(50, len(lat)), nearestRank(95, len(lat))
	res.LatencyP95 = selectNth(lat, r95-1)
	res.LatencyP50 = selectNth(lat[:r95], r50-1)
	res.FairnessJain = jainIndex(srcLatSums, srcCounts)
	res.Latencies = hist
	return res
}

// jainIndex computes Jain's fairness index over per-source mean latencies,
// given each source's latency sum and message count.
func jainIndex(sums, counts []int64) float64 {
	var sum, sumSq float64
	sources := 0
	for p := range counts {
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

// nearestRank returns the 1-based nearest rank of percentile p among n
// samples: ceil(p/100 · n), clamped to [1, n].
func nearestRank(p, n int) int {
	return min(max((p*n+99)/100, 1), n)
}

// selectNth reorders a in place so that a[k] holds the value a sorted copy
// would hold there, with no larger value before it and no smaller one after,
// and returns it. It is quickselect with a median-of-three pivot and a
// three-way partition, so runs of equal latencies cost one pass.
func selectNth(a []sim.Time, k int) sim.Time {
	lo, hi := 0, len(a)-1
	for lo < hi {
		x, y, z := a[lo], a[lo+(hi-lo)/2], a[hi]
		if x > y {
			x, y = y, x
		}
		pivot := min(max(x, z), y) // median of the three
		lt, i, gt := lo, lo, hi
		for i <= gt {
			switch {
			case a[i] < pivot:
				a[lt], a[i] = a[i], a[lt]
				lt++
				i++
			case a[i] > pivot:
				a[i], a[gt] = a[gt], a[i]
				gt--
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt - 1
		case k > gt:
			lo = gt + 1
		default:
			return a[k]
		}
	}
	return a[k]
}
