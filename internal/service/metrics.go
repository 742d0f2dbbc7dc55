package service

import (
	"sync/atomic"
	"time"
)

// durationStat aggregates a per-job duration (queue wait, run time) with
// lock-free counters: count, sum and max, enough for mean/max reporting on
// /metrics. Full percentile distributions live in the load harness
// (cmd/pmsload), which sees true end-to-end latency.
type durationStat struct {
	count atomic.Uint64
	sum   atomic.Int64 // nanoseconds
	max   atomic.Int64 // nanoseconds
}

func (d *durationStat) record(v time.Duration) {
	d.count.Add(1)
	d.sum.Add(int64(v))
	for {
		cur := d.max.Load()
		if int64(v) <= cur || d.max.CompareAndSwap(cur, int64(v)) {
			return
		}
	}
}

// DurationStatSnapshot is one aggregated duration on /metrics.
type DurationStatSnapshot struct {
	Count  uint64  `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	MaxMS  float64 `json:"max_ms"`
}

func (d *durationStat) snapshot() DurationStatSnapshot {
	n := d.count.Load()
	s := DurationStatSnapshot{Count: n, MaxMS: float64(d.max.Load()) / 1e6}
	if n > 0 {
		s.MeanMS = float64(d.sum.Load()) / float64(n) / 1e6
	}
	return s
}

// metrics is the server's structured counter set, updated lock-free on the
// hot paths and snapshotted as JSON by /metrics.
type metrics struct {
	submitted   atomic.Uint64 // POST /jobs requests that parsed as HTTP
	rejected400 atomic.Uint64 // admission failures
	rejected429 atomic.Uint64 // queue-full backpressure
	rejected503 atomic.Uint64 // refused while draining
	cacheHits   atomic.Uint64
	cacheMisses atomic.Uint64
	completed   atomic.Uint64 // StateDone
	failed      atomic.Uint64 // StateFailed
	panicked    atomic.Uint64 // StatePanicked
	deadlines   atomic.Uint64 // StateDeadline
	cancelled   atomic.Uint64 // StateCancelled
	inFlight    atomic.Int64  // jobs currently on a worker

	// Preload-planner activity aggregated from every report of every
	// freshly completed job (cache replays don't re-run the simulation, so
	// they add nothing here): runs whose config selected a planner, and the
	// schedule shapes those plans produced.
	plannedRuns       atomic.Uint64
	planConfigs       atomic.Uint64
	planResidualConns atomic.Uint64

	wait durationStat // admission -> worker pickup
	run  durationStat // worker pickup -> terminal
}

// MetricsSnapshot is the GET /metrics response body.
type MetricsSnapshot struct {
	Uptime        string  `json:"uptime"`
	QueueDepth    int     `json:"queue_depth"`
	QueueCapacity int     `json:"queue_capacity"`
	Workers       int     `json:"workers"`
	InFlight      int64   `json:"in_flight"`
	Submitted     uint64  `json:"submitted"`
	Rejected400   uint64  `json:"rejected_400"`
	Rejected429   uint64  `json:"rejected_429"`
	Rejected503   uint64  `json:"rejected_503"`
	CacheHits     uint64  `json:"cache_hits"`
	CacheMisses   uint64  `json:"cache_misses"`
	CacheHitRate  float64 `json:"cache_hit_rate"`
	CacheEntries  int     `json:"cache_entries"`
	Completed     uint64  `json:"completed"`
	Failed        uint64  `json:"failed"`
	Panicked      uint64  `json:"panicked"`
	Deadlines     uint64  `json:"deadlines"`
	Cancelled     uint64  `json:"cancelled"`

	// Preload-planner counters summed over the reports of completed jobs:
	// how many runs carried a planned schedule, and that schedule's shape.
	PlannedRuns       uint64 `json:"planned_runs"`
	PlanConfigs       uint64 `json:"plan_configs"`
	PlanResidualConns uint64 `json:"plan_residual_conns"`

	QueueWait DurationStatSnapshot `json:"queue_wait"`
	RunTime   DurationStatSnapshot `json:"run_time"`
}

func (m *metrics) snapshot() MetricsSnapshot {
	hits, misses := m.cacheHits.Load(), m.cacheMisses.Load()
	s := MetricsSnapshot{
		InFlight:    m.inFlight.Load(),
		Submitted:   m.submitted.Load(),
		Rejected400: m.rejected400.Load(),
		Rejected429: m.rejected429.Load(),
		Rejected503: m.rejected503.Load(),
		CacheHits:   hits,
		CacheMisses: misses,
		Completed:   m.completed.Load(),
		Failed:      m.failed.Load(),
		Panicked:    m.panicked.Load(),
		Deadlines:   m.deadlines.Load(),
		Cancelled:   m.cancelled.Load(),

		PlannedRuns:       m.plannedRuns.Load(),
		PlanConfigs:       m.planConfigs.Load(),
		PlanResidualConns: m.planResidualConns.Load(),

		QueueWait: m.wait.snapshot(),
		RunTime:   m.run.snapshot(),
	}
	if hits+misses > 0 {
		s.CacheHitRate = float64(hits) / float64(hits+misses)
	}
	return s
}

// recordPlan folds one completed report's preload-planner counters into the
// aggregate /metrics view; reports without a planner contribute nothing.
func (m *metrics) recordPlan(planner string, configs, residualConns uint64) {
	if planner == "" {
		return
	}
	m.plannedRuns.Add(1)
	m.planConfigs.Add(configs)
	m.planResidualConns.Add(residualConns)
}

// recordTerminal bumps the counter matching a terminal state.
func (m *metrics) recordTerminal(state State) {
	switch state {
	case StateDone:
		m.completed.Add(1)
	case StateFailed:
		m.failed.Add(1)
	case StatePanicked:
		m.panicked.Add(1)
	case StateDeadline:
		m.deadlines.Add(1)
	case StateCancelled:
		m.cancelled.Add(1)
	}
}
