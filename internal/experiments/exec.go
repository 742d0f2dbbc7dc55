package experiments

import (
	"pmsnet/internal/runner"
)

// Exec selects how a sweep's independent simulation points execute. Every
// harness in this package fans its points — one (network, workload, size,
// seed) run each — through internal/runner, so a sweep's output is a pure
// function of its inputs regardless of worker count: results are collected
// by point index, and the parallel rows are bit-identical to a serial run
// (asserted by the *Identity tests in parallel_test.go).
type Exec struct {
	// Parallelism is the worker count: 1 is the strict serial reference
	// path, <= 0 defaults to GOMAXPROCS.
	Parallelism int
	// OnPoint, when non-nil, observes every completed point (progress and
	// per-point wall time). Calls are serialized by the runner.
	OnPoint func(runner.Point)
}

// Serial is the reference executor: one point at a time, in order.
var Serial = Exec{Parallelism: 1}

func (ex Exec) options() runner.Options {
	return runner.Options{Parallelism: ex.Parallelism, OnPoint: ex.OnPoint}
}

// sweep runs fn over n points through the executor — the backbone every
// harness in this package is rewired through.
func sweep[T any](ex Exec, n int, fn func(i int) (T, error)) ([]T, error) {
	return runner.Map(ex.options(), n, fn)
}
