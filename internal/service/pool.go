package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"pmsnet"
	"pmsnet/internal/runner"
)

// JobResult is the terminal payload of a successful job: one report per
// seed, in seed order. It is marshaled once, stored in the result cache,
// and served verbatim thereafter, so a cached replay is byte-identical to
// the fresh run that produced it.
type JobResult struct {
	Reports []pmsnet.Report `json:"reports"`
}

// startWorkers launches the pool. Each worker is one goroutine pulling
// admitted jobs until the queue closes; a crashing job is contained inside
// runJob, so the loop — and the pool — survives any panic a simulation can
// produce.
func (s *Server) startWorkers() {
	for w := 0; w < s.cfg.Workers; w++ {
		s.workerWG.Add(1)
		go func() {
			defer s.workerWG.Done()
			for job := range s.queue.ch {
				s.runJob(job)
			}
		}()
	}
}

// runJob drives one job to a terminal state. The simulation itself runs in
// a child goroutine so the worker can abandon it the instant the per-job
// deadline fires or a cancellation arrives: the worker is freed for the
// next job, the orphaned simulation finishes into a buffered channel and is
// discarded (bounded by one simulation's runtime — acceptable because
// simulations are CPU-bounded and deadlines exist precisely to cap them).
// The recover sits inside the child goroutine, where the panic would
// otherwise crash the whole process. The run goroutine gets the workloads
// as an argument, and finish drops the job's reference at the terminal
// transition, so they are garbage once the run ends, even an abandoned one.
func (s *Server) runJob(j *Job) {
	wls, ok := j.markRunning(time.Now())
	if !ok {
		// Cancelled while queued (DELETE or shutdown abort): nothing ran,
		// the terminal transition already happened.
		return
	}
	s.metrics.wait.record(time.Since(j.submitted))
	s.metrics.inFlight.Add(1)
	started := time.Now()
	defer func() {
		s.metrics.run.record(time.Since(started))
		s.metrics.inFlight.Add(-1)
	}()

	ctx, cancel := context.WithTimeout(j.ctx, j.deadline)
	defer cancel()

	type outcome struct {
		payload []byte
		err     error
		stack   string
	}
	ch := make(chan outcome, 1) // buffered: an abandoned run must not block
	go func() {
		defer func() {
			if r := recover(); r != nil {
				ch <- outcome{
					err:   fmt.Errorf("job panicked: %v", r),
					stack: string(debug.Stack()),
				}
			}
		}()
		payload, err := s.execute(ctx, j, wls)
		ch <- outcome{payload: payload, err: err}
	}()

	var (
		state      State
		transition bool
	)
	select {
	case out := <-ch:
		switch {
		case out.stack != "":
			state = StatePanicked
			transition = j.finish(StatePanicked, nil, out.err.Error(), out.stack)
		case errors.Is(out.err, context.DeadlineExceeded):
			state = StateDeadline
			transition = j.finish(StateDeadline, nil, fmt.Sprintf("deadline %v exceeded", j.deadline), "")
		case errors.Is(out.err, context.Canceled):
			state = StateCancelled
			transition = j.finish(StateCancelled, nil, "cancelled", "")
		case out.err != nil:
			state = StateFailed
			transition = j.finish(StateFailed, nil, out.err.Error(), "")
		default:
			state = StateDone
			s.cache.put(j.key, out.payload)
			transition = j.finish(StateDone, out.payload, "", "")
		}
	case <-ctx.Done():
		// Abandon the run and free the worker. Deadline and cancellation
		// share this path; ctx.Err() tells them apart.
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			state = StateDeadline
			transition = j.finish(StateDeadline, nil, fmt.Sprintf("deadline %v exceeded", j.deadline), "")
		} else {
			state = StateCancelled
			transition = j.finish(StateCancelled, nil, "cancelled", "")
		}
	}
	// finish is exactly-once: when a DELETE raced the worker and performed
	// the terminal transition first, that path already recorded the metric.
	if transition {
		s.metrics.recordTerminal(state)
	}
	if s.cfg.Log != nil {
		s.cfg.Log.Printf("job %s %s (wait %v, run %v)",
			j.ID, state, started.Sub(j.submitted).Round(time.Microsecond), time.Since(started).Round(time.Microsecond))
	}
}

// execute runs the job's simulations and marshals the canonical result
// payload. Multi-seed jobs fan through runner.MapCtx with parallelism 1 —
// one job never occupies more than its one worker — so cancellation and
// deadlines take effect between seeds even though a single simulation,
// once started, runs to completion in the abandoned goroutine.
func (s *Server) execute(ctx context.Context, j *Job, wls []*pmsnet.Workload) ([]byte, error) {
	switch j.testPattern {
	case "panic":
		panic("injected test panic (pattern \"panic\")")
	case "sleep":
		select {
		case <-time.After(j.sleep):
			return json.Marshal(JobResult{})
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	reports, err := runner.MapCtx(ctx, runner.Options{Parallelism: 1}, len(wls),
		func(i int) (pmsnet.Report, error) {
			return pmsnet.Run(j.cfg, wls[i])
		})
	if err != nil {
		return nil, err
	}
	for _, rep := range reports {
		s.metrics.recordPlan(rep.Plan.Planner, rep.Plan.Configs, rep.Plan.ResidualConns)
	}
	return json.Marshal(JobResult{Reports: reports})
}
