// Package service is the hardened simulation-as-a-service layer behind
// cmd/pmsd: an HTTP/JSON front end over the pmsnet library with the
// robustness envelope a shared long-lived process needs — admission
// validation, a bounded job queue with explicit backpressure, a worker pool
// with per-job deadlines, cancellation and panic isolation, a deterministic
// result cache keyed on (config hash, workload request hash), and graceful
// drain on shutdown. The same disciplines the simulated switch applies to
// keep a shared fabric stable under offered load beyond capacity (bounded
// VOQs, arbitration, degradation instead of collapse) applied to the system
// that runs the simulations.
package service

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"pmsnet"
)

// JobSpec is the JSON body of POST /jobs: which network to simulate and
// what workload to drive it with, plus an optional per-job deadline.
type JobSpec struct {
	Config   ConfigSpec   `json:"config"`
	Workload WorkloadSpec `json:"workload"`
	// DeadlineMS overrides the server's default per-job deadline, capped at
	// the server's maximum. Zero means the default.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// ConfigSpec mirrors pmsnet.Config with the string vocabularies of the
// cmd/pmsim flags; zero values take the library defaults.
type ConfigSpec struct {
	Switching         string `json:"switching"`
	N                 int    `json:"n"`
	K                 int    `json:"k,omitempty"`
	PreloadSlots      int    `json:"preload_slots,omitempty"`
	Eviction          string `json:"eviction,omitempty"`
	EvictionTimeoutNS int64  `json:"eviction_timeout_ns,omitempty"`
	EvictionThreshold uint64 `json:"eviction_threshold,omitempty"`
	AmplifyBytes      int    `json:"amplify_bytes,omitempty"`
	Fabric            string `json:"fabric,omitempty"`
	// Faults is a fault-plan spec in the pmsnet.ParseFaults syntax.
	Faults string `json:"faults,omitempty"`
	// Scheduler selects the TDM scheduling algorithm (paper, islip,
	// wavefront); empty means the paper scheduler.
	Scheduler string `json:"scheduler,omitempty"`
	// Planner selects the preload planner for tdm-preload/tdm-hybrid
	// (static, solstice, bvn); empty means the static decomposition.
	Planner string `json:"planner,omitempty"`
}

// WorkloadSpec selects a workload from the shared generator registry (the
// cmd/pmsim -pattern vocabulary) or carries an inline PMSTRACE program.
// Pattern is a generator spec `name[:key=value,...]`; spec parameters win,
// and the flat JSON fields (size, msgs, rounds, distance, determinism,
// think_ns) fill in any matching parameter the spec leaves unset. Unknown
// pattern names are rejected at admission with a 400 naming the full
// vocabulary. Seeds > 1 fans the pattern out over consecutive seeds inside
// one job.
type WorkloadSpec struct {
	Pattern     string  `json:"pattern"`
	N           int     `json:"n,omitempty"` // defaults to Config.N
	Size        int     `json:"size,omitempty"`
	Msgs        int     `json:"msgs,omitempty"`
	Rounds      int     `json:"rounds,omitempty"`
	Distance    int     `json:"distance,omitempty"`
	Determinism float64 `json:"determinism,omitempty"`
	ThinkNS     int64   `json:"think_ns,omitempty"`
	Seed        int64   `json:"seed,omitempty"`
	Seeds       int     `json:"seeds,omitempty"`
	// Trace is an inline PMSTRACE command file, used when Pattern is
	// "trace".
	Trace string `json:"trace,omitempty"`
	// SleepMS parameterizes the "sleep" test pattern (Config.TestPatterns
	// servers only).
	SleepMS int64 `json:"sleep_ms,omitempty"`
}

// AdmissionError is a request the service refuses at the door: malformed
// spec, unknown vocabulary, or a config rejected by pmsnet validation. It
// always maps to HTTP 400. Field names the offending spec field when known.
type AdmissionError struct {
	Field  string
	Reason string
}

// Error implements error.
func (e *AdmissionError) Error() string {
	if e.Field == "" {
		return "service: " + e.Reason
	}
	return fmt.Sprintf("service: invalid %s: %s", e.Field, e.Reason)
}

// State is a job's position in its lifecycle.
type State string

// Job lifecycle states. Queued and Running are transient; the rest are
// terminal.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"    // the simulation returned an error
	StatePanicked  State = "panicked"  // the simulation crashed; stack captured
	StateDeadline  State = "deadline"  // the per-job deadline fired
	StateCancelled State = "cancelled" // DELETE /jobs/{id} or shutdown abort
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s != StateQueued && s != StateRunning }

// cacheKey identifies a deterministic simulation outcome: the config
// fingerprint and the workload request's fingerprint (workloadRequest.hash,
// which covers the seeds). Two jobs with equal keys are bit-reproducible
// replays of each other.
type cacheKey struct {
	config   uint64
	workload uint64
}

// Job is one admitted simulation request moving through the queue and pool.
type Job struct {
	ID string

	cfg      pmsnet.Config
	key      cacheKey
	deadline time.Duration
	// testPattern is "panic" or "sleep" on test-pattern jobs, else "".
	testPattern string
	sleep       time.Duration // the "sleep" test pattern's duration

	ctx    context.Context
	cancel context.CancelFunc

	submitted time.Time
	done      chan struct{} // closed on the terminal transition

	mu sync.Mutex
	// wls holds the generated workloads of a cache miss from admission to
	// the terminal transition, where finish drops them; a run in progress
	// keeps its own reference. Cache hits never generate, so no terminal or
	// cached job holds workloads.
	wls      []*pmsnet.Workload
	state    State
	started  time.Time
	finished time.Time
	result   []byte // canonical JobResult JSON, set on StateDone
	cached   bool
	errMsg   string
	stack    string
}

// snapshot returns the mutable job fields under the lock.
func (j *Job) snapshot() (State, time.Time, time.Time, []byte, bool, string, string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.started, j.finished, j.result, j.cached, j.errMsg, j.stack
}

// markRunning claims the job for a worker and returns its workloads for
// the run. It fails when the job was cancelled while queued, which is how a
// queued-then-DELETEd job is skipped instead of executed.
func (j *Job) markRunning(at time.Time) ([]*pmsnet.Workload, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return nil, false
	}
	j.state = StateRunning
	j.started = at
	return j.wls, true
}

// finish moves the job to a terminal state exactly once; later calls are
// no-ops (a worker reporting a result after a DELETE already cancelled the
// job, for example). It returns whether this call performed the transition,
// which is what keeps the terminal metrics exactly-once under cancel/worker
// races. The job's context is released on the way out so the server's base
// context does not accumulate dead children, and so are the job's
// workloads.
func (j *Job) finish(state State, result []byte, errMsg, stack string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return false
	}
	j.state = state
	j.finished = time.Now()
	j.result = result
	j.errMsg = errMsg
	j.stack = stack
	j.wls = nil
	close(j.done)
	if j.cancel != nil {
		j.cancel()
	}
	return true
}

// buildJob validates a spec and compiles it into a job plus its workload
// request, resolved but not generated: the job's cache key is known without
// building a workload, so a cache hit never builds one. The request is nil
// for test patterns. Every rejection is an *AdmissionError (HTTP 400).
func (s *Server) buildJob(spec JobSpec) (*Job, *workloadRequest, error) {
	cfg, err := buildConfig(spec.Config)
	if err != nil {
		return nil, nil, err
	}
	if spec.DeadlineMS < 0 {
		return nil, nil, &AdmissionError{Field: "deadline_ms", Reason: "must not be negative"}
	}
	deadline := s.cfg.DefaultDeadline
	if spec.DeadlineMS > 0 {
		deadline = time.Duration(spec.DeadlineMS) * time.Millisecond
	}
	if deadline > s.cfg.MaxDeadline {
		deadline = s.cfg.MaxDeadline
	}

	j := &Job{
		cfg:      cfg,
		deadline: deadline,
		state:    StateQueued,
		done:     make(chan struct{}),
	}
	if s.cfg.TestPatterns && (spec.Workload.Pattern == "panic" || spec.Workload.Pattern == "sleep") {
		j.testPattern = spec.Workload.Pattern
		if spec.Workload.Pattern == "sleep" {
			if spec.Workload.SleepMS <= 0 {
				return nil, nil, &AdmissionError{Field: "workload.sleep_ms", Reason: "sleep pattern needs a positive duration"}
			}
			j.sleep = time.Duration(spec.Workload.SleepMS) * time.Millisecond
		}
		// Test patterns are deliberately uncacheable: give each a unique key.
		j.key = cacheKey{config: cfg.Hash(), workload: s.nextID.Add(1) | 1<<63}
		return j, nil, nil
	}

	if err := cfg.Validate(); err != nil {
		var ce *pmsnet.ConfigError
		if errors.As(err, &ce) {
			return nil, nil, &AdmissionError{Field: "config." + strings.ToLower(ce.Field), Reason: ce.Reason}
		}
		return nil, nil, &AdmissionError{Field: "config", Reason: err.Error()}
	}
	req, err := resolveWorkload(cfg, spec.Workload)
	if err != nil {
		return nil, nil, err
	}
	j.key = cacheKey{config: cfg.Hash(), workload: req.hash()}
	return j, req, nil
}

// buildConfig maps the string-vocabulary spec onto a pmsnet.Config.
func buildConfig(spec ConfigSpec) (pmsnet.Config, error) {
	cfg := pmsnet.Config{
		N:                 spec.N,
		K:                 spec.K,
		PreloadSlots:      spec.PreloadSlots,
		EvictionTimeout:   time.Duration(spec.EvictionTimeoutNS),
		EvictionThreshold: spec.EvictionThreshold,
		AmplifyBytes:      spec.AmplifyBytes,
		Parallelism:       1, // each job owns exactly one worker
	}
	var err error
	if cfg.Switching, err = pmsnet.Switchings.Parse(spec.Switching); err != nil {
		return cfg, &AdmissionError{Field: "config.switching", Reason: err.Error()}
	}
	if spec.Scheduler != "" {
		if cfg.Scheduler, err = pmsnet.Schedulers.Parse(spec.Scheduler); err != nil {
			return cfg, &AdmissionError{Field: "config.scheduler", Reason: err.Error()}
		}
	}
	if spec.Planner != "" {
		if cfg.Planner, err = pmsnet.Planners.Parse(spec.Planner); err != nil {
			return cfg, &AdmissionError{Field: "config.planner", Reason: err.Error()}
		}
	}
	if spec.Eviction != "" {
		if cfg.Eviction, err = pmsnet.Evictions.Parse(spec.Eviction); err != nil {
			return cfg, &AdmissionError{Field: "config.eviction", Reason: err.Error()}
		}
	}
	if spec.Fabric != "" {
		if cfg.Fabric, err = pmsnet.Fabrics.Parse(spec.Fabric); err != nil {
			return cfg, &AdmissionError{Field: "config.fabric", Reason: err.Error()}
		}
	}
	if spec.Faults != "" {
		plan, err := pmsnet.ParseFaults(spec.Faults)
		if err != nil {
			return cfg, &AdmissionError{Field: "config.faults", Reason: err.Error()}
		}
		cfg.Faults = plan
	}
	return cfg, nil
}

// workloadRequest is a job's workload spec with every default applied: all
// that determines the workloads the job runs, short of generating them.
type workloadRequest struct {
	gen   *pmsnet.WorkloadSpec // the generator; nil for a trace job
	trace string               // a trace job's inline PMSTRACE program
	n     int
	seed  int64 // the first seed; workload i uses seed+i
	seeds int
}

// resolveWorkload applies the workload spec's defaults and checks what can
// be checked without generating: the seed count, the pattern name and
// parameters, and that a trace job carries a program.
func resolveWorkload(cfg pmsnet.Config, spec WorkloadSpec) (*workloadRequest, error) {
	req := &workloadRequest{n: spec.N, seed: spec.Seed, seeds: spec.Seeds}
	if req.n == 0 {
		req.n = cfg.N
	}
	if req.seed == 0 {
		req.seed = 1
	}
	if req.seeds == 0 {
		req.seeds = 1
	}
	if req.seeds < 0 || req.seeds > 1024 {
		return nil, &AdmissionError{Field: "workload.seeds", Reason: "must be within [1, 1024]"}
	}

	if spec.Pattern == "trace" {
		if spec.Trace == "" {
			return nil, &AdmissionError{Field: "workload.trace", Reason: "pattern \"trace\" needs an inline PMSTRACE program"}
		}
		req.trace = spec.Trace
		return req, nil
	}
	ws, err := pmsnet.ParseWorkloadSpec(spec.Pattern)
	if err != nil {
		// The parse error names the whole registered vocabulary, so a
		// typo'd pattern 400 tells the client what is valid.
		return nil, &AdmissionError{Field: "workload.pattern", Reason: err.Error()}
	}
	// Fold the flat JSON fields in under the spec: only fields the client
	// set (non-zero), only parameters the family has, spec values win.
	for _, o := range []struct{ key, value, field string }{
		{"bytes", strconv.Itoa(spec.Size), "size"},
		{"msgs", strconv.Itoa(spec.Msgs), "msgs"},
		{"rounds", strconv.Itoa(spec.Rounds), "rounds"},
		{"distance", strconv.Itoa(spec.Distance), "distance"},
		{"determinism", strconv.FormatFloat(spec.Determinism, 'g', -1, 64), "determinism"},
		{"think", time.Duration(spec.ThinkNS).String(), "think_ns"},
	} {
		if o.value == "0" || o.value == "0s" {
			continue
		}
		if err := ws.Default(o.key, o.value); err != nil {
			return nil, &AdmissionError{Field: "workload." + o.field, Reason: err.Error()}
		}
	}
	req.gen = ws
	return req, nil
}

// hash fingerprints the request with FNV-64a over N, the first seed, the
// seed count and then the canonical generator spec (or a trace job's
// text). Generation is a pure function of these, so equal hashes mean
// bit-identical workloads; the canonical spec makes "random-mesh:bytes=64"
// and "random-mesh" with size 64 one request. The fixed-width words come
// first and the text last, so distinct requests encode distinctly.
func (r *workloadRequest) hash() uint64 {
	h := uint64(fnvOffset64)
	for _, w := range []uint64{uint64(r.n), uint64(r.seed), uint64(r.seeds)} {
		for shift := 0; shift < 64; shift += 8 {
			h = fnvByte(h, byte(w>>shift))
		}
	}
	text := r.trace
	if r.gen == nil {
		h = fnvByte(h, 't')
	} else {
		h = fnvByte(h, 's')
		text = r.gen.String()
	}
	for i := 0; i < len(text); i++ {
		h = fnvByte(h, text[i])
	}
	return h
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime64 }

// generate builds the request's workloads, one per seed. The pattern
// constructors enforce their contracts (perfect-square N for transpose,
// power-of-two N for bit-reverse, N >= 2, ...); admission must stay
// panic-free, so any contract violation, returned or panicked, is surfaced
// as a 400.
func (r *workloadRequest) generate() (wls []*pmsnet.Workload, err error) {
	defer func() {
		if p := recover(); p != nil {
			wls, err = nil, &AdmissionError{Field: "workload", Reason: fmt.Sprint(p)}
		}
	}()
	wls = make([]*pmsnet.Workload, r.seeds)
	for i := range wls {
		if r.gen == nil {
			if wls[i], err = pmsnet.ReadTrace(strings.NewReader(r.trace)); err != nil {
				return nil, &AdmissionError{Field: "workload.trace", Reason: err.Error()}
			}
			continue
		}
		if wls[i], err = r.gen.Generate(r.n, r.seed+int64(i)); err != nil {
			return nil, &AdmissionError{Field: "workload", Reason: err.Error()}
		}
	}
	return wls, nil
}
