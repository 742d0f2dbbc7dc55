package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Config parameterizes a Server. The zero value is usable: every knob has
// a production-shaped default.
type Config struct {
	// QueueCapacity bounds the admission queue; beyond it, submissions get
	// 429 + Retry-After. Default 64.
	QueueCapacity int
	// Workers is the pool size. Default GOMAXPROCS.
	Workers int
	// DefaultDeadline is the per-job deadline when the spec names none.
	// Default 30s.
	DefaultDeadline time.Duration
	// MaxDeadline caps spec-requested deadlines. Default 2m.
	MaxDeadline time.Duration
	// CacheSize bounds the deterministic result cache (entries); negative
	// disables caching. Default 1024.
	CacheSize int
	// MaxJobs bounds the job registry: when exceeded, the oldest terminal
	// jobs are forgotten (GET on them turns 404). Default 4096.
	MaxJobs int
	// RetryAfter is the backoff hint sent with 429/503 responses. Default 1s.
	RetryAfter time.Duration
	// TestPatterns enables the "panic" and "sleep" workload patterns used
	// by the robustness tests and the CI smoke. Never enable in production.
	TestPatterns bool
	// Log, when non-nil, receives one line per job transition and lifecycle
	// event.
	Log *log.Logger
}

func (c Config) withDefaults() Config {
	if c.QueueCapacity == 0 {
		c.QueueCapacity = 64
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.DefaultDeadline == 0 {
		c.DefaultDeadline = 30 * time.Second
	}
	if c.MaxDeadline == 0 {
		c.MaxDeadline = 2 * time.Minute
	}
	if c.CacheSize == 0 {
		c.CacheSize = 1024
	}
	if c.MaxJobs == 0 {
		c.MaxJobs = 4096
	}
	if c.RetryAfter == 0 {
		c.RetryAfter = time.Second
	}
	return c
}

// Server is the simulation service: an http.Handler plus the queue, worker
// pool, result cache and lifecycle management behind it. Build with New,
// serve it on any listener (or Start one), and Shutdown to drain.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	queue   *queue
	cache   *resultCache
	metrics *metrics

	baseCtx    context.Context // parent of every job context; cancelled to abort
	baseCancel context.CancelFunc
	draining   atomic.Bool
	workerWG   sync.WaitGroup
	nextID     atomic.Uint64

	jobMu    sync.Mutex
	jobs     map[string]*Job
	jobOrder []string // insertion order, for registry pruning

	httpSrv *http.Server
	started time.Time
}

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		queue:   newQueue(cfg.QueueCapacity),
		cache:   newResultCache(cfg.CacheSize),
		metrics: &metrics{},
		jobs:    make(map[string]*Job),
		started: time.Now(),
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /jobs/{id}", s.handleGet)
	s.mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.startWorkers()
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Start listens on addr and serves until Shutdown. It returns the bound
// address (useful with ":0") once the listener is up; serve errors after
// that are reported through the returned channel.
func (s *Server) Start(addr string) (string, <-chan error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	s.httpSrv = &http.Server{Handler: s}
	errc := make(chan error, 1)
	go func() {
		if err := s.httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
		close(errc)
	}()
	return ln.Addr().String(), errc, nil
}

// Shutdown drains the server gracefully: admission stops first (readyz and
// POST /jobs flip to 503), then the HTTP listener stops accepting and
// in-flight handlers finish, then the queue closes and the pool drains
// buffered and running jobs. Jobs still unfinished when ctx expires are
// aborted — cancelled through their contexts, never silently dropped: every
// admitted job still reaches a terminal state that a final GET would
// report. Shutdown returns nil on a clean drain and ctx.Err() after an
// abort.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	if s.httpSrv != nil {
		// Stop accepting connections and wait for in-flight handlers; a
		// handler mid-enqueue finishes before the queue closes below.
		shutdownErr := s.httpSrv.Shutdown(ctx)
		if shutdownErr != nil && s.cfg.Log != nil {
			s.cfg.Log.Printf("http shutdown: %v", shutdownErr)
		}
	}
	s.queue.close()

	drained := make(chan struct{})
	go func() {
		s.workerWG.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		if s.cfg.Log != nil {
			s.cfg.Log.Printf("drained cleanly (%d jobs completed)", s.metrics.completed.Load())
		}
		return nil
	case <-ctx.Done():
		// Drain deadline: abort everything still queued or running. The
		// pool observes the cancellation and terminates each job as
		// StateCancelled; then the workers exit.
		s.baseCancel()
		<-drained
		if s.cfg.Log != nil {
			s.cfg.Log.Printf("drain deadline hit; outstanding jobs aborted")
		}
		return ctx.Err()
	}
}

// register adds a job to the registry under a fresh ID, pruning the oldest
// terminal jobs past the MaxJobs bound.
func (s *Server) register(j *Job) {
	j.ID = fmt.Sprintf("j-%06d", s.nextID.Add(1))
	s.jobMu.Lock()
	defer s.jobMu.Unlock()
	s.jobs[j.ID] = j
	s.jobOrder = append(s.jobOrder, j.ID)
	for len(s.jobs) > s.cfg.MaxJobs {
		pruned := false
		for i, id := range s.jobOrder {
			if old, ok := s.jobs[id]; ok {
				if st, _, _, _, _, _, _ := old.snapshot(); st.Terminal() {
					delete(s.jobs, id)
					s.jobOrder = append(s.jobOrder[:i], s.jobOrder[i+1:]...)
					pruned = true
					break
				}
			} else {
				s.jobOrder = append(s.jobOrder[:i], s.jobOrder[i+1:]...)
				pruned = true
				break
			}
		}
		if !pruned {
			break // everything live; let the registry exceed the bound
		}
	}
}

func (s *Server) lookup(id string) (*Job, bool) {
	s.jobMu.Lock()
	defer s.jobMu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// --- handlers ---

// errorBody is the JSON shape of every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
	Field string `json:"field,omitempty"`
}

// JobStatus is the JSON shape of GET /jobs/{id} and of synchronous submit
// responses.
type JobStatus struct {
	ID          string          `json:"id"`
	State       State           `json:"state"`
	Cached      bool            `json:"cached,omitempty"`
	SubmittedAt time.Time       `json:"submitted_at"`
	StartedAt   *time.Time      `json:"started_at,omitempty"`
	FinishedAt  *time.Time      `json:"finished_at,omitempty"`
	WaitMS      float64         `json:"wait_ms,omitempty"`
	RunMS       float64         `json:"run_ms,omitempty"`
	Error       string          `json:"error,omitempty"`
	Stack       string          `json:"stack,omitempty"`
	Result      json.RawMessage `json:"result,omitempty"`
}

func (s *Server) status(j *Job) JobStatus {
	state, started, finished, result, cached, errMsg, stack := j.snapshot()
	st := JobStatus{
		ID:          j.ID,
		State:       state,
		Cached:      cached,
		SubmittedAt: j.submitted,
		Error:       errMsg,
		Stack:       stack,
		Result:      result,
	}
	if !started.IsZero() {
		st.StartedAt = &started
		st.WaitMS = float64(started.Sub(j.submitted)) / 1e6
	}
	if !finished.IsZero() {
		st.FinishedAt = &finished
		if !started.IsZero() {
			st.RunMS = float64(finished.Sub(started)) / 1e6
		}
	}
	return st
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func (s *Server) writeBackoff(w http.ResponseWriter, status int, msg string) {
	secs := int(s.cfg.RetryAfter / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeJSON(w, status, errorBody{Error: msg})
}

// handleSubmit is the admission path: validate, consult the cache, generate
// the workloads on a miss, enqueue with backpressure. `?wait=1` blocks until
// the job is terminal and maps its state to a status code; otherwise
// submission is asynchronous (202).
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	s.metrics.submitted.Add(1)
	if s.draining.Load() {
		s.metrics.rejected503.Add(1)
		s.writeBackoff(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 10<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		s.metrics.rejected400.Add(1)
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "invalid job spec: " + err.Error()})
		return
	}
	j, req, err := s.buildJob(spec)
	if err != nil {
		s.rejectAdmission(w, err)
		return
	}

	// Deterministic replay: a cached result needs no workload, no queue
	// slot and no worker — the stored bytes are byte-identical to a fresh
	// run's. The key comes from the resolved spec, so a hit generates
	// nothing.
	if payload, ok := s.cache.get(j.key); ok {
		s.metrics.cacheHits.Add(1)
		s.register(j)
		j.submitted = time.Now()
		j.mu.Lock()
		j.cached = true
		j.mu.Unlock()
		j.finish(StateDone, payload, "", "")
		s.metrics.recordTerminal(StateDone)
		w.Header().Set("X-Cache", "hit")
		writeJSON(w, http.StatusOK, s.status(j))
		return
	}
	// A miss generates here, at admission, so a spec that violates its
	// generator's contract is still a 400 and never reaches a worker. A
	// rejected key is never cached, so the lookup above cannot admit one.
	if req != nil {
		if j.wls, err = req.generate(); err != nil {
			s.rejectAdmission(w, err)
			return
		}
	}
	s.metrics.cacheMisses.Add(1)

	j.ctx, j.cancel = context.WithCancel(s.baseCtx)
	j.submitted = time.Now()
	s.register(j)
	if ok, closed := s.queue.tryPush(j); !ok {
		if closed {
			s.metrics.rejected503.Add(1)
			s.writeBackoff(w, http.StatusServiceUnavailable, "server is draining")
		} else {
			s.metrics.rejected429.Add(1)
			s.writeBackoff(w, http.StatusTooManyRequests,
				fmt.Sprintf("job queue full (%d buffered); retry later", s.queue.capacity()))
		}
		// The job never entered the queue: finish it so a later GET on the
		// ID reports the rejection instead of a forever-queued phantom.
		j.finish(StateCancelled, nil, "rejected: queue full", "")
		return
	}

	if r.URL.Query().Get("wait") == "" {
		w.Header().Set("Location", "/jobs/"+j.ID)
		writeJSON(w, http.StatusAccepted, s.status(j))
		return
	}
	select {
	case <-j.done:
		st := s.status(j)
		writeJSON(w, submitStatusCode(st.State), st)
	case <-r.Context().Done():
		// Client went away mid-wait. The job keeps running (another GET can
		// still fetch it); there is nobody left to answer.
	}
}

// rejectAdmission answers a spec refused at admission with a 400 naming the
// offending field when known.
func (s *Server) rejectAdmission(w http.ResponseWriter, err error) {
	s.metrics.rejected400.Add(1)
	var ae *AdmissionError
	if errors.As(err, &ae) {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: ae.Error(), Field: ae.Field})
		return
	}
	writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
}

// submitStatusCode maps a terminal state onto the synchronous-submit HTTP
// status: the panic and failure 500s are the only 5xx the service can emit.
func submitStatusCode(st State) int {
	switch st {
	case StateDone:
		return http.StatusOK
	case StateDeadline:
		return http.StatusGatewayTimeout
	case StateCancelled:
		return http.StatusConflict
	default: // StateFailed, StatePanicked
		return http.StatusInternalServerError
	}
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown job"})
		return
	}
	writeJSON(w, http.StatusOK, s.status(j))
}

// handleResult serves the raw result payload — exactly the bytes the run
// produced (and the cache stored), so clients can byte-compare replays.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown job"})
		return
	}
	state, _, _, result, _, errMsg, _ := j.snapshot()
	if state != StateDone {
		writeJSON(w, http.StatusConflict, errorBody{Error: fmt.Sprintf("job is %s: %s", state, errMsg)})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(result)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown job"})
		return
	}
	j.mu.Lock()
	state := j.state
	j.mu.Unlock()
	if state.Terminal() {
		writeJSON(w, http.StatusConflict, errorBody{Error: fmt.Sprintf("job already %s", state)})
		return
	}
	// A queued job is finished here directly (the worker will skip it); a
	// running job is cancelled through its context and the worker performs
	// the terminal transition. finish is idempotent, so racing with the
	// worker is safe either way.
	if j.cancel != nil {
		j.cancel()
	}
	if j.finish(StateCancelled, nil, "cancelled by client", "") {
		s.metrics.recordTerminal(StateCancelled)
	}
	writeJSON(w, http.StatusOK, s.status(j))
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// Liveness: the process is up and serving. Always 200; readiness is
	// the endpoint that degrades.
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.writeBackoff(w, http.StatusServiceUnavailable, "draining")
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":      "ready",
		"queue_depth": s.queue.depth(),
		"queue_free":  s.queue.capacity() - s.queue.depth(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.metrics.snapshot()
	snap.Uptime = time.Since(s.started).Round(time.Millisecond).String()
	snap.QueueDepth = s.queue.depth()
	snap.QueueCapacity = s.queue.capacity()
	snap.Workers = s.cfg.Workers
	snap.CacheEntries = s.cache.len()
	writeJSON(w, http.StatusOK, snap)
}
