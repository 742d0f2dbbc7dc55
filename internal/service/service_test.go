package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// newTestServer builds a Server on the given config and an httptest front
// end; both are torn down with the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.TestPatterns = true
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, ts
}

// simSpec is a small real simulation job: fast, deterministic, cacheable.
func simSpec(seed int64) JobSpec {
	return JobSpec{
		Config:   ConfigSpec{Switching: "tdm-dynamic", N: 16, Eviction: "timeout"},
		Workload: WorkloadSpec{Pattern: "random-mesh", Msgs: 5, Seed: seed},
	}
}

// sleepSpec is a test-pattern job that holds a worker for ms milliseconds.
func sleepSpec(ms int64) JobSpec {
	return JobSpec{
		Config:   ConfigSpec{Switching: "tdm-dynamic", N: 4},
		Workload: WorkloadSpec{Pattern: "sleep", SleepMS: ms},
	}
}

// post submits a spec and returns the response; wait selects synchronous
// mode.
func post(t *testing.T, ts *httptest.Server, spec JobSpec, wait bool) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	url := ts.URL + "/jobs"
	if wait {
		url += "?wait=1"
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func getStatus(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /jobs/%s = %d", id, resp.StatusCode)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitTerminal polls a job until it leaves the transient states.
func waitTerminal(t *testing.T, ts *httptest.Server, id string, within time.Duration) JobStatus {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		st := getStatus(t, ts, id)
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after %v", id, st.State, within)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func fetchMetrics(t *testing.T, ts *httptest.Server) MetricsSnapshot {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestAdmissionRejectsInvalidSpecs(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cases := []struct {
		name      string
		spec      JobSpec
		wantField string
		// wantError, when set, must appear in the error message.
		wantError string
	}{
		{"unknown switching", JobSpec{Config: ConfigSpec{Switching: "warp-drive", N: 16},
			Workload: WorkloadSpec{Pattern: "scatter"}}, "config.switching", ""},
		{"bad N", JobSpec{Config: ConfigSpec{Switching: "tdm-dynamic", N: 1},
			Workload: WorkloadSpec{Pattern: "scatter"}}, "config.n", ""},
		{"unknown pattern", JobSpec{Config: ConfigSpec{Switching: "tdm-dynamic", N: 16},
			Workload: WorkloadSpec{Pattern: "nonsense"}}, "workload.pattern", ""},
		{"bad fabric", JobSpec{Config: ConfigSpec{Switching: "tdm-dynamic", N: 16, Fabric: "torus"},
			Workload: WorkloadSpec{Pattern: "scatter"}}, "config.fabric", ""},
		{"removed fabric", JobSpec{Config: ConfigSpec{Switching: "tdm-dynamic", N: 16, Fabric: "clos"},
			Workload: WorkloadSpec{Pattern: "scatter"}}, "config.fabric", "crossbar, omega"},
		{"bad planner", JobSpec{Config: ConfigSpec{Switching: "tdm-preload", N: 16, Planner: "greedy"},
			Workload: WorkloadSpec{Pattern: "two-phase"}}, "config.planner", ""},
		{"planner on reactive mode", JobSpec{Config: ConfigSpec{Switching: "tdm-dynamic", N: 16, Planner: "solstice"},
			Workload: WorkloadSpec{Pattern: "scatter"}}, "config.planner", ""},
		{"negative deadline", JobSpec{Config: ConfigSpec{Switching: "tdm-dynamic", N: 16},
			Workload: WorkloadSpec{Pattern: "scatter"}, DeadlineMS: -1}, "deadline_ms", ""},
	}
	for _, tc := range cases {
		resp, body := post(t, ts, tc.spec, true)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %s)", tc.name, resp.StatusCode, body)
			continue
		}
		var eb errorBody
		if err := json.Unmarshal(body, &eb); err != nil {
			t.Fatalf("%s: undecodable error body %q", tc.name, body)
		}
		if eb.Field != tc.wantField {
			t.Errorf("%s: field %q, want %q", tc.name, eb.Field, tc.wantField)
		}
		if !strings.Contains(eb.Error, tc.wantError) {
			t.Errorf("%s: error %q does not mention %q", tc.name, eb.Error, tc.wantError)
		}
	}
	if m := fetchMetrics(t, ts); m.Rejected400 != uint64(len(cases)) {
		t.Errorf("rejected_400 = %d, want %d", m.Rejected400, len(cases))
	}
}

func TestRunsRealSimulationJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	resp, body := post(t, ts, simSpec(1), true)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Fatalf("state %s, want done", st.State)
	}
	var res JobResult
	if err := json.Unmarshal(st.Result, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) != 1 || res.Reports[0].Messages == 0 {
		t.Fatalf("implausible result: %+v", res)
	}
}

func TestQueueSaturationBackpressureDropsNothing(t *testing.T) {
	// One worker pinned by a long sleep job, queue capacity 2: the third
	// and later concurrent submissions must get 429 + Retry-After, and
	// every job the server accepted (202) must still reach a terminal
	// state — backpressure refuses at the door, it never sheds admitted
	// work.
	_, ts := newTestServer(t, Config{Workers: 1, QueueCapacity: 2, RetryAfter: time.Second})

	resp, body := post(t, ts, sleepSpec(300), false)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("pin job: status %d, body %s", resp.StatusCode, body)
	}
	var pin JobStatus
	if err := json.Unmarshal(body, &pin); err != nil {
		t.Fatal(err)
	}
	// Wait for the pin job to occupy the worker so the queue state is
	// deterministic.
	for getStatus(t, ts, pin.ID).State != StateRunning {
		time.Sleep(time.Millisecond)
	}

	var accepted []string
	var rejected int
	for i := 0; i < 6; i++ {
		resp, body := post(t, ts, sleepSpec(10), false)
		switch resp.StatusCode {
		case http.StatusAccepted:
			var st JobStatus
			if err := json.Unmarshal(body, &st); err != nil {
				t.Fatal(err)
			}
			accepted = append(accepted, st.ID)
		case http.StatusTooManyRequests:
			rejected++
			if ra := resp.Header.Get("Retry-After"); ra != "1" {
				t.Fatalf("429 without usable Retry-After (got %q)", ra)
			}
		default:
			t.Fatalf("submit %d: unexpected status %d (body %s)", i, resp.StatusCode, body)
		}
	}
	if len(accepted) != 2 {
		t.Fatalf("accepted %d jobs into a capacity-2 queue, want exactly 2", len(accepted))
	}
	if rejected != 4 {
		t.Fatalf("rejected %d submissions, want 4", rejected)
	}

	// Every accepted job completes exactly once; nothing was dropped.
	for _, id := range accepted {
		if st := waitTerminal(t, ts, id, 5*time.Second); st.State != StateDone {
			t.Fatalf("accepted job %s ended %s (%s), want done", id, st.State, st.Error)
		}
	}
	if st := waitTerminal(t, ts, pin.ID, 5*time.Second); st.State != StateDone {
		t.Fatalf("pin job ended %s, want done", st.State)
	}
	m := fetchMetrics(t, ts)
	if m.Rejected429 != 4 {
		t.Errorf("rejected_429 = %d, want 4", m.Rejected429)
	}
	if m.Completed != 3 {
		t.Errorf("completed = %d, want 3 (pin + 2 accepted)", m.Completed)
	}
}

func TestPerJobDeadlineFiresAndFreesWorker(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	spec := sleepSpec(10_000)
	spec.DeadlineMS = 50
	start := time.Now()
	resp, body := post(t, ts, spec, true)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (body %s)", resp.StatusCode, body)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline took %v to fire", elapsed)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.State != StateDeadline {
		t.Fatalf("state %s, want deadline", st.State)
	}

	// The single worker must be free for the next job long before the
	// abandoned 10 s sleep would have finished.
	resp, body = post(t, ts, simSpec(1), true)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follow-up job: status %d (body %s) — worker not freed by deadline", resp.StatusCode, body)
	}
	if m := fetchMetrics(t, ts); m.Deadlines != 1 {
		t.Errorf("deadlines = %d, want 1", m.Deadlines)
	}
}

func TestPanicIsolationPoolSelfHeals(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	spec := JobSpec{
		Config:   ConfigSpec{Switching: "tdm-dynamic", N: 4},
		Workload: WorkloadSpec{Pattern: "panic"},
	}
	resp, body := post(t, ts, spec, true)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500 (body %s)", resp.StatusCode, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.State != StatePanicked {
		t.Fatalf("state %s, want panicked", st.State)
	}
	if st.Stack == "" {
		t.Fatal("panicked job carries no stack trace")
	}

	// The pool survived: the same (sole) worker keeps serving.
	for i := int64(0); i < 3; i++ {
		resp, body := post(t, ts, simSpec(10+i), true)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("post-panic job %d: status %d (body %s)", i, resp.StatusCode, body)
		}
	}
	m := fetchMetrics(t, ts)
	if m.Panicked != 1 {
		t.Errorf("panicked = %d, want 1", m.Panicked)
	}
	if m.Completed != 3 {
		t.Errorf("completed = %d, want 3", m.Completed)
	}
}

func TestCancelQueuedJobNeverExecutes(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueCapacity: 4})
	// Pin the worker, then queue a job and cancel it while queued.
	_, pinBody := post(t, ts, sleepSpec(200), false)
	var pin JobStatus
	if err := json.Unmarshal(pinBody, &pin); err != nil {
		t.Fatal(err)
	}
	_, qBody := post(t, ts, sleepSpec(50), false)
	var queued JobStatus
	if err := json.Unmarshal(qBody, &queued); err != nil {
		t.Fatal(err)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+queued.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: status %d", resp.StatusCode)
	}
	if st := getStatus(t, ts, queued.ID); st.State != StateCancelled {
		t.Fatalf("state %s, want cancelled", st.State)
	}
	// The pin job still completes, and the cancelled job never ran: its
	// StartedAt stays unset.
	if st := waitTerminal(t, ts, pin.ID, 5*time.Second); st.State != StateDone {
		t.Fatalf("pin job ended %s", st.State)
	}
	if st := getStatus(t, ts, queued.ID); st.StartedAt != nil {
		t.Fatal("cancelled queued job was executed anyway")
	}
}

func TestCancelRunningJobFreesWorker(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	_, body := post(t, ts, sleepSpec(10_000), false)
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	for getStatus(t, ts, st.ID).State != StateRunning {
		time.Sleep(time.Millisecond)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := waitTerminal(t, ts, st.ID, 2*time.Second); got.State != StateCancelled {
		t.Fatalf("state %s, want cancelled", got.State)
	}
	// Worker is free immediately, not after the abandoned 10 s sleep.
	if resp, body := post(t, ts, simSpec(2), true); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-cancel job: status %d (body %s)", resp.StatusCode, body)
	}
}

func TestCachedReplayIsByteIdentical(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	resp, body := post(t, ts, simSpec(7), true)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fresh run: status %d (body %s)", resp.StatusCode, body)
	}
	if resp.Header.Get("X-Cache") == "hit" {
		t.Fatal("first run cannot be a cache hit")
	}
	var fresh JobStatus
	if err := json.Unmarshal(body, &fresh); err != nil {
		t.Fatal(err)
	}
	freshBytes := fetchResult(t, ts, fresh.ID)

	resp, body = post(t, ts, simSpec(7), true)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replay: status %d (body %s)", resp.StatusCode, body)
	}
	if resp.Header.Get("X-Cache") != "hit" {
		t.Fatal("identical resubmission missed the cache")
	}
	var replay JobStatus
	if err := json.Unmarshal(body, &replay); err != nil {
		t.Fatal(err)
	}
	if !replay.Cached {
		t.Fatal("replay status not marked cached")
	}
	replayBytes := fetchResult(t, ts, replay.ID)
	if !bytes.Equal(freshBytes, replayBytes) {
		t.Fatalf("cached replay diverges from fresh run:\nfresh:  %s\nreplay: %s", freshBytes, replayBytes)
	}

	// A semantically different job (other seed) must not hit.
	resp, _ = post(t, ts, simSpec(8), true)
	if resp.Header.Get("X-Cache") == "hit" {
		t.Fatal("different seed wrongly hit the cache")
	}
	m := fetchMetrics(t, ts)
	if m.CacheHits != 1 || m.CacheMisses != 2 {
		t.Errorf("cache hits/misses = %d/%d, want 1/2", m.CacheHits, m.CacheMisses)
	}
}

func fetchResult(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET result: status %d", resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestGracefulShutdownDrainsUnderLoad(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, QueueCapacity: 16})
	var ids []string
	for i := 0; i < 8; i++ {
		resp, body := post(t, ts, sleepSpec(30), false)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, resp.StatusCode)
		}
		var st JobStatus
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain failed: %v", err)
	}
	// Every admitted job drained to done — none aborted, none dropped.
	for _, id := range ids {
		j, ok := s.lookup(id)
		if !ok {
			t.Fatalf("job %s vanished during drain", id)
		}
		if state, _, _, _, _, _, _ := j.snapshot(); state != StateDone {
			t.Fatalf("job %s ended %s after a clean drain, want done", id, state)
		}
	}
	// Post-drain admission refuses with 503.
	if resp, _ := post(t, ts, sleepSpec(1), false); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain submit: status %d, want 503", resp.StatusCode)
	}
}

func TestShutdownAbortsAfterDrainDeadline(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	_, body := post(t, ts, sleepSpec(30_000), false)
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	for getStatus(t, ts, st.ID).State != StateRunning {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := s.Shutdown(ctx)
	if err == nil {
		t.Fatal("Shutdown reported a clean drain with a 30 s job running")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("abort took %v; the drain deadline is not being honored", elapsed)
	}
	j, ok := s.lookup(st.ID)
	if !ok {
		t.Fatal("job vanished")
	}
	if state, _, _, _, _, _, _ := j.snapshot(); state != StateCancelled {
		t.Fatalf("aborted job ended %s, want cancelled", state)
	}
}

func TestHealthAndReadiness(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	for _, ep := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + ep)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s = %d, want 200", ep, resp.StatusCode)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	// Liveness stays up while draining/drained; readiness degrades.
	respH := httptest.NewRecorder()
	s.ServeHTTP(respH, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if respH.Code != http.StatusOK {
		t.Fatalf("healthz after shutdown = %d, want 200", respH.Code)
	}
	respR := httptest.NewRecorder()
	s.ServeHTTP(respR, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if respR.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz after shutdown = %d, want 503", respR.Code)
	}
}

func TestMultiSeedJobReportsInSeedOrder(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	spec := simSpec(1)
	spec.Workload.Seeds = 3
	resp, body := post(t, ts, spec, true)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (body %s)", resp.StatusCode, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	var res JobResult
	if err := json.Unmarshal(st.Result, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) != 3 {
		t.Fatalf("got %d reports, want 3", len(res.Reports))
	}
	// Seeds differ, so at least one pair of makespans should too; equal
	// reports across all three would mean the seed was not threaded.
	if res.Reports[0].Makespan == res.Reports[1].Makespan &&
		res.Reports[1].Makespan == res.Reports[2].Makespan {
		t.Fatal("all seeds produced identical makespans; seed fan-out is broken")
	}
}

func TestUnknownJobIs404(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/jobs/j-999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
}

func TestJobRegistryPrunesTerminalJobs(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, MaxJobs: 4})
	var firstID string
	for i := int64(0); i < 8; i++ {
		resp, body := post(t, ts, simSpec(100+i), true)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("job %d: status %d", i, resp.StatusCode)
		}
		if i == 0 {
			var st JobStatus
			if err := json.Unmarshal(body, &st); err != nil {
				t.Fatal(err)
			}
			firstID = st.ID
		}
	}
	s.jobMu.Lock()
	n := len(s.jobs)
	s.jobMu.Unlock()
	if n > 4 {
		t.Fatalf("registry holds %d jobs, bound is 4", n)
	}
	if _, ok := s.lookup(firstID); ok {
		t.Fatal("oldest terminal job survived pruning")
	}
	_ = fmt.Sprintf("%s", firstID)
}

// TestRemovedSchedFieldsRejected pins the API removal of the scheduler's
// execution-only knobs: the strict decoder answers a job spec that still
// carries sched_cache, sched_shards or sched_warm_start with a 400 naming
// the field, and /metrics reports no sched_* aggregates after a completed
// TDM job.
func TestRemovedSchedFieldsRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for _, field := range []struct{ name, value string }{
		{"sched_cache", "false"},
		{"sched_shards", "4"},
		{"sched_warm_start", "true"},
	} {
		field := field
		t.Run(field.name, func(t *testing.T) {
			body := `{"config": {"switching": "tdm-dynamic", "n": 16, "` + field.name + `": ` + field.value + `},
				"workload": {"pattern": "random-mesh", "msgs": 5, "seed": 3}}`
			resp, err := http.Post(ts.URL+"/jobs?wait=1", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			b, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(b), field.name) {
				t.Errorf("status %d body %s, want a 400 naming the field", resp.StatusCode, b)
			}
		})
	}
	t.Run("metrics", func(t *testing.T) {
		if resp, body := post(t, ts, simSpec(3), true); resp.StatusCode != http.StatusOK {
			t.Fatalf("sim job: status %d: %s", resp.StatusCode, body)
		}
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		for key := range m {
			if strings.HasPrefix(key, "sched_") {
				t.Errorf("/metrics still reports %q", key)
			}
		}
	})
}

func TestMetricsAggregatePlanCounters(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	spec := JobSpec{
		Config:   ConfigSpec{Switching: "tdm-preload", N: 16, Planner: "solstice"},
		Workload: WorkloadSpec{Pattern: "two-phase", Seed: 3},
	}
	if resp, body := post(t, ts, spec, true); resp.StatusCode != http.StatusOK {
		t.Fatalf("planned job: status %d: %s", resp.StatusCode, body)
	}
	m := fetchMetrics(t, ts)
	if m.PlannedRuns != 1 {
		t.Errorf("planned_runs = %d, want 1", m.PlannedRuns)
	}
	if m.PlanConfigs == 0 {
		t.Error("plan_configs stayed zero after a completed planned job")
	}
	// The replay is a service-cache hit: plan aggregates must not move.
	if resp, body := post(t, ts, spec, true); resp.StatusCode != http.StatusOK {
		t.Fatalf("replay: status %d: %s", resp.StatusCode, body)
	}
	if m2 := fetchMetrics(t, ts); m2.PlannedRuns != m.PlannedRuns || m2.PlanConfigs != m.PlanConfigs {
		t.Errorf("cached replay moved the plan aggregates: %+v -> %+v", m, m2)
	}
	// An unplanned job contributes nothing.
	if resp, body := post(t, ts, simSpec(9), true); resp.StatusCode != http.StatusOK {
		t.Fatalf("unplanned job: status %d: %s", resp.StatusCode, body)
	}
	if m3 := fetchMetrics(t, ts); m3.PlannedRuns != m.PlannedRuns {
		t.Errorf("unplanned job bumped planned_runs to %d", m3.PlannedRuns)
	}
}
