package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"pmsnet"
)

func decodeStatus(t *testing.T, body []byte) JobStatus {
	t.Helper()
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("undecodable status %q: %v", body, err)
	}
	return st
}

// traceOf renders a generated workload as the inline PMSTRACE text of a
// trace job.
func traceOf(t *testing.T, spec string, n int, seed int64) string {
	t.Helper()
	wl, err := pmsnet.GenerateWorkload(spec, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := pmsnet.WriteTrace(&b, wl); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// heldWorkloads lists the registered jobs that hold workloads although
// they no longer need them: cache hits and terminal jobs.
func heldWorkloads(s *Server) []string {
	s.jobMu.Lock()
	defer s.jobMu.Unlock()
	var ids []string
	for id, j := range s.jobs {
		j.mu.Lock()
		if j.wls != nil && (j.cached || j.state.Terminal()) {
			ids = append(ids, id)
		}
		j.mu.Unlock()
	}
	return ids
}

// TestCacheKeyFollowsTheResolvedSpec pins what the result cache keys on:
// the canonical generator spec after the flat fields are folded in, N, the
// seed and the seed count, or a trace job's text, next to the config hash.
func TestCacheKeyFollowsTheResolvedSpec(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	base := JobSpec{
		Config:   ConfigSpec{Switching: "tdm-dynamic", N: 16, Eviction: "timeout"},
		Workload: WorkloadSpec{Pattern: "random-mesh:bytes=64", Msgs: 5, Seed: 3},
	}
	resp, body := post(t, ts, base, true)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") == "hit" {
		t.Fatalf("first run: status %d, X-Cache %q (body %s)", resp.StatusCode, resp.Header.Get("X-Cache"), body)
	}
	first := fetchResult(t, ts, decodeStatus(t, body).ID)

	// The same request spelt with the flat size field is the same entry.
	flat := base
	flat.Workload.Pattern, flat.Workload.Size = "random-mesh", 64
	resp, body = post(t, ts, flat, true)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "hit" {
		t.Fatalf("flat-field spelling: status %d, X-Cache %q, want a hit", resp.StatusCode, resp.Header.Get("X-Cache"))
	}
	if got := fetchResult(t, ts, decodeStatus(t, body).ID); !bytes.Equal(got, first) {
		t.Fatalf("flat-field replay differs:\nfirst: %s\nhit:   %s", first, got)
	}

	misses := map[string]func(*JobSpec){
		"seed":       func(s *JobSpec) { s.Workload.Seed = 4 },
		"seeds":      func(s *JobSpec) { s.Workload.Seeds = 2 },
		"workload.n": func(s *JobSpec) { s.Workload.N = 8 },
		"config.k":   func(s *JobSpec) { s.Config.K = 2 },
		"pattern":    func(s *JobSpec) { s.Workload.Pattern = "random-mesh:bytes=128" },
	}
	for name, change := range misses {
		spec := base
		change(&spec)
		resp, body := post(t, ts, spec, true)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d (body %s)", name, resp.StatusCode, body)
			continue
		}
		if resp.Header.Get("X-Cache") == "hit" {
			t.Errorf("a different %s hit the cache", name)
		}
	}

	traceJob := func(text string) JobSpec {
		return JobSpec{
			Config:   ConfigSpec{Switching: "tdm-dynamic", N: 16},
			Workload: WorkloadSpec{Pattern: "trace", Trace: text},
		}
	}
	a, b := traceOf(t, "random-mesh:msgs=3", 16, 1), traceOf(t, "random-mesh:msgs=3", 16, 2)
	for i, c := range []struct {
		text    string
		wantHit bool
	}{{a, false}, {a, true}, {b, false}} {
		resp, body := post(t, ts, traceJob(c.text), true)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("trace job %d: status %d (body %s)", i, resp.StatusCode, body)
		}
		if hit := resp.Header.Get("X-Cache") == "hit"; hit != c.wantHit {
			t.Errorf("trace job %d: hit %v, want %v", i, hit, c.wantHit)
		}
	}

	m := fetchMetrics(t, ts)
	if want := uint64(2); m.CacheHits != want {
		t.Errorf("cache hits = %d, want %d", m.CacheHits, want)
	}
	if want := uint64(1 + len(misses) + 2); m.CacheMisses != want {
		t.Errorf("cache misses = %d, want %d", m.CacheMisses, want)
	}
}

// TestGeneratorContractStillRejectedWithLookupFirst: the cache lookup runs
// before generation, so a (spec, N) that breaks its generator's contract
// must still be a 400 naming the workload — on a first submission and
// right after a successful job of the same pattern at a valid N.
func TestGeneratorContractStillRejectedWithLookupFirst(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	var rejected uint64
	for _, pattern := range []string{"transpose", "bit-reverse"} {
		for _, via := range []string{"config.n", "workload.n"} {
			spec := func(n int) JobSpec {
				s := JobSpec{
					Config:   ConfigSpec{Switching: "tdm-dynamic", N: 16},
					Workload: WorkloadSpec{Pattern: pattern, Seed: 5},
				}
				if via == "config.n" {
					s.Config.N = n
				} else {
					s.Workload.N = n
				}
				return s
			}
			reject := func(when string) {
				t.Helper()
				resp, body := post(t, ts, spec(12), true)
				rejected++
				if resp.StatusCode != http.StatusBadRequest {
					t.Fatalf("%s N=12 via %s, %s: status %d, want 400 (body %s)", pattern, via, when, resp.StatusCode, body)
				}
				var eb errorBody
				if err := json.Unmarshal(body, &eb); err != nil || eb.Field != "workload" {
					t.Errorf("%s N=12 via %s, %s: field %q (%v), want \"workload\"", pattern, via, when, eb.Field, err)
				}
			}
			reject("first submission")
			if resp, body := post(t, ts, spec(16), true); resp.StatusCode != http.StatusOK {
				t.Fatalf("%s N=16 via %s: status %d (body %s)", pattern, via, resp.StatusCode, body)
			}
			reject("after a valid job")
		}
	}
	if m := fetchMetrics(t, ts); m.Rejected400 != rejected {
		t.Errorf("rejected_400 = %d, want %d", m.Rejected400, rejected)
	}
}

// TestNoWorkloadsOutliveTheirRun checks the registry after every way a job
// can end: run to done, replayed from the cache, cancelled while queued and
// refused by a full queue. None of them may still hold workloads.
func TestNoWorkloadsOutliveTheirRun(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueCapacity: 1})
	if resp, body := post(t, ts, simSpec(1), true); resp.StatusCode != http.StatusOK {
		t.Fatalf("fresh job: status %d (body %s)", resp.StatusCode, body)
	}
	if resp, _ := post(t, ts, simSpec(1), true); resp.Header.Get("X-Cache") != "hit" {
		t.Fatal("resubmission missed the cache")
	}

	// Pin the worker, fill the one queue slot with a real job, then have a
	// second real job refused and cancel the queued one.
	_, pinBody := post(t, ts, sleepSpec(500), false)
	pin := decodeStatus(t, pinBody)
	waitRunning(t, ts, pin.ID)
	_, qBody := post(t, ts, simSpec(2), false)
	queued := decodeStatus(t, qBody)
	if resp, body := post(t, ts, simSpec(3), false); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow job: status %d, want 429 (body %s)", resp.StatusCode, body)
	}
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+queued.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitTerminal(t, ts, pin.ID, 5*time.Second)

	if held := heldWorkloads(s); len(held) != 0 {
		t.Fatalf("jobs %v still hold workloads", held)
	}
}

func waitRunning(t *testing.T, ts *httptest.Server, id string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for getStatus(t, ts, id).State != StateRunning {
		if time.Now().After(deadline) {
			t.Fatalf("job %s never started", id)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestTraceJobReleasesTextAndWorkloads: after a trace job ends, its
// registry entry holds neither the submitted PMSTRACE text nor the parsed
// workloads — the registry keeps up to MaxJobs entries, and a trace may be
// as large as the request body cap.
func TestTraceJobReleasesTextAndWorkloads(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	text := traceOf(t, "random-mesh:msgs=4", 16, 9)
	resp, body := post(t, ts, JobSpec{
		Config:   ConfigSpec{Switching: "tdm-dynamic", N: 16},
		Workload: WorkloadSpec{Pattern: "trace", Trace: text, Seeds: 2},
	}, true)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace job: status %d (body %s)", resp.StatusCode, body)
	}
	j, ok := s.lookup(decodeStatus(t, body).ID)
	if !ok {
		t.Fatal("trace job not registered")
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.wls != nil {
		t.Errorf("terminal trace job holds %d workloads", len(j.wls))
	}
	// No string or byte field of the entry may carry the trace.
	v := reflect.ValueOf(j).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		var s string
		switch {
		case f.Kind() == reflect.String:
			s = f.String()
		case f.Kind() == reflect.Slice && f.Type().Elem().Kind() == reflect.Uint8:
			s = string(f.Bytes())
		default:
			continue
		}
		if strings.Contains(s, text) {
			t.Errorf("job field %s holds the submitted trace", v.Type().Field(i).Name)
		}
	}
}

// TestRegistryMemoryPerJob bounds what a finished job keeps alive: ~300
// distinct N=64 jobs run to done, then the heap is measured after a GC.
// Holding each job's workloads retained ~90 KB per job; the registry entry,
// the result bytes and the cache entry measure ~2 KB.
func TestRegistryMemoryPerJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	spec := func(seed int64) JobSpec {
		return JobSpec{
			Config: ConfigSpec{Switching: "tdm-dynamic", N: 64, K: 4,
				Eviction: "timeout", EvictionTimeoutNS: 500},
			Workload: WorkloadSpec{Pattern: "random-mesh:bytes=64,msgs=20", Seed: seed},
		}
	}
	if resp, body := post(t, ts, spec(1), true); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up job: status %d (body %s)", resp.StatusCode, body)
	}
	const (
		jobs  = 300
		bound = 16 << 10 // bytes retained per job
	)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := int64(0); i < jobs; i++ {
		if resp, body := post(t, ts, spec(1000+i), true); resp.StatusCode != http.StatusOK {
			t.Fatalf("job %d: status %d (body %s)", i, resp.StatusCode, body)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perJob := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / jobs
	t.Logf("heap retained per finished job: %.1f KB", perJob/1024)
	if perJob > bound {
		t.Errorf("each finished job retains %.1f KB of heap, bound %d KB", perJob/1024, bound>>10)
	}
}
