package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"time"

	"pmsnet"
	"pmsnet/internal/service"
)

// serve-n64: an in-process service with two workers and two closed-loop
// clients. Each client submits POST /jobs, then polls GET /jobs/{id} until
// the job is terminal, then submits its next job.
const (
	serveN       = 64
	serveMsgs    = 20
	serveBytes   = 64
	serveWorkers = 2
	serveClients = 2
	// serveRoundJobs jobs per round keep ten or more samples beyond
	// job_ms_p99 even in a single round.
	serveRoundJobs = 1000
	// repeatShare of the submissions repeat an earlier (spec, seed) and so
	// hit the result cache. It is just under a half so that job_ms_p50
	// falls inside the cache-miss mode instead of on the gap between the
	// two modes, where it would jump from run to run.
	repeatShare = 0.4
	// repeatWindow bounds how far back a repeat reaches: the most recent
	// completed fresh jobs, all still inside the FIFO result cache.
	repeatWindow = 256
	pollEvery    = time.Millisecond
	// verifySample fresh jobs per run are re-simulated locally through
	// pmsnet.Run and must match the served reports.
	verifySample = 128
	// traceSample distinct jobs are re-simulated in the traced pass.
	traceSample = 24
)

var servePatterns = []string{
	fmt.Sprintf("random-mesh:bytes=%d,msgs=%d", serveBytes, serveMsgs),
	fmt.Sprintf("mix:bytes=%d,msgs=%d", serveBytes, serveMsgs),
}

// jobKey is a job's (spec, seed).
type jobKey struct {
	pattern string
	seed    int64
}

func jobSpec(k jobKey) service.JobSpec {
	return service.JobSpec{
		Config: service.ConfigSpec{Switching: "tdm-dynamic", N: serveN, K: 4,
			Eviction: "timeout", EvictionTimeoutNS: 500},
		Workload: service.WorkloadSpec{Pattern: k.pattern, Seed: k.seed},
	}
}

// jobStream hands out the deterministic job sequence: fresh jobs take
// consecutive seeds from the job-seed base and alternate patterns at random;
// repeats re-submit a recently completed fresh job.
type jobStream struct {
	mu   sync.Mutex
	rng  *rand.Rand
	next int64
	done []jobKey
}

func (s *jobStream) take() (jobKey, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.done) > 0 && s.rng.Float64() < repeatShare {
		lo := len(s.done) - repeatWindow
		if lo < 0 {
			lo = 0
		}
		return s.done[lo+s.rng.Intn(len(s.done)-lo)], true
	}
	k := jobKey{servePatterns[s.rng.Intn(len(servePatterns))], s.next}
	s.next++
	return k, false
}

// reset starts a round: the fresh server's cache is empty, so nothing is
// repeated until a job of this round has completed.
func (s *jobStream) reset() {
	s.mu.Lock()
	s.done = s.done[:0]
	s.mu.Unlock()
}

func (s *jobStream) completed(k jobKey) {
	s.mu.Lock()
	s.done = append(s.done, k)
	s.mu.Unlock()
}

// serveRun is one closed-loop measurement against a running server.
type serveRun struct {
	base   string
	client *http.Client
	stream *jobStream

	mu        sync.Mutex
	taken     int // jobs taken in the current round
	jobMS     []float64
	submitMS  []float64
	msgs      int
	attempted int
	failures  []string
	digests   map[jobKey]string
	fresh     []jobKey // distinct fresh jobs in completion order
	spans     tracer   // every client's spans, on the shared epoch

	// Server-side totals over the rounds, from /metrics.
	rounds                          int
	cacheHits, cacheMisses, refused uint64
	queueWait, runTime              float64 // summed ms
	ran                             uint64
}

func (r *serveRun) fail(format string, args ...any) {
	r.mu.Lock()
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

// startServer builds a server, serves it on a loopback port and waits until
// it answers /readyz.
func startServer(client *http.Client) (*service.Server, string, error) {
	srv := service.New(service.Config{Workers: serveWorkers})
	addr, _, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	base := "http://" + addr
	for i := 0; i < 1000; i++ {
		resp, err := client.Get(base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return srv, base, nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	stopServer(srv)
	return nil, "", fmt.Errorf("server never became ready")
}

func stopServer(srv *service.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = srv.Shutdown(ctx) // a drain timeout aborts the jobs; nothing else to do
}

func runServe(opts options) (*outcome, error) {
	if opts.jobSeed <= 0 {
		return nil, fmt.Errorf("serve-n64: --job-seed must be positive")
	}
	o := newOutcome()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients * 2}}
	defer client.CloseIdleConnections()

	// Set-up: build a server until it answers /readyz, several times over.
	var srv *service.Server
	setup, err := timeSetup(func() error {
		var err error
		srv, _, err = startServer(client)
		return err
	}, func() { stopServer(srv) })
	if err != nil {
		return nil, err
	}

	r := &serveRun{
		client:  client,
		stream:  &jobStream{rng: rand.New(rand.NewSource(opts.jobSeed)), next: opts.jobSeed},
		digests: map[jobKey]string{},
		spans:   tracer{epoch: time.Now()},
	}
	window := opts.seconds
	if opts.trace {
		// The traced run splits its window between the service loop and
		// the traced simulations of the job mix.
		window /= 2
	}
	// Rounds of serveRoundJobs jobs, each against a fresh server, until the
	// window has elapsed. A fixed round size keeps the job registry, and so
	// the resident set, the same whatever the throughput.
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	deadline := start.Add(window)
	var snap service.MetricsSnapshot
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		srv, base, err := startServer(client)
		if err != nil {
			return nil, err
		}
		r.base = base
		r.taken = 0
		r.stream.reset()
		var wg sync.WaitGroup
		for c := 0; c < serveClients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				r.clientLoop()
			}()
		}
		wg.Wait()
		err = getJSON(client, base+"/metrics", &snap)
		stopServer(srv)
		if err != nil {
			return nil, err
		}
		r.rounds++
		r.cacheHits += snap.CacheHits
		r.cacheMisses += snap.CacheMisses
		r.refused += snap.Rejected400 + snap.Rejected429 + snap.Rejected503
		r.queueWait += snap.QueueWait.MeanMS * float64(snap.QueueWait.Count)
		r.runTime += snap.RunTime.MeanMS * float64(snap.RunTime.Count)
		r.ran += snap.RunTime.Count
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)

	o.attempted = r.attempted
	for _, f := range r.failures {
		o.fail("%s", f)
	}
	r.verify(o)
	jobs := len(r.jobMS)
	hitRate := float64(r.cacheHits) / float64(r.cacheHits+r.cacheMisses)
	o.note("job-seed %d, %d rounds, %d jobs completed in %.2fs (job_ms percentiles over %d samples), result-cache hit rate %.3f",
		opts.jobSeed, r.rounds, jobs, elapsed.Seconds(), jobs, hitRate)
	if opts.trace {
		o.set("service.submit_ms_p50", quantile(r.submitMS, 0.5), "ms")
		o.set("service.queue_wait_ms", r.queueWait/float64(r.ran), "ms")
		o.set("service.run_ms", r.runTime/float64(r.ran), "ms")
		o.set("service.cache_hit_ratio", hitRate, "ratio")
		o.set("service.refused", float64(r.refused), "count")
		return traceServe(r, o, opts, start.Add(opts.seconds))
	}
	o.set("setup_s", median(setup), "s")
	o.set("msgs_per_s", float64(r.msgs)/elapsed.Seconds(), "msgs/s")
	o.set("alloc_mb", float64(after.TotalAlloc-before.TotalAlloc)/(1<<20)/float64(jobs), "MB")
	o.set("rss_peak_mb", peakRSSMB(), "MB")
	o.set("job_ms_p50", quantile(r.jobMS, 0.50), "ms")
	o.set("job_ms_p99", quantile(r.jobMS, 0.99), "ms")
	o.set("jobs_per_s", float64(jobs)/elapsed.Seconds(), "jobs/s")
	return o, nil
}

// clientLoop submits jobs until the round's jobs have all been taken.
func (r *serveRun) clientLoop() {
	t := &tracer{epoch: r.spans.epoch}
	root := t.open(spanClient, -1)
	for {
		r.mu.Lock()
		more := r.taken < serveRoundJobs
		r.taken++
		r.mu.Unlock()
		if !more {
			break
		}
		k, repeat := r.stream.take()
		r.oneJob(t, root, k, repeat)
	}
	t.close(root)
	r.mu.Lock()
	r.spans.graft(t.spans)
	r.mu.Unlock()
}

// oneJob submits one job and polls it to a terminal state, recording its
// latency, spans and served reports.
func (r *serveRun) oneJob(t *tracer, root int, k jobKey, repeat bool) {
	body, err := json.Marshal(jobSpec(k))
	if err != nil {
		r.fail("encode job: %v", err)
		return
	}
	job := t.open(spanJob, root)
	t0 := time.Now()
	r.mu.Lock()
	r.attempted++
	r.mu.Unlock()
	resp, err := r.client.Post(r.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.close(job)
		r.fail("POST /jobs: %v", err)
		return
	}
	var st service.JobStatus
	derr := json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	submitted := t.now()
	submitDur := time.Since(t0)
	t.add(spanSubmit, job, t.spans[job].Start, submitted)
	if derr != nil || (resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted) {
		t.close(job)
		r.fail("POST /jobs %v seed %d: status %d (%s) %v", k.pattern, k.seed, resp.StatusCode, st.Error, derr)
		return
	}
	for !st.State.Terminal() {
		time.Sleep(pollEvery)
		if err := getJSON(r.client, r.base+"/jobs/"+st.ID, &st); err != nil {
			t.close(job)
			r.fail("GET /jobs/%s: %v", st.ID, err)
			return
		}
	}
	jobDur := time.Since(t0)
	end := t.now()
	t.spans[job].End = end
	// Server-side queue and run intervals, clipped to after the submit
	// round trip so siblings never overlap.
	clip := func(w *time.Time) int64 {
		ns := w.Sub(t.epoch).Nanoseconds()
		if ns < submitted {
			ns = submitted
		}
		if ns > end {
			ns = end
		}
		return ns
	}
	if st.StartedAt != nil && st.FinishedAt != nil {
		started := clip(st.StartedAt)
		t.add(spanQueue, job, submitted, started)
		t.add(spanJobRun, job, started, clip(st.FinishedAt))
	}
	if st.State != service.StateDone {
		r.fail("job %s %v seed %d ended %s: %s", st.ID, k.pattern, k.seed, st.State, st.Error)
		return
	}
	var res service.JobResult
	if err := json.Unmarshal(st.Result, &res); err != nil || len(res.Reports) != 1 {
		r.fail("job %s: bad result (%v)", st.ID, err)
		return
	}
	rep := res.Reports[0]
	d := digest(rep)

	r.mu.Lock()
	defer r.mu.Unlock()
	r.jobMS = append(r.jobMS, ms(jobDur))
	r.submitMS = append(r.submitMS, ms(submitDur))
	r.msgs += rep.Messages
	if rep.Messages != serveN*serveMsgs || rep.Bytes != serveN*serveMsgs*serveBytes {
		r.failures = append(r.failures, fmt.Sprintf("job %s: delivered %d msgs / %d B", st.ID, rep.Messages, rep.Bytes))
		return
	}
	if first, ok := r.digests[k]; ok {
		if first != d {
			r.failures = append(r.failures, fmt.Sprintf("job %s %v seed %d: digest %s differs from the earlier %s",
				st.ID, k.pattern, k.seed, d, first))
		}
		return
	}
	r.digests[k] = d
	if !repeat {
		r.fresh = append(r.fresh, k)
		r.stream.completed(k)
	}
}

func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// verify re-simulates the first verifySample fresh jobs locally through
// pmsnet.Run: each served report must match the library's own result.
func (r *serveRun) verify(o *outcome) {
	n := len(r.fresh)
	if n > verifySample {
		n = verifySample
	}
	cfg := dynamicTDM(serveN).cfg
	for _, k := range r.fresh[:n] {
		wl, err := pmsnet.GenerateWorkload(k.pattern, serveN, k.seed)
		if err != nil {
			o.fail("verify %v seed %d: %v", k.pattern, k.seed, err)
			continue
		}
		rep, err := pmsnet.Run(cfg, wl)
		if err != nil {
			o.fail("verify %v seed %d: %v", k.pattern, k.seed, err)
			continue
		}
		if d := digest(rep); d != r.digests[k] {
			o.fail("%v seed %d: served digest %s, library digest %s", k.pattern, k.seed, r.digests[k], d)
		}
	}
	o.note("served results: %d distinct jobs, %d re-simulated locally and compared", len(r.fresh), n)
}

// traceServe finishes the traced serve run: the service-layer metrics from
// the loop above, then a traced pass over a sample of the job mix for the
// simulation layers.
func traceServe(r *serveRun, o *outcome, opts options, deadline time.Time) (*outcome, error) {
	t := &r.spans
	keys := r.fresh
	if len(keys) > traceSample {
		keys = keys[:traceSample]
	}
	var items []simItem
	root := t.open(spanWorkload, -1)
	for _, k := range keys {
		g := t.open(spanGen, root)
		wl, err := pmsnet.GenerateWorkload(k.pattern, serveN, k.seed)
		t.close(g)
		if err != nil {
			return nil, err
		}
		items = append(items, simItem{net: dynamicTDM(serveN), seed: k.seed, wl: wl})
	}
	t.close(root)
	acc := &layerAcc{}
	chk := newChecker("serve-n64")
	firstPass := traceSims(t, items, deadline, acc, o, chk)
	finishTrace("serve-n64", t, firstPass, acc, o, opts)
	return o, nil
}
