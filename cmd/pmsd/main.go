// Command pmsd is the long-lived simulation service: an HTTP/JSON server
// that accepts pmsnet simulation jobs, executes them on a bounded worker
// pool, and degrades gracefully under overload instead of falling over.
//
// Usage:
//
//	pmsd -addr :8080 -workers 4 -queue 64
//	pmsd -addr 127.0.0.1:0            # ephemeral port, printed on stdout
//
// API:
//
//	POST   /jobs              submit a job (JSON spec); ?wait=1 blocks for the result
//	GET    /jobs/{id}         job status (state, timings, result when done)
//	GET    /jobs/{id}/result  raw result payload (byte-identical across cached replays)
//	DELETE /jobs/{id}         cancel a queued or running job
//	GET    /healthz           liveness (always 200 while the process serves)
//	GET    /readyz            readiness (503 while draining)
//	GET    /metrics           JSON counters: queue depth, wait/run times, cache hit rate
//
// Robustness envelope: jobs are validated at admission (400), refused with
// 429 + Retry-After when the bounded queue is full, bounded by per-job
// deadlines (504), isolated from panics (500 with the stack, the pool
// self-heals), and deduplicated through a deterministic result cache keyed
// on the config hash and the resolved workload request — simulations are
// bit-reproducible, so a cache hit is byte-identical to a fresh run and
// builds no workload. SIGINT/SIGTERM triggers a
// graceful drain: admission stops, in-flight jobs get -drain to finish,
// stragglers are cancelled.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pmsnet/internal/service"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address (host:port; :0 picks an ephemeral port)")
		workers  = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		queue    = flag.Int("queue", 64, "job queue capacity; beyond it submissions get 429")
		deadline = flag.Duration("deadline", 30*time.Second, "default per-job deadline")
		maxDl    = flag.Duration("max-deadline", 2*time.Minute, "cap on spec-requested per-job deadlines")
		cache    = flag.Int("cache", 1024, "result cache size in entries (negative disables)")
		drain    = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain deadline")
		retry    = flag.Duration("retry-after", time.Second, "Retry-After hint on 429/503 responses")
		testPat  = flag.Bool("test-patterns", false, "enable the 'panic' and 'sleep' test workload patterns (CI smoke only)")
		quiet    = flag.Bool("quiet", false, "suppress per-job log lines")
	)
	flag.Parse()

	logger := log.New(os.Stderr, "pmsd: ", log.LstdFlags|log.Lmicroseconds)
	svcLog := logger
	if *quiet {
		svcLog = nil
	}
	srv := service.New(service.Config{
		QueueCapacity:   *queue,
		Workers:         *workers,
		DefaultDeadline: *deadline,
		MaxDeadline:     *maxDl,
		CacheSize:       *cache,
		RetryAfter:      *retry,
		TestPatterns:    *testPat,
		Log:             svcLog,
	})

	bound, errc, err := srv.Start(*addr)
	if err != nil {
		logger.Fatalf("listen %s: %v", *addr, err)
	}
	// The bound address goes to stdout so scripts (make service-smoke) can
	// capture it even with -addr :0.
	fmt.Println(bound)
	logger.Printf("serving on %s (workers %d, queue %d, deadline %v)", bound, *workers, *queue, *deadline)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		logger.Printf("%s: draining (deadline %v)", sig, *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			logger.Printf("drain incomplete: %v", err)
			os.Exit(1)
		}
		logger.Printf("drained; bye")
	case err := <-errc:
		if err != nil {
			logger.Fatalf("serve: %v", err)
		}
	}
}
