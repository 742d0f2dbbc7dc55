# Everything is standard-library Go; no tools beyond the toolchain.

GO ?= go

.PHONY: all build test check fmt inline vet race fuzz bench bench-compare trace-smoke service-smoke plan-smoke figures clean

all: build test

# Tier-1: the build-and-test gate every change must keep green.
build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Stricter CI tier: formatting, the inlining guard, static analysis and the
# race detector.
check: fmt inline vet race

# Fails listing the files gofmt would rewrite.
fmt:
	@files=$$(gofmt -l .); if [ -n "$$files" ]; then echo "gofmt needed:"; echo "$$files"; exit 1; fi

# Fails unless the compiler can inline bitmat's bit probes. The scheduler,
# request wire and preloader probe single bits in their hot loops; a probe
# pushed back over the inliner's budget costs two calls per bit (~5% of a
# dynamic-TDM run) and shows in no test.
INLINE_PROBES = '(*Matrix).Get' '(*Matrix).Set' '(*Matrix).Clear' '(*Matrix).RowWords' '(*Matrix).check' '(*Sparse).Get'
inline:
	@inlined=$$($(GO) build -gcflags=-m ./internal/bitmat 2>&1 | sed -n 's/.*: can inline //p'); \
	status=0; \
	for f in $(INLINE_PROBES); do \
		echo "$$inlined" | grep -qxF "$$f" || { echo "bitmat: $$f no longer inlines"; status=1; }; \
	done; \
	exit $$status

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# Full benchmark suite with allocation stats, captured as machine-readable
# JSON (name -> iterations, ns/op, allocs/op and custom metrics) alongside
# the usual text output. The default 1s benchtime gives the engine
# microbenches real iteration counts (the harness benches exceed it in one
# iteration and run once either way); BENCHTIME=1x does a fastest-possible
# smoke pass. GOFLAGS=-count=N runs the suite N times; benchjson records
# each metric's median and interquartile range over the runs.
BENCHTIME ?= 1s
# BENCHOUT is where the fresh capture lands. The committed captures
# BENCH_1.json to BENCH_9.json are history and stay untouched so runs can
# diff against them; BENCH_9.json is the current gate baseline.
BENCHOUT ?= BENCH_NEW.json
bench:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime $(BENCHTIME) ./... \
		| $(GO) run ./cmd/benchjson -o $(BENCHOUT)

# Regression gate: rerun the suite and fail if any benchmark got worse than
# the baseline in the gated metrics: ns/op by more than 20% or the
# baseline's IQR, allocs/op by more than 2%. BENCH_9.json is the capture
# `make bench BENCHOUT=BENCH_9.json BENCHTIME=100x GOFLAGS=-count=5`, taken
# once every layer indexed its per-connection state by the run's connection
# table.
# Timing needs the full BENCHTIME to be meaningful and is measured by
# perfbench; BENCHMETRICS=allocs/op gates allocations alone, which are
# deterministic even at short benchtimes (CI's setting).
BASELINE ?= BENCH_9.json
BENCHMETRICS ?= ns/op,allocs/op
bench-compare:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime $(BENCHTIME) ./... \
		| $(GO) run ./cmd/benchjson -metrics '$(BENCHMETRICS)' -compare $(BASELINE)

# End-to-end trace check: run a small probed simulation through pmsim
# -trace and make sure the output parses as a Chrome trace-event JSON array
# with a sane event count.
trace-smoke:
	$(GO) run ./cmd/pmsim -net tdm-dynamic -pattern random-mesh -n 16 -msgs 10 \
		-trace /tmp/pmsnet-trace-smoke.json > /dev/null
	$(GO) run ./cmd/tracecheck /tmp/pmsnet-trace-smoke.json

# End-to-end service check: start pmsd with a deliberately tiny queue, ramp
# pmsload well past saturation, and assert the degradation contract — the
# server sheds load with 429 + Retry-After (nonzero 429s), never returns a
# 5xx other than the injected panic probe, and the client still lands a
# healthy fraction of jobs by backing off. pmsd binds :0 and prints the
# bound address on stdout, so no fixed port is needed.
service-smoke:
	$(GO) build -o /tmp/pmsd-smoke ./cmd/pmsd
	$(GO) build -o /tmp/pmsload-smoke ./cmd/pmsload
	@set -u; \
	/tmp/pmsd-smoke -addr 127.0.0.1:0 -workers 2 -queue 8 -test-patterns -quiet \
		> /tmp/pmsd-smoke.addr 2> /tmp/pmsd-smoke.log & \
	pmsd_pid=$$!; \
	for i in $$(seq 1 50); do [ -s /tmp/pmsd-smoke.addr ] && break; sleep 0.1; done; \
	addr=$$(head -n 1 /tmp/pmsd-smoke.addr); \
	if [ -z "$$addr" ]; then echo "pmsd did not start:"; cat /tmp/pmsd-smoke.log; \
		kill $$pmsd_pid 2>/dev/null; exit 1; fi; \
	status=0; \
	/tmp/pmsload-smoke -addr "http://$$addr" \
		-duration 5s -start-rps 15 -growth 25 -executors 64 \
		-retries 3 -backoff-cap 500ms \
		-n 64 -size 256 -msgs 200 -seed-spread 1000 \
		-panic-probe -assert-429 -assert-max-5xx 0 -assert-success-min 0.3 \
		|| status=$$?; \
	kill -TERM $$pmsd_pid 2>/dev/null; \
	wait $$pmsd_pid || { echo "pmsd exited nonzero; log:"; cat /tmp/pmsd-smoke.log; \
		[ $$status -eq 0 ] && status=1; }; \
	exit $$status

# End-to-end planner check: plan a skewed demand workload with the Solstice
# planner, run the plan and the hand-chunked static preloads through the
# same preload TDM simulation, and fail unless the plan strictly wins on
# both makespan and efficiency.
plan-smoke:
	$(GO) run ./cmd/pmsopt -planner solstice -pattern skewed -n 16 \
		-compare -assert-better > /dev/null
	$(GO) run ./cmd/pmsopt -planner bvn -pattern skewed -n 16 \
		-o /tmp/pmsnet-plan-smoke.json > /dev/null
	@test -s /tmp/pmsnet-plan-smoke.json

# Short fuzzing passes over the text-format parsers, the workload-spec
# grammar, the sparse/dense bitmat parity, the sparse scheduling pass
# against the dense oracle under every state mutator, the BvN
# decomposition, the König decomposition's in-place Kempe flips against
# the path-buffer reference, the incremental time-out predictor's parity with the map-scan
# reference, the event engine's fire order against a sort-by-(at, seq)
# reference, the NIC output buffer's parity with the
# slice-per-destination reference, NewRNG's draw-for-draw parity with
# math/rand, the Solstice planner's parity with its rescan-every-round
# oracle, and both fabric backends' connection-list loads against the
# partial-permutation and Omega-routing references.
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzWorkloadSpec -fuzztime=30s ./internal/traffic/
	$(GO) test -run=NONE -fuzz=FuzzRead -fuzztime=30s ./internal/trace/
	$(GO) test -run=NONE -fuzz=FuzzPlan -fuzztime=30s ./internal/fault/
	$(GO) test -run=NONE -fuzz=FuzzSparseParity -fuzztime=30s ./internal/bitmat/
	$(GO) test -run=NONE -fuzz=FuzzSparseDenseOps -fuzztime=30s ./internal/core/
	$(GO) test -run=NONE -fuzz=FuzzDecompose -fuzztime=30s ./internal/multistage/
	$(GO) test -run=NONE -fuzz=FuzzDecomposeParity -fuzztime=30s ./internal/topology/
	$(GO) test -run=NONE -fuzz=FuzzTimeoutParity -fuzztime=30s ./internal/predictor/
	$(GO) test -run=NONE -fuzz=FuzzEngineOrder -fuzztime=30s ./internal/sim/
	$(GO) test -run=NONE -fuzz=FuzzOutBufferParity -fuzztime=30s ./internal/nic/
	$(GO) test -run=NONE -fuzz=FuzzNewRNGParity -fuzztime=30s ./internal/sim/
	$(GO) test -run=NONE -fuzz=FuzzSolsticeParity -fuzztime=30s ./internal/plan/
	$(GO) test -run=NONE -fuzz=FuzzFabricApply -fuzztime=30s ./internal/fabric/

figures:
	$(GO) run ./cmd/figures

clean:
	$(GO) clean ./...
