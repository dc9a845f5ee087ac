# Mirrors .github/workflows/ci.yml so contributors run exactly what CI runs.

GO ?= go

.PHONY: all build test race bench bench-contention bench-submit bench-native bench-trend alloc-budget examples lint trace dist-trace serve serve-smoke serve-trend dist dist-tcp dist-race fuzz-frames soak ci

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test -shuffle=on ./...

# Race-detector pass over the concurrent executor packages (the CI `race` job).
race:
	$(GO) test -race -shuffle=on ./ompss ./internal/core ./internal/tune ./internal/obs ./internal/obs/metrics ./internal/serve ./internal/dist ./pthread

# Run every benchmark for one iteration so benchmark code cannot rot
# (the CI `bench-smoke` job). For real numbers, raise -benchtime.
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# Contended-throughput microbenchmark of the native executor, 3 iterations
# per worker count — the before/after scaling gauge for runtime changes.
bench-contention:
	$(GO) test ./internal/bench -bench BenchmarkContendedThroughput -benchtime=3x -run='^$$'

# Submit-path allocation benchmark: registered *Datum handles vs the
# any-key compatibility path (the CI bench-smoke job runs this with
# -benchmem so handle-path regressions show up in the log).
bench-submit:
	$(GO) test ./internal/bench -run='^$$' -bench=BenchmarkSubmit -benchmem -benchtime=300000x

# Allocation regression guard: fails when any submit benchmark exceeds the
# allocs/op ceiling in internal/bench/testdata/alloc_budget.json (the CI
# bench-smoke job runs this).
alloc-budget:
	$(GO) test ./internal/bench -run='^TestSubmitAllocBudget$$' -count=1 -v

# Wall-clock native scheduling harness: runs the suite's small instances on
# real goroutines under policy on/off and writes BENCH_native.json (see
# EXPERIMENTS.md for the recorded trajectory).
bench-native:
	$(GO) run ./cmd/ompss-bench -native -o BENCH_native.json

# Perf-trajectory gate (the CI `bench-trend` job): measure the small
# workloads fresh — including the -tune grain ablation (best static chunk
# vs chunk=Auto) — and compare the policy, rename, and autotune factors
# against the committed small-scale baseline with a ±30% regression-only
# tolerance on each section's mean factor (per-cell outliers are warnings).
bench-trend:
	$(GO) run ./cmd/ompss-bench -native -small -iters 3 -tune -o /tmp/BENCH_native_fresh.json
	$(GO) run ./cmd/ompss-bench -trend -baseline BENCH_native_small.json -candidate /tmp/BENCH_native_fresh.json -tol 0.30

# Profile one suite app with the observability recorder attached: record a
# raw trace, print the analyzer report (parallelism profile, critical path,
# per-worker utilization, steal matrix), and export Chrome trace-event JSON
# — open trace.chrome.json in chrome://tracing or ui.perfetto.dev. The CI
# bench-smoke job runs the same pipeline and uploads the Chrome trace as an
# artifact. Override: make trace TRACE_BENCH=c-ray TRACE_WORKERS=4
TRACE_BENCH ?= h264dec
TRACE_WORKERS ?= 2
trace:
	$(GO) run ./cmd/ompss-trace record -bench $(TRACE_BENCH) -workers $(TRACE_WORKERS) -o trace.raw.json
	$(GO) run ./cmd/ompss-trace analyze trace.raw.json
	$(GO) run ./cmd/ompss-trace export -format chrome -o trace.chrome.json trace.raw.json

# Cross-process trace of a distributed run (the CI dist-smoke job): the
# coordinator and every worker process record their own rings, the worker
# streams ship back over the dispatch connection, and the merge aligns each
# worker's clock before interleaving — one timeline, one track per worker
# incarnation. The merged stream is reconciled against the run's transfer
# accounting before it is written. Override: make dist-trace DIST_TRACE_BENCH=kmeans
DIST_TRACE_BENCH ?= rotate
DIST_TRACE_WORKERS ?= 2
dist-trace:
	$(GO) run ./cmd/ompss-trace record -bench $(DIST_TRACE_BENCH) -dist -dist-workers $(DIST_TRACE_WORKERS) -small -o trace.dist.json
	$(GO) run ./cmd/ompss-trace analyze trace.dist.json
	$(GO) run ./cmd/ompss-trace export -format chrome -o trace.dist.chrome.json trace.dist.json

# Boot the multi-tenant service runtime on :8080 (Ctrl-C to stop). See
# README "Serving requests" for the endpoints and tenant headers.
serve:
	$(GO) run ./cmd/ompss-serve -addr :8080

# Short load burst against the in-process handler (the CI serve-smoke job
# also drives a booted server over real HTTP): concurrent mixed-tenant
# clients with fault injection; exits nonzero on zero 2xx responses or any
# cross-session isolation violation, and writes the latency report that
# EXPERIMENTS.md records.
serve-smoke:
	$(GO) run ./cmd/ompss-serve -load -duration 5s -conc 8 -fault-every 7 -o BENCH_serve.json

# Distributed two-process proof (the CI dist-smoke job): every adapted
# suite workload at 1 and 2 worker processes over both rendezvous
# transports, each run verified against the sequential reference; writes
# BENCH_dist.json with wall-clock times and the transfer/chain/forwarding
# accounting (bytes migrated, transfers the version caches avoided,
# dispatch round-trips vs tasks, bytes forwarded worker-to-worker).
dist:
	$(GO) run ./cmd/ompss-bench -dist -small -iters 3 -o BENCH_dist.json

# The TCP-loopback leg alone (the CI dist-smoke job's second leg): workers
# rendezvous over TCP and must pass the HMAC challenge/response handshake.
dist-tcp:
	$(GO) run ./cmd/ompss-bench -dist -dist-transport tcp -small -iters 2 -o /tmp/BENCH_dist_tcp.json

# The distributed coordinator and suite adapters under the race detector,
# including the worker-kill fault-confinement leg.
dist-race:
	$(GO) test -race -count=1 -run 'TestDist' ./internal/dist
	$(GO) test -race -count=1 -run 'TestDistMatchesSequential|TestRGBCMYCacheReuse' ./internal/suite/distkern

# Short native-fuzz legs over the dist wire codec, one-shot frames and a
# persistent stream (the CI race job runs the same with -fuzztime=30s).
# Go fuzzes one target per invocation.
fuzz-frames:
	$(GO) test ./internal/dist -run='^$$' -fuzz='^FuzzFrameDecode$$' -fuzztime=15s
	$(GO) test ./internal/dist -run='^$$' -fuzz='^FuzzCodecStream$$' -fuzztime=15s

# Session-churn soak (the CI dist-smoke job): churn hundreds of request
# sessions and assert the live dependence-record count returns to the
# pre-churn baseline. Gated behind -soak so ordinary test runs stay fast.
soak:
	$(GO) test ./internal/serve -run 'TestSoakSessionChurn' -soak -count=1 -v

# Service-trajectory gate (the CI serve-smoke job): run the baseline's load
# shape fresh and compare against the committed BENCH_serve.json.
# Correctness is hard; latency/throughput gate hard only on a host with the
# baseline's CPU count and warn otherwise.
serve-trend:
	$(GO) run ./cmd/ompss-serve -load -workers 1 -duration 5s -conc 8 -fault-every 7 -o /tmp/BENCH_serve_fresh.json
	$(GO) run ./cmd/ompss-bench -serve-trend -serve-baseline BENCH_serve.json -serve-candidate /tmp/BENCH_serve_fresh.json -serve-tol 0.50

# Run every example end-to-end (the CI examples-smoke job).
examples:
	@for d in examples/*/; do echo "== $$d"; $(GO) run ./$$d || exit 1; done

# Mirrors the CI `lint` job (plus the verify job's vet/gofmt steps) so
# local and CI checks stay in lockstep. staticcheck and govulncheck are
# installed on demand by CI; locally they are skipped with a hint when not
# on PATH.
lint:
	$(GO) vet ./...
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; else \
		echo "lint: staticcheck not installed (go install honnef.co/go/tools/cmd/staticcheck@latest); skipping" >&2; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; else \
		echo "lint: govulncheck not installed (go install golang.org/x/vuln/cmd/govulncheck@latest); skipping" >&2; fi

ci: build lint test race bench bench-submit alloc-budget bench-trend serve-smoke dist-race dist-trace soak examples
