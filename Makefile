# Build, test and benchmark entry points. `make ci` is the full gate:
# vet + build + race-enabled tests + short fixed-iteration benchmarks to
# catch performance regressions in the hot paths (enumeration kernels
# and the daemon's cached predict path).

GO ?= go

# Binaries are stamped with the version (latest tag, falling back to
# "dev") and commit via internal/buildinfo; `heteromixd -version` and
# GET /healthz report them.
VERSION ?= $(shell git describe --tags --always --dirty 2>/dev/null || echo dev)
COMMIT  ?= $(shell git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
LDFLAGS  = -X heteromix/internal/buildinfo.Version=$(VERSION) \
           -X heteromix/internal/buildinfo.Commit=$(COMMIT)

.PHONY: all build vet fmt perfbench-build perfbench perfbench-pair test race server-race fleet-race calib-race fleet-heal chaos stream-race bench bench-generic bench-server bench-batch bench-fleet bench-fit bench-preheat bench-stream bench-check ci

all: ci

build:
	$(GO) build -ldflags "$(LDFLAGS)" ./...

vet:
	$(GO) vet ./...

# Every Go file in the tree must be gofmt-clean.
fmt:
	test -z "$$(gofmt -l .)"

# The benchmark module (perfbench/) builds against this tree through a
# replace directive; building and vetting it here catches API breaks
# before the benchmark run does.
perfbench-build:
	cd perfbench && $(GO) build -o /dev/null ./... && $(GO) vet ./...

# Opt-in, not part of ci: runs the end-to-end benchmark (perfbench/) on
# each of its three workloads for 30 s at seed 1 and prints each
# workload's result line (the full output stays in
# .bench_build/perfbench-<workload>.txt). Takes about two minutes.
perfbench:
	@mkdir -p .bench_build
	@for w in predict_refit frontier_cold fleet_frontier; do \
		out=.bench_build/perfbench-$$w.txt; \
		bash perfbench/run.sh --workload $$w --seed 1 --seconds 30 --trace 0 > $$out 2>&1 || { cat $$out; exit 1; }; \
		echo "$$w: $$(tail -n 1 $$out)"; \
	done

# Opt-in, not part of ci: alternating before/after pairs of the same
# benchmark runs, e.g. `make perfbench-pair BASE=main PAIRS=3`. BASE is
# exported with git archive into .bench_build/base; each pair runs BASE,
# then this tree, on each workload at seed 1 for 30 s and prints both
# result lines (full outputs in .bench_build/pair-<side>-<workload>-<n>.txt).
BASE  ?= HEAD
PAIRS ?= 3
perfbench-pair:
	@rm -rf .bench_build/base && mkdir -p .bench_build/base
	@git archive $(BASE) | tar -x -C .bench_build/base
	@for i in $$(seq $(PAIRS)); do \
		for w in predict_refit frontier_cold fleet_frontier; do \
			base=.bench_build/pair-base-$$w-$$i.txt head=.bench_build/pair-head-$$w-$$i.txt; \
			(cd .bench_build/base && bash perfbench/run.sh --workload $$w --seed 1 --seconds 30 --trace 0) > $$base 2>&1 || { cat $$base; exit 1; }; \
			bash perfbench/run.sh --workload $$w --seed 1 --seconds 30 --trace 0 > $$head 2>&1 || { cat $$head; exit 1; }; \
			echo "pair $$i $$w base: $$(tail -n 1 $$base)"; \
			echo "pair $$i $$w head: $$(tail -n 1 $$head)"; \
		done; \
	done

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Race-enabled run of just the serving layer, where all the deliberate
# concurrency lives (sharded LRU, singleflight, limiter, shutdown).
server-race:
	$(GO) test -race -count=1 ./internal/server ./internal/lru ./internal/metrics

# The fleet scatter-gather layer under the race detector: shard ranges,
# shard walkers, coordinator fan-out/merge/caching, the
# shard-down degraded path, consistent-hash routing and first use of a
# frontier candidate set (a generic table's, a shard slice's, or a
# two-type table's per bounds box) all run concurrently by design.
fleet-race:
	$(GO) test -race -count=1 -run 'Fleet|Shard|Route|Ring|Feistel|Permutation|Candidate' \
		./internal/server ./internal/shard ./internal/cluster ./internal/pareto

# The online-calibration subsystem under the race detector: concurrent
# /v1/fit ingests, drift-triggered refits, version bumps and the cache
# sweeps they fire all race against warm serving traffic by design.
calib-race:
	$(GO) test -race -count=1 -run 'Calib|Fit|Profile|Drift|Refit|Snapshot|Invalidat|Bump|Degenerate' \
		./internal/calib ./internal/server ./internal/stats ./cmd/fitmodel ./cmd/heteromixd

# The self-healing layer under the race detector: the replica prober's
# state machine, kill/revive soaks with failover and bit-identical
# merges, hedged fan-out (including loser cancellation and goroutine
# accounting), deadline propagation and the breaker's half-open races
# all run concurrently by design.
fleet-heal:
	$(GO) test -race -count=1 \
		-run 'Heal|Failover|KillRevive|Hedge|Deadline|Replica|Prober|Probe|Breaker|Successor' \
		./internal/server ./internal/fleethealth ./internal/resilience ./internal/shard

# The server suite again, but with latency-only chaos injected into
# every test server (HETEROMIX_CHAOS is parsed by newTestServer) and the
# race detector on: every functional property must hold while requests
# are randomly delayed. The soak test layers errors/panics on top.
chaos:
	HETEROMIX_CHAOS="latency=0.3:2ms,seed=1" $(GO) test -race -count=1 ./internal/server

# The streaming wire layer under the race detector: pooled chunk
# encoders, flush-boundary backpressure, gzip writer pooling, the delta
# predecessor cache and the disconnect-shedding soak (clients hanging up
# mid-stream must cancel the walk, leak nothing and never feed the
# breaker) all exercise shared pools concurrently by design.
stream-race:
	$(GO) test -race -count=1 \
		-run 'Stream|NDJSON|SSE|Delta|Diff|JoinSplit|Gzip|Disconnect|Encode|Writer|Append' \
		./internal/stream ./internal/stream/delta ./internal/server

# A short fixed-iteration run of the enumeration benchmarks: fast enough
# for CI, long enough to expose gross regressions (the kernel-table path
# runs the 10x10 space in ~1.6 ms; the old per-point path took ~106 ms).
bench:
	$(GO) test ./internal/cluster -run '^$$' \
		-bench 'BenchmarkEnumerate10x10|BenchmarkEnumerateStreaming10x10' \
		-benchmem -benchtime=100x

# The generic N-type enumeration paths on the tri-cluster space
# (384,344 points): serial materialization, domination-pruned, streaming
# frontier, the production pruned+parallel-frontier path that must
# stay ≥20× under the seed serial numbers (see README Performance), a
# warm table's candidate-set frontier at varying work sizes, and each
# shard's range walk at n = 4 and n = 7 (the per-shard balance); plus a
# warm two-type table's candidate-set frontier on the 10x10 ep space.
bench-generic:
	$(GO) test ./internal/cluster -run '^$$' \
		-bench 'Benchmark(EnumerateGroups(Serial|Pruned|Parallel|Frontier)|GenericTableFrontier(Warm|Shard)|TableFrontierWarm)' \
		-benchmem -benchtime=3x

# Throughput gate for the daemon's cached predict path below the HTTP
# handler (predictBytes: ~0.8 µs and 3 allocs/op warm vs ~34 µs cold;
# see README Performance). The handler's warm-hit cost is
# BenchmarkWarmPredictSteadyState (bench-fit) and the perfbench
# server.handler_p50_us.predict_hit / server.allocs_per_predict_hit.
bench-server:
	$(GO) test ./internal/server -run '^$$' \
		-bench 'BenchmarkServePredictCached|BenchmarkServePredictCold' \
		-benchmem -benchtime=1000x

# Amortization gate for /v1/batch and the compiled-table LRU: one warm
# 64-item batch must stay ≥5x cheaper than 64 sequential /v1/predict
# round trips, and a warm-table generic enumeration must beat the
# cold-table build. Baselines recorded in BENCH_serving.json.
bench-batch:
	$(GO) test ./internal/server -run '^$$' \
		-bench 'Benchmark(Batch64WarmPredicts|Sequential64WarmPredicts|GenericColdTable|GenericWarmTable)' \
		-benchmem -benchtime=1000x

# Fleet-mode scatter-gather: the ≥3x cold-speedup gate (enforced on
# hosts with ≥4 CPUs; it skips below that, where the four shard walks
# cannot run in parallel) plus fixed-iteration fan-out benchmarks,
# including the slow-replica pair whose hedged/no-hedge gap is the
# tail-latency win hedging buys. Baselines in BENCH_serving.json.
bench-fleet:
	HETEROMIX_FLEET_GATE=1 $(GO) test ./internal/server -count=1 \
		-run 'TestFleetColdSpeedupGate' -v
	$(GO) test ./internal/server -run '^$$' \
		-bench 'BenchmarkFleet(Enumerate(1Shard|4Shards)|SlowReplica(Hedged|NoHedge))' \
		-benchmem -benchtime=3x

# Calibration gates: refit latency through the HTTP handler (the full
# validate + drift + least-squares + bump + sweep loop) and the cost a
# profile bump extracts from the first warm predict after it, read
# against the steady-state warm baseline. Baselines in
# BENCH_serving.json.
bench-fit:
	$(GO) test ./internal/server -run '^$$' \
		-bench 'BenchmarkFitRefit|BenchmarkWarmPredict(SteadyState|AfterBump)' \
		-benchmem -benchtime=200x

# Cold-start elimination gates: a -preheat restart must reach its first
# answers (one predict plus the tri-cluster frontier walk) ≥4x faster
# than a no-snapshot restart, the preheated first predict must beat the
# cold one ≥4x and land within 3x of a steady-state warm hit; plus the
# fixed-iteration restart benchmarks. Baselines in BENCH_serving.json.
bench-preheat:
	HETEROMIX_PREHEAT_GATE=1 $(GO) test ./internal/server -count=1 \
		-run 'TestPreheatSpeedupGate' -v
	$(GO) test ./internal/server -run '^$$' \
		-bench 'BenchmarkColdStart(NoSnapshot|Preheated)' \
		-benchmem -benchtime=20x

# Streaming wire-protocol gates: the O(frontier)-not-O(space) allocation
# claim on the streamed 384k-point walk, the >= 5x time-to-first-point
# win over the buffered response on the same walk, plus fixed-iteration
# row-throughput and gzip-pooling benchmarks, and a repeated buffered
# frontier answer, computed fresh from a warm candidate set every time.
# The buffered 20k-row walk runs at -cpu 1: its 7.8 MB row buffer goes
# back to the releasing P's private sync.Pool slot, which a request on
# another P cannot take, so with two Ps its B/op turned on scheduling
# (7.8 or 21.7 MB). Baselines in BENCH_serving.json.
bench-stream:
	HETEROMIX_STREAM_GATE=1 $(GO) test ./internal/server -count=1 \
		-run 'TestStreamAllocGate|TestStreamTTFPGate' -v
	$(GO) test ./internal/server -run '^$$' \
		-bench 'Benchmark(Stream(GenericFrontier|Enumerate20k|DeltaReQuery)|BufferedGenericFrontier|Gzip(Pooled|Cold)Writer|FrontierFresh(Generic|TwoType))' \
		-benchmem -benchtime=3x
	$(GO) test ./internal/server -run '^$$' \
		-bench '^BenchmarkBufferedEnumerate20k$$' -benchmem -benchtime=3x -cpu 1

# Runs bench-generic and bench-stream and compares their figures with
# the records marked "gated" in BENCH_serving.json (cmd/benchcheck): a
# gated record's allocs/op and B/op must stay within 5% of it in either
# direction, so a stale record fails like a regression, and every gated
# record must have a run, so a renamed or dropped benchmark fails too;
# ns/op is printed beside its record, not gated (cmd/benchcheck's
# tolerance says why 5%). After a change meant to move them, re-record
# B/op and allocs/op from the saved output of a few runs with
# `go run ./cmd/benchcheck -update <outputs>`.
bench-check:
	@mkdir -p .bench_build
	@$(MAKE) --no-print-directory bench-generic bench-stream > .bench_build/bench-check.txt 2>&1 || { cat .bench_build/bench-check.txt; exit 1; }
	$(GO) run ./cmd/benchcheck .bench_build/bench-check.txt

ci: vet fmt build perfbench-build race server-race fleet-race calib-race fleet-heal chaos stream-race bench bench-server bench-batch bench-fleet bench-fit bench-preheat bench-check
