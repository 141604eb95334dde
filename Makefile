# Tier-1+ gate for the thoth reproduction. `make ci` is what a change
# must pass before merging; individual targets exist for quick local
# loops.

GO ?= go
SWEEP_SEEDS ?= 200
FUZZTIME ?= 10s
TRACE_FILE ?= /tmp/thoth-trace-smoke.jsonl
FLIGHT_DIR ?= /tmp/thoth-flight-smoke

.PHONY: ci fmt vet build test race bench-mod crashfuzz scheme-diff parallel-diff pool-diff trace-smoke metrics-smoke load-smoke obs-smoke bench-alloc bench-json fuzz-smoke fuzz-parallel-smoke sweep-1000

ci: fmt vet build test race bench-mod crashfuzz scheme-diff parallel-diff pool-diff trace-smoke metrics-smoke load-smoke obs-smoke bench-alloc bench-json

# Formatting gate: fails, listing the files, when gofmt would rewrite
# any Go file.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...
	$(GO) test -race -count=10 -run TestPoolConcurrentClients .

# The repository benchmark is its own module (bench/go.mod), so the
# root build never compiles it: vet it and run its short tests against
# the working tree, with no workspace file and no module downloads.
bench-mod:
	cd bench && GOWORK=off GOPROXY=off $(GO) vet ./...
	cd bench && GOWORK=off GOPROXY=off $(GO) test -short ./...

# Randomized crash-injection sweep (deterministic per seed; failures
# print `crashfuzz.Replay(seed)` for one-line reproduction).
crashfuzz:
	$(GO) run ./cmd/crashfuzz -seeds $(SWEEP_SEEDS)

# Cross-scheme differential: (1) the no-op-refactor gate replays 50
# seeds against golden image/stats/recovery hashes committed before the
# PersistScheme extraction — the interface dispatch must stay
# byte-identical; (2) every seeded crash scenario is re-run with the
# triad-relaxed scheme cross-checked against both Thoth eviction
# policies (recovery must produce the exact acknowledged plaintext even
# with the persisted tree region stale); (3) the scheme-zoo comparison
# asserts triad persists measurably fewer tree-node writes than the
# strict baseline.
scheme-diff:
	$(GO) test ./internal/crashfuzz -run TestSchemeRefactorGolden -count=1
	$(GO) run ./cmd/crashfuzz -seeds $(SWEEP_SEEDS) -schemes thoth-wtsc,thoth-wtbc,triad-relaxed-8
	$(GO) test ./internal/harness -run 'TestSchemeZoo' -count=1

# Serial-vs-parallel recovery differential: 200 seeded crash images,
# each recovered with the serial engine and RecoverParallel at Workers
# in {1,2,4,8}; device bytes, report counters and error sentinels must
# all agree (also runs inside the plain test/race lanes).
parallel-diff:
	$(GO) test ./internal/recovery -run TestParallelRecoveryDifferential -count=1

# Sharded-pool differential: (1) the routing property tests (every
# block maps to exactly one shard, no metadata group straddles a shard
# boundary, one shard routes by the identity map); (2) the
# crash-any-subset-of-shards sweep — each seed's trace runs through a
# pool of 2/4/8/16 controllers, a seed-derived shard subset crashes,
# every crashed shard recovers in parallel, and the merged image must
# match both the plaintext oracle and a single-controller run; (3) the
# root-level Pool API suite (a one-shard pool, which is what a System
# is, byte-identical to a bare controller; concurrent clients;
# crash-subset recovery; stats pooling). The race lane runs the
# lock-discipline hammer ten times. The engine suite also makes one
# shard's service panic and requires an error, never a hang.
pool-diff:
	$(GO) test ./internal/engine -count=1
	$(GO) run ./cmd/crashfuzz -seeds $(SWEEP_SEEDS) -shards mixed
	$(GO) test . -run TestPool -count=1

# Trace a quick workload and validate the emitted JSONL event stream
# against the schema (cmd/tracecheck exits non-zero on any violation).
trace-smoke:
	$(GO) run ./cmd/thothsim -workload btree -warmup 200 -txs 600 -setup 1024 -pub 256 -trace $(TRACE_FILE)
	$(GO) run ./cmd/tracecheck $(TRACE_FILE)

# End-to-end smoke of the live observability stack: the serve-mode
# golden /metrics scrape (validated Prometheus exposition), the /statsz
# and /debug endpoints, the serve-vs-replay differential, and the
# tracemetrics CLI replay differential.
metrics-smoke:
	$(GO) test ./cmd/thothsim -run 'TestServe|TestRunServe' -count=1
	$(GO) test ./cmd/tracemetrics -count=1

# Open-loop load generator gate: the statistical property tests (KS on
# Poisson inter-arrivals, chi-squared on zipf draws), the event-stream
# and scenario-report goldens, the closed-loop and crash-under-load
# differentials, the CLI golden, and the acceptance run itself — a
# 1000-tenant bursty scenario over a 4-shard pool with every histogram
# percentile checked against the exact trace recomputation.
load-smoke:
	$(GO) test ./internal/loadgen -count=1
	$(GO) test ./cmd/thothsim -run 'TestLoad|TestServeLoad|TestRunServeLoad' -count=1
	$(GO) run ./cmd/thothsim load -scenario burst -tenants 1000 -shards 4 -check

# Tail-latency anatomy gate: the per-op attribution conservation sweep
# (200 seeded machines, controller and pool, stage cycles must sum to
# each op's latency), the flight-recorder suite (always-on, race-hammered,
# JSONL round-trip, FromTracer replay), the /timeseries golden, and an
# end-to-end crash whose flight dump must validate under tracecheck.
obs-smoke:
	$(GO) test ./internal/obs -count=1
	$(GO) test ./internal/core -run TestFlight -count=1
	$(GO) test ./internal/loadgen -run TestAttribution -count=1
	$(GO) test ./cmd/thothsim -run TestServeTimeseriesGolden -count=1
	rm -rf $(FLIGHT_DIR)
	$(GO) run ./cmd/thothsim -workload btree -warmup 200 -txs 600 -setup 1024 -pub 256 -crash -flight $(FLIGHT_DIR)
	$(GO) run ./cmd/tracecheck $(FLIGHT_DIR)/flight.jsonl

# Prove the zero-allocation hot paths stay that way: the disabled-tracer
# emit, the steady-state secure read, histogram Observe, the
# tracer-to-metrics adapter, the span-attribution charge path (enabled
# AND nil-span disabled) and the flight recorder's Emit must all report
# 0 allocs/op (the matching Test*ZeroAlloc funcs assert the 0; the
# benchmarks report it). Serial recovery must allocate the same at 25%
# and 95% PUB fill: nothing per replayed entry. A tree-node hash, a
# steady-state tree update, node write-back and root read, a
# single-block timed pool write or read (attributed or not), and a
# 64-block System.PersistBatch, allocate nothing either.
bench-alloc:
	$(GO) test . -run TestPersistBatchZeroAlloc -count=1
	$(GO) test ./internal/recovery -run TestRecoverZeroAllocPerEntry -count=1
	$(GO) test ./internal/bmt -run TestNodeHashZeroAlloc -count=1
	$(GO) test ./internal/engine -run TestPoolArriveZeroAlloc -count=1
	$(GO) test ./internal/core -run 'TestTracerDisabledZeroAlloc|TestReadHitZeroAlloc' -bench 'BenchmarkTracerDisabled|BenchmarkReadHit' -benchtime 10000x
	$(GO) test ./internal/metrics -run 'TestObserveZeroAlloc|TestFromTracerZeroAlloc' -bench 'BenchmarkHistogramObserve|BenchmarkFromTracer' -benchtime 100000x
	$(GO) test ./internal/loadgen -run TestGenOpZeroAlloc -bench BenchmarkGenOp -benchtime 100000x
	$(GO) test ./internal/obs -run 'TestSpanRecordZeroAlloc|TestSpanDisabledZeroAlloc|TestFlightEmitZeroAlloc' -bench BenchmarkSpanRecord -benchtime 100000x

# Benchmark-regression gate: re-measure the suite and compare against
# the committed baseline (fails on >15% ns/op or ANY allocs/op
# regression). After an intentional performance change, refresh the
# baseline with BENCH_UPDATE=1 make bench-json and commit BENCH.json.
bench-json:
ifeq ($(BENCH_UPDATE),1)
	$(GO) run ./cmd/benchjson -update BENCH.json
else
	$(GO) run ./cmd/benchjson -compare BENCH.json
endif

# Short coverage-guided fuzz session over the checked-in corpus, plus
# the word-level bit-field codec against its bit-at-a-time reference and
# the stale-mask integrity tree against its map-based reference.
fuzz-smoke:
	$(GO) test -run=NONE -fuzz=FuzzCrashRecovery -fuzztime=$(FUZZTIME) ./internal/crashfuzz
	$(GO) test -run=NONE -fuzz=FuzzBitpack -fuzztime=5s ./internal/bitpack
	$(GO) test -run=NONE -fuzz=FuzzTree -fuzztime=5s ./internal/bmt

# Same, against the serial-vs-parallel recovery differential oracle.
fuzz-parallel-smoke:
	$(GO) test -run=NONE -fuzz=FuzzParallelRecovery -fuzztime=$(FUZZTIME) ./internal/crashfuzz

# The acceptance-criteria sweep (slower; not part of `ci`).
sweep-1000:
	$(GO) run ./cmd/crashfuzz -seeds 1000
