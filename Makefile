# Tier-1+ gate for the thoth reproduction. `make ci` is what a change
# must pass before merging; individual targets exist for quick local
# loops.

GO ?= go
SWEEP_SEEDS ?= 200
FUZZTIME ?= 10s
TRACE_FILE ?= /tmp/thoth-trace-smoke.jsonl
FLIGHT_DIR ?= /tmp/thoth-flight-smoke

.PHONY: ci fmt vet lanes build cross test race bench-mod examples crashfuzz trace-smoke metrics-smoke load-smoke obs-smoke bench-alloc bench-json fuzz-smoke sweep-1000

ci: fmt vet lanes build cross test race bench-mod examples crashfuzz trace-smoke metrics-smoke load-smoke obs-smoke bench-alloc bench-json

# Formatting gate: fails, listing the files, when gofmt would rewrite
# any Go file.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Lane-name gate: `go test -run X` passes with "no tests to run" when X
# matches no test, so a renamed or deleted test silently empties its
# lane. Every -run, -bench and -fuzz alternative in this Makefile must
# make `go test <pkg> -list <alt>` list at least one test, benchmark or
# fuzz target. `-run=NONE`, the fuzz lanes' way of running no tests, is
# the one name exempt.
lanes:
	@grep -E '^	+\$$\(GO\) test .*-(run|bench|fuzz)[ =]' $(firstword $(MAKEFILE_LIST)) | tr -d "'" | \
	awk '{ pkg = ""; for (i = 1; i <= NF; i++) if ($$i ~ /^\.(\/|$$)/) pkg = $$i; \
		for (i = 1; i <= NF; i++) { f = ""; \
			if ($$i == "-run" || $$i == "-bench" || $$i == "-fuzz") { f = $$i; v = $$(i + 1); i++ } \
			else if ($$i ~ /^-(run|bench|fuzz)=/) { f = substr($$i, 1, index($$i, "=") - 1); v = substr($$i, index($$i, "=") + 1) } \
			if (f == "") continue; \
			n = split(v, alt, "|"); \
			for (j = 1; j <= n; j++) if (!(f == "-run" && alt[j] == "NONE")) print pkg, alt[j] } }' | \
	{ fail=0; checked=0; \
	while read -r pkg alt; do \
		checked=$$((checked + 1)); \
		if ! out=$$($(GO) test $$pkg -list "$$alt" 2>&1); then echo "lanes: go test $$pkg -list $$alt failed:"; echo "$$out"; fail=1; \
		elif ! echo "$$out" | grep -qv '^ok '; then echo "lanes: no test in $$pkg matches $$alt"; fail=1; fi; \
	done; \
	if [ $$checked -eq 0 ]; then echo "lanes: found no -run, -bench or -fuzz name"; fail=1; fi; \
	[ $$fail -eq 0 ] && echo "lanes: all $$checked -run, -bench and -fuzz names match a test"; exit $$fail; }

build:
	$(GO) build ./...

# Cross-architecture gate: internal/crypt has an amd64 AES-NI pad kernel
# and SHA-NI keyed-hash kernel, with pure-Go fallbacks for every other
# architecture (pad_other.go, sha_other.go); vet and build the whole
# tree for arm64 so the fallbacks keep compiling.
cross:
	GOARCH=arm64 $(GO) vet ./...
	GOARCH=arm64 $(GO) build ./...

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

# Examples gate: run every example twice. Each must exit 0 and print
# the same bytes both times — the examples print modeled counts, which
# the seeded simulator must reproduce exactly.
examples:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	for d in examples/*/; do \
		for i in 1 2; do \
			$(GO) run ./$${d%/} > "$$tmp/$$i" || { echo "examples: $${d%/} exited non-zero"; exit 1; }; \
		done; \
		diff "$$tmp/1" "$$tmp/2" || { echo "examples: $${d%/} printed different output on two runs"; exit 1; }; \
		echo "examples: $${d%/} ok"; \
	done

# Randomized crash-injection sweep (deterministic per seed; failures
# print `crashfuzz.Replay(seed)` for one-line reproduction). Every seed
# runs its whole variant matrix: five schemes on one controller, each
# recovered serially and with 1/2/4/8 workers that must agree byte for
# byte, plus the seed's scheme on a 2/4/8/16-shard pool crashing a
# seed-derived shard subset. The test and race lanes already sweep
# seeds 1-200 (TestSweepFindsNoViolations), so this lane starts at 201.
crashfuzz:
	$(GO) run ./cmd/crashfuzz -seeds $(SWEEP_SEEDS) -start 201

# Trace a quick workload and validate the emitted JSONL event stream
# against the schema (tracemetrics exits non-zero on any violation).
trace-smoke:
	$(GO) run ./cmd/thothsim -workload btree -warmup 200 -txs 600 -setup 1024 -pub 256 -trace $(TRACE_FILE)
	$(GO) run ./cmd/tracemetrics -format summary $(TRACE_FILE)

# Metrics gate: the runner's golden Prometheus exposition (the
# event-derived families, validated by ValidateProm) and the
# tracemetrics CLI, whose replay of a trace must equal the registry the
# same run fed live.
metrics-smoke:
	$(GO) test ./internal/harness -run TestRunnerMetricsGolden -count=1
	$(GO) test ./cmd/tracemetrics -count=1

# Open-loop load generator gate: the statistical property tests (KS on
# Poisson inter-arrivals, chi-squared on zipf draws), the event-stream
# and scenario-report goldens, the closed-loop and crash-under-load
# differentials, the CLI golden, and the acceptance run itself — a
# 1000-tenant bursty scenario over a 4-shard pool with every histogram
# percentile checked against the exact trace recomputation.
load-smoke:
	$(GO) test ./internal/loadgen -count=1
	$(GO) test ./cmd/thothsim -run TestLoad -count=1
	$(GO) run ./cmd/thothsim load -scenario burst -tenants 1000 -shards 4 -check

# Tail-latency anatomy gate: the per-op attribution conservation sweep
# (200 seeded machines, controller and pool, stage cycles must sum to
# each op's latency), the flight-recorder suite (always-on, race-hammered,
# JSONL round-trip, FromTracer replay), and an end-to-end crash whose
# flight dump must validate under tracemetrics.
obs-smoke:
	$(GO) test ./internal/obs -count=1
	$(GO) test ./internal/core -run TestFlight -count=1
	$(GO) test ./internal/loadgen -run TestAttribution -count=1
	rm -rf $(FLIGHT_DIR)
	$(GO) run ./cmd/thothsim -workload btree -warmup 200 -txs 600 -setup 1024 -pub 256 -crash -flight $(FLIGHT_DIR)
	$(GO) run ./cmd/tracemetrics -format summary $(FLIGHT_DIR)/flight.jsonl

# Prove the zero-allocation hot paths stay that way: the disabled-tracer
# emit, the steady-state secure read, histogram Observe, the
# tracer-to-metrics adapter, the span-attribution charge path (enabled
# AND nil-span disabled) and the flight recorder's Emit must all report
# 0 allocs/op (the matching Test*ZeroAlloc funcs assert the 0; the
# benchmarks report it). Serial recovery must allocate the same at 25%
# and 95% PUB fill: nothing per replayed entry; parallel recovery must
# allocate well under 32 B per entry: it holds one replay window, not
# the ring. A tree-node hash, a
# steady-state tree update, node write-back and root read, a
# single-block timed pool write or read (attributed or not), and a
# 64-block System.PersistBatch, allocate nothing either. So do the
# counter-mode pads (XorPad and PadInto at 64, 128 and 256 B blocks)
# and the MAC and tree hashes, on every pad and hash path. Recovery's
# scanning goroutine, and every merge goroutine, must be gone when a
# recovery returns, panics included.
bench-alloc:
	$(GO) test ./internal/crypt -run TestEngineOpsAllocFree -count=1
	$(GO) test . -run TestPersistBatchZeroAlloc -count=1
	$(GO) test ./internal/recovery -run 'TestRecoverZeroAllocPerEntry|TestParallelRecoveryMemoryFollowsWindow|TestProducerNeverOutlivesRecovery' -count=1
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

# Short coverage-guided fuzz session over the checked-in corpus (each
# input runs its seed's whole variant matrix), plus the word-level
# bit-field codec against its bit-at-a-time reference, the stale-mask
# integrity tree against its map-based reference, the counter-mode
# pads against per-chunk crypto/aes, the keyed hashes against
# crypto/sha256, and the block-ordered PUB replay against the FIFO
# replay.
fuzz-smoke:
	$(GO) test -run=NONE -fuzz=FuzzCrashRecovery -fuzztime=$(FUZZTIME) ./internal/crashfuzz
	$(GO) test -run=NONE -fuzz=FuzzBitpack -fuzztime=5s ./internal/bitpack
	$(GO) test -run=NONE -fuzz=FuzzTree -fuzztime=5s ./internal/bmt
	$(GO) test -run=NONE -fuzz=FuzzPad -fuzztime=5s ./internal/crypt
	$(GO) test -run=NONE -fuzz=FuzzKeyedHash -fuzztime=5s ./internal/crypt
	$(GO) test -run=NONE -fuzz=FuzzReplayOrder -fuzztime=5s ./internal/recovery

# The acceptance-criteria sweep (slower; not part of `ci`).
sweep-1000:
	$(GO) run ./cmd/crashfuzz -seeds 1000
