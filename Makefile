.PHONY: build test check fmt-check bench harness parallel-bench analyze-bench robustness-bench robustness-check serving-bench adaptive-bench storage-bench durability-bench compression-bench crash-check bench-smoke perfbench-smoke

build:
	go build ./...

test:
	go test ./...

# check is the strict gate: gofmt, vet, and the full suite under the race
# detector. The parallel executor (internal/exec) is explicitly designed to be
# race-clean; run this before sending changes.
check: fmt-check
	go vet ./...
	go test -race ./...

# fmt-check fails when any Go file in the tree is not gofmt-formatted.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l reports unformatted files:"; echo "$$out"; exit 1; fi

bench:
	go test -bench=. -benchmem

harness:
	go run ./cmd/benchharness

# Serial-vs-parallel wall-clock sweep; writes BENCH_parallel.json.
parallel-bench:
	go run ./cmd/benchharness parallel

# Random query corpus under EXPLAIN ANALYZE; writes BENCH_analyze.json
# (estimate-vs-actual q-error distribution).
analyze-bench:
	go run ./cmd/benchharness analyze

# Resource-governor sweep: spill overhead under memory budgets plus
# cancellation latency; writes BENCH_robustness.json.
robustness-bench:
	go run ./cmd/benchharness robustness

# Concurrent serving sweep: exec-literal vs prepared-reoptimize vs
# prepared-cached at 1/8/64/256 sessions; writes BENCH_serving.json. E25 at
# full size.
serving-bench:
	go run ./cmd/benchharness serving

# Adaptive planning tradeoff: greedy fast path vs full DP planning and
# execution time over the short-statement corpus; writes BENCH_adaptive.json.
# E26 at full size.
adaptive-bench:
	go run ./cmd/benchharness adaptive

# Disk-backed columnar segment sweep: cold/warm scans at selectivities
# 0.001/0.1/1.0 with zone-map pruning on and off; writes BENCH_storage.json.
# E27 at full size.
storage-bench:
	go run ./cmd/benchharness storage

# Crash-consistency cost sweep: checksum verification overhead on cold/warm
# scans plus recovery and scrub time vs segment count; writes
# BENCH_durability.json. E28 at full size.
durability-bench:
	go run ./cmd/benchharness durability

# Compressed columnar sweep: dictionary/RLE encoded segments vs the
# DisableCompression control — scan+filter throughput, bytes read and block
# counts at parallelism 1/4/8; writes BENCH_compression.json. E29 at full size.
compression-bench:
	go run ./cmd/benchharness compression

# crash-check is the durability gate: every kill point of the crash matrix
# (InsertBatch, Flush, SortBy killed at each injection site and occurrence,
# including torn writes), the byte-flip corruption matrix over every region
# class, the seal error-path contract and the transient-retry policy, plus the
# recovered-engine equivalence corpus — all under the race detector at a fixed
# GOMAXPROCS. CI runs this on every push.
crash-check:
	GOMAXPROCS=4 go test -race -count=1 \
		-run 'TestCrashMatrix|TestCorruptionMatrix|TestCorruptSegment|TestSealFailure|TestTransientFaultRetry' \
		./internal/storage
	GOMAXPROCS=4 go test -race -count=1 -run 'TestRecoveredEngineEquivalence|TestEngineChecksumOptions' .

# bench-smoke is the fast perf gate: a tiny E25 serving sweep under the race
# detector (all three modes must still report identical results), a
# reduced E26 adaptive sweep under the race detector (greedy and DP arms must
# still report identical results), a reduced E27 storage sweep under the race
# detector (disk reads must be bit-identical to memory), a reduced E29
# compression sweep under the race detector (encoded blocks must decode to
# bit-identical results), and the executor suite under -race. CI runs this on every push; it finishes in well under a
# minute.
bench-smoke:
	GOMAXPROCS=4 go run -race ./cmd/benchharness serving 1000 8
	GOMAXPROCS=4 go run -race ./cmd/benchharness adaptive 40 2000
	GOMAXPROCS=4 go run -race ./cmd/benchharness storage 30000
	GOMAXPROCS=4 go run -race ./cmd/benchharness compression 30000
	go test -race -count=1 ./internal/exec/...

# Fault-injection, cancellation, spill and goroutine-leak suites under the
# race detector at a fixed GOMAXPROCS, so worker interleavings are exercised
# the same way everywhere. CI runs this in addition to `make check`.
robustness-check:
	GOMAXPROCS=4 go test -race -count=1 \
		-run 'Spill|Budget|Cancel|Deadline|Fault|Goroutine|MemAccount|FirstError|WorkerPanic|PoolClose' \
		. ./internal/exec
	GOMAXPROCS=4 go test -race -count=1 ./internal/faultfs

# perfbench-smoke vets and tests the end-to-end benchmark module (perfbench/,
# its own Go module built against this checkout), so an engine change that
# breaks the benchmark's traced run fails here rather than in a benchmark run.
perfbench-smoke:
	go -C perfbench vet ./...
	go -C perfbench test -count=1 ./...
