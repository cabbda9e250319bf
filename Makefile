GO ?= go

.PHONY: all build fmt test race race-fast torture vet lint lint-test check ci bench bench-smoke bench-pairs loc clean

all: check

build:
	$(GO) build ./...

# gofmt is the formatting bar: any Go file it would rewrite fails the check.
# Dot directories are skipped (.bench_build holds other checkouts' sources).
fmt:
	@out=$$(gofmt -l $$(find . -path './.*' -prune -o -name '*.go' -print)); \
	if [ -n "$$out" ]; then echo "gofmt would rewrite:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Quick race pass over just the concurrency-heavy packages (telemetry hot
# paths and the tracer's Active, which the server hands to the engine;
# parallel query scans, the TCP server and the transactional store) for
# tight edit-compile loops; `make race` covers the whole tree.
race-fast:
	$(GO) test -race ./internal/telemetry/... ./internal/core ./internal/server ./internal/kvstore

# The crash-torture suites under the race detector: every write/sync
# boundary of a seeded workload is failed in every fault mode and recovery
# must land on exactly a committed prefix. The kvstore suite tortures the
# transactional store; the core suite drives the same fault matrix through
# the whole segmented ingest pipeline (tail seal, background merge,
# merge-time checkpoint) and additionally requires the recovered engine to
# pass the segment invariants and serve queries. A failure prints the seed
# (rerun with FERRET_TORTURE_SEED=<seed> to reproduce a single scenario).
# The checkpoint tests hold the background snapshot in a fault-filesystem
# sync: commits proceed behind it, Close joins it, a power cut after the
# new log's sync while the retired log's is stuck recovers a committed
# prefix, and the torture workload's operation sequence (rotation,
# snapshot rename, retired-log removal included) is the same on every run
# of a seed.
torture:
	$(GO) test -race -run 'TestCrashTorture|TestFsyncPoisoning|TestFreshWALSurvivesImmediatePowerCut|TestCommitsProceedDuringCheckpoint|TestCloseJoinsCheckpoint|TestRecoveryDropsLiveLogPastRetiredGap|TestProcessCrashDuringCheckpointKeepsCommits|TestTortureCoversCheckpointSteps' -v ./internal/kvstore ./internal/core

# The second pass type-checks the portable fallbacks of the amd64 kernels
# (vector, sketch), which no amd64 build compiles.
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...

# Project-specific static analysis: layering, atomicfield, poolescape,
# floatcmp, errclose, ctxfirst and the interprocedural noalloc check (see
# internal/lint and DESIGN.md §8, §13). Zero diagnostics is the bar.
lint:
	$(GO) run ./cmd/ferret-lint ./...

# The analyzer suite's own tests under the race detector: the module-wide
# analyzers memoize per-function summaries on shared Program state, so their
# tests run with -race explicitly in CI ahead of the whole-tree race pass.
lint-test:
	$(GO) test -race ./internal/lint

check: fmt build vet lint test race

# The full pre-merge gate: everything in check plus the analyzer suite's
# race-mode tests, the crash-torture suite and the microbenchmark smoke run.
# Performance is not gated here — a fixed ns/op threshold does not survive a
# change of machine; `go test ./...` smoke-runs benchmark/, and a
# performance claim is measured with `make bench-pairs`.
ci: check lint-test torture bench-smoke

bench:
	$(GO) test -bench . -benchtime 1x

# One iteration of every filter, rank and select-kernel microbenchmark, so
# their set-up guards keep running: BenchmarkFilterImage96 fails on a
# descent that fell back to the sweep, the image corpus on a layout other
# than four sealed segments and a live tail. The filter, rank and
# lower-bound set runs at -cpu 1 and 2: with no query helper and with one,
# so both the caller-only path and the fan-out path keep running. Times are
# not checked. BenchmarkReopen runs at both too: its set-up builds a closed
# store of the benchmark's image and shape corpora, and Open rebuilds their
# sketches serially and in parallel. BenchmarkIngestCheckpointCrossing fails
# on a load that wrote fewer than three checkpoints. BenchmarkBuild96Bit14D
# and BenchmarkBuild800Bit544D fail when the build kernel's sketches differ
# from the scalar loop's on their vectors.
bench-smoke:
	$(GO) test -run '^$$' -bench 'Filter|Rank|LowerBounds|Reopen' -benchtime 1x -cpu 1,2 ./internal/core
	$(GO) test -run '^$$' -bench 'TailSweep|HammingSelect|IngestCheckpointCrossing|Build' -benchtime 1x ./internal/core ./internal/sketch

# The measurement a performance claim rests on: $(BENCH_PAIRS) alternating
# parent/change runs of benchmark/run.sh per workload on seeds 1..N, every
# pair printed, then `ferret-benchmark -compare` (see scripts/bench-pairs.sh;
# ~45 minutes at ten pairs). The change side is the working tree.
BENCH_PARENT ?= HEAD~1
BENCH_PAIRS  ?= 10
bench-pairs:
	./scripts/bench-pairs.sh $(BENCH_PARENT) $(BENCH_PAIRS)

# Non-test Go lines in the packages whose size ROADMAP tracks (cmd counts
# every binary together), then the sizes of the two documents it tracks, in
# KB.
loc:
	@for p in core server protocol sketch hindex metastore kvstore object experiments lint telemetry evaltool acquire; do \
		printf 'internal/%-12s %s\n' $$p "$$(ls internal/$$p/*.go internal/$$p/*/*.go 2>/dev/null | grep -v _test.go | xargs cat | wc -l)"; \
	done
	@printf '%-21s %s\n' cmd "$$(ls cmd/*/*.go | grep -v _test.go | xargs cat | wc -l)"
	@for f in DESIGN.md EXPERIMENTS.md; do \
		printf '%-21s %s KB\n' $$f "$$(( $$(wc -c < $$f) / 1024 ))"; \
	done

clean:
	rm -rf bin
	$(GO) clean ./...
