GO ?= go

.PHONY: all build test race race-fast torture vet lint lint-fast lint-test check ci bench bench-json check-bench bench-pairs loc clean

# Benchmark artifact plumbing. bench-json measures the filter/kernel/pipeline
# microbenchmarks plus a medium-scale ferret-bench run (Table 2, the
# closed-loop serving-throughput sweep, the Hamming-index scaling sweep, the
# mixed-ingest run and the wire-level serving sweep with the result cache
# off/on) and merges them into $(BENCH_OUT); check-bench re-measures the
# microbenchmarks and fails if a gated benchmark (filter scan, multi-query
# Hamming kernel, index probe, concurrent query pipeline with and without
# trace recording) regressed >20% ns/op vs the committed artifact, or if the
# committed scaling sweep shows the indexed filter losing to the scan, or if
# the committed serving sweep's hot-cached arm falls under 2x the uncached
# throughput.
# Micro benches run -count=$(BENCH_COUNT) and benchcmp keeps the per-metric
# minimum, so a transient load spike cannot fail (or hide) a regression.
# The EMD benchmarks ride along ungated: BenchmarkEMDImagePairs prints
# pivots/op, so a worse starting basis or pivot rule shows without a profiler.
BENCH_OUT  ?= BENCH_10.json
BENCH_TMP  ?= /tmp/ferret-bench
BENCH_PKGS  = ./internal/core ./internal/sketch ./internal/vector ./internal/emd
BENCH_RE    = FilterScan|Hamming|QueryPipeline|L1|EMD
BENCH_COUNT = 3

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Quick race pass over just the concurrency-heavy packages (telemetry hot
# paths, parallel query scans, the TCP server and the transactional store)
# for tight edit-compile loops; `make race` covers the whole tree.
race-fast:
	$(GO) test -race ./internal/telemetry ./internal/core ./internal/server ./internal/kvstore

# The crash-torture suites under the race detector: every write/sync
# boundary of a seeded workload is failed in every fault mode and recovery
# must land on exactly a committed prefix. The kvstore suite tortures the
# transactional store; the core suite drives the same fault matrix through
# the whole segmented ingest pipeline (tail seal, background merge,
# merge-time checkpoint) and additionally requires the recovered engine to
# pass the segment invariants and serve queries. A failure prints the seed
# (rerun with FERRET_TORTURE_SEED=<seed> to reproduce a single scenario).
torture:
	$(GO) test -race -run 'TestCrashTorture|TestFsyncPoisoning|TestFreshWALSurvivesImmediatePowerCut' -v ./internal/kvstore ./internal/core

vet:
	$(GO) vet ./...

# Project-specific static analysis: layering, atomicfield, poolescape,
# floatcmp, errclose, ctxfirst plus the interprocedural lockorder, lockpath
# and noalloc checks (see internal/lint and DESIGN.md §13). Zero diagnostics
# is the bar.
lint:
	$(GO) run ./cmd/ferret-lint ./...

# Edit-loop accelerator: only the analyzers whose trigger constructs appear
# in the working diff (vs $LINT_FAST_BASE, default HEAD), timed. Full `make
# lint` remains the merge gate.
lint-fast:
	./scripts/lint-fast.sh

# The analyzer suite's own tests under the race detector: the module-wide
# analyzers memoize per-function summaries on shared Program state, so their
# tests run with -race explicitly in CI ahead of the whole-tree race pass.
lint-test:
	$(GO) test -race ./internal/lint

check: build vet lint test race

# The full pre-merge gate: everything in check plus the analyzer suite's
# race-mode tests, the timed changed-package lint pass, the crash-torture
# suite and the benchmark regression guard against the committed artifact.
ci: check lint-test lint-fast torture check-bench

bench:
	$(GO) test -bench . -benchtime 1x

bench-json:
	mkdir -p $(BENCH_TMP)
	$(GO) test $(BENCH_PKGS) -run '^$$' -bench '$(BENCH_RE)' -count=$(BENCH_COUNT) -benchmem | tee $(BENCH_TMP)/micro.txt
	$(GO) run ./cmd/ferret-bench -exp table2,throughput,scaling,ingest,serving -scale medium -json $(BENCH_TMP)/pipeline.json
	$(GO) run ./cmd/ferret-benchcmp -merge -micro $(BENCH_TMP)/micro.txt \
		-pipeline $(BENCH_TMP)/pipeline.json -out $(BENCH_OUT)

check-bench:
	mkdir -p $(BENCH_TMP)
	$(GO) test $(BENCH_PKGS) -run '^$$' -bench '$(BENCH_RE)' -count=$(BENCH_COUNT) -benchmem > $(BENCH_TMP)/micro.txt
	$(GO) run ./cmd/ferret-benchcmp -merge -micro $(BENCH_TMP)/micro.txt -out $(BENCH_TMP)/new.json
	$(GO) run ./cmd/ferret-benchcmp -baseline $(BENCH_OUT) -new $(BENCH_TMP)/new.json

# The measurement a performance claim rests on: $(BENCH_PAIRS) alternating
# parent/change runs of benchmark/run.sh per workload on seeds 1..N, every
# pair printed, then `ferret-benchmark -compare` (see scripts/bench-pairs.sh;
# ~45 minutes at ten pairs). The change side is the working tree.
BENCH_PARENT ?= HEAD~1
BENCH_PAIRS  ?= 10
bench-pairs:
	./scripts/bench-pairs.sh $(BENCH_PARENT) $(BENCH_PAIRS)

# Non-test Go lines in the three packages whose size ROADMAP tracks.
loc:
	@for p in core server protocol; do \
		printf 'internal/%-9s %s\n' $$p "$$(ls internal/$$p/*.go | grep -v _test.go | xargs cat | wc -l)"; \
	done

clean:
	rm -rf bin
	$(GO) clean ./...
