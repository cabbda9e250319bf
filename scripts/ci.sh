#!/bin/sh
# ci.sh — the one-command pre-merge gate.
#
# Runs the full verification chain from a clean checkout:
#
#   build      go build ./...
#   vet        go vet ./..., then GOARCH=arm64 go vet ./... so the portable
#              fallbacks of the amd64 assembly kernels keep compiling
#   lint       ferret-lint, all seven analyzers (layering, atomicfield,
#              poolescape, floatcmp, errclose, ctxfirst, noalloc)
#   test       go test ./...
#   race       go test -race ./...
#   lint-test  go test -race ./internal/lint — the analyzer suite's own
#              tests explicitly under the race detector
#   torture    crash-torture suites under -race: the kvstore fault matrix
#              plus the engine-level suite driving the same faults through
#              the segmented ingest pipeline (seal, merge, checkpoint).
#              Seed printed on failure; rerun one scenario with
#              FERRET_TORTURE_SEED=<seed>
#   bench-smoke  one iteration of every filter, rank, select-kernel and
#              sketch-build microbenchmark (internal/core, internal/sketch),
#              so their guards — an index-served descent with no fallback,
#              the four-sealed-segments-plus-tail image corpus, build-kernel
#              sketches equal to the scalar loop's — cannot bit-rot;
#              the filter, rank and lower-bound set runs at -cpu 1,2, so
#              both the caller-only path and the path that shares a query's
#              stages with an idle helper run, and so does BenchmarkReopen
#              (Open of a closed store of the image and shape corpora,
#              whose sketches it rebuilds); times are not checked
#
# Performance is not a step: `go test ./...` smoke-runs benchmark/, and a
# performance claim is measured with `make bench-pairs` (parent vs change,
# alternating, on this machine).
#
# Every step must pass; the script stops at the first failure. CI systems
# should invoke exactly this script so the local and remote gates cannot
# drift.
set -eu

cd "$(dirname "$0")/.."

exec make ci
