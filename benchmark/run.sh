#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source inside
# the checkout (compiler cache and temp files included, under .bench_build/)
# and runs it with the arguments given. See README.md.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ] || [ ! -d internal/core ]; then
  echo "benchmark/run.sh: not inside a checkout of the repository (no go.mod / internal/core)" >&2
  exit 2
fi
mkdir -p .bench_build/tmp
# XDG_CONFIG_HOME: the go command keeps its telemetry counters and env file there.
export GOCACHE="$PWD/.bench_build/gocache" GOTMPDIR="$PWD/.bench_build/tmp" XDG_CONFIG_HOME="$PWD/.bench_build/config" GOTOOLCHAIN=local
go build -o .bench_build/ferret-benchmark ./benchmark
exec .bench_build/ferret-benchmark -dir .bench_build/data "$@"
