#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark runner from
# source inside the checkout (Go build cache included, so nothing is
# written outside it) and runs it with the arguments it was given.
set -euo pipefail
cd "$(dirname "$0")/.."
export GOCACHE="$PWD/.bench_build/gocache" GOTOOLCHAIN=local
mkdir -p .bench_build/bin
(cd bench && go build -o ../.bench_build/bin/stbench-e2e .)
exec .bench_build/bin/stbench-e2e "$@"
