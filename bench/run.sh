#!/usr/bin/env bash
# Builds the benchmark from source and runs it: the command of BENCHMARK.json.
# Run from the repository root; every flag goes through to the binary, e.g.
#
#   bash bench/run.sh --workload cold_scan --seed 1 --seconds 12 --trace 0
#   bash bench/run.sh -seed 1 -out a.json        (all workloads, both modes)
#
# The build cache and the binary stay inside the checkout, under .bench_build.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOTOOLCHAIN=local GOWORK=off
(cd "$root/bench" && go build -o "$build/vizq-bench" .)
cd "$root"
exec "$build/vizq-bench" "$@"
