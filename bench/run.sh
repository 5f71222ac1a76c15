#!/usr/bin/env bash
# Builds the benchmark from source and runs it: BENCHMARK.json's command.
#
#   bash bench/run.sh --workload ds_adhoc --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh --workload all --repeat 10        # spreads against the bounds
#
# Everything it writes stays in the checkout: the Go build cache and the
# binary under .bench_build/, traces and results.json under bench/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTMPDIR="$build/tmp"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$here" && go build -o "$build/mpfperf" ./cmd/mpfperf)
exec "$build/mpfperf" -out "$here/out" -benchmark "$root/BENCHMARK.json" "$@"
