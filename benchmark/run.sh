#!/usr/bin/env bash
# The driver's entry point: build the harness from the checkout's source with
# every build output (Go's cache included) inside the checkout, then run it.
# Arguments pass through: --workload NAME --seed N --seconds N --trace 0|1.
set -euo pipefail
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache" GOTOOLCHAIN=local
go build -o .bench_build/benchmark ./benchmark
exec .bench_build/benchmark "$@"
