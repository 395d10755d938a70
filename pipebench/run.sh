#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash pipebench/run.sh --workload repro --seed 1 --seconds 20 --trace 0
#
# Build output, the Go build cache included, stays under .bench_build.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off
(cd pipebench && go build -o "$build/pipebench" .)
exec "$build/pipebench" "$@"
