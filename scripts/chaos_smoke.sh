#!/usr/bin/env bash
# chaos_smoke.sh — build and run the chc-chaos resilience harness under
# every profile, seed-pinned so the run is reproducible.
#
# Usage: scripts/chaos_smoke.sh [seed]
#
# One invocation runs every profile. Each fault-injection profile (none,
# latency, errors, panics, saturation, timeouts, mixed) starts one
# in-process chc-serve under its faults; the last profile, cluster,
# starts 3 in-process nodes on one ring, soaked through the multi-base
# client while one node is killed and another drained. Checked
# throughout: byte-identical cached responses (across entry nodes on the
# cluster), compute-at-most-once (cluster-wide on the cluster), one
# computation for a burst of identical cold twins, the 429 + Retry-After
# shedding contract, the JSON error contract on every non-2xx, and drain
# completing in-flight work. Non-zero exit means an invariant broke.
#
# The binary is built into a fresh temporary directory, removed on exit,
# so runs side by side (say, of two checkouts) never share one.
set -euo pipefail
cd "$(dirname "$0")/.."

seed=${1:-1}

bin=$(mktemp -d)
trap 'rm -rf "$bin"' EXIT
go build -o "$bin/chc-chaos" ./cmd/chc-chaos
"$bin/chc-chaos" -seed "$seed" -profile all -requests 400 -concurrency 8
