#!/usr/bin/env bash
# bench.sh — run the tracked benchmark families and record the results.
#
# Usage: scripts/bench.sh [-short] output.json
#
# Runs the simulator-engine, system-construction, stack-distance, prediction-service,
# resilient-client, cluster-serving, sweep/budget-optimization,
# request-path constant (catalog lookup, priced design space) and
# reproduction measurement-layer (characterization, per-CPU stack
# distances, sharing and its streamed accumulator, the streamed validation
# matrix) benchmark families with -benchtime=1x -count=3 (best-of-3 per
# benchmark; the families that need more iterations say so below) and
# writes a JSON array of {name, ns_op, allocs_op}. The output path comes from the argument,
# else $BENCH_OUT; there is no default, so a run never overwrites a
# tracked BENCH_*.json snapshot by accident. -short drops to -count=1: the
# CI smoke mode that only proves the benchmarks still compile and run.
set -euo pipefail
cd "$(dirname "$0")/.."

count=3
out=${BENCH_OUT:-}
for arg in "$@"; do
  case "$arg" in
    -short) count=1 ;;
    *) out=$arg ;;
  esac
done
if [ -z "$out" ]; then
  echo "usage: scripts/bench.sh [-short] output.json (or set BENCH_OUT)" >&2
  exit 2
fi

pattern='^(BenchmarkSimulate|BenchmarkNewSystem|BenchmarkRun|BenchmarkStreamRun|BenchmarkAccessCacheHit|BenchmarkTouch|BenchmarkServe|BenchmarkClient|BenchmarkCluster|BenchmarkOptimizeBudgets|BenchmarkBudgetSweepBrute)'
raw=$(mktemp)
trap 'rm -f "$raw"' EXIT

for pkg in ./internal/sim/backend ./internal/stackdist ./internal/server ./internal/cost; do
  go test "$pkg" -run '^$' -bench "$pattern" -benchtime=1x -count="$count" -benchmem | tee -a "$raw"
done

# The client and cluster benches cross real TCP sockets, where a single
# iteration mostly measures scheduler and connection-state noise; give
# them enough iterations that ns/op is a steady-state average (the
# forwarded-hit vs local-hit ratio is meaningless otherwise).
for pkg in ./internal/client ./internal/cluster; do
  go test "$pkg" -run '^$' -bench "$pattern" -benchtime=50x -count="$count" -benchmem | tee -a "$raw"
done

# Work every request used to redo: the catalog lookup and the budget
# search's priced design space (its one-off build and the memo probe each
# later search pays). A single iteration of the lookup or the probe is
# tens to hundreds of nanoseconds, below the timer's resolution, so run
# enough of them for a steady-state mean.
go test ./internal/machine -run '^$' -bench '^BenchmarkByName$' -benchtime=100000x -count="$count" -benchmem | tee -a "$raw"
go test ./internal/cost -run '^$' -bench '^BenchmarkPricedSpace$' -benchtime=500x -count="$count" -benchmem | tee -a "$raw"

# The reproduction's measurement layers: one iteration is a cold call
# whose chunk buffers, hash tables and trees are all first-touch
# allocations, so run a few and report the mean.
go test ./internal/workloads -run '^$' -bench '^(BenchmarkCharacterizeLines|BenchmarkCharacterizeRadix|BenchmarkAnalyzeStreams)$' -benchtime=3x -count="$count" -benchmem | tee -a "$raw"
# BenchmarkSharingAccumulator is BenchmarkMeasureSharing's streamed
# counterpart; the pair measures what the order buffer costs.
# BenchmarkValidationMatrix is the reproduction's whole simulated side (12
# streamed passes), where the in-flight buffers of every layer add up.
go test ./internal/experiments -run '^$' -bench '^(BenchmarkMeasureSharing|BenchmarkSharingAccumulator|BenchmarkValidationMatrix)$' -benchtime=3x -count="$count" -benchmem | tee -a "$raw"

# Parallel benchmarks additionally run at fixed -cpu points so per-core
# scaling is comparable across BENCH_*.json snapshots from different
# hosts; their names keep the -N GOMAXPROCS label (the awk below strips
# it only from serial benchmarks).
go test ./internal/server -run '^$' -bench 'Parallel$' -benchtime=1x -count="$count" -cpu 1,2,4 -benchmem | tee -a "$raw"

awk -v out="$out" '
/^Benchmark/ {
    name = $1
    if (name !~ /Parallel/)
        sub(/-[0-9]+$/, "", name)   # strip the GOMAXPROCS suffix from serial benches
    ns = ""; al = ""
    for (i = 2; i <= NF; i++) {
        if ($i == "ns/op")     ns = $(i - 1)
        if ($i == "allocs/op") al = $(i - 1)
    }
    if (ns == "") next
    if (!(name in best)) order[++n] = name
    if (!(name in best) || ns + 0 < best[name]) {
        best[name] = ns + 0
        allocs[name] = al + 0
    }
}
END {
    printf "[\n" > out
    for (i = 1; i <= n; i++) {
        name = order[i]
        printf "  {\"name\": \"%s\", \"ns_op\": %d, \"allocs_op\": %d}%s\n", \
            name, best[name], allocs[name], (i < n ? "," : "") > out
    }
    printf "]\n" > out
}' "$raw"

echo "wrote $out ($(grep -c '"name"' "$out") benchmarks, best of $count)"
