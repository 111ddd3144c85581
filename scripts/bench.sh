#!/usr/bin/env bash
# bench.sh — the benchmark regression harness.
#
# Runs the perf-critical benchmarks (trace replay, trace compilation, the
# TOSS pipeline build) plus the end-to-end `tossctl all` suite serially and
# in parallel, and emits BENCH_experiments.json. CI uploads the file as an
# artifact per run; compare it against the checked-in copy at the repo root
# to spot regressions.
#
# Usage: scripts/bench.sh [output.json]
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_experiments.json}"
workers="$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 4)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

echo "== micro-benchmarks ==" >&2
# ClusterRun is the event core's headline: a ~1M-invocation streamed fleet
# day per op; benchjson derives cluster_invocations_per_second and
# cluster_allocs_per_invocation from its line. MigrationEngine drives the
# N-tier migration daemon over a drifting working set; benchjson hoists its
# migrations/s metric into the suite block as migrations_per_second.
# AlertEngine drives the virtual-time alert engine over a mixed rule set;
# benchjson hoists its evals/s metric as alerts_evaluations_per_second.
# RestoreTieredRun is the serving hot path: a tiered restore of a 1 GiB
# guest plus one replay. The Lazy/MathRand pairs price internal/lazyrand
# against math/rand: seeding plus ten draws, and steady-state draws.
# ProfileCatalog (DAMON's Step II sampling of the catalog's 40 truths) and
# SnapshotRoundTrip (Step IV's checksum and file round trip, in ns per
# page) time the two layers that dominate perfbench's build workload.
go test -run='^$' -bench='TraceReplay|RestoreTieredRun|TraceCompile|BuildPagerank|SuiteSubset|ClusterRun|MigrationEngine|AlertEngine|Lazy|MathRand|ProfileCatalog|SnapshotRoundTrip' -benchmem \
    ./internal/microvm/ ./internal/workload/ ./internal/experiments/ ./internal/cluster/ ./internal/migrate/ ./internal/insight/ ./internal/lazyrand/ \
    ./internal/damon/ ./internal/snapshot/ | tee "$tmp/bench.txt" >&2

echo "== suite wall-clock ==" >&2
go build -o "$tmp/tossctl" ./cmd/tossctl

serial_start=$(date +%s.%N)
"$tmp/tossctl" -parallel 1 all > "$tmp/serial.txt"
serial_end=$(date +%s.%N)
serial=$(echo "$serial_end $serial_start" | awk '{printf "%.2f", $1 - $2}')

par_start=$(date +%s.%N)
"$tmp/tossctl" -parallel "$workers" all > "$tmp/parallel.txt"
par_end=$(date +%s.%N)
par=$(echo "$par_end $par_start" | awk '{printf "%.2f", $1 - $2}')

if ! cmp -s "$tmp/serial.txt" "$tmp/parallel.txt"; then
    echo "FATAL: tossctl all output differs between -parallel 1 and -parallel $workers" >&2
    exit 1
fi
echo "serial ${serial}s, parallel(${workers}) ${par}s, outputs byte-identical" >&2

# Per-experiment wall-clock of every ext experiment (ext8 doubles as the
# fault machinery's end-to-end cost benchmark; ext9 times the cluster
# simulator end to end, profiling plus the full fleet x router x arrival
# ladder sweep).
ext_flags=()
for id in $("$tmp/tossctl" list | grep '^ext'); do
    t_start=$(date +%s.%N)
    "$tmp/tossctl" -parallel 1 "$id" > /dev/null
    t_end=$(date +%s.%N)
    secs=$(echo "$t_end $t_start" | awk '{printf "%.2f", $1 - $2}')
    echo "$id ${secs}s" >&2
    ext_flags+=(-ext "$id=$secs")
done

# Fleet observability export cost: ext9 again with the attribution dump and
# the fleet decision log on — the delta against the bare ext9 time above is
# what full explainability costs end to end.
fo_start=$(date +%s.%N)
"$tmp/tossctl" -parallel 1 -xray "$tmp/fleet-xray.json" -fleetlog "$tmp/fleet.jsonl" ext9 > /dev/null 2>&1
fo_end=$(date +%s.%N)
fleetobs=$(echo "$fo_end $fo_start" | awk '{printf "%.2f", $1 - $2}')
echo "ext9 with -xray/-fleetlog ${fleetobs}s" >&2

# Insight export cost: ext11 again with the alert log and insight dump on —
# the delta against the bare ext11 time above is what alert evaluation and
# the series store cost end to end.
in_start=$(date +%s.%N)
"$tmp/tossctl" -parallel 1 -alerts "$tmp/alerts.txt" -insight "$tmp/insight.json" ext11 > /dev/null 2>&1
in_end=$(date +%s.%N)
insight=$(echo "$in_end $in_start" | awk '{printf "%.2f", $1 - $2}')
echo "ext11 with -alerts/-insight ${insight}s" >&2

go run ./scripts/benchjson -serial "$serial" -parallel "$par" -workers "$workers" \
    -fleetobs "$fleetobs" -insight "$insight" "${ext_flags[@]}" < "$tmp/bench.txt" > "$out"
echo "wrote $out" >&2

# Run-to-run regression diff against the checked-in baseline: warn-only (CI
# machines vary); pass -fail in a gating context.
if [ -f BENCH_experiments.json ] && [ "$out" != BENCH_experiments.json ]; then
    echo "== diff vs checked-in baseline (warn-only, 25% threshold) ==" >&2
    "$tmp/tossctl" report BENCH_experiments.json "$out" >&2 || true
fi
