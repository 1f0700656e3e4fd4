#!/usr/bin/env bash
# Regenerates the committed BENCH_*.json perf-trajectory artifacts at the
# repo root:
#   BENCH_micro_kernels.json  — google-benchmark kernel timings (ns/op,
#                               items/s) from bench_micro_kernels
#   BENCH_fig8.json           — recall@50 / QPS / p99 per engine+knob from
#                               bench_fig8_recall_throughput
#   BENCH_overload_brownout.json — goodput / shed / brownout stage per
#                               offered-load multiple from bench_overload
#   BENCH_ingest.json         — acked WAL publishes/sec per publisher count,
#                               groups of one (off) vs group commit (on),
#                               from bench_ingest
#   BENCH_filtered.json       — filtered-search selectivity sweep: QPS /
#                               recall@50 per strategy vs the post-scan
#                               baseline, from bench_filtered
#   BENCH_diurnal.json        — two-day diurnal elasticity drill with a
#                               node kill at the first peak: per-hour
#                               goodput / coverage / fleet size / brownout
#                               stage plus the kill episode (detect and
#                               redundancy-restore latency), from
#                               bench_fig9_elasticity diurnal
#
# Each bench writes its artifact only when MANU_BENCH_JSON names a path
# (see bench/bench_util.h), so plain bench runs never churn the committed
# files. Numbers are machine-dependent; compare trajectories on the same
# hardware, not across machines.
#
# Usage: scripts/bench_report.sh             # build if needed, run both
#        MANU_BENCH_SCALE=4 scripts/bench_report.sh
set -euo pipefail
cd "$(dirname "$0")/.."
ROOT="$(pwd)"

JOBS="${JOBS:-$(nproc)}"

cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS" --target bench_micro_kernels \
  bench_fig8_recall_throughput bench_overload bench_ingest bench_filtered \
  bench_fig9_elasticity

echo "=== micro kernels ==="
MANU_BENCH_JSON="$ROOT/BENCH_micro_kernels.json" \
  ./build/bench/bench_micro_kernels --benchmark_min_time=0.05

echo "=== figure 8: recall vs throughput ==="
MANU_BENCH_JSON="$ROOT/BENCH_fig8.json" \
  ./build/bench/bench_fig8_recall_throughput

echo "=== overload: brownout ladder goodput ==="
MANU_BENCH_JSON="$ROOT/BENCH_overload_brownout.json" \
  ./build/bench/bench_overload

echo "=== WAL ingest: groups of one vs group commit ==="
MANU_BENCH_JSON="$ROOT/BENCH_ingest.json" \
  ./build/bench/bench_ingest

echo "=== filtered search: selectivity sweep vs post-scan ==="
MANU_BENCH_JSON="$ROOT/BENCH_filtered.json" \
  ./build/bench/bench_filtered

echo "=== diurnal drill: two-day elasticity with peak node kill ==="
MANU_BENCH_JSON="$ROOT/BENCH_diurnal.json" \
  ./build/bench/bench_fig9_elasticity diurnal

echo "=== artifacts ==="
ls -l "$ROOT"/BENCH_*.json
