#!/usr/bin/env bash
# Full verification matrix:
#   0. metrics-name lint (scripts/metrics_lint.sh)
#   1. release build, complete ctest suite (unit + e2e + chaos + perf),
#      then the end-to-end benchmark's own smoke test
#      (perfbench/smoke_test.py: recall, acked inserts and metric shape at
#      tiny sizes; about 2 min), so a default change under src/ that breaks
#      the benchmark fails here
#   2. AddressSanitizer build, ctest -LE perf (chaos suite included)
#   3. ThreadSanitizer build,  ctest -LE perf (chaos suite included)
#
# Perf-labeled tests are excluded under the sanitizers: instrumentation
# slows compute 5-20x and the perf smoke asserts wall-clock speedup bars
# that only hold on uninstrumented builds. Everything else — including the
# crash-recovery / lease-expiry chaos tests — runs under all three builds;
# the TSan leg is the data-race probe for the failover and fencing paths.
#
# Usage: scripts/check.sh            # whole matrix
#        JOBS=4 scripts/check.sh     # cap build/test parallelism
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"

echo "=== metrics-name lint ==="
scripts/metrics_lint.sh

echo "=== release: build + full test suite ==="
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"
python3 perfbench/smoke_test.py

run_sanitized() {
  local san="$1" dir="$2"
  echo "=== ${san} sanitizer: build + ctest -LE perf ==="
  cmake -B "$dir" -S . -DMANU_SANITIZE="$san" >/dev/null
  cmake --build "$dir" -j "$JOBS"
  ctest --test-dir "$dir" --output-on-failure -j "$JOBS" -LE perf
}

run_sanitized address build-asan
run_sanitized thread build-tsan

echo "=== all checks passed ==="
