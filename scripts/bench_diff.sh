#!/usr/bin/env bash
# A/B comparison of the end-to-end benchmark (perfbench/run.py) between a
# base commit and the current checkout, measured in one session.
#
# The base commit's files are exported with `git archive` into a fresh
# temporary directory (the committed files only, as a benchmark checkout
# sees them; nothing is registered in this repository's .git, so an
# interrupted run leaves nothing behind there). Both trees build their own
# .bench_build. Runs are interleaved pair by pair: pair i runs every
# workload once on each side with seed i, and odd pairs run the base first,
# even pairs the change first, so drift in the host's speed lands on both
# sides alike.
#
# For every metric BENCHMARK.json lists as end-to-end it then prints, per
# workload: the median and quartiles of each side, the relative quartile
# spread (IQR / median), the change in the median, the number of pairs in
# which the change did better, and a verdict against the metric's bound:
#   ok          the median moved by less than the bound in the bad direction
#   WORSE       the median got worse by more than the bound
#   unresolved  the base's own spread exceeds the bound, so a move of the
#               bound's size cannot be told from noise at this pair count
# With -t 1 the runs report the per-layer metrics instead, which are
# printed the same way without a verdict (they carry no bounds).
#
# Usage: scripts/bench_diff.sh [-b BASE] [-n PAIRS] [-s SECONDS]
#                              [-w WORKLOADS] [-t 0|1] [-o OUTDIR]
#   -b  base commit (default HEAD~1; use HEAD to compare uncommitted work)
#   -n  number of interleaved pairs (default 10)
#   -s  seconds per run, passed to run.py --seconds (default 10)
#   -w  comma-separated workloads (default: all in BENCHMARK.json)
#   -t  run.py --trace value (default 0)
#   -o  directory for the per-run JSON results
#       (default .bench_out/diff-<time>)
# Re-printing the tables from an earlier run's results:
#   scripts/bench_diff.sh -r OUTDIR
set -euo pipefail
cd "$(dirname "$0")/.."
ROOT="$(pwd)"

BASE="HEAD~1"
PAIRS=10
SECONDS_PER_RUN=10
WORKLOADS=""
TRACE=0
OUT=""
REPORT_ONLY=""
while getopts "b:n:s:w:t:o:r:" opt; do
  case "$opt" in
    b) BASE="$OPTARG" ;;
    n) PAIRS="$OPTARG" ;;
    s) SECONDS_PER_RUN="$OPTARG" ;;
    w) WORKLOADS="$OPTARG" ;;
    t) TRACE="$OPTARG" ;;
    o) OUT="$OPTARG" ;;
    r) REPORT_ONLY="$OPTARG" ;;
    *) sed -n '2,38p' "$0" >&2; exit 2 ;;
  esac
done

report() {
  python3 - "$ROOT/BENCHMARK.json" "$1" <<'EOF'
import glob, json, os, re, statistics, sys

bench = json.load(open(sys.argv[1]))
out_dir = sys.argv[2]
runs = {}  # (workload, side, pair) -> metrics dict
failures = []
for path in sorted(glob.glob(os.path.join(out_dir, "*.json"))):
    m = re.match(r"(.+)\.(base|change)\.(\d+)\.json$", os.path.basename(path))
    if not m:
        continue
    try:
        res = json.load(open(path))
    except ValueError:
        failures.append(os.path.basename(path))
        continue
    if not res.get("correct", False):
        failures.append(os.path.basename(path) + " (correctness check failed)")
    runs[(m.group(1), m.group(2), int(m.group(3)))] = {
        k: v["value"] for k, v in res.get("metrics", {}).items()}

def quartiles(xs):
    xs = sorted(xs)
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[1], q[2]

def rel(a, b):
    return (a - b) / abs(b) if b else 0.0

# --trace 1 runs report the per-layer metrics (process.threads among them).
trace = any("process.threads" in m for m in runs.values())
metrics = bench["per_layer"] if trace else bench["end_to_end"]
workloads = sorted({w for (w, _, _) in runs})
print(f"results: {out_dir}")
for w in workloads:
    pairs = sorted({p for (ww, s, p) in runs if ww == w and s == "base"} &
                   {p for (ww, s, p) in runs if ww == w and s == "change"})
    print(f"\n== {w}: {len(pairs)} pairs ==")
    print(f"{'metric':34} {'base median [q1,q3]':>30} {'spread':>7} "
          f"{'change median [q1,q3]':>30} {'spread':>7} {'delta':>8} "
          f"{'better':>6}  verdict")
    for spec in metrics:
        name = spec["name"]
        b = [runs[(w, "base", p)][name] for p in pairs if name in runs[(w, "base", p)]]
        c = [runs[(w, "change", p)][name] for p in pairs if name in runs[(w, "change", p)]]
        if not b or not c:
            continue
        bq, cq = quartiles(b), quartiles(c)
        b_spread = (bq[2] - bq[0]) / abs(bq[1]) if bq[1] else 0.0
        c_spread = (cq[2] - cq[0]) / abs(cq[1]) if cq[1] else 0.0
        delta = rel(cq[1], bq[1])
        higher = spec["better"] == "higher"
        worse = -delta if higher else delta
        better = sum(1 for p in pairs
                     if name in runs[(w, "base", p)] and name in runs[(w, "change", p)]
                     and ((runs[(w, "change", p)][name] > runs[(w, "base", p)][name])
                          if higher else
                          (runs[(w, "change", p)][name] < runs[(w, "base", p)][name])))
        verdict = ""
        if "bound" in spec:
            if worse > spec["bound"]:
                verdict = f"WORSE (bound {spec['bound']:.0%})"
            elif b_spread > spec["bound"]:
                verdict = f"unresolved (base spread > bound {spec['bound']:.0%})"
            else:
                verdict = f"ok (bound {spec['bound']:.0%})"
        fmt = lambda q: f"{q[1]:.4g} [{q[0]:.4g},{q[2]:.4g}]"
        print(f"{name:34} {fmt(bq):>30} {b_spread:>7.1%} {fmt(cq):>30} "
              f"{c_spread:>7.1%} {delta:>+8.1%} {better:>3}/{len(pairs):<2}  {verdict}")
if failures:
    print("\nruns without a usable result:")
    for f in failures:
        print("  " + f)
EOF
}

if [[ -n "$REPORT_ONLY" ]]; then
  report "$REPORT_ONLY"
  exit 0
fi

if [[ -z "$WORKLOADS" ]]; then
  WORKLOADS="$(python3 -c 'import json; print(",".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"
fi
IFS=, read -r -a WORKLOAD_LIST <<<"$WORKLOADS"
OUT="${OUT:-$ROOT/.bench_out/diff-$(date +%Y%m%d-%H%M%S)}"
mkdir -p "$OUT"

BASE_SHA="$(git rev-parse --verify "$BASE^{commit}")"
BASE_DIR="$(mktemp -d "${TMPDIR:-/tmp}/bench_diff.XXXXXX")"
trap 'rm -rf "$BASE_DIR"' EXIT
git archive "$BASE_SHA" | tar -x -C "$BASE_DIR"
echo "base   $BASE_SHA in $BASE_DIR" >&2
echo "change $ROOT (working tree)" >&2
echo "results in $OUT" >&2

# run SIDE DIR WORKLOAD SEED SECONDS FILE [RUN.PY ARGS...]: one run.py
# call; its stdout goes to FILE's .log twin and its last line (the JSON
# result) to FILE; build output and progress go to build.log.
run() {
  local side="$1" dir="$2" workload="$3" seed="$4" seconds="$5" file="$6"
  shift 6
  local log="${file%.json}.log"
  local status=0
  (cd "$dir" && python3 perfbench/run.py --workload "$workload" \
     --seed "$seed" --seconds "$seconds" --trace "$TRACE" "$@") >"$log" \
     2>>"$OUT/build.log" || status=$?
  tail -n 1 "$log" >"$file" || true
  echo "  $side $workload seed $seed: exit $status" >&2
}

# Warm-up: builds both trees (a tiny run), outside the measured pairs.
for side in base change; do
  dir="$BASE_DIR"; [[ "$side" == change ]] && dir="$ROOT"
  run "$side" "$dir" "${WORKLOAD_LIST[0]}" 0 1 "$OUT/warmup.$side.json" \
    --scale tiny
done

for ((pair = 1; pair <= PAIRS; pair++)); do
  if ((pair % 2 == 1)); then order=(base change); else order=(change base); fi
  for workload in "${WORKLOAD_LIST[@]}"; do
    for side in "${order[@]}"; do
      dir="$BASE_DIR"; [[ "$side" == change ]] && dir="$ROOT"
      run "$side" "$dir" "$workload" "$pair" "$SECONDS_PER_RUN" \
        "$OUT/${workload}.${side}.${pair}.json"
    done
  done
done

report "$OUT"
