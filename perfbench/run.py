#!/usr/bin/env python3
"""End-to-end benchmark of the Manu reproduction: one command per run.

    python3 perfbench/run.py --workload ann_sealed --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds the benchmark (perfbench/CMakeLists.txt,
which compiles ../src) into .bench_build/perfbench, runs one workload and
passes its output through. The last stdout line is the result:

    {"correct": true, "attempted": N, "failed": N, "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones (and
writes the recorded spans to .bench_out/). The exit code is non-zero when
the build fails, a correctness check fails or the load-shape guard refuses
to start. BENCHMARK.json lists the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "manu_e2e_bench")
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170
WORKLOADS = ("ann_sealed", "ann_filtered_1pct", "ingest_strong")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no library sources under {os.path.join(ROOT, 'src')}; "
            "run from a full checkout of the repository")
        return False
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def src_digest():
    """Content hash of src/, which identifies the measured code even where
    the checkout carries no git metadata."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--scale", default="full", choices=("full", "tiny"),
                    help="tiny: smoke-test sizes")
    ap.add_argument("--corrupt", choices=("ids", "drop_acked"),
                    help="smoke test only: corrupt a result before checking it")
    args = ap.parse_args()

    if not build():
        return 3

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--scale", args.scale, "--git-sha", git_sha(),
           "--src-digest", src_digest()]
    if args.corrupt:
        cmd += ["--corrupt", args.corrupt]
    if args.trace == "1":
        os.makedirs(OUT_DIR, exist_ok=True)
        cmd += ["--spans", os.path.join(
            OUT_DIR, f"spans_{args.workload}_seed{args.seed}.jsonl")]

    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"run exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 124
    lines = out.rstrip("\n").split("\n")
    result = None
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        pass
    if proc.returncode in (0, 1) and not isinstance(result, dict):
        log("benchmark did not end with a JSON result line")
        return 4
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
