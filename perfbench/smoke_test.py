#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

    python3 perfbench/smoke_test.py

Checks, through perfbench/run.py:
  * every workload runs clean with --trace 0 and --trace 1;
  * every metric BENCHMARK.json names is printed exactly once, with its
    unit, and the result line carries exactly those metrics;
  * each correctness check fails the run when handed a corrupted result
    (wrong ids -> recall floor; a dropped acked pk -> acked-insert check);
  * the load-shape guard refuses a CPU set that does not match the
    deployment's executor count.
Exits non-zero on the first failure.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
SECONDS = "1.5"


def run(workload, trace, extra=(), affinity=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", SECONDS, "--trace", str(trace),
           "--scale", "tiny", *extra]
    preexec = (lambda: os.sched_setaffinity(0, affinity)) if affinity else None
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       preexec_fn=preexec, timeout=600)
    result = None
    lines = p.stdout.strip().split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        pass
    return p, result


def fail(msg, p=None):
    print(f"FAIL: {msg}")
    if p is not None:
        print(p.stdout[-3000:])
        print(p.stderr[-3000:])
    sys.exit(1)


def check_metrics(p, result, expected, label):
    printed = re.findall(r"^metric (\S+)\s+(\S+)\s+(\S+)", p.stdout, re.M)
    for m in expected:
        hits = [(v, u) for name, v, u in printed if name == m["name"]]
        if len(hits) != 1:
            fail(f"{label}: metric {m['name']} printed {len(hits)} times", p)
        if hits[0][1] != m["unit"]:
            fail(f"{label}: metric {m['name']} printed with unit {hits[0][1]}, "
                 f"want {m['unit']}", p)
    want = {m["name"]: m["unit"] for m in expected}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        fail(f"{label}: result metrics {sorted(got)} differ from {sorted(want)}", p)
    for name, v in result["metrics"].items():
        if not isinstance(v["value"], (int, float)):
            fail(f"{label}: metric {name} has a non-numeric value", p)


def main():
    workloads = [w["name"] for w in SPEC["workloads"]]
    for workload in workloads:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload} --trace {trace}"
            p, result = run(workload, trace)
            if p.returncode != 0 or result is None or not result["correct"]:
                fail(f"{label}: exit {p.returncode}", p)
            if result["attempted"] < 1 or result["failed"] != 0:
                fail(f"{label}: attempted {result['attempted']} failed "
                     f"{result['failed']}", p)
            check_metrics(p, result, SPEC[key], label)
            print(f"ok   {label}")

    for corrupt, check in (("ids", "recall_at_10_floor"),
                           ("drop_acked", "acked_inserts_top1")):
        p, result = run(workloads[0], 0, ("--corrupt", corrupt))
        if p.returncode == 0 or result is None or result["correct"]:
            fail(f"--corrupt {corrupt} was not caught", p)
        if not re.search(rf"^check {check}\s+FAIL", p.stdout, re.M):
            fail(f"--corrupt {corrupt}: check {check} did not fail", p)
        print(f"ok   --corrupt {corrupt} fails {check}")

    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) >= 3:
        # An odd CPU count cannot equal query_threads x 2 query nodes.
        p, result = run(workloads[0], 0, affinity=set(cpus[:3]))
        if p.returncode != 2 or result is not None or "refusing" not in p.stderr:
            fail("load-shape guard did not refuse 3 CPUs", p)
        print("ok   load-shape guard refuses a mismatched CPU set")
    print("smoke test passed")


if __name__ == "__main__":
    main()
