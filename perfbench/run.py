#!/usr/bin/env python3
"""Request-level pipeline benchmark: build, run, report.

Run from the root of the repository:

    python3 perfbench/run.py --workload suite-bnb --seed 1 --seconds 30 --trace 0

Builds perfbench/main.exe with dune, runs it, and prints its report.
With --trace 0 the set-up time is measured in several processes
(process start to the first timed request) and their median is
reported as setup_s next to the end-to-end metrics.  With --trace 1
the run reports the per-layer metrics and writes its spans to
.bench_build/perfbench/.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
TRACE_DIR = os.path.join(".bench_build", "perfbench")
SETUP_PROCESSES = 3  # set-ups measured per run; the median is reported
BUILD_TIMEOUT_S = 840
SETUP_TIMEOUT_S = 30
RUN_SLACK_S = 60  # set-up, the pass in flight at the deadline, probes


class BenchError(Exception):
    pass


def build():
    try:
        proc = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/main.exe"],
            # no shared build cache: the benchmark writes only inside the checkout
            env=dict(os.environ, DUNE_CACHE="disabled"),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError("build failed: %s" % e)
    if proc.returncode != 0:
        raise BenchError("build failed:\n" + proc.stderr[-4000:])


def run_exe(args, timeout):
    """Runs main.exe; returns (spawn wall time, output lines, report)."""
    spawned_at = time.time()
    try:
        proc = subprocess.run(
            [EXE] + args,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=timeout,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError("%s: %s" % (" ".join(args), e))
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        raise BenchError(
            "main.exe exited with %d:\n%s" % (proc.returncode, proc.stderr[-4000:])
        )
    try:
        report = json.loads(lines[-1])
    except ValueError:
        raise BenchError("main.exe printed no report:\n" + proc.stdout[-4000:])
    return spawned_at, lines[:-1], report


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    build()
    args = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds)]
    correct = True
    setups = []
    if a.trace == 0:
        for _ in range(SETUP_PROCESSES - 1):
            spawned_at, _, r = run_exe(args + ["--setup-only"], SETUP_TIMEOUT_S)
            correct = correct and r["correct"]
            setups.append(r["first_request_at"] - spawned_at)
        extra = ["--trace", "0"]
    else:
        os.makedirs(TRACE_DIR, exist_ok=True)
        trace_file = os.path.join(TRACE_DIR, "%s-seed%d.json" % (a.workload, a.seed))
        extra = ["--trace", "1", "--trace-file", trace_file]
    spawned_at, lines, r = run_exe(args + extra, a.seconds + RUN_SLACK_S)
    for line in lines:
        print(line)
    metrics = r["metrics"]
    if a.trace == 0:
        setups.append(r["first_request_at"] - spawned_at)
        print("setup_s samples: " + " ".join("%.4f" % s for s in setups))
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    else:
        print("trace written to " + trace_file)
    result = {
        "correct": correct and r["correct"],
        "attempted": r["attempted"],
        "failed": r["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        sys.stderr.write("perfbench: %s\n" % e)
        sys.exit(1)
