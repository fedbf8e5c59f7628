#!/usr/bin/env python3
"""End-to-end spec -> Study -> Report benchmark for netsmith.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark (perfbench/CMakeLists.txt: the repository's netsmith
library plus the perfbench program, Release) into .bench_build/perfbench,
then runs one workload. Build output goes to stderr; the workload's report
goes to stdout, and its last line is the JSON result object. See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys
import time

WORKLOADS = ("synth_plan_256", "sweep_catalog_48", "resilience_48")
BUILD_DIR = os.path.join(".bench_build", "perfbench")
# A run must end within 180 s; stop a stuck workload a little before that.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    for need in ("CMakeLists.txt", os.path.join("src", "api", "study.hpp")):
        if not os.path.exists(os.path.join(root, need)):
            fail(f"netsmith sources not found ({need} missing in {root})")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", here, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            status = subprocess.run(cmd, stdout=sys.stderr,
                                    stderr=sys.stderr).returncode
        except OSError as e:
            fail(f"cannot run {cmd[0]}: {e}")
        if status:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD_DIR, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    work_dir = os.path.join(BUILD_DIR, "work", args.workload)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
        keys = {"correct", "attempted", "failed", "metrics"}
        if not isinstance(result, dict) or set(result) != keys:
            raise ValueError("unexpected keys")
    except ValueError:
        fail(f"no result line (exit status {proc.returncode})")
    print(f"perfbench: {args.workload} finished in "
          f"{time.monotonic() - start:.1f} s")
    print(lines[-1])
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
