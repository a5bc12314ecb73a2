#!/usr/bin/env python3
"""Builds and runs the SGM deployment benchmark.

Run from the repository root:

  python3 sgmbench/run.py --workload faulty --seed 1 --seconds 45 --trace 0
  python3 sgmbench/run.py --all --seed 1 --seconds 45   # every workload, both modes
  python3 sgmbench/run.py --test                         # the benchmark's own tests

The benchmark compiles the repository's sources from ./src together with
its own driver (sgmbench/CMakeLists.txt) into .bench_build/sgmbench, then
runs it. Each metric is printed as "name value unit"; the last line of
stdout is the JSON result {"correct", "attempted", "failed", "metrics"}.
Build output and gate failures go to stderr. See sgmbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "sgmbench")
WORKLOADS = ("faulty", "loopback", "fleet")
# One run measures for --seconds (longer only to reach 1000 cycles) and stops
# measuring after 120 s at most; this is the hard limit on the process.
RUN_TIMEOUT_S = 175


def build(target):
    """Configures (once) and builds `target`; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("sgmbench: no program sources at %s/src; run from a checkout of"
              " the repository" % ROOT, file=sys.stderr)
        return None
    if shutil.which("cmake") is None:
        print("sgmbench: cmake not found", file=sys.stderr)
        return None
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja") is not None:
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", BUILD_DIR, "--target", target,
                       "-j", jobs], stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(BUILD_DIR, target)


def run_once(binary, workload, seed, seconds, trace):
    """Runs one workload; echoes its stdout. Returns the parsed result or
    None when the run failed or printed no valid result line."""
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("sgmbench: %s did not finish within %d s"
              % (workload, RUN_TIMEOUT_S), file=sys.stderr)
        return None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print("sgmbench: %s exited with code %d"
              % (workload, done.returncode), file=sys.stderr)
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print("sgmbench: last line is not a JSON result", file=sys.stderr)
        return None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("sgmbench: malformed result keys %s" % sorted(result),
              file=sys.stderr)
        return None
    return done.stdout, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload untraced and traced")
    parser.add_argument("--test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if args.test:
        binary = build("sgmbench_test")
        if binary is None:
            return 3
        return subprocess.run([binary], timeout=600).returncode

    if not args.all and args.workload is None:
        parser.error("--workload is required (or --all / --test)")
    binary = build("sgmbench")
    if binary is None:
        return 3

    if not args.all:
        outcome = run_once(binary, args.workload, args.seed, args.seconds,
                           args.trace)
        if outcome is None:
            return 1
        sys.stdout.write(outcome[0])
        return 0

    all_correct = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            print("== %s --seed %d --trace %d" % (workload, args.seed, trace))
            outcome = run_once(binary, workload, args.seed, args.seconds,
                               trace)
            if outcome is None:
                return 1
            sys.stdout.write(outcome[0])
            all_correct = all_correct and outcome[1]["correct"]
    print("all gates passed" if all_correct else "GATES FAILED")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
