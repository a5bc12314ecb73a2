#!/usr/bin/env python3
"""Measures the benchmark's run-to-run spread.

  python3 sgmbench/steadiness.py --runs 10 --seconds 45 [--first-seed 1]
                                 [--workloads faulty loopback fleet]

Runs each workload (by default those BENCHMARK.json gates) untraced once
per seed (seeds first-seed .. first-seed+runs-1) through run.py and prints,
per end-to-end metric, the median, the first and third quartiles
(statistics.quantiles(values, n=4))
and the spread (q3 - q1) / median next to the metric's bound from
BENCHMARK.json, as a Markdown table. Every run must be correct.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--raw", help="also write every run's values here "
                        "as JSON {workload: {metric: [values by seed]}}")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in benchmark["workloads"]]

    print("| workload | metric | median | q1 | q3 | spread | bound | spread/bound |")
    print("|---|---|---|---|---|---|---|---|")
    incorrect = 0
    raw = {}
    for workload in workloads:
        values = raw.setdefault(workload, {})
        for seed in range(args.first_seed, args.first_seed + args.runs):
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds",
                 str(args.seconds), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                incorrect += 1
                print("run %s seed %d is not correct" % (workload, seed),
                      file=sys.stderr)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        for name, v in values.items():
            q1, median, q3 = statistics.quantiles(v, n=4)
            median = statistics.median(v)
            spread = (q3 - q1) / median if median else float("inf")
            print("| %s | %s | %.6g | %.6g | %.6g | %.4f | %g | %.2f |" % (
                workload, name, median, q1, q3, spread, bounds[name],
                spread / bounds[name]))
        sys.stdout.flush()
        if args.raw:
            with open(args.raw, "w") as f:
                json.dump(raw, f, indent=1)
    return 1 if incorrect else 0


if __name__ == "__main__":
    sys.exit(main())
