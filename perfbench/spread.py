#!/usr/bin/env python3
"""Runs the benchmark over several seeds and summarises each metric.

Usage, from the repository root:

    python3 perfbench/spread.py --workload smp_compute --seeds 1-10 \
        --seconds 34 [--trace 0|1] [--out summary.json]

Runs perfbench/run.py once per seed, one after another, and prints for every
metric the median, the quartiles (statistics.quantiles(values, n=4)) and the
interquartile range as a share of the median. With --out it also writes the
summary, and every run's result, as JSON. Exits nonzero if any run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def parse_seeds(text):
    """'1-10' or '1,4,9' -> list of ints."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    runs = []
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, os.path.join(root, "perfbench", "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", repr(args.seconds), "--trace", str(args.trace)],
            cwd=root, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stdout + proc.stderr)
            print("seed %d failed (exit %d)" % (seed, proc.returncode))
            return 1
        result = json.loads(lines[-1])
        runs.append({"seed": seed, "result": result})
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (k, v["value"])
            for k, v in result["metrics"].items())), flush=True)

    summary = {}
    for name, first in runs[0]["result"]["metrics"].items():
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                     else (values[0], None, values[0]))
        summary[name] = {
            "unit": first["unit"], "median": median, "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / median if median else 0.0,
        }
        print("%-32s median %-12.6g q1 %-12.6g q3 %-12.6g iqr/median %.4f"
              % (name, median, q1, q3, summary[name]["iqr_over_median"]))
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"workload": args.workload, "seconds": args.seconds,
                       "trace": args.trace, "summary": summary,
                       "runs": runs}, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
