#!/usr/bin/env python3
"""Steadiness check: runs one workload N times with seeds 1..N and prints
each metric's median, quartiles and quartile spread.

    python3 admbench/steady.py --workload admit-direct --runs 10 [--trace 0]

Each run measures for `run_seconds` of BENCHMARK.json. The spread is
(Q3 - Q1) / median with the quartiles of Python's
`statistics.quantiles(values, n=4)`; the bounds in BENCHMARK.json are set
from it. Run it from the root of the repository.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        seconds = json.load(f)["run_seconds"]

    values = {}
    units = {}
    failed_shares = set()
    for seed in range(1, args.runs + 1):
        command = [
            "bash", "admbench/run.sh", "--workload", args.workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", args.trace,
        ]
        proc = subprocess.run(command, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            sys.exit(f"seed {seed}: exit code {proc.returncode}")
        result = json.loads(lines[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: output checks failed")
        failed_shares.add(result["failed"] / result["attempted"])
        row = []
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
            row.append(f"{name}={metric['value']:.6g}")
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']} "
              + " ".join(row), flush=True)

    print(f"\n{args.workload}: {args.runs} runs, failed share(s) {sorted(failed_shares)}")
    print(f"{'metric':<34} {'median':>14} {'Q1':>14} {'Q3':>14} {'spread':>8}  unit")
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = vals[0]
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:<34} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.3f}  {units[name]}")


if __name__ == "__main__":
    main()
