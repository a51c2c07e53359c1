#!/usr/bin/env python3
"""Steadiness check of the benchmark, as the driver does it.

Runs the command of BENCHMARK.json ten times per workload, each time with
another seed, and prints for every end-to-end metric the distance between
the first and the third quartile of the ten values as a share of their
median, next to the metric's bound. Run it from the repository root:

    python3 benchmark/spread.py [--runs 10] [--first-seed 1] [--workload NAME ...]

A spread above a third of the bound is marked `wide`, above the bound `OVER`.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    started = time.time()
    done = subprocess.run(argv, capture_output=True, text=True)
    elapsed = time.time() - started
    if done.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited with {done.returncode}:\n{done.stdout[-2000:]}{done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect result: {result}")
    return result, elapsed


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        contract = json.load(f)
    workloads = args.workload or [w["name"] for w in contract["workloads"]]
    worst = {}
    for workload in workloads:
        values = {m["name"]: [] for m in contract["end_to_end"]}
        slowest = 0.0
        for i in range(args.runs):
            result, elapsed = run_once(contract["command"], workload, args.first_seed + i,
                                       contract["run_seconds"])
            slowest = max(slowest, elapsed)
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        print(f"== {workload}: {args.runs} runs, slowest {slowest:.1f} s")
        for m in contract["end_to_end"]:
            v = values[m["name"]]
            q1, _, q3 = statistics.quantiles(v, n=4)
            median = statistics.median(v)
            spread = (q3 - q1) / median
            mark = "OVER" if spread > m["bound"] else "wide" if spread > m["bound"] / 3 else "ok"
            if m["name"] == "setup_s":
                mark = "(not gated)"
            print(f"   {m['name']:<24} median {median:>14.6f} {m['unit']:<6} spread {spread:7.2%}"
                  f"  bound {m['bound']:.0%}  {mark}")
            worst[m["name"]] = max(worst.get(m["name"], 0.0), spread)
    print("== widest spread per metric over the workloads run")
    for name, spread in worst.items():
        print(f"   {name:<24} {spread:7.2%}")


if __name__ == "__main__":
    main()
