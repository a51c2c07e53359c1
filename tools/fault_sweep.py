#!/usr/bin/env python3
"""Sweep the benchmark's two fault workloads over a range of seeds.

    python3 tools/fault_sweep.py FIRST LAST

Builds the benchmark package (`benchmark/Cargo.toml`, release, offline) and
runs its binary for `wan_partition` and `leader_storm` at `--seconds 1`
for every seed from FIRST to LAST inclusive. A seed fails when the run is
not correct: the oracle counted failed operations (incomplete, lost,
duplicated or on a diverged replica) or another check did not hold. Each
failing seed is printed with its failed-op count and the run's problems;
the exit status is 1 if any seed failed.

The binary is looked up under `CARGO_TARGET_DIR` when that is set, else
under `benchmark/target`. Two seeds run at once; one run is a single thread
of about 10 MB.
"""

import argparse
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

WORKLOADS = ["wan_partition", "leader_storm"]
ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "benchmark" / "Cargo.toml"
JOBS = 2


def binary():
    target = os.environ.get("CARGO_TARGET_DIR", str(ROOT / "benchmark" / "target"))
    return Path(target) / "release" / "spider_benchmark"


def run(exe, workload, seed):
    """(workload, seed, correct, failed ops, problem lines) of one run."""
    args = [str(exe), "--workload", workload, "--seed", str(seed), "--seconds", "1"]
    proc = subprocess.run(args + ["--trace", "0"], cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    problems = [line for line in lines if line.startswith("PROBLEM: ")]
    result = next((line for line in reversed(lines) if line.startswith("{")), None)
    if result is None:
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return workload, seed, False, None, [f"no result line (exit {proc.returncode}): {tail}"]
    result = json.loads(result)
    return workload, seed, result["correct"], int(result["failed"]), problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("first", type=int)
    parser.add_argument("last", type=int)
    args = parser.parse_args()
    build = ["cargo", "build", "--release", "--quiet", "--offline", "--manifest-path"]
    subprocess.run(build + [str(MANIFEST)], cwd=ROOT, check=True)
    exe = binary()
    seeds = range(args.first, args.last + 1)
    runs = [(w, s) for w in WORKLOADS for s in seeds]
    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        results = list(pool.map(lambda ws: run(exe, *ws), runs))
    failing = 0
    for workload in WORKLOADS:
        bad = [r for r in results if r[0] == workload and not r[2]]
        failing += len(bad)
        print(f"{workload}: {len(bad)} of {len(seeds)} seeds fail "
              f"({args.first}-{args.last}, --seconds 1)")
        for _, seed, _, failed, problems in bad:
            ops = "?" if failed is None else failed
            print(f"  seed {seed}: {ops} failed ops")
            for problem in problems:
                print(f"    {problem}")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
