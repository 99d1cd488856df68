#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

    python3 perfbench/spread.py --workload corpus-cold --seeds 1-10
    python3 perfbench/spread.py --workload corpus-cold --seeds 1 --repeat 4 --trace 1

Runs ``perfbench/run.py`` once per seed (or ``--repeat`` times on each
seed), sequentially, and prints for every metric its median and the
distance between its first and third quartile as a share of the median
(``statistics.quantiles(values, n=4)``).  ``--bounds`` flags end-to-end
spreads above the bounds in BENCHMARK.json (and above a third of
them).  Runs must not overlap anything else on the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(spec: str):
    out = []
    for part in spec.split(","):
        low, _, high = part.partition("-")
        out += list(range(int(low), int(high or low) + 1))
    return out


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [
            sys.executable,
            os.path.join(HERE, "run.py"),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            str(seconds),
            "--trace",
            str(trace),
        ],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        check=True,
    )
    lines = done.stdout.decode().strip().splitlines()
    result = json.loads(lines[-1])
    return result


def spread(values):
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / abs(median)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-5")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--bounds", action="store_true")
    parser.add_argument("--json", help="also write every run's result here")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf8") as handle:
        bench = json.load(handle)
    seconds = args.seconds or bench["run_seconds"]
    results = []
    for seed in seeds_of(args.seeds):
        for _ in range(args.repeat):
            result = run_once(args.workload, seed, seconds, args.trace)
            result["seed"] = seed
            results.append(result)
            print(
                f"seed {seed}: correct={result['correct']} "
                f"attempted={result['attempted']} failed={result['failed']}",
                flush=True,
            )
    if args.json:
        with open(args.json, "w", encoding="utf8") as handle:
            json.dump(results, handle, indent=1)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst_ok = True
    print(f"{'metric':<32} {'median':>14} {'IQR/median':>11}  values")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median, share = spread(values)
        flag = ""
        if args.bounds and name in bounds:
            limit = bounds[name]
            if share > limit:
                flag, worst_ok = " OVER BOUND", False
            elif share > limit / 3:
                flag = " over a third of bound"
        shown = " ".join(f"{v:.4g}" for v in values)
        print(f"{name:<32} {median:14.6g} {share:11.4f}  {shown}{flag}")
    ok = all(r["correct"] and r["failed"] == 0 for r in results)
    return 0 if ok and worst_ok else 1


if __name__ == "__main__":
    sys.exit(main())
