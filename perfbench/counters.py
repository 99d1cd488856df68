#!/usr/bin/env python3
"""Which work counters move with ``PYTHONHASHSEED`` alone?

    python3 perfbench/counters.py --hash-seeds 5

Verifies the 19 corpus manifests, traced, once per hash seed (each in
a fresh process), and prints every work counter's total per hash seed.
The inputs are identical in every process, so a counter that differs
depends on the hash seed: it is reported by the benchmark but not yet
gateable (ROADMAP item 4a).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def totals() -> dict:
    """Child: the counter totals of one traced corpus pass."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from inputs import corpus_items
    from inprocess import make_verifier, verify
    from spans import Recorder, total_counters

    verifier = make_verifier()
    recorder = Recorder().install()
    rows = []
    try:
        for item in corpus_items():
            rows.append(verify(verifier, item)[1])
    finally:
        recorder.uninstall()
    out = total_counters(recorder.counters_json())
    out = {k: v for k, v in out.items() if not k.endswith("_s")}
    for key in ("resource_count", "branches_explored", "memo_hits", "distinct_finals"):
        out[f"row.{key}"] = sum(r.get(key, 0) for r in rows)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--hash-seeds", type=int, default=5)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sys.path.insert(0, HERE)
    if args.child:
        print(json.dumps(totals()))
        return 0
    runs = []
    for _ in range(args.hash_seeds):
        seed = str(int.from_bytes(os.urandom(4), "big"))
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--child"],
            cwd=ROOT,
            env=dict(os.environ, PYTHONHASHSEED=seed),
            stdout=subprocess.PIPE,
            check=True,
        )
        runs.append((seed, json.loads(done.stdout.decode().splitlines()[-1])))
    print("hash seeds: " + " ".join(seed for seed, _ in runs))
    for name in sorted(runs[0][1]):
        values = [counts.get(name, 0) for _, counts in runs]
        verdict = "varies" if len(set(values)) > 1 else "stable"
        print(f"{name:<32} {verdict:<7} " + " ".join(f"{v:g}" for v in values))
    return 0


if __name__ == "__main__":
    sys.exit(main())
