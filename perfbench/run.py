#!/usr/bin/env python3
"""Time-to-verdict benchmark for Rehearsal.

    python3 perfbench/run.py --workload corpus-cold --seed 1 --seconds 20 --trace 0

Run from the root of a checkout (the program is imported from
``src/``).  Workloads: ``corpus-cold``, ``catalog-scale``,
``daemon-mix`` (see perfbench/README.md).  With ``--trace 0`` the last
line of standard output is one JSON object holding the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of a traced
run, and the Chrome trace is written to
``.perfbench/trace-<workload>-<seed>.json``.  Every verdict is checked
against a reference; a wrong one, or an error, budget or non-200
row, exits 1.

A run is split into segments, each a fresh process with its own
``PYTHONHASHSEED`` (see segment.py); the parent only starts them,
one after another, and pools what they measured.
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
#: Workload -> segments per run.  A daemon segment pays a daemon start
#: and a cache fill, so it gets fewer, longer segments.
SEGMENTS = {"corpus-cold": 8, "catalog-scale": 6, "daemon-mix": 6}
#: Seconds a segment may take beyond its share of the run.
SEGMENT_GRACE = 60


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(SEGMENTS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--segment", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--out", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def hash_seed() -> str:
    """A fresh random ``PYTHONHASHSEED`` for the next segment; the
    segment records it in the report."""
    return str(int.from_bytes(os.urandom(4), "big"))


def run_child(args, k: int, directory: str):
    """Run segment ``k`` in a fresh process group; kill the whole group
    (the segment and any daemon it started) if it overruns."""
    out = os.path.join(directory, f"segment-{k}.json")
    command = [
        sys.executable,
        os.path.abspath(__file__),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--seconds",
        repr(args.seconds),
        "--trace",
        str(args.trace),
        "--segment",
        str(k),
        "--out",
        out,
    ]
    env = dict(os.environ, PYTHONHASHSEED=hash_seed(), PYTHONPATH=SRC)
    env.pop("REHEARSAL_INCREMENTAL", None)
    child = subprocess.Popen(command, cwd=ROOT, env=env, start_new_session=True)
    try:
        code = child.wait(timeout=args.seconds / SEGMENTS[args.workload] + SEGMENT_GRACE)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        raise RuntimeError(f"segment {k} overran and was killed")
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)  # stragglers of the group
        except ProcessLookupError:
            pass
    if code != 0:
        raise RuntimeError(f"segment {k} exited with {code}")
    from segment import Segment

    return Segment.load(out)


def segment_main(args) -> int:
    """Child: set up and measure one segment, save it to ``--out``."""
    k, of = args.segment, SEGMENTS[args.workload]
    seconds = args.seconds / of
    # Daemon runs trace every other segment (the rest give the
    # untraced baseline); in-process segments pair each verdict.
    traced = bool(args.trace) and (args.workload != "daemon-mix" or k % 2 == 1)
    trace_file = args.out + ".trace.json" if traced else None
    if args.workload == "daemon-mix":
        import daemon_mix

        segment = daemon_mix.run_segment(ROOT, args.seed, k, seconds, trace_file)
    else:
        import inprocess

        segment = inprocess.run_segment(args.workload, args.seed, k, of, seconds, trace_file)
    segment.save(args.out)
    return 0


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(
            f"perfbench: the program's source is missing ({SRC}/repro); "
            "run from the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    if args.segment is not None:
        sys.path.insert(0, SRC)
        return segment_main(args)

    from report import emit

    directory = os.path.join(OUT, f"run-{os.getpid()}")
    os.makedirs(directory, exist_ok=True)
    try:
        segments = [
            run_child(args, k, directory) for k in range(SEGMENTS[args.workload])
        ]
        merged = os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json")
        return emit(args.workload, args.seed, segments, bool(args.trace), merged)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(directory, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
