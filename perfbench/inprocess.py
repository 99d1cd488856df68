"""In-process workloads: ``corpus-cold`` and ``catalog-scale``.

Both run the cold ``verify-batch`` path: ``BatchVerifier(workers=1,
cache=None)`` with the incremental store off, one call per manifest, so
every row includes lint and every layer from parser to SAT runs.
"""

from __future__ import annotations

import random
import resource
import time
from typing import List, Tuple

from inputs import Item, corpus_items, scale_catalog, small_items
from segment import Segment
from spans import REQUEST_ID, Recorder

#: Small generated catalogs per corpus pass (one after every second
#: corpus manifest); a segment draws its own oracle-decided pool of
#: ``SMALL_PASSES`` passes' worth.  The corpus keeps two thirds of the
#: verdicts so the latency percentiles rest mostly on fixed inputs.
SMALL_PER_PASS = 10
SMALL_PASSES = 3
#: Small catalogs have 2 to this many resources.  Six-resource draws
#: reach 1.3 s (twenty times the median), so a run's throughput
#: depended on whether its seed drew one.
SMALL_MAX_RESOURCES = 5
#: ``catalog-scale`` catalog sizes; a segment verifies rounds of one
#: fresh catalog per size, in :func:`spread_order`, starting at its
#: own offset.  Sizes stay small enough that a run holds about a
#: hundred verdicts, so its p95 does not rest on one or two of them.
SCALE_SIZES = tuple(range(10, 16))
#: Rounds of fresh catalogs a segment has; more than it can verify.
SCALE_ROUNDS = 8


def spread_order(values):
    """``values`` in bit-reversed index order, so that every prefix
    spans the whole range."""
    bits = max(1, (len(values) - 1).bit_length())
    keys = sorted(range(len(values)), key=lambda i: int(f"{i:0{bits}b}"[::-1], 2))
    return [values[i] for i in keys]


def rotate(values, k: int, of: int):
    """Segment ``k`` of ``of`` starts ``k/of`` of the way through
    ``values``, so short segments together cover all of it."""
    offset = round(k * len(values) / of) % max(1, len(values))
    return list(values[offset:]) + list(values[:offset])


def make_verifier():
    from repro.analysis.determinism import DeterminismOptions
    from repro.service.orchestrator import BatchVerifier

    return BatchVerifier(
        options=DeterminismOptions(incremental=False), workers=1, cache=None
    )


def verify(verifier, item: Item) -> Tuple[float, dict]:
    start = time.perf_counter()
    report = verifier.verify_sources([(item.name, item.source)])
    elapsed = time.perf_counter() - start
    return elapsed, report.results[0].to_dict()


# -- inputs ------------------------------------------------------------------


def corpus_cold_items(seed: int, k: int, of: int) -> Tuple[List[Item], List[Item]]:
    """(schedule, warm-up items) of segment ``k``: the 19 corpus
    manifests in a seeded order, every second one followed by a small
    generated catalog from the segment's own stream (seed
    ``seed * 1000 + k``)."""
    corpus = corpus_items()
    small = small_items(
        seed * 1000 + k,
        SMALL_PER_PASS * SMALL_PASSES + 2,
        max_resources=SMALL_MAX_RESOURCES,
    )
    warmup = [corpus[0], small.pop(), corpus[-1], small.pop()]
    order = list(corpus)
    random.Random(seed).shuffle(order)
    order = rotate(order, k, of)
    schedule = []
    cases = iter(small)
    for _ in range(SMALL_PASSES):
        for i, manifest in enumerate(order):
            schedule.append(manifest)
            if i % 2 == 0:
                schedule.append(next(cases))
    return schedule, warmup


def catalog_scale_items(seed: int, k: int, of: int) -> Tuple[List[Item], List[Item]]:
    """(schedule, warm-up items) of segment ``k``: rounds of one fresh
    catalog per size, deterministic and idempotent by construction."""
    rng = random.Random(seed * 1000 + k)
    schedule = []
    for _ in range(SCALE_ROUNDS):
        for size in rotate(spread_order(SCALE_SIZES), k, of):
            catalog = scale_catalog(rng, "s", size)
            schedule.append(Item(catalog.tag, catalog.source(), (True, True), "scale"))
    warm = scale_catalog(rng, "w", 10)
    return schedule, [Item(warm.tag, warm.source(), (True, True), "scale")]


ITEMS = {"corpus-cold": corpus_cold_items, "catalog-scale": catalog_scale_items}


# -- one segment -----------------------------------------------------------------


def run_segment(
    workload: str, seed: int, k: int, of: int, seconds: float, trace_file
) -> Segment:
    """Set up (imports, inputs and references, an untimed warm-up),
    then verify the segment's schedule, cycling, for ``seconds``.

    Traced, each manifest is verified twice in a row, untraced and
    traced: the pair gives the tracing overhead and the traced copy
    the layer split; the traced copies stay out of the wall and CPU
    figures.  The copy that runs second finds warmer state, so the
    order alternates from one manifest to the next.  Tracing is on
    when ``trace_file`` is given."""
    segment = Segment(trace_file=trace_file)
    verifier = make_verifier()
    schedule, warmup = ITEMS[workload](seed, k, of)
    for item in warmup:
        verify(verifier, item)
    segment.setup_s = time.perf_counter() - segment.t0

    recorder = Recorder() if trace_file else None
    disputed: list = []
    excluded_wall = excluded_cpu = 0.0

    def traced_copy(item) -> None:
        nonlocal excluded_wall, excluded_cpu
        wall0, cpu0 = time.perf_counter(), time.process_time()
        recorder.install()
        token = REQUEST_ID.set(item.name)
        try:
            traced, traced_row = verify(verifier, item)
        finally:
            REQUEST_ID.reset(token)
            recorder.uninstall()
        segment.judge(item, traced_row, disputed, prefix="traced: ")
        segment.traced_s.append(traced)
        excluded_wall += time.perf_counter() - wall0
        excluded_cpu += time.process_time() - cpu0

    start = time.perf_counter()
    cpu_start = time.process_time()
    index = 0
    while time.perf_counter() - start < seconds:
        item = schedule[index % len(schedule)]
        traced_first = recorder is not None and index % 2 == 1
        index += 1
        if traced_first:
            traced_copy(item)
        latency, row = verify(verifier, item)
        segment.record(item.kind, latency, row)
        segment.judge(item, row, disputed)
        if recorder is not None and not traced_first:
            traced_copy(item)
    segment.measured_s = time.perf_counter() - start - excluded_wall
    segment.cpu_s = time.process_time() - cpu_start - excluded_cpu
    segment.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if recorder is not None:
        segment.keep_trace(recorder.finished(), recorder.counters_json())
    segment.settle(disputed)
    return segment
