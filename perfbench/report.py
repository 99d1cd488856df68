"""Run outcome, metric reduction and the result line."""

from __future__ import annotations

import json
import os
import statistics
import sys
from collections import defaultdict
from typing import Dict, List

from segment import Segment
from spans import NAME, inclusive_times, self_times, spans_from_trace

#: The end-to-end metrics every workload reports (name -> unit).
END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "throughput_vps": "1/s",
    "cpu_ms_per_verdict": "ms",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}

#: Per-layer metrics of the traced run (name -> unit).  Times are
#: milliseconds per verdict; ``count`` metrics are per verdict too,
#: except ``incremental.store_bytes``.
PER_LAYER = {
    "batch.overhead_ms": "ms",
    "pipeline.ms": "ms",
    "puppet.parse_ms": "ms",
    "puppet.evaluate_ms": "ms",
    "puppet.graph_ms": "ms",
    "puppet.resources": "count",
    "resources.compile_ms": "ms",
    "lint.ms": "ms",
    "lint.diagnostics": "count",
    "determinism.ms": "ms",
    "determinism.explore_ms": "ms",
    "determinism.encode_ms": "ms",
    "determinism.solve_ms": "ms",
    "determinism.other_ms": "ms",
    "determinism.branches": "count",
    "determinism.memo_hits": "count",
    "determinism.distinct_finals": "count",
    "determinism.sat_queries": "count",
    "determinism.prefilter_proved": "ratio",
    "idempotence.ms": "ms",
    "idempotence.encode_ms": "ms",
    "sat.solve_ms": "ms",
    "sat.calls": "count",
    "sat.conflicts": "count",
    "sat.decisions": "count",
    "sat.propagations": "count",
    "cache.read_ms": "ms",
    "cache.write_ms": "ms",
    "cache.memory_hits": "count",
    "cache.disk_hits": "count",
    "cache.misses": "count",
    "cache.hit_ratio": "ratio",
    "incremental.read_ms": "ms",
    "incremental.write_ms": "ms",
    "incremental.reuse_hits": "count",
    "incremental.cnf_cache_hits": "count",
    "incremental.store_bytes": "bytes",
    "daemon.http_ms": "ms",
    "daemon.queue_wait_ms": "ms",
    "daemon.worker_ms": "ms",
    "daemon.hit_ms": "ms",
    "daemon.edit_ms": "ms",
    "daemon.cold_ms": "ms",
    "trace.overhead_pct": "%",
    "trace.coverage_pct": "%",
}

#: Span name -> the self-time metric it feeds.  Together these
#: partition the traced end-to-end time (see README).
SELF_TIME_METRIC = {
    "batch": "batch.overhead_ms",
    "pipeline": "pipeline.ms",
    "puppet.parse": "puppet.parse_ms",
    "puppet.evaluate": "puppet.evaluate_ms",
    "puppet.graph": "puppet.graph_ms",
    "resources.compile": "resources.compile_ms",
    "lint": "lint.ms",
    "determinism": "determinism.ms",
    "idempotence": "idempotence.ms",
    "idempotence.encode": "idempotence.encode_ms",
    "sat.solve": "sat.solve_ms",
    "cache.read": "cache.read_ms",
    "cache.write": "cache.write_ms",
    "incremental.read": "incremental.read_ms",
    "incremental.write": "incremental.write_ms",
    "daemon.queue": "daemon.queue_wait_ms",
    "daemon.worker": "daemon.worker_ms",
}

#: Work counters whose value depends on ``PYTHONHASHSEED`` today (set
#: and dict iteration feeds variable numbering): reported, never gated.
HASH_DEPENDENT = ("sat.conflicts", "sat.decisions", "sat.propagations")


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated percentile (0 <= q <= 100)."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def end_to_end(segments: List[Segment]) -> Dict[str, float]:
    """The end-to-end metrics of a run, pooled over its segments."""
    latencies = [v for seg in segments for v in seg.latencies]
    attempted = len(latencies)
    failed = sum(seg.failed for seg in segments)
    n = max(1, attempted)
    return {
        "setup_s": statistics.median(seg.setup_s for seg in segments),
        "latency_p50_ms": percentile(latencies, 50) * 1000.0,
        "latency_p95_ms": percentile(latencies, 95) * 1000.0,
        "throughput_vps": attempted / sum(seg.measured_s for seg in segments),
        "cpu_ms_per_verdict": sum(seg.cpu_s for seg in segments) * 1000.0 / n,
        "peak_rss_mb": max(seg.peak_rss_mb for seg in segments),
        "ok_frac": (attempted - failed) / n,
    }


def per_layer(untraced: List[Segment], traced: List[Segment], merged_trace: str) -> Dict[str, float]:
    """Reduce a traced run to the per-layer metrics.

    ``traced`` segments carry spans and per-request counters; row
    counts, per-kind latencies and /metrics deltas come from the
    ``untraced`` segments (for the in-process workloads these are the
    same segments: every verdict ran untraced and then traced).  Times
    are per traced verdict.  All spans are merged into one Chrome
    trace at ``merged_trace``.
    """
    spans, events, counters = [], [], defaultdict(float)
    for segment in traced:
        with open(segment.trace_file, encoding="utf8") as handle:
            trace = json.load(handle)
        events += trace["traceEvents"]
        spans += spans_from_trace(trace)
        for per_request in trace.get("counters", {}).values():
            for key, value in per_request.items():
                counters[key] += value
        os.remove(segment.trace_file)
    with open(merged_trace, "w", encoding="utf8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)

    traced_s = [v for seg in traced for v in seg.traced_s]
    untraced_s = [v for seg in untraced for v in seg.latencies]
    n_traced = max(1, len(traced_s))
    per_ms = 1000.0 / n_traced
    own = self_times(spans)
    inclusive = inclusive_times(spans)
    out = {name: 0.0 for name in PER_LAYER}
    for span_name, metric in SELF_TIME_METRIC.items():
        out[metric] = own.get(span_name, 0.0) * per_ms

    buckets = 0.0
    for bucket in ("explore", "encode", "solve"):
        value = counters.get(f"determinism.{bucket}_s", 0.0)
        out[f"determinism.{bucket}_ms"] = value * per_ms
        buckets += value
    out["determinism.other_ms"] = (inclusive.get("determinism", 0.0) - buckets) * per_ms
    for key in ("branches", "memo_hits", "distinct_finals", "sat_queries"):
        out[f"determinism.{key}"] = counters.get(f"determinism.{key}", 0.0) / n_traced
    out["determinism.prefilter_proved"] = counters.get(
        "determinism.prefilter_proved", 0.0
    ) / max(1.0, counters.get("determinism.verdicts", 0.0))
    for key in ("calls", "conflicts", "decisions", "propagations"):
        out[f"sat.{key}"] = counters.get(f"sat.{key}", 0.0) / n_traced

    rows = defaultdict(float)
    for segment in untraced:
        for key, value in segment.row_counts.items():
            rows[key] += value
    n_rows = max(1.0, rows["rows"])
    out["puppet.resources"] = rows["resources"] / n_rows
    out["lint.diagnostics"] = rows["diagnostics"] / n_rows
    out["incremental.reuse_hits"] = rows["reuse_hits"] / n_rows
    out["incremental.cnf_cache_hits"] = rows["cnf_cache_hits"] / n_rows

    extra = defaultdict(float)
    for segment in untraced:
        for key, value in segment.extra.items():
            extra[key] += value
    n_untraced = max(1, len(untraced_s))
    lookups = sum(extra[f"cache.{t}"] for t in ("memory_hits", "disk_hits", "misses"))
    for tier in ("memory_hits", "disk_hits", "misses"):
        out[f"cache.{tier}"] = extra[f"cache.{tier}"] / n_untraced
    out["cache.hit_ratio"] = (
        (extra["cache.memory_hits"] + extra["cache.disk_hits"]) / lookups if lookups else 0.0
    )
    out["incremental.store_bytes"] = extra["incremental.store_bytes"] / max(1, len(untraced))
    kinds = [k for seg in untraced for k in seg.kinds]
    for kind in ("hit", "edit", "cold"):
        values = [v for v, k in zip(untraced_s, kinds) if k == kind]
        out[f"daemon.{kind}_ms"] = percentile(values, 50) * 1000.0 if values else 0.0

    traced_total = sum(traced_s)
    if any(s[NAME] == "daemon.queue" for s in spans):
        # Client-side wait beyond the daemon's verify: request and
        # response transfer, accept, parse (the client's time minus
        # the span the /metrics latency histogram also measures).
        queue = inclusive.get("daemon.queue", 0.0)
        out["daemon.http_ms"] = (traced_total - queue) * per_ms
    # The self-time metrics partition the traced end-to-end time; what
    # they miss is the benchmark's own loop around each call.
    partition = sum(out[m] for m in SELF_TIME_METRIC.values()) + out["daemon.http_ms"]
    traced_ms = traced_total * per_ms
    out["trace.coverage_pct"] = 100.0 * partition / traced_ms if traced_ms else 0.0
    if untraced_s and traced_s:
        mean_untraced = sum(untraced_s) / len(untraced_s)
        out["trace.overhead_pct"] = 100.0 * (traced_total / n_traced / mean_untraced - 1.0)
    return out


def partition_lines(per_layer_ms: Dict[str, float], traced_ms: float) -> List[str]:
    """Human-readable check that the self times add up."""
    parts = [(m, per_layer_ms[m]) for m in SELF_TIME_METRIC.values()]
    parts.append(("daemon.http_ms", per_layer_ms["daemon.http_ms"]))
    total = sum(v for _, v in parts)
    lines = ["self time per traced verdict (ms):"]
    for metric, value in sorted(parts, key=lambda kv: -kv[1]):
        if value:
            lines.append(f"  {metric:<28} {value:10.3f}")
    lines.append(
        f"  {'sum of self times':<28} {total:10.3f}  vs traced end-to-end "
        f"{traced_ms:.3f} ({100.0 * total / traced_ms if traced_ms else 0:.1f}%)"
    )
    return lines


def emit(workload: str, seed: int, segments: List[Segment], trace: bool, merged_trace: str) -> int:
    """Print the report lines and the result line; the exit code."""
    latencies = [v for seg in segments for v in seg.latencies]
    attempted = len(latencies)
    failed = sum(seg.failed for seg in segments)
    wrong = [w for seg in segments for w in seg.wrong]
    if not latencies:
        print("perfbench: no verdict was measured", file=sys.stderr)
        return 1
    p95 = percentile(latencies, 95)
    info = {
        "workload": workload,
        "seed": seed,
        "segments": len(segments),
        "hash_seeds": [seg.hash_seed for seg in segments],
        "samples": attempted,
        "beyond_p95": sum(1 for v in latencies if v > p95),
        "measured_s": round(sum(seg.measured_s for seg in segments), 3),
        "setup_samples_s": [round(seg.setup_s, 3) for seg in segments],
        "confirmed_by_fuzzer": sum(seg.confirmed_by_fuzzer for seg in segments),
    }
    kinds = [k for seg in segments for k in seg.kinds]
    info["kinds"] = {k: kinds.count(k) for k in sorted(set(kinds))}
    for key, value in info.items():
        print(f"# {key}: {value}")
    for segment in segments:
        for message in segment.notes:
            print(f"# note: {message}")
    for message in wrong[:20]:
        print(f"# WRONG VERDICT: {message}", file=sys.stderr)
    if trace:
        traced = [seg for seg in segments if seg.trace_file]
        untraced = [seg for seg in segments if not seg.trace_file] or traced
        values = per_layer(untraced, traced, merged_trace)
        traced_s = [v for seg in traced for v in seg.traced_s]
        traced_ms = 1000.0 * sum(traced_s) / max(1, len(traced_s))
        for line in partition_lines(values, traced_ms):
            print(f"# {line}")
        print(f"# trace: {merged_trace}")
        print(
            "# not yet gateable (vary with PYTHONHASHSEED): "
            + ", ".join(HASH_DEPENDENT)
        )
        metrics = {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in PER_LAYER.items()
        }
    else:
        e2e = end_to_end(segments)
        metrics = {
            name: {"value": float(e2e[name]), "unit": unit}
            for name, unit in END_TO_END.items()
        }
    correct = not wrong
    if failed:
        # The workloads are chosen so that no request fails: an error,
        # budget or non-200 row fails the run, like a wrong verdict.
        print(
            f"perfbench: {failed} of {attempted} rows failed "
            "(error, budget or non-200; see the notes)",
            file=sys.stderr,
        )
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if correct and not failed else 1
