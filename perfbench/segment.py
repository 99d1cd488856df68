"""What one measurement segment hands back to the parent process.

A run is split into segments, each a fresh Python process with its own
``PYTHONHASHSEED``: today's verify cost moves by up to a third with the
hash seed alone (ROADMAP item 4a), so one process per run would make
the run-to-run spread mostly a draw of the hash seed.  Each segment
sets up from scratch (that set-up time is one ``setup_s`` sample) and
measures its share of the run's seconds.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

from spans import chrome_trace


@dataclass
class Segment:
    t0: float = field(default_factory=time.perf_counter)
    hash_seed: Optional[str] = field(default_factory=lambda: os.environ.get("PYTHONHASHSEED"))
    setup_s: float = 0.0
    measured_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    failed: int = 0
    wrong: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    latencies: List[float] = field(default_factory=list)
    kinds: List[str] = field(default_factory=list)
    #: Sums over the untraced verdict rows (for the per-layer counts).
    row_counts: Dict[str, float] = field(default_factory=dict)
    #: Traced end-to-end seconds, one per traced verdict.
    traced_s: List[float] = field(default_factory=list)
    #: Spans (Chrome trace-event JSON) and per-request counters.
    trace_file: Optional[str] = None
    #: Workload-specific figures (the daemon's /metrics deltas, ...).
    extra: Dict[str, float] = field(default_factory=dict)
    #: Verdicts the sampled-state oracle could not confirm but the
    #: differential fuzzer's witness replay did.
    confirmed_by_fuzzer: int = 0

    def note(self, message: str) -> None:
        if len(self.notes) < 10:
            self.notes.append(message)

    def judge(self, item, row: Optional[dict], disputed: list, prefix: str = "") -> None:
        """Compare ``row`` with the item's reference verdict.  Error and
        missing rows count as failed; one-sided oracle references go
        to ``disputed`` (settled by :meth:`settle` after the clock
        stops); any other mismatch is a wrong verdict."""
        from inputs import oracle_is_one_sided, verdict_of

        if row is None or row.get("status") == "error":
            if prefix:
                self.wrong.append(f"{prefix}{item.name}: error row")
            else:
                self.failed += 1
                self.note(f"{item.name}: no verdict: {row and row.get('error')}")
            return
        got = verdict_of(row)
        if got == item.expected:
            return
        if item.oracle and oracle_is_one_sided(item.expected, got):
            disputed.append((item, got))
            return
        self.wrong.append(f"{prefix}{item.name}: expected {item.expected}, got {got}")

    def settle(self, disputed: list) -> None:
        from inputs import fuzzer_confirms

        verdicts = {}
        for item, got in disputed:
            key = (item.source, got)
            if key not in verdicts:
                verdicts[key] = fuzzer_confirms(item, got)
            if verdicts[key]:
                self.confirmed_by_fuzzer += 1
            else:
                self.wrong.append(
                    f"{item.name}: expected {item.expected}, got {got} "
                    "(not confirmed by the fuzzer's witness replay)"
                )

    def record(self, kind: str, latency: float, row: Optional[dict]) -> None:
        self.latencies.append(latency)
        self.kinds.append(kind)
        if row is None or row.get("status") == "error":
            return
        counts = self.row_counts
        lint = row.get("lint") or {}
        for key, value in (
            ("rows", 1),
            ("resources", row.get("resource_count", 0)),
            ("diagnostics", len(lint.get("diagnostics") or [])),
            ("reuse_hits", row.get("subtree_reuse_hits", 0)),
            ("cnf_cache_hits", row.get("cnf_cache_hits", 0)),
        ):
            counts[key] = counts.get(key, 0) + value

    def keep_trace(
        self, spans, counters: Dict[str, Dict[str, float]], pid: Optional[int] = None
    ) -> None:
        trace = chrome_trace(spans, pid=pid)
        trace["counters"] = counters
        with open(self.trace_file, "w", encoding="utf8") as handle:
            json.dump(trace, handle)

    def save(self, path: str) -> None:
        data = asdict(self)
        data.pop("t0")
        with open(path, "w", encoding="utf8") as handle:
            json.dump(data, handle)

    @classmethod
    def load(cls, path: str) -> "Segment":
        with open(path, encoding="utf8") as handle:
            data = json.load(handle)
        return cls(**data)
