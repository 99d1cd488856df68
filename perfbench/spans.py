"""Span recording around the program's public entry points.

The benchmark attributes time to layers from outside the program: it
replaces a fixed list of public functions and methods with wrappers
that record a span per call (name, start, end, parent, request id) and
restores the originals afterwards.  Spans stay in memory until the run
ends; :func:`chrome_trace` writes them in Chrome trace-event format
(open the file in https://ui.perfetto.dev or ``chrome://tracing``) and
:func:`self_times` reduces them to self time per span name: a span's
duration minus the part covered by its direct children.

Nothing under ``src/`` is edited; with no recorder installed the
program runs unmodified.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Dict, List, Optional

_now = time.perf_counter_ns

#: The innermost open span of the current thread or task.
_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None
)
#: The request the current thread or task works for.
REQUEST_ID: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_request", default=None
)
#: Depth of open idempotence spans: encode spans are recorded only
#: inside idempotence (determinism reports its own encode bucket).
_IN_IDEMPOTENCE: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_idempotence", default=0
)

# Span record layout (a list, mutated in place when the span ends).
NAME, START, END, PARENT, RID, TID = range(6)

#: (module, owner attribute or None, function attribute, span name).
#: Module-level functions are replaced in every loaded ``repro``
#: module that imported them by name, so callers that did
#: ``from X import f`` are covered too.
TARGETS = (
    ("repro.service.orchestrator", "BatchVerifier", "verify_sources", "batch"),
    ("repro.core.pipeline", "Rehearsal", "verify", "pipeline"),
    ("repro.puppet.parser", None, "parse_manifest", "puppet.parse"),
    ("repro.puppet.evaluator", "Evaluator", "evaluate", "puppet.evaluate"),
    ("repro.puppet.catalog", "Catalog", "build_graph", "puppet.graph"),
    ("repro.resources.compiler", "ResourceCompiler", "compile", "resources.compile"),
    ("repro.analysis.lint.engine", None, "lint_source", "lint"),
    ("repro.analysis.determinism", None, "check_determinism", "determinism"),
    ("repro.analysis.idempotence", None, "check_idempotence", "idempotence"),
    (
        "repro.service.incremental",
        None,
        "check_idempotence_incremental",
        "idempotence",
    ),
    ("repro.sat.solver", "Solver", "solve", "sat.solve"),
    ("repro.service.incremental", "IncrementalStore", "get", "incremental.read"),
    ("repro.service.incremental", "IncrementalStore", "get_many", "incremental.read"),
    ("repro.service.incremental", "IncrementalStore", "put", "incremental.write"),
    ("repro.service.incremental", "IncrementalStore", "put_many", "incremental.write"),
    ("repro.service.cache", "VerdictCache", "get", "cache.read"),
    ("repro.service.cache", "VerdictCache", "put", "cache.write"),
    ("repro.service.tiered", "TieredVerdictCache", "get", "cache.read"),
    ("repro.service.tiered", "TieredVerdictCache", "put", "cache.write"),
    ("repro.service.daemon", "RehearsalDaemon", "_handle_client", "daemon.http"),
    ("repro.service.daemon", "RehearsalDaemon", "_verify_async", "daemon.queue"),
    ("repro.service.daemon", "RehearsalDaemon", "_verify_sync", "daemon.worker"),
)

#: Encoding steps of the idempotence check (``e ≡ e;e``): the symbolic
#: execution and formula construction in ``repro.analysis.equivalence``
#: plus Tseitin conversion.  Recorded only under an idempotence span.
ENCODE_TARGETS = (
    ("repro.analysis.equivalence", None, "initial_state"),
    ("repro.analysis.equivalence", None, "apply_expr"),
    ("repro.analysis.equivalence", None, "initial_constraints"),
    ("repro.analysis.equivalence", None, "states_differ"),
    ("repro.logic.cnf", "TseitinEncoder", "lit"),
)


class Recorder:
    """In-memory span store plus the counters read at span boundaries."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        #: Request id -> counter name -> value.
        self.counters: Dict[object, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        self._restore: List[tuple] = []
        self._lock = threading.Lock()

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> list:
        parent = _CURRENT.get()
        record = [name, _now(), 0, parent, REQUEST_ID.get(), threading.get_ident()]
        self.spans.append(record)
        return record

    def wrap(self, name: str, fn, gated: bool = False):
        recorder = self
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                record = recorder._open(name)
                token = _CURRENT.set(record)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    record[END] = _now()
                    _CURRENT.reset(token)

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if gated and not _IN_IDEMPOTENCE.get():
                return fn(*args, **kwargs)
            record = recorder._open(name)
            token = _CURRENT.set(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[END] = _now()
                _CURRENT.reset(token)

        return wrapper

    # -- installation ------------------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _replace_function(self, fn, new) -> None:
        """Swap ``fn`` for ``new`` in every loaded ``repro`` module."""
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._replace(module, attr, new)

    def install(self) -> "Recorder":
        for module_name, owner_name, attr, span in TARGETS:
            module = importlib.import_module(module_name)
            if owner_name is None:
                fn = getattr(module, attr)
                self._replace_function(fn, self._layer_wrapper(span, fn))
            else:
                owner = getattr(module, owner_name)
                fn = owner.__dict__[attr]
                self._replace(owner, attr, self._method_wrapper(span, fn))
        for module_name, owner_name, attr in ENCODE_TARGETS:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(module, owner_name)
            fn = owner.__dict__[attr]
            self._replace(owner, attr, self.wrap("idempotence.encode", fn, gated=True))
        return self

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _layer_wrapper(self, span: str, fn):
        wrapped = self.wrap(span, fn)
        if span == "idempotence":

            @functools.wraps(fn)
            def idempotence(*args, **kwargs):
                token = _IN_IDEMPOTENCE.set(_IN_IDEMPOTENCE.get() + 1)
                try:
                    return wrapped(*args, **kwargs)
                finally:
                    _IN_IDEMPOTENCE.reset(token)

            return idempotence
        if span == "determinism":
            counters = self.counters

            @functools.wraps(fn)
            def determinism(*args, **kwargs):
                result = wrapped(*args, **kwargs)
                _add_determinism_stats(counters[REQUEST_ID.get()], result.stats)
                return result

            return determinism
        return wrapped

    def _method_wrapper(self, span: str, fn):
        wrapped = self.wrap(span, fn)
        if span == "sat.solve":
            counters = self.counters
            lock = self._lock

            @functools.wraps(fn)
            def solve(solver, *args, **kwargs):
                before = (solver.conflicts, solver.decisions, solver.propagations)
                try:
                    return wrapped(solver, *args, **kwargs)
                finally:
                    with lock:
                        mine = counters[REQUEST_ID.get()]
                        mine["sat.calls"] += 1
                        mine["sat.conflicts"] += solver.conflicts - before[0]
                        mine["sat.decisions"] += solver.decisions - before[1]
                        mine["sat.propagations"] += (
                            solver.propagations - before[2]
                        )

            return solve
        if span in ("daemon.queue", "daemon.worker"):
            # Both take (self, name, source): the client's unique
            # request name is the request id.
            if inspect.iscoroutinefunction(fn):

                @functools.wraps(fn)
                async def queued(daemon, name, source):
                    token = REQUEST_ID.set(name)
                    parent = _CURRENT.get()
                    if parent is not None and parent[RID] is None:
                        parent[RID] = name
                    try:
                        return await wrapped(daemon, name, source)
                    finally:
                        REQUEST_ID.reset(token)

                return queued

            @functools.wraps(fn)
            def worker(daemon, name, source):
                token = REQUEST_ID.set(name)
                try:
                    return wrapped(daemon, name, source)
                finally:
                    REQUEST_ID.reset(token)

            return worker
        return wrapped

    # -- reduction ---------------------------------------------------------

    def finished(self) -> List[list]:
        return [s for s in self.spans if s[END]]

    def counters_json(self) -> Dict[str, Dict[str, float]]:
        return {str(rid or ""): dict(c) for rid, c in self.counters.items()}


def total_counters(per_request: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """Sum the counters of every request."""
    out: Dict[str, float] = defaultdict(float)
    for counters in per_request.values():
        for key, value in counters.items():
            out[key] += value
    return dict(out)


def _add_determinism_stats(counters, stats) -> None:
    counters["determinism.verdicts"] += 1
    counters["determinism.explore_s"] += stats.explore_seconds
    counters["determinism.encode_s"] += stats.encode_seconds
    counters["determinism.solve_s"] += stats.solve_seconds
    counters["determinism.branches"] += stats.branches_explored
    counters["determinism.memo_hits"] += stats.memo_hits
    counters["determinism.distinct_finals"] += stats.distinct_finals
    counters["determinism.sat_queries"] += stats.sat_queries
    counters["determinism.prefilter_proved"] += int(stats.prefilter_proved)


def link_requests(spans: List[list]) -> None:
    """Give each parentless span of a daemon request the request's
    queue span as parent: work handed to the verify thread pool loses
    the context-variable parent, but keeps the request id."""
    queues = {s[RID]: s for s in spans if s[NAME] == "daemon.queue"}
    for span in spans:
        if span[PARENT] is None and span[NAME] != "daemon.http":
            queue = queues.get(span[RID])
            if queue is not None:
                span[PARENT] = queue


def self_times(spans: List[list]) -> Dict[str, float]:
    """Seconds of self time per span name."""
    child_ns: Dict[int, int] = defaultdict(int)
    for span in spans:
        parent = span[PARENT]
        if parent is not None:
            child_ns[id(parent)] += span[END] - span[START]
    out: Dict[str, float] = defaultdict(float)
    for span in spans:
        out[span[NAME]] += (span[END] - span[START] - child_ns[id(span)]) / 1e9
    return dict(out)


def inclusive_times(spans: List[list]) -> Dict[str, float]:
    """Seconds inside each span name, counting a span nested in a span
    of the same name once."""
    out: Dict[str, float] = defaultdict(float)
    for span in spans:
        parent = span[PARENT]
        nested = False
        while parent is not None:
            if parent[NAME] == span[NAME]:
                nested = True
                break
            parent = parent[PARENT]
        if not nested:
            out[span[NAME]] += (span[END] - span[START]) / 1e9
    return dict(out)


def chrome_trace(spans: List[list], pid: Optional[int] = None) -> dict:
    """Chrome trace-event JSON (complete events, microseconds)."""
    pid = os.getpid() if pid is None else pid
    index = {id(s): i for i, s in enumerate(spans)}
    events = []
    for i, span in enumerate(spans):
        parent = span[PARENT]
        events.append(
            {
                "name": span[NAME],
                "ph": "X",
                "ts": span[START] / 1000.0,
                "dur": (span[END] - span[START]) / 1000.0,
                "pid": pid,
                "tid": span[TID],
                "args": {
                    "id": i,
                    "parent": index.get(id(parent)) if parent is not None else None,
                    "request": span[RID],
                },
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def spans_from_trace(trace: dict) -> List[list]:
    """Rebuild span records from :func:`chrome_trace` output."""
    events = trace["traceEvents"]
    spans = [
        [
            e["name"],
            int(e["ts"] * 1000),
            int((e["ts"] + e["dur"]) * 1000),
            None,
            e["args"].get("request"),
            e["tid"],
        ]
        for e in events
    ]
    for record, event in zip(spans, events):
        parent = event["args"].get("parent")
        if parent is not None:
            record[PARENT] = spans[parent]
    return spans
