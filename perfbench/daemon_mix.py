"""The ``daemon-mix`` workload: ``rehearsal serve --incremental`` under a
closed-loop mix of cache hits, one-resource edits and never-seen
catalogs.

The daemon runs in its own process at its default ``--workers 1``.
One client process (this one) runs :data:`CLIENT_THREADS` closed-loop
threads that pull requests, in order, from one fixed seeded schedule,
so the set of requests sent is the same whichever thread sends each.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

from inputs import (
    Item,
    corpus_items,
    flat_catalog,
    small_items,
    verdict_of,
)
from segment import Segment
from spans import RID, link_requests, spans_from_trace

HERE = os.path.dirname(os.path.abspath(__file__))

#: Closed-loop client threads (= the 2 cores of the reference machine).
CLIENT_THREADS = 2
#: Request mix, as counts per block of the schedule: repeats of corpus
#: manifests (memory-tier hits), one-resource edits of mid-size
#: catalogs (incremental-store reads and writes), never-seen catalogs
#: (misses writing both caches).  Each block is shuffled on its own,
#: so every stretch of the schedule keeps the mix: drawn one by one,
#: the share of cold requests in a 3-second segment would move by
#: about a fifth from seed to seed, and a run's work with it.
MIX = (("hit", 3), ("edit", 2), ("cold", 1))
#: Corpus manifests (a seeded subset) that the hits repeat.
HIT_TARGETS = 10
#: Mid-size catalogs whose edit streams make up the edit requests
#: (:class:`inputs.FlatCatalog`, the shape the store decomposes).
EDIT_CATALOGS = 4
EDIT_SIZE = 20
#: Never-seen catalogs alternate between a small generated catalog
#: (oracle-decided, at most ``COLD_SMALL_MAX`` resources: the 5- and
#: 6-resource draws have a cost tail long enough to dominate a short
#: segment) and a fresh flat catalog of ``COLD_SIZE`` files.
COLD_SIZE = 12
COLD_SMALL_MAX = 4
#: Schedule length: more than the daemon answers in one segment.
SCHEDULE_LENGTH = 600


# -- inputs --------------------------------------------------------------------


def build_schedule(seed: int, length: int = SCHEDULE_LENGTH):
    """(fill items, schedule).  The fill verifies the hit targets and
    the base version of every edit catalog before the clock starts."""
    rng = random.Random(seed)
    corpus = rng.sample(corpus_items(), HIT_TARGETS)
    hits = [Item(i.name, i.source, i.expected, "hit") for i in corpus]
    bases = [flat_catalog(rng, f"e{c}x", EDIT_SIZE) for c in range(EDIT_CATALOGS)]
    fill = list(corpus) + [
        Item(b.tag, b.source(), (True, True), "edit") for b in bases
    ]
    block = [kind for kind, count in MIX for _ in range(count)]
    kinds: List[str] = []
    while len(kinds) < length:
        rng.shuffle(block)
        kinds += block
    n_cold = kinds.count("cold")
    small = iter(
        small_items(seed, (n_cold + 1) // 2, tag="cold", max_resources=COLD_SMALL_MAX)
    )
    current = list(bases)
    revision = 0
    cold = 0
    schedule: List[Item] = []
    for kind in kinds:
        if kind == "hit":
            schedule.append(rng.choice(hits))
        elif kind == "edit":
            revision += 1
            c = revision % EDIT_CATALOGS
            index = rng.randrange(EDIT_SIZE)
            current[c] = current[c].edited(index, f"r{revision}")
            schedule.append(
                Item(f"{current[c].tag}-r{revision}", current[c].source(), (True, True), "edit")
            )
        else:
            cold += 1
            if cold % 2:
                item = next(small)
                schedule.append(
                    Item(item.name, item.source, item.expected, "cold", oracle=True)
                )
            else:
                fresh = flat_catalog(rng, f"c{cold}x", COLD_SIZE)
                schedule.append(Item(fresh.tag, fresh.source(), (True, True), "cold"))
    return fill, schedule


# -- the daemon process ----------------------------------------------------------


class Daemon:
    """One ``rehearsal serve --incremental`` process with private cache
    and store directories under ``work``."""

    def __init__(self, root: str, work: str, trace_path: Optional[str] = None):
        self.work = work
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        serve = [
            "serve",
            "--incremental",
            "--incremental-dir",
            work,
            "--cache-dir",
            work,
            "--port",
            "0",
        ]
        if trace_path is None:
            command = [sys.executable, "-m", "repro.core.cli", *serve]
        else:
            command = [
                sys.executable,
                os.path.join(HERE, "serve_traced.py"),
                trace_path,
                *serve,
            ]
        self.log_path = os.path.join(work, "daemon.log")
        self._log = open(self.log_path, "wb")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        env.pop("REHEARSAL_INCREMENTAL", None)
        self.process = subprocess.Popen(
            command,
            cwd=root,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=self._log,
        )
        self.port = self._wait_for_port()
        self._wait_healthy()

    def _wait_for_port(self, timeout: float = 60.0) -> int:
        deadline = time.monotonic() + timeout
        pattern = re.compile(rb"serving on http://[^:]+:(\d+)")
        while time.monotonic() < deadline:
            with open(self.log_path, "rb") as handle:
                match = pattern.search(handle.read())
            if match:
                return int(match.group(1))
            if self.process.poll() is not None:
                break
            time.sleep(0.01)
        self.stop()
        raise RuntimeError(f"daemon did not start; log: {self.log_path}")

    def _wait_healthy(self, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                status, _ = self.get("/healthz")
                if status == 200:
                    return
            except OSError:
                pass
            time.sleep(0.01)
        self.stop()
        raise RuntimeError("daemon /healthz never answered")

    def get(self, path: str) -> Tuple[int, bytes]:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def verify(self, name: str, source: str) -> Tuple[int, Optional[dict]]:
        body = json.dumps({"source": source, "name": name}).encode("utf8")
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        try:
            connection.request(
                "POST", "/v1/verify", body, {"Content-Type": "application/json"}
            )
            response = connection.getresponse()
            payload = response.read()
        finally:
            connection.close()
        if response.status != 200:
            return response.status, None
        return 200, json.loads(payload).get("row")

    def cpu_seconds(self) -> float:
        with open(f"/proc/{self.process.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        ticks = os.sysconf("SC_CLK_TCK")
        return (int(fields[11]) + int(fields[12])) / ticks

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def metrics(self) -> Dict[str, float]:
        status, payload = self.get("/metrics")
        out: Dict[str, float] = {}
        if status != 200:
            return out
        for line in payload.decode("utf8").splitlines():
            if line.startswith("#") or not line.strip():
                continue
            key, _, value = line.rpartition(" ")
            try:
                out[key] = float(value)
            except ValueError:
                pass
        return out

    def store_bytes(self) -> int:
        total = 0
        for name in os.listdir(self.work):
            if name.startswith("incremental.sqlite"):
                total += os.path.getsize(os.path.join(self.work, name))
        return total

    def stop(self) -> int:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._log.close()
        return self.process.returncode

    def close(self) -> int:
        code = self.stop()
        shutil.rmtree(self.work, ignore_errors=True)
        return code


def fill(daemon: Daemon, items: List[Item]) -> None:
    """Untimed: verify every hit target and edit base once, then ask
    for a few hit targets again (the warm-up pass).  Any failure here
    aborts the run."""
    for name, item in [(i.name, i) for i in items] + [
        (f"warm-{i.name}", i) for i in items[:3]
    ]:
        status, row = daemon.verify(name, item.source)
        if status != 200 or row is None or row.get("status") == "error":
            raise RuntimeError(f"set-up request {name} failed: HTTP {status}")
        if verdict_of(row) != item.expected:
            raise RuntimeError(
                f"wrong verdict in set-up: {name}: expected {item.expected}, "
                f"got {verdict_of(row)}"
            )


def drive(daemon: Daemon, schedule: List[Item], seconds: float, tag: str):
    """Closed loop: each thread sends its next request when its last
    one is answered.  Returns (records, wall seconds); a record is
    (schedule index, latency, status, row)."""
    lock = threading.Lock()
    cursor = [0]
    records: List[tuple] = []
    deadline = time.perf_counter() + seconds

    def client() -> None:
        while True:
            with lock:
                index = cursor[0]
                if index >= len(schedule) or time.perf_counter() >= deadline:
                    return
                cursor[0] += 1
            item = schedule[index]
            sent = time.perf_counter()
            try:
                status, row = daemon.verify(f"{tag}{index}-{item.name}", item.source)
            except (OSError, http.client.HTTPException, ValueError):
                status, row = 0, None
            latency = time.perf_counter() - sent
            with lock:
                records.append((index, latency, status, row))

    begin = time.perf_counter()
    threads = [threading.Thread(target=client) for _ in range(CLIENT_THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return sorted(records), time.perf_counter() - begin


#: /metrics series read around the measured phase.
CACHE_SERIES = {
    "cache.memory_hits": 'rehearsal_daemon_cache_lookups_total{tier="memory"}',
    "cache.disk_hits": 'rehearsal_daemon_cache_lookups_total{tier="disk"}',
    "cache.misses": 'rehearsal_daemon_cache_lookups_total{tier="miss"}',
}


def run_segment(root: str, seed: int, k: int, seconds: float, trace_file) -> Segment:
    """Start a daemon (traced when ``trace_file`` is given), fill it,
    then drive the segment's schedule for ``seconds``."""
    segment = Segment(trace_file=trace_file)
    tag = f"bench{k}-"
    fill_items, schedule = build_schedule(seed * 1000 + k)
    work = os.path.join(root, ".perfbench", f"daemon-{os.getpid()}")
    spans_file = trace_file + ".daemon" if trace_file else None
    daemon = Daemon(root, work, spans_file)
    try:
        fill(daemon, fill_items)
        segment.setup_s = time.perf_counter() - segment.t0
        before = daemon.metrics()
        cpu0 = daemon.cpu_seconds()
        records, segment.measured_s = drive(daemon, schedule, seconds, tag)
        segment.cpu_s = daemon.cpu_seconds() - cpu0
        after = daemon.metrics()
        segment.peak_rss_mb = daemon.peak_rss_mb()
        segment.extra = {
            name: after.get(series, 0.0) - before.get(series, 0.0)
            for name, series in CACHE_SERIES.items()
        }
        segment.extra["incremental.store_bytes"] = float(daemon.store_bytes())
    finally:
        code = daemon.close()
    if code != 0:
        segment.note(f"daemon exited with {code}")
    if len(records) >= len(schedule):
        segment.note("the schedule ran out before the clock")
    disputed: list = []
    for index, latency, status, row in records:
        item = schedule[index]
        segment.record(item.kind, latency, row)
        if status != 200:
            segment.note(f"request {index} ({item.kind}): HTTP {status}")
        segment.judge(item, row, disputed)
    segment.settle(disputed)
    if trace_file:
        segment.traced_s = list(segment.latencies)
        with open(spans_file, encoding="utf8") as handle:
            daemon_trace = json.load(handle)
        os.remove(spans_file)
        spans = spans_from_trace(daemon_trace)
        link_requests(spans)
        # Only the measured requests: set-up traffic carries other names.
        keep = [s for s in spans if isinstance(s[RID], str) and s[RID].startswith(tag)]
        counters = {
            rid: c for rid, c in daemon_trace.get("counters", {}).items() if rid.startswith(tag)
        }
        pid = daemon_trace["traceEvents"][0]["pid"] if daemon_trace["traceEvents"] else 0
        segment.keep_trace(keep, counters, pid=pid)
    return segment
