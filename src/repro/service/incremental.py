"""Cross-run incremental verification store (ROADMAP #4).

The verdict cache (:mod:`repro.service.cache`) memoizes whole-manifest
results: one edited line invalidates everything.  This module keys the
two memos of the commuting decomposition on content digests instead, so
a re-verify after a small edit re-checks only what the edit touched.

The dominant cost of a verify on large catalogs is the ``e ≡ e; e``
check over the whole sequenced catalog.
:func:`check_idempotence_incremental` decomposes it: when every
resource pair commutes (Lemma 4), ``e;e`` reorders to
``r1;r1;…;rn;rn``, so per-resource idempotence (over *all* states, a
strictly stronger property than the well-formed-initial variant)
implies catalog idempotence.  The store holds exactly what that needs:

- **Commutativity verdicts** (``commute`` section): one bool per
  resource-pair *footprint* digest, so unchanged pairs skip
  :func:`repro.analysis.commutativity.footprints_commute`.
- **Per-resource idempotence** (``idem`` section): one bool per
  program digest, so unchanged resources skip their ``r;r ≡ r`` SAT
  check.

The fast path only ever concludes *positively*; any non-commuting pair
or non-idempotent resource falls back to the exact from-scratch check,
so verdicts are byte-identical either way.

Storage is a single SQLite database (stdlib ``sqlite3``), versioned by
``STORE_VERSION`` *and* the package version: any mismatch drops the
store and starts cold.  Every storage failure — corruption, truncated
file, permission trouble — degrades to a cold run, never to a wrong
verdict: the store disables itself and every lookup misses.
"""

from __future__ import annotations

import dataclasses
import hashlib
import sqlite3
import threading
import time
from pathlib import Path as OsPath
from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Tuple

import networkx as nx

from repro import __version__
from repro.analysis.commutativity import Footprint, footprint, footprints_commute
from repro.analysis.equivalence import check_equivalence
from repro.analysis.idempotence import IdempotenceResult, check_idempotence
from repro.fs import syntax as fx

NodeId = Hashable

#: Bump to invalidate every persisted entry (layout or semantics
#: change).  The package version is part of the gate too, mirroring the
#: verdict cache's version rotation.
STORE_VERSION = 2

_STORE_FILENAME = "incremental.sqlite"


def default_store_path(directory: Optional[str] = None) -> OsPath:
    """The store location: ``<cache-dir>/incremental.sqlite`` unless an
    explicit directory is given."""
    if directory:
        return OsPath(directory) / _STORE_FILENAME
    from repro.service.cache import default_cache_dir

    return default_cache_dir() / _STORE_FILENAME


class IncrementalStore:
    """A sectioned key/value store over one SQLite file.

    All values are JSON strings.  The store is defensive end to end:
    any :mod:`sqlite3` error disables it (reads miss, writes drop) for
    the rest of the process — a damaged store can cost a cold run but
    can never corrupt a verdict.  A version mismatch on open drops all
    entries, which is what makes schema bumps invalidate cleanly.
    """

    def __init__(self, path: OsPath):
        self.path = OsPath(path)
        self.disabled = False
        self._lock = threading.Lock()
        self._conn: Optional[sqlite3.Connection] = None
        try:
            self._open()
        except sqlite3.Error:
            # A corrupted database file: delete and retry once, then
            # give up and run cold.
            self._close_quietly()
            try:
                self.path.unlink()
            except OSError:
                pass
            try:
                self._open()
            except (sqlite3.Error, OSError):
                self._close_quietly()
                self.disabled = True
        except OSError:
            self.disabled = True

    # -- lifecycle ----------------------------------------------------------

    def _open(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        conn = sqlite3.connect(
            str(self.path), timeout=10.0, check_same_thread=False
        )
        self._conn = conn
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        conn.execute(
            "CREATE TABLE IF NOT EXISTS meta ("
            "key TEXT PRIMARY KEY, value TEXT NOT NULL)"
        )
        conn.execute(
            "CREATE TABLE IF NOT EXISTS entries ("
            "section TEXT NOT NULL, key TEXT NOT NULL, "
            "value TEXT NOT NULL, updated_at REAL NOT NULL, "
            "PRIMARY KEY (section, key))"
        )
        expected = f"{STORE_VERSION}:{__version__}"
        row = conn.execute(
            "SELECT value FROM meta WHERE key = 'version'"
        ).fetchone()
        if row is None or row[0] != expected:
            conn.execute("DELETE FROM entries")
            conn.execute(
                "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
                ("version", expected),
            )
        conn.commit()

    def _close_quietly(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            except sqlite3.Error:
                pass
            self._conn = None

    def close(self) -> None:
        with self._lock:
            self._close_quietly()
            self.disabled = True

    def _trip(self) -> None:
        """First storage error wins: run cold from here on."""
        self.disabled = True
        self._close_quietly()

    # -- key/value ----------------------------------------------------------

    def get(self, section: str, key: str) -> Optional[str]:
        if self.disabled:
            return None
        with self._lock:
            if self._conn is None:
                return None
            try:
                row = self._conn.execute(
                    "SELECT value FROM entries WHERE section=? AND key=?",
                    (section, key),
                ).fetchone()
            except sqlite3.Error:
                self._trip()
                return None
        return row[0] if row else None

    def get_many(
        self, section: str, keys: Iterable[str]
    ) -> Dict[str, str]:
        """Batched lookup (one SELECT per ~500 keys) — the warm path
        asks for hundreds of pair verdicts at once and per-key queries
        would dominate the very latency this store exists to remove."""
        out: Dict[str, str] = {}
        if self.disabled:
            return out
        keys = list(keys)
        with self._lock:
            if self._conn is None:
                return out
            try:
                for i in range(0, len(keys), 500):
                    chunk = keys[i : i + 500]
                    marks = ",".join("?" * len(chunk))
                    rows = self._conn.execute(
                        f"SELECT key, value FROM entries "
                        f"WHERE section=? AND key IN ({marks})",
                        [section, *chunk],
                    ).fetchall()
                    out.update(rows)
            except sqlite3.Error:
                self._trip()
                return {}
        return out

    def put(self, section: str, key: str, value: str) -> None:
        self.put_many(section, [(key, value)])

    def put_many(
        self, section: str, items: Iterable[Tuple[str, str]]
    ) -> None:
        if self.disabled:
            return
        now = time.time()
        rows = [(section, k, v, now) for k, v in items]
        if not rows:
            return
        with self._lock:
            if self._conn is None:
                return
            try:
                self._conn.executemany(
                    "INSERT OR REPLACE INTO entries "
                    "(section, key, value, updated_at) VALUES (?, ?, ?, ?)",
                    rows,
                )
                self._conn.commit()
            except sqlite3.Error:
                self._trip()

    # -- maintenance ---------------------------------------------------------

    def stats(self) -> dict:
        """Per-section entry counts and value bytes plus the on-disk
        size, for ``rehearsal cache stats``.  The on-disk size counts
        the ``-wal`` and ``-shm`` files too: recent writes live in the
        write-ahead log until a checkpoint folds them into the main
        file."""
        sections: Dict[str, dict] = {}
        entries = 0
        value_bytes = 0
        if not self.disabled:
            with self._lock:
                if self._conn is not None:
                    try:
                        rows = self._conn.execute(
                            "SELECT section, COUNT(*), "
                            "COALESCE(SUM(LENGTH(value)), 0) "
                            "FROM entries GROUP BY section ORDER BY section"
                        ).fetchall()
                    except sqlite3.Error:
                        self._trip()
                        rows = []
                    for section, count, nbytes in rows:
                        sections[section] = {
                            "entries": count,
                            "bytes": nbytes,
                        }
                        entries += count
                        value_bytes += nbytes
        file_bytes = 0
        for suffix in ("", "-wal", "-shm"):
            try:
                file_bytes += OsPath(f"{self.path}{suffix}").stat().st_size
            except OSError:
                pass
        return {
            "path": str(self.path),
            "entries": entries,
            "bytes": file_bytes,
            "value_bytes": value_bytes,
            "sections": sections,
        }

    def clear(self) -> int:
        """Drop every entry; returns how many were removed."""
        if self.disabled:
            return 0
        with self._lock:
            if self._conn is None:
                return 0
            try:
                (count,) = self._conn.execute(
                    "SELECT COUNT(*) FROM entries"
                ).fetchone()
                self._conn.execute("DELETE FROM entries")
                self._conn.commit()
                self._conn.execute("VACUUM")
            except sqlite3.Error:
                self._trip()
                return 0
        return count

    def gc(self, max_bytes: int) -> int:
        """Evict least-recently-updated entries until the summed value
        bytes fit in ``max_bytes``; returns entries removed."""
        if self.disabled:
            return 0
        removed = 0
        with self._lock:
            if self._conn is None:
                return 0
            try:
                rows = self._conn.execute(
                    "SELECT section, key, LENGTH(value), updated_at "
                    "FROM entries ORDER BY updated_at"
                ).fetchall()
                total = sum(r[2] for r in rows)
                doomed = []
                for section, key, size, _at in rows:
                    if total <= max_bytes:
                        break
                    doomed.append((section, key))
                    total -= size
                    removed += 1
                if doomed:
                    self._conn.executemany(
                        "DELETE FROM entries WHERE section=? AND key=?",
                        doomed,
                    )
                    self._conn.commit()
                    self._conn.execute("VACUUM")
            except sqlite3.Error:
                self._trip()
                return removed
        return removed


# One store handle per path per process: verify-batch workers and
# repeated verifies share the connection (and its page cache) instead
# of reopening SQLite per manifest.
_stores: Dict[str, IncrementalStore] = {}
_stores_lock = threading.Lock()


def open_store(directory: Optional[str] = None) -> Optional[IncrementalStore]:
    """The process-wide store for ``directory`` (default cache dir),
    or None when storage is unusable (degrade to cold)."""
    path = default_store_path(directory)
    key = str(path)
    with _stores_lock:
        store = _stores.get(key)
        if store is None or store.disabled:
            store = IncrementalStore(path)
            _stores[key] = store
    return None if store.disabled else store


def reset_store_registry() -> None:
    """Close and forget every open store (tests re-point the cache dir
    between cases; a cached handle would keep writing to the old one)."""
    with _stores_lock:
        for store in _stores.values():
            store.close()
        _stores.clear()


# -- content digests ---------------------------------------------------------


def _blake(text: str) -> str:
    return hashlib.blake2b(text.encode("utf8"), digest_size=16).hexdigest()


def expr_digest(e: fx.Expr) -> str:
    """Stable content digest of an FS program (or predicate): a
    canonical serialization of the AST, independent of object identity
    and process."""
    return _blake(_ast_repr(e))


def _ast_repr(obj: object) -> str:
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        inner = ",".join(
            f"{f.name}={_ast_repr(getattr(obj, f.name))}"
            for f in dataclasses.fields(obj)
        )
        return f"{type(obj).__name__}({inner})"
    if isinstance(obj, str):
        return repr(obj)
    if isinstance(obj, (tuple, list)):
        return "[" + ",".join(_ast_repr(x) for x in obj) + "]"
    return repr(obj)


def footprint_digest(fp: Footprint) -> str:
    """Stable digest of a footprint — the commutativity cache key
    material (two resources with equal footprints share verdicts)."""
    accesses = sorted((str(p), a.name) for p, a in fp.accesses)
    children = sorted(str(p) for p in fp.children_reads)
    return _blake(f"fp:{accesses!r}:{children!r}")


# -- cached commutativity matrix ---------------------------------------------


def _memo_bit(raw: Optional[str]) -> Optional[str]:
    """A stored ``commute``/``idem`` value, or None when it is missing
    or damaged (anything but "0"/"1"): the caller recomputes it and
    overwrites the entry."""
    return raw if raw in ("0", "1") else None


def cached_commutativity_matrix(
    footprints: Mapping[NodeId, Footprint],
    store: IncrementalStore,
) -> Tuple[Dict[NodeId, Dict[NodeId, bool]], int]:
    """All-pairs commutativity, with per-pair verdicts persisted by
    footprint digest.  Returns ``(matrix, cache_hits)``; the matrix is
    exactly :func:`~repro.analysis.commutativity.commutativity_matrix`'s."""
    keys = list(footprints)
    matrix: Dict[NodeId, Dict[NodeId, bool]] = {k: {k: True} for k in keys}
    digests = {k: footprint_digest(footprints[k]) for k in keys}
    pair_key: Dict[Tuple[NodeId, NodeId], str] = {}
    for i, a in enumerate(keys):
        for b in keys[i + 1 :]:
            da, db = sorted((digests[a], digests[b]))
            pair_key[(a, b)] = f"{da}:{db}"
    cached = store.get_many("commute", set(pair_key.values()))
    hits = 0
    fresh: Dict[str, str] = {}
    for (a, b), key in pair_key.items():
        raw = fresh.get(key)
        if raw is None:
            raw = _memo_bit(cached.get(key))
            if raw is not None:
                hits += 1
        if raw is not None:
            commute = raw == "1"
        else:
            commute = footprints_commute(footprints[a], footprints[b])
            fresh[key] = "1" if commute else "0"
        matrix[a][b] = commute
        matrix[b][a] = commute
    if fresh:
        store.put_many("commute", list(fresh.items()))
    return matrix, hits


# -- incremental idempotence -------------------------------------------------


def check_idempotence_incremental(
    graph: "nx.DiGraph",
    programs: Dict[NodeId, fx.Expr],
    options,
    stats=None,
) -> IdempotenceResult:
    """Idempotence with cross-run reuse; byte-identical verdicts.

    1. **Commuting decomposition**: when every resource pair commutes
       (Lemma 4), ``e;e = r1…rn;r1…rn ≡ r1;r1;…;rn;rn``, so catalog
       idempotence follows from per-resource idempotence.  Each
       ``ri;ri ≡ ri`` is checked over *all* initial states
       (``well_formed_initial=False`` — stronger than the catalog
       property, so the implication needs no well-formedness
       preservation argument) and cached by program digest.  This step
       only ever concludes **positively**; a non-commuting pair or a
       non-idempotent resource falls through.
    2. **Exact fallback**: the unmodified from-scratch
       :func:`~repro.analysis.idempotence.check_idempotence` — same
       code path, same witness, byte-identical result.

    Reuse counters land on ``stats`` (a
    :class:`~repro.analysis.determinism.DeterminismStats`) when given.
    """
    start = time.perf_counter()
    wf = bool(options.well_formed_initial)
    store = open_store(getattr(options, "incremental_dir", None))
    if store is None:
        return check_idempotence(graph, programs, well_formed_initial=wf)

    order: List[NodeId] = list(nx.topological_sort(graph))
    prints = {n: footprint(programs[n]) for n in order}
    matrix, commute_hits = cached_commutativity_matrix(prints, store)
    if stats is not None:
        stats.commute_cache_hits += commute_hits
    all_commute = all(
        matrix[a][b]
        for i, a in enumerate(order)
        for b in order[i + 1 :]
    )

    if all_commute:
        digests = {n: expr_digest(programs[n]) for n in order}
        cached_bools = store.get_many("idem", [digests[n] for n in order])
        all_idem = True
        fresh: Dict[str, str] = {}
        for n in order:
            raw = fresh.get(digests[n])
            if raw is None:
                raw = _memo_bit(cached_bools.get(digests[n]))
                if raw is not None and stats is not None:
                    stats.subtree_reuse_hits += 1
            if raw is not None:
                idem = raw == "1"
            else:
                e = programs[n]
                idem = check_equivalence(
                    e, fx.seq(e, e), well_formed_initial=False
                ).equivalent
                fresh[digests[n]] = "1" if idem else "0"
            if not idem:
                all_idem = False
                break
        if fresh:
            store.put_many("idem", list(fresh.items()))
        if all_idem:
            return IdempotenceResult(
                idempotent=True,
                witness_fs=None,
                total_seconds=time.perf_counter() - start,
            )

    result = check_idempotence(graph, programs, well_formed_initial=wf)
    return IdempotenceResult(
        idempotent=result.idempotent,
        witness_fs=result.witness_fs,
        total_seconds=time.perf_counter() - start,
    )
