"""The persistent incremental store (docs/incremental.md).

The contract under test: an incremental run produces byte-identical
verdicts, witnesses, and race localizations to a from-scratch run —
with the store hot, cold, corrupted, or version-rotated — and a warm
re-verify actually reuses recorded work (the counters prove it).
"""

import json
import os
import subprocess
import sys

import pytest

from repro import DeterminismOptions, Rehearsal
from repro.corpus import BENCHMARK_NAMES, FIXED_VARIANTS, load_source
from repro.service.incremental import (
    IncrementalStore,
    check_idempotence_incremental,
    default_store_path,
    expr_digest,
    open_store,
    reset_store_registry,
)
from repro.service.schema import ManifestResult

ALL_MANIFESTS = list(BENCHMARK_NAMES) + sorted(FIXED_VARIANTS)

#: Row fields that legitimately differ between an incremental and a
#: from-scratch run: timings, cache bookkeeping, and the reuse
#: counters themselves (they describe the run, not the verdict).
RUN_CIRCUMSTANCE_FIELDS = (
    "seconds",
    "solver_seconds",
    "cached",
    "cache_key",
    "subtree_reuse_hits",
    "commute_cache_hits",
)


@pytest.fixture(autouse=True)
def _fresh_registry():
    """Each test gets its own store handles; close them afterwards so
    temp directories can be deleted on every platform."""
    reset_store_registry()
    yield
    reset_store_registry()


def normalized_row(report, name: str) -> dict:
    row = ManifestResult.from_report(report).to_dict()
    for field in RUN_CIRCUMSTANCE_FIELDS:
        row.pop(field, None)
    row["name"] = name
    return row


def verify(source: str, options: DeterminismOptions, name="m.pp"):
    return Rehearsal(options=options).verify(source, name=name)


def scratch_options() -> DeterminismOptions:
    # Explicit, so the suite stays honest under REHEARSAL_INCREMENTAL=1
    # (the CI matrix cell that forces the store on).
    return DeterminismOptions(incremental=False)


def incremental_options(directory) -> DeterminismOptions:
    return DeterminismOptions(incremental=True, incremental_dir=str(directory))


# -- fingerprint stability ----------------------------------------------------


class TestStructuralDigest:
    def test_expr_digest_tracks_program_content(self):
        from repro.fs import creat

        assert expr_digest(creat("/a", "one")) == expr_digest(
            creat("/a", "one")
        )
        assert expr_digest(creat("/a", "one")) != expr_digest(
            creat("/a", "two")
        )

    def test_program_digests_do_not_depend_on_the_hash_seed(self):
        # The ``idem`` memo is keyed by program digest, so a program
        # that changed with PYTHONHASHSEED would miss in every new
        # process.  Package programs create their directory trees; the
        # mkdirs of one depth must come out in a fixed order.
        script = (
            "import json\n"
            "from repro import Rehearsal\n"
            "from repro.corpus import load_source\n"
            "from repro.service.incremental import expr_digest\n"
            "_, programs = Rehearsal().compile(load_source('ntp-fixed'))\n"
            "print(json.dumps({str(n): expr_digest(p)"
            " for n, p in programs.items()}, sort_keys=True))\n"
        )
        digests = []
        for seed in ("1", "2", "3"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(
                [os.path.abspath("src")] + sys.path
            )
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            digests.append(json.loads(proc.stdout))
        assert "Package['ntp']" in digests[0]
        assert digests[0] == digests[1] == digests[2]


# -- the store itself ---------------------------------------------------------


class TestIncrementalStore:
    def test_round_trip_and_batch(self, tmp_path):
        store = IncrementalStore(tmp_path / "s.sqlite")
        store.put("idem", "k1", "v1")
        store.put_many("idem", [("k2", "v2"), ("k3", "v3")])
        assert store.get("idem", "k1") == "v1"
        assert store.get_many("idem", ["k1", "k2", "k3", "nope"]) == {
            "k1": "v1",
            "k2": "v2",
            "k3": "v3",
        }
        assert store.get("other-section", "k1") is None
        store.close()

    def test_survives_reopen(self, tmp_path):
        path = tmp_path / "s.sqlite"
        store = IncrementalStore(path)
        store.put("idem", "k", "1")
        store.close()
        again = IncrementalStore(path)
        assert again.get("idem", "k") == "1"
        again.close()

    def test_version_rotation_empties_the_store(self, tmp_path, monkeypatch):
        import repro.service.incremental as inc_mod

        path = tmp_path / "s.sqlite"
        store = IncrementalStore(path)
        store.put("idem", "k", "v")
        store.close()
        monkeypatch.setattr(
            inc_mod, "STORE_VERSION", inc_mod.STORE_VERSION + 1
        )
        rotated = IncrementalStore(path)
        assert rotated.get("idem", "k") is None
        assert not rotated.disabled
        rotated.close()

    def test_garbage_file_is_recreated(self, tmp_path):
        path = tmp_path / "s.sqlite"
        path.write_bytes(b"this is not a sqlite database at all\x00\xff")
        store = IncrementalStore(path)
        assert not store.disabled
        store.put("idem", "k", "v")
        assert store.get("idem", "k") == "v"
        store.close()

    def test_unwritable_location_disables_not_crashes(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where a directory must go")
        store = IncrementalStore(blocker / "s.sqlite")
        assert store.disabled
        assert store.get("idem", "k") is None
        store.put("idem", "k", "v")  # must not raise
        assert store.stats()["entries"] == 0
        assert store.clear() == 0
        assert store.gc(0) == 0

    def test_gc_evicts_oldest_first(self, tmp_path):
        store = IncrementalStore(tmp_path / "s.sqlite")
        store.put("idem", "old", "x" * 100)
        store.put("idem", "new", "y" * 100)
        removed = store.gc(150)
        assert removed == 1
        assert store.get("idem", "old") is None
        assert store.get("idem", "new") is not None
        store.close()

    def test_stats_bytes_count_the_write_ahead_log(self, tmp_path):
        # Recent writes live in the -wal file until a checkpoint; the
        # reported on-disk size must include it.
        store = IncrementalStore(tmp_path / "s.sqlite")
        store.put_many("idem", [(f"k{i}", "x" * 1000) for i in range(400)])
        stats = store.stats()
        assert stats["value_bytes"] >= 400_000
        assert stats["bytes"] >= stats["value_bytes"]
        store.close()

    def test_default_store_path_honors_cache_dir_env(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REHEARSAL_CACHE_DIR", str(tmp_path))
        assert default_store_path(None).parent == tmp_path

    def test_open_store_registry_reuses_handles(self, tmp_path):
        a = open_store(str(tmp_path))
        b = open_store(str(tmp_path))
        assert a is b


# -- verdict parity: incremental vs. from-scratch -----------------------------


class TestCorpusParity:
    @pytest.mark.parametrize("name", ALL_MANIFESTS)
    def test_rows_byte_identical_cold_and_warm(self, name, tmp_path):
        source = load_source(name)
        opts = incremental_options(tmp_path)
        baseline = normalized_row(
            verify(source, scratch_options(), name), name
        )
        cold = normalized_row(verify(source, opts, name), name)
        reset_store_registry()  # force re-open: simulates a new process
        warm_report = verify(source, opts, name)
        warm = normalized_row(warm_report, name)
        assert cold == baseline
        assert warm == baseline
        # The warm run actually reused the store, it didn't just agree.
        # The store memoizes the idempotence decomposition, which only
        # runs once a manifest is proved deterministic.
        if warm_report.deterministic:
            stats = warm_report.determinism.stats
            assert stats.subtree_reuse_hits + stats.commute_cache_hits > 0

    def test_nondet_race_localization_is_identical(self, tmp_path):
        source = load_source("ntp-nondet")
        opts = incremental_options(tmp_path)
        base = verify(source, scratch_options()).determinism
        verify(source, opts)
        reset_store_registry()
        served = verify(source, opts).determinism
        assert not served.deterministic
        assert str(served.race.resource_a) == str(base.race.resource_a)
        assert str(served.race.resource_b) == str(base.race.resource_b)
        assert str(served.race.path) == str(base.race.path)
        assert served.witness_fs == base.witness_fs
        assert served.witness_orders == base.witness_orders
        assert served.witness_outcomes == base.witness_outcomes


# -- degradation: a damaged store can cost time, never a verdict --------------


class TestDegradation:
    def test_corrupted_store_file_still_verifies_correctly(self, tmp_path):
        source = load_source("ntp-fixed")
        opts = incremental_options(tmp_path)
        baseline = normalized_row(verify(source, scratch_options()), "m")
        verify(source, opts)
        reset_store_registry()
        default_store_path(str(tmp_path)).write_bytes(b"\x00garbage\xff" * 64)
        assert normalized_row(verify(source, opts), "m") == baseline

    def test_store_deleted_mid_run_still_verifies(self, tmp_path):
        source = load_source("bind")
        opts = incremental_options(tmp_path)
        verify(source, opts)
        # The open handle survives the unlink (POSIX); the next run
        # must neither crash nor serve anything wrong.
        default_store_path(str(tmp_path)).unlink()
        baseline = normalized_row(verify(source, scratch_options()), "m")
        assert normalized_row(verify(source, opts), "m") == baseline

    def test_damaged_entries_are_misses_not_crashes(self, tmp_path):
        # clamav fills the `commute` memo; a catalog of disjoint files
        # commutes pairwise, so it fills the `idem` memo too.
        sources = [
            load_source("clamav"),
            "\n".join(
                f"file {{ '/etc/app/c{i}.cfg': content => 'v{i}' }}"
                for i in range(4)
            ),
        ]
        opts = incremental_options(tmp_path)
        baselines = [
            normalized_row(verify(source, scratch_options()), "m")
            for source in sources
        ]
        for source in sources:
            verify(source, opts)
        store = open_store(str(tmp_path))
        with store._lock:
            damaged = store._conn.execute(
                "UPDATE entries SET value = 'not json {' "
                "WHERE section IN ('commute', 'idem')"
            ).rowcount
            store._conn.commit()
        assert damaged > 0
        reset_store_registry()
        for source, baseline in zip(sources, baselines):
            assert normalized_row(verify(source, opts), "m") == baseline
        # The re-verify recomputed every damaged entry and wrote it
        # back, so the next run reuses it instead of missing again.
        store = open_store(str(tmp_path))
        with store._lock:
            values = store._conn.execute(
                "SELECT section, value FROM entries "
                "WHERE section IN ('commute', 'idem')"
            ).fetchall()
        assert {section for section, _ in values} == {"commute", "idem"}
        assert len(values) == damaged
        assert {value for _, value in values} <= {"0", "1"}


# -- the idempotence decomposition --------------------------------------------


class TestIdempotenceDecomposition:
    def test_decomposition_matches_scratch_on_commuting_catalog(
        self, tmp_path
    ):
        from repro.analysis.idempotence import check_idempotence

        source = "\n".join(
            f"file {{ '/etc/app/c{i}.cfg': content => 'v{i}' }}"
            for i in range(6)
        )
        tool = Rehearsal()
        graph, programs = tool.compile(source)
        opts = incremental_options(tmp_path)
        scratch = check_idempotence(graph, programs)
        cold = check_idempotence_incremental(graph, programs, opts)
        warm = check_idempotence_incremental(graph, programs, opts)
        assert cold.idempotent == scratch.idempotent
        assert warm.idempotent == scratch.idempotent
        assert cold.witness_fs == scratch.witness_fs
        assert warm.witness_fs == scratch.witness_fs

    def test_non_idempotent_resource_falls_back_exactly(self, tmp_path):
        # All pairs commute (disjoint paths), but one resource is a
        # toggle — not idempotent — so the per-resource check fails
        # and the exact fallback must reproduce the scratch witness,
        # cold and with the recorded ``idem`` verdicts.
        import networkx as nx

        from repro.analysis.idempotence import check_idempotence
        from repro.fs import Path, creat, file_, ite, rm

        p = Path.of("/toggle")
        programs = {
            "toggle": ite(file_(p), rm(p), creat(p, "x")),
            "plain": creat("/other", "y"),
        }
        graph = nx.DiGraph()
        graph.add_nodes_from(programs)
        opts = incremental_options(tmp_path)
        scratch = check_idempotence(graph, programs)
        assert not scratch.idempotent
        cold = check_idempotence_incremental(graph, programs, opts)
        warm = check_idempotence_incremental(graph, programs, opts)
        for result in (cold, warm):
            assert result.idempotent == scratch.idempotent
            assert result.witness_fs == scratch.witness_fs

    def test_decomposition_negative_case_matches_scratch(self, tmp_path):
        # A shared path breaks all-pairs commutativity: the
        # decomposition must not conclude, and the fallback verdict
        # (and witness) must equal the from-scratch one.
        from repro.analysis.idempotence import check_idempotence

        source = (
            "file { '/etc/x.conf': content => 'a' }\n"
            "package { 'x': ensure => installed }\n"
        )
        tool = Rehearsal()
        graph, programs = tool.compile(source)
        opts = incremental_options(tmp_path)
        scratch = check_idempotence(graph, programs)
        cold = check_idempotence_incremental(graph, programs, opts)
        warm = check_idempotence_incremental(graph, programs, opts)
        assert cold.idempotent == scratch.idempotent
        assert cold.witness_fs == scratch.witness_fs
        assert warm.idempotent == scratch.idempotent
        assert warm.witness_fs == scratch.witness_fs


# -- cross-process rehydration ------------------------------------------------


_SUBPROCESS_SCRIPT = """
import json, sys
from repro import DeterminismOptions, Rehearsal

source = open(sys.argv[1], encoding="utf8").read()
options = DeterminismOptions(incremental=True, incremental_dir=sys.argv[2])
report = Rehearsal(options=options).verify(source, name="m.pp")
stats = report.determinism.stats
race = report.determinism.race
print(json.dumps({
    "deterministic": report.deterministic,
    "idempotent": report.idempotent,
    "race": [str(race.resource_a), str(race.resource_b), str(race.path)]
        if race is not None else None,
    "reuse": stats.subtree_reuse_hits + stats.commute_cache_hits,
}))
"""


class TestCrossProcess:
    @pytest.mark.parametrize("name", ["ntp-fixed", "ntp-nondet"])
    def test_new_process_rehydrates_identical_verdict(self, name, tmp_path):
        manifest = tmp_path / "m.pp"
        manifest.write_text(load_source(name), encoding="utf8")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.abspath("src")] + sys.path
        )

        def run(hash_seed):
            # Each process gets its own pinned hash seed: store keys
            # must not depend on it.
            proc = subprocess.run(
                [
                    sys.executable,
                    "-c",
                    _SUBPROCESS_SCRIPT,
                    str(manifest),
                    str(tmp_path / "store"),
                ],
                capture_output=True,
                text=True,
                env=dict(env, PYTHONHASHSEED=hash_seed),
                check=True,
            )
            return json.loads(proc.stdout)

        first = run("1")
        second = run("2")
        assert first["reuse"] == 0 or first["deterministic"] is not None
        if first["deterministic"]:
            assert second["reuse"] > 0, "second process must hit the store"
        for key in ("deterministic", "idempotent", "race"):
            assert first[key] == second[key]


# -- the warm developer loop --------------------------------------------------


class TestEditLatency:
    def test_one_resource_edit_reuses_untouched_resources(self, tmp_path):
        from repro.bench.harness import edit_latency_catalog

        n = 12
        base = edit_latency_catalog(n)
        edited = edit_latency_catalog(n, edited=True)
        opts = incremental_options(tmp_path)
        cold = verify(base, opts)
        assert cold.ok
        reset_store_registry()
        warm = verify(edited, opts)
        assert warm.ok
        stats = warm.determinism.stats
        # Every untouched resource's idempotence verdict is served.
        assert stats.subtree_reuse_hits >= n - 2
        scratch = verify(edited, scratch_options())
        assert normalized_row(warm, "m") == normalized_row(scratch, "m")


# -- the cache CLI ------------------------------------------------------------


class TestCacheCli:
    def run_cli(self, *argv):
        from repro.core.cli import main

        return main(list(argv))

    def test_stats_clear_gc(self, tmp_path, capsys):
        source_path = tmp_path / "m.pp"
        source_path.write_text(load_source("bind"), encoding="utf8")
        assert (
            self.run_cli(
                "verify",
                str(source_path),
                "--incremental",
                "--incremental-dir",
                str(tmp_path / "cache"),
            )
            == 0
        )
        reset_store_registry()

        assert (
            self.run_cli("cache", "--cache-dir", str(tmp_path / "cache"), "stats")
            == 0
        )
        out = capsys.readouterr().out
        assert "incremental store" in out
        assert "  commute: " in out

        assert (
            self.run_cli(
                "cache",
                "--cache-dir",
                str(tmp_path / "cache"),
                "gc",
                "--max-bytes",
                "0",
            )
            == 0
        )
        assert "incremental row(s)" in capsys.readouterr().out

        assert (
            self.run_cli("cache", "--cache-dir", str(tmp_path / "cache"), "clear")
            == 0
        )
        reset_store_registry()
        store = IncrementalStore(default_store_path(str(tmp_path / "cache")))
        assert store.stats()["entries"] == 0
        store.close()

    def test_gc_rejects_negative_budget(self, tmp_path):
        assert (
            self.run_cli(
                "cache",
                "--cache-dir",
                str(tmp_path),
                "gc",
                "--max-bytes",
                "-1",
            )
            == 2
        )

    def test_rejected_gc_and_fresh_stats_create_no_store(
        self, tmp_path, capsys
    ):
        cache_dir = tmp_path / "D"
        assert (
            self.run_cli(
                "cache", "--cache-dir", str(cache_dir), "gc",
                "--max-bytes", "-1",
            )
            == 2
        )
        assert not cache_dir.exists()
        assert self.run_cli("cache", "--cache-dir", str(cache_dir), "stats") == 0
        assert "incremental store: 0 row(s), 0 bytes on disk" in (
            capsys.readouterr().out
        )
        assert not (cache_dir / "incremental.sqlite").exists()


# -- cache-key discipline -----------------------------------------------------


class TestCacheKeyDiscipline:
    def test_incremental_options_share_verdict_cache_entries(self):
        from repro.service.cache import cache_key

        src = "file { '/f': }"
        assert cache_key(src, DeterminismOptions(incremental=False)) == (
            cache_key(
                src,
                DeterminismOptions(
                    incremental=True, incremental_dir="/anywhere"
                ),
            )
        )
