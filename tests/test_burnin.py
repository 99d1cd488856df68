"""SPRT burn-in: promotion, demotion, the ledger, and the CLI."""

import json
from pathlib import Path

import pytest

from repro.core.cli import main as cli_main
from repro.testing.burnin import (
    LEDGER_NAME,
    burn_in,
    file_sha256,
    load_ledger,
)
from repro.testing.sprt import SprtConfig

REPO_ROOT = Path(__file__).resolve().parent.parent
CORPUS = REPO_ROOT / "tests" / "regressions"

#: Promote after 3 consecutive passes instead of 9 — the unit tests
#: drive fake executors, so only the decision logic matters.
FAST = SprtConfig(p_stable=0.99, p_flaky=0.30, max_trials=12)


@pytest.fixture
def corpus_copy(tmp_path):
    """A quarantine holding real (valid-header) reproducers."""
    quarantine = tmp_path / "quarantine"
    pinned = tmp_path / "pinned"
    quarantine.mkdir()
    pinned.mkdir()
    for source in sorted(CORPUS.glob("*.pp"))[:2]:
        (quarantine / source.name).write_text(
            source.read_text(encoding="utf8"), encoding="utf8"
        )
    return quarantine, pinned


class TestPromotion:
    def test_stable_files_move_and_get_ledger_records(
        self, corpus_copy
    ):
        quarantine, pinned = corpus_copy
        names = sorted(p.name for p in quarantine.glob("*.pp"))
        report = burn_in(
            quarantine,
            pinned,
            config=FAST,
            executor=lambda path, seed: True,
        )
        assert [r.file for r in report.promoted] == names
        assert sorted(p.name for p in pinned.glob("*.pp")) == names
        assert list(quarantine.glob("*.pp")) == []
        ledger = load_ledger(pinned / LEDGER_NAME)
        assert [r["file"] for r in ledger["records"]] == names
        for record in ledger["records"]:
            assert record["decision"] == "promoted"
            assert record["failures"] == 0
            assert record["sha256"] == file_sha256(
                pinned / record["file"]
            )
            assert record["sprt"]["p_flaky"] == FAST.p_flaky

    def test_trial_seeds_vary_per_trial(self, corpus_copy):
        quarantine, pinned = corpus_copy
        seen = []
        burn_in(
            quarantine,
            pinned,
            config=FAST,
            executor=lambda path, seed: seen.append(seed) or True,
        )
        per_file = len(seen) // 2
        assert seen == list(range(per_file)) * 2

    def test_name_collision_blocks_promotion(self, corpus_copy):
        quarantine, pinned = corpus_copy
        name = sorted(p.name for p in quarantine.glob("*.pp"))[0]
        (pinned / name).write_text("# already pinned\n")
        report = burn_in(
            quarantine,
            pinned,
            config=FAST,
            executor=lambda path, seed: True,
        )
        collided = [r for r in report.invalid if r.file == name]
        assert collided and "already exists" in collided[0].problems[0]
        assert (quarantine / name).exists()


class TestDemotion:
    def test_flaky_file_moves_aside_with_flake_rate(self, corpus_copy):
        quarantine, pinned = corpus_copy
        report = burn_in(
            quarantine,
            pinned,
            config=FAST,
            executor=lambda path, seed: seed % 2 == 0,
        )
        assert len(report.demoted) == 2
        for record in report.demoted:
            assert record.flake_rate is not None
            assert 0.0 < record.flake_rate <= 1.0
            assert (quarantine / "flaky" / record.file).exists()
        assert list(pinned.glob("*.pp")) == []
        # Demotions are history too: the ledger records them.
        ledger = load_ledger(pinned / LEDGER_NAME)
        assert {r["decision"] for r in ledger["records"]} == {"demoted"}


class TestEdgeCases:
    def test_invalid_header_is_reported_not_replayed(self, tmp_path):
        quarantine = tmp_path / "q"
        quarantine.mkdir()
        (quarantine / "broken.pp").write_text(
            "# rehearsal-fuzz reproducer\n# seed: nope\n"
        )
        calls = []
        report = burn_in(
            quarantine,
            tmp_path / "p",
            config=FAST,
            executor=lambda path, seed: calls.append(path) or True,
        )
        assert not calls
        assert len(report.invalid) == 1
        assert any(
            "seed" in problem for problem in report.invalid[0].problems
        )
        assert (quarantine / "broken.pp").exists()

    def test_dry_run_moves_nothing(self, corpus_copy):
        quarantine, pinned = corpus_copy
        before = sorted(p.name for p in quarantine.glob("*.pp"))
        report = burn_in(
            quarantine,
            pinned,
            config=FAST,
            executor=lambda path, seed: True,
            apply=False,
        )
        assert len(report.promoted) == len(before)
        assert sorted(p.name for p in quarantine.glob("*.pp")) == before
        assert not (pinned / LEDGER_NAME).exists()

    def test_empty_quarantine_is_a_clean_noop(self, tmp_path):
        quarantine = tmp_path / "q"
        quarantine.mkdir()
        report = burn_in(quarantine, tmp_path / "p", config=FAST)
        assert report.records == []


class TestCommittedLedger:
    """The promotion records minted for the shipped corpus."""

    def test_every_pinned_reproducer_has_a_matching_record(self):
        ledger = load_ledger(CORPUS / LEDGER_NAME)
        latest = {r["file"]: r for r in ledger["records"]}
        pinned = sorted(p.name for p in CORPUS.glob("*.pp"))
        assert pinned, "the pinned corpus is empty"
        for name in pinned:
            record = latest.get(name)
            assert record is not None, f"{name}: no promotion record"
            assert record["decision"] == "promoted"
            assert record["sha256"] == file_sha256(CORPUS / name)
            assert record["failures"] == 0
            assert record["trials"] >= 9  # default SPRT promotion


class TestCli:
    def test_burnin_promotes_a_real_reproducer(self, tmp_path, capsys):
        quarantine = tmp_path / "quarantine"
        pinned = tmp_path / "pinned"
        quarantine.mkdir()
        source = CORPUS / "clean-seed42-case16.pp"
        (quarantine / source.name).write_text(
            source.read_text(encoding="utf8"), encoding="utf8"
        )
        # The default SPRT promotes after 9 passing replays.
        code = cli_main(
            [
                "burnin",
                "--quarantine",
                str(quarantine),
                "--pinned",
                str(pinned),
                "--json",
                str(tmp_path / "report.json"),
            ]
        )
        assert code == 0
        assert (pinned / source.name).exists()
        payload = json.loads((tmp_path / "report.json").read_text())
        record = payload["records"][0]
        assert record["decision"] == "promoted"
        assert record["trial_seeds"] == list(range(9))
        assert "1 promoted" in capsys.readouterr().out

    def test_missing_quarantine_is_a_usage_error(self, tmp_path):
        code = cli_main(
            ["burnin", "--quarantine", str(tmp_path / "nope")]
        )
        assert code == 2
