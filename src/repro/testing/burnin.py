"""SPRT burn-in: quarantine → pinned promotion for fuzz reproducers.

The nightly fuzzer mints shrunk reproducers forever; committing them
straight into ``tests/regressions/`` would let a flaky finding poison
tier-1.  Instead they land in ``tests/regressions/quarantine/`` and
``rehearsal burnin`` replays each one repeatedly through the
differential pipeline (:mod:`repro.testing.replay`) under a sequential
probability ratio test (:mod:`repro.testing.sprt`):

* **promoted** — the SPRT accepts stability: the file moves into the
  pinned directory and a machine-readable promotion record is
  appended to its ``promotions.json`` ledger (which
  ``tools/check_regressions.py`` cross-checks against the corpus:
  every pinned reproducer must carry a record whose SHA-256 matches
  the file, so hand-edits force a re-burn-in);
* **demoted** — the SPRT accepts flakiness: the file moves aside into
  ``<quarantine>/flaky/`` with a record carrying the observed flake
  rate;
* **undecided** — the trial cap ran out: the file stays quarantined.

Trial ``i`` replays with oracle seed ``i``, so a reproducer that only
reproduces from one lucky initial-state sample gets caught.  The
``rehearsal burnin`` command always runs the default
:class:`~repro.testing.sprt.SprtConfig`; every committed ledger record
was minted with it.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional

from repro.testing.sprt import Decision, SprtConfig, run_sprt

LEDGER_NAME = "promotions.json"
LEDGER_SCHEMA = 1
FLAKY_SUBDIR = "flaky"

#: executor(path, trial_seed) -> did this replay pass?
Executor = Callable[[Path, int], bool]


@dataclass
class BurninRecord:
    """One decided reproducer — the machine-readable promotion (or
    demotion) record the ledger and the tests pin."""

    file: str
    sha256: str
    decision: str
    trials: int
    failures: int
    flake_rate: Optional[float]
    llr: float
    trial_seeds: List[int]
    sprt: dict
    moved_to: Optional[str] = None
    problems: List[str] = field(default_factory=list)
    recorded_at: Optional[str] = None

    def to_dict(self) -> dict:
        payload = {
            "file": self.file,
            "sha256": self.sha256,
            "decision": self.decision,
            "trials": self.trials,
            "failures": self.failures,
            "flake_rate": self.flake_rate,
            "llr": round(self.llr, 6),
            "trial_seeds": list(self.trial_seeds),
            "sprt": dict(self.sprt),
            "moved_to": self.moved_to,
            "recorded_at": self.recorded_at,
        }
        if self.problems:
            payload["problems"] = list(self.problems)
        return payload


@dataclass
class BurninReport:
    quarantine: str
    pinned: str
    records: List[BurninRecord] = field(default_factory=list)
    applied: bool = True

    def by_decision(self, decision: str) -> List[BurninRecord]:
        return [r for r in self.records if r.decision == decision]

    @property
    def promoted(self) -> List[BurninRecord]:
        return self.by_decision(Decision.PROMOTE.value)

    @property
    def demoted(self) -> List[BurninRecord]:
        return self.by_decision(Decision.DEMOTE.value)

    @property
    def undecided(self) -> List[BurninRecord]:
        return self.by_decision(Decision.UNDECIDED.value)

    @property
    def invalid(self) -> List[BurninRecord]:
        return self.by_decision("invalid")

    def to_json(self) -> str:
        return (
            json.dumps(
                {
                    "schema": LEDGER_SCHEMA,
                    "quarantine": self.quarantine,
                    "pinned": self.pinned,
                    "applied": self.applied,
                    "records": [r.to_dict() for r in self.records],
                },
                indent=2,
                sort_keys=True,
            )
            + "\n"
        )


def _default_executor(path: Path, trial_seed: int) -> bool:
    from repro.testing.replay import replay_file

    return replay_file(path, oracle_seed=trial_seed).ok


def file_sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def load_ledger(path: Path) -> dict:
    path = Path(path)
    if not path.is_file():
        return {"schema": LEDGER_SCHEMA, "records": []}
    payload = json.loads(path.read_text(encoding="utf8"))
    if payload.get("schema") != LEDGER_SCHEMA:
        raise ValueError(
            f"{path}: unsupported ledger schema "
            f"{payload.get('schema')!r}"
        )
    if not isinstance(payload.get("records"), list):
        raise ValueError(f"{path}: ledger has no records list")
    return payload


def append_ledger(path: Path, records: List[BurninRecord]) -> None:
    path = Path(path)
    ledger = load_ledger(path)
    ledger["records"].extend(r.to_dict() for r in records)
    path.write_text(
        json.dumps(ledger, indent=2, sort_keys=True) + "\n",
        encoding="utf8",
    )


def burn_in(
    quarantine_dir,
    pinned_dir,
    config: Optional[SprtConfig] = None,
    executor: Optional[Executor] = None,
    apply: bool = True,
    progress=None,
) -> BurninReport:
    """Burn in every ``*.pp`` under ``quarantine_dir``; see module
    docstring.  With ``apply=False`` nothing moves and no ledger is
    written — the report alone says what would happen."""
    from repro.testing.regressions import discover, validate_header

    quarantine = Path(quarantine_dir)
    pinned = Path(pinned_dir)
    config = config or SprtConfig()
    executor = executor or _default_executor
    progress = progress or (lambda message: None)
    report = BurninReport(
        quarantine=str(quarantine), pinned=str(pinned), applied=apply
    )

    for path in discover(quarantine):
        text = path.read_text(encoding="utf8")
        header_problems = validate_header(text, path.name)
        if header_problems:
            report.records.append(
                BurninRecord(
                    file=path.name,
                    sha256=file_sha256(path),
                    decision="invalid",
                    trials=0,
                    failures=0,
                    flake_rate=None,
                    llr=0.0,
                    trial_seeds=[],
                    sprt=_sprt_dict(config),
                    problems=header_problems,
                    recorded_at=_now(),
                )
            )
            progress(f"{path.name}: invalid header, skipped")
            continue

        test = run_sprt(lambda index: executor(path, index), config)
        record = BurninRecord(
            file=path.name,
            sha256=file_sha256(path),
            decision=test.decision.value,
            trials=test.trials,
            failures=test.failures,
            flake_rate=test.flake_rate,
            llr=test.llr,
            trial_seeds=list(range(test.trials)),
            sprt=_sprt_dict(config),
            recorded_at=_now(),
        )
        progress(
            f"{path.name}: {record.decision} after {record.trials} "
            f"trial(s), {record.failures} failure(s)"
        )
        if apply and test.decision is Decision.PROMOTE:
            destination = pinned / path.name
            if destination.exists():
                record.decision = "invalid"
                record.problems.append(
                    f"cannot promote: {destination} already exists"
                )
            else:
                pinned.mkdir(parents=True, exist_ok=True)
                shutil.move(str(path), str(destination))
                record.moved_to = str(destination)
                append_ledger(pinned / LEDGER_NAME, [record])
        elif apply and test.decision is Decision.DEMOTE:
            flaky_dir = quarantine / FLAKY_SUBDIR
            flaky_dir.mkdir(parents=True, exist_ok=True)
            destination = flaky_dir / path.name
            shutil.move(str(path), str(destination))
            record.moved_to = str(destination)
            append_ledger(pinned / LEDGER_NAME, [record])
        report.records.append(record)
    return report


def _sprt_dict(config: SprtConfig) -> dict:
    return {
        "p_stable": config.p_stable,
        "p_flaky": config.p_flaky,
        "alpha": config.alpha,
        "beta": config.beta,
        "max_trials": config.max_trials,
    }


def _now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
