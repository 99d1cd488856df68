"""Seeded inputs and their reference verdicts.

Every input is a pure function of the workload seed.  Each carries the
verdict it must get, taken from a source the pipeline under test did
not produce:

* corpus manifests: the inventory in ``repro.corpus.CASES`` (the fixed
  variants are the idempotence subjects of the non-deterministic ones);
* small generated catalogs: the concrete interleaving oracle
  ``repro.testing.oracle.run_oracle``, run on the compiled catalog the
  way the differential fuzzer runs it;
* scale catalogs, flat catalogs and their edits: known by construction
  (see :class:`ScaleCatalog` and :class:`FlatCatalog`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple


@dataclass(frozen=True)
class Item:
    """One manifest to verify and the verdict it must get."""

    name: str
    source: str
    #: ``(deterministic, idempotent)``; idempotent is None when the
    #: manifest is non-deterministic (idempotence is never checked).
    expected: Tuple[bool, Optional[bool]]
    #: ``corpus``, ``small``, ``scale``, and for the daemon ``hit``,
    #: ``edit`` or ``cold``.
    kind: str
    #: True when ``expected`` comes from the sampled-state oracle.
    oracle: bool = False


def verdict_of(row: dict) -> Tuple[Optional[bool], Optional[bool]]:
    return row.get("deterministic"), row.get("idempotent")


# -- corpus ------------------------------------------------------------------


def corpus_items() -> List[Item]:
    """The 13 benchmarks plus the 6 fixed variants.  Every
    deterministic corpus manifest, fixed variants included, is
    idempotent (paper §6)."""
    from repro.corpus import CASES, FIXED_VARIANTS, load_source

    items = []
    for name in sorted(CASES):
        deterministic = CASES[name].deterministic
        items.append(
            Item(
                name,
                load_source(name),
                (deterministic, True if deterministic else None),
                "corpus",
            )
        )
    for name in sorted(FIXED_VARIANTS):
        items.append(Item(name, load_source(name), (True, True), "corpus"))
    return items


# -- small generated catalogs (oracle-checked) --------------------------------


def oracle_verdict(source: str) -> Optional[Tuple[bool, Optional[bool]]]:
    """The oracle's decisive verdict on ``source``, or None when the
    oracle abstains (too many resources, budget) — such cases are left
    out of the draw.  The front end compiles the catalog exactly as
    the differential fuzzer does; no verdict of the symbolic pipeline
    is consulted."""
    from repro.core.pipeline import Rehearsal
    from repro.errors import ReproError
    from repro.testing.oracle import run_oracle

    try:
        graph, programs = Rehearsal().compile(source)
    except ReproError:
        return None
    report = run_oracle(graph, programs)
    if report.skipped or report.deterministic is None:
        return None
    if report.deterministic is False:
        return (False, None)
    if report.idempotent is None:
        return None
    return (True, report.idempotent)


def small_items(
    seed: int, count: int, tag: str = "small", max_resources: int = 6
) -> List[Item]:
    """``count`` oracle-decided catalogs from the fuzzer's generator
    stream for ``seed``, stratified by resource count: each size from
    2 to ``max_resources`` gets an equal quota, so every seed draws the
    same mix of sizes (per-catalog cost grows about fivefold from 2 to
    6 resources)."""
    from repro.testing.generate import CaseGenerator, GeneratorConfig

    config = GeneratorConfig(max_resources=max_resources)
    sizes = list(range(config.min_resources, config.max_resources + 1))
    quota = {size: count // len(sizes) for size in sizes}
    for size in sizes[: count % len(sizes)]:
        quota[size] += 1
    generator = CaseGenerator(seed, config)
    items: List[Item] = []
    case_id = 0
    while len(items) < count:
        case = generator.generate(case_id)
        case_id += 1
        size = len(case.resources)
        if quota.get(size, 0) <= 0:
            continue
        source = case.source
        expected = oracle_verdict(source)
        if expected is None:
            continue
        quota[size] -= 1
        items.append(
            Item(f"{tag}-{seed}-{case.case_id}", source, expected, "small", oracle=True)
        )
    # Interleave the sizes so any prefix of the list keeps the mix.
    rng = random.Random(seed)
    rng.shuffle(items)
    return items


def oracle_is_one_sided(expected, got) -> bool:
    """The sampled-state oracle proves non-determinism and
    non-idempotence by a concrete witness, but its "deterministic" and
    "idempotent" only hold over the initial states it sampled.  A
    negative pipeline verdict against such a positive reference is
    settled by :func:`fuzzer_confirms`, not counted wrong outright."""
    det, idem = expected
    return det is True and (got[0] is False or (idem is True and got[1] is False))


def fuzzer_confirms(item: Item, got) -> bool:
    """Settle a verdict the sampled-state oracle could not confirm the
    way the differential fuzzer does (``run_source``): the oracle
    replays the pipeline's witness concretely, so the negative verdict
    stands only if the witness really diverges (or really changes the
    state on a second run)."""
    from repro.testing.differential import run_source

    outcome = run_source(item.source, name=item.name)
    return (
        not outcome.oracle_skipped
        and not outcome.disagreements
        and (outcome.pipeline_deterministic, outcome.pipeline_idempotent) == tuple(got)
    )


# -- scale catalogs (correct by construction) ----------------------------------


@dataclass
class ScaleCatalog:
    """A deterministic, idempotent, lint-clean catalog of packages,
    users, directories and files.

    Why the verdict is known: every directory requires every package
    and every user, so the only resources that may touch a shared
    ancestor (``/etc``, ``/home``) are ordered before any directory is
    made; files live in distinct paths inside their own directory and
    depend on it (explicitly and through auto-require); packages and
    users touch disjoint paths of their own.  Every resource converges
    to a fixed state, so running the catalog twice changes nothing.
    Without the directory ordering the model reports a race on
    ``/etc`` and large catalogs exceed the 5000-branch budget.
    """

    tag: str
    packages: List[str]
    users: List[str]
    dirs: List[str]
    #: ``(path, directory index, required package index or None)``.
    files: List[Tuple[str, int, Optional[int]]]
    contents: List[str]

    def source(self) -> str:
        lines = [f"# {self.tag}"]
        for name in self.packages:
            lines.append(f"package {{ '{name}': ensure => installed }}")
        for name in self.users:
            lines.append(
                f"user {{ '{name}': ensure => present, managehome => true }}"
            )
        before = ", ".join(
            [f"Package['{p}']" for p in self.packages]
            + [f"User['{u}']" for u in self.users]
        )
        for path in self.dirs:
            lines.append(
                f"file {{ '{path}': ensure => directory, "
                f"require => [{before}] }}"
            )
        for (path, d, pkg), content in zip(self.files, self.contents):
            requires = [f"File['{self.dirs[d]}']"]
            if pkg is not None:
                requires.append(f"Package['{self.packages[pkg]}']")
            lines.append(
                f"file {{ '{path}': ensure => file, content => '{content}', "
                f"require => [{', '.join(requires)}] }}"
            )
        return "\n".join(lines) + "\n"


def scale_catalog(rng: random.Random, tag: str, size: int) -> ScaleCatalog:
    """A catalog of ``size`` resources: about 20% packages, 10% users,
    15% directories, the rest files.  Its shape is fixed by ``size``:
    files go round-robin into the directories, and every third file
    also requires a package.  The seed picks only names and contents:
    if it also placed files and dependencies, the cost of one size
    would move by up to 60% from draw to draw, and a run's
    ``latency_p95_ms`` would be a draw of its slowest catalog."""
    n_pkg = max(1, round(size * 0.2))
    n_user = max(1, round(size * 0.1))
    n_dir = max(1, round(size * 0.15))
    n_file = size - n_pkg - n_user - n_dir
    if n_file < 1:
        raise ValueError(f"scale catalog too small: {size}")
    stem = f"{tag}{rng.randrange(10**6):06d}"
    packages = [f"{stem}p{i}" for i in range(n_pkg)]
    users = [f"{stem}u{i}" for i in range(n_user)]
    dirs = [f"/etc/{stem}d{i}" for i in range(n_dir)]
    files = []
    contents = []
    for i in range(n_file):
        pkg = (i // 3) % n_pkg if i % 3 == 2 else None
        files.append((f"{dirs[i % n_dir]}/f{i}.conf", i % n_dir, pkg))
        contents.append(f"v{rng.randrange(100)}")
    return ScaleCatalog(stem, packages, users, dirs, files, contents)


@dataclass
class FlatCatalog:
    """Files at distinct paths in one directory the catalog does not
    manage: every pair of resources commutes, so the catalog is
    deterministic, and every file converges to its content, so it is
    idempotent.  This is the shape the incremental store decomposes
    (per-resource idempotence), the target of one-resource edits."""

    tag: str
    contents: List[str]

    def source(self) -> str:
        lines = [f"# {self.tag}"]
        for i, content in enumerate(self.contents):
            lines.append(
                f"file {{ '/etc/{self.tag}/conf{i:03d}.cfg': ensure => file, "
                f"content => '{content}' }}"
            )
        return "\n".join(lines) + "\n"

    def edited(self, index: int, content: str) -> "FlatCatalog":
        contents = list(self.contents)
        contents[index] = content
        return FlatCatalog(self.tag, contents)


def flat_catalog(rng: random.Random, tag: str, size: int) -> FlatCatalog:
    stem = f"{tag}{rng.randrange(10**6):06d}"
    return FlatCatalog(stem, [f"v{rng.randrange(100)}" for _ in range(size)])
