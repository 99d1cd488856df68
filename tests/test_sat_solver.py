"""Tests for the CDCL SAT solver, cross-checked against brute force."""

import hashlib
import random
from dataclasses import dataclass
from typing import Optional
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sat import (
    Solver,
    brute_force_solve,
    check_assignment,
    count_models,
    solve_cnf,
)
from repro.sat import solver as solver_mod
from repro.sat.solver import RESTART_UNIT, UNDEF, VAR_DECAY


class TestBasics:
    def test_empty_instance_is_sat(self):
        assert solve_cnf([]).sat

    def test_unit(self):
        result = solve_cnf([[1]])
        assert result.sat
        assert result.assignment[1] is True

    def test_conflicting_units(self):
        assert not solve_cnf([[1], [-1]]).sat

    def test_simple_implication_chain(self):
        # 1 -> 2 -> 3, with 1 forced and -3 forced: UNSAT.
        clauses = [[1], [-1, 2], [-2, 3], [-3]]
        assert not solve_cnf(clauses).sat

    def test_model_satisfies(self):
        clauses = [[1, 2], [-1, 3], [-2, -3], [2, 3]]
        result = solve_cnf(clauses)
        assert result.sat
        assert check_assignment(clauses, result.assignment)

    def test_duplicate_literals_are_merged(self):
        assert solve_cnf([[1, 1, 1]]).sat

    def test_tautology_dropped(self):
        assert solve_cnf([[1, -1]]).sat
        # A tautology must not force anything.
        result = solve_cnf([[1, -1], [-1]])
        assert result.sat

    def test_empty_clause_unsat(self):
        assert not solve_cnf([[1], []]).sat

    def test_zero_literal_rejected(self):
        from repro.errors import SolverError

        solver = Solver()
        with pytest.raises(SolverError):
            solver.add_clause([0])


class TestStructured:
    def test_pigeonhole_3_into_2_unsat(self):
        assert not solve_cnf(_pigeonhole(3, 2)).sat

    def test_pigeonhole_4_into_3_unsat(self):
        assert not solve_cnf(_pigeonhole(4, 3)).sat

    def test_pigeonhole_3_into_3_sat(self):
        result = solve_cnf(_pigeonhole(3, 3))
        assert result.sat

    def test_php_5_4(self):
        # Big enough to force real conflict analysis and restarts.
        assert not solve_cnf(_pigeonhole(5, 4)).sat

    def test_xor_chain_sat(self):
        clauses = []
        n = 10
        for i in range(1, n):
            # x_i xor x_{i+1}
            clauses.append([i, i + 1])
            clauses.append([-i, -(i + 1)])
        result = solve_cnf(clauses)
        assert result.sat
        assert check_assignment(clauses, result.assignment)

    def test_at_most_one_block(self):
        n = 8
        clauses = [[i for i in range(1, n + 1)]]
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                clauses.append([-i, -j])
        result = solve_cnf(clauses)
        assert result.sat
        assert sum(result.assignment.get(i, False) for i in range(1, n + 1)) == 1


class TestAssumptions:
    def test_assumption_forces_value(self):
        solver = Solver()
        solver.add_clause([1, 2])
        result = solver.solve(assumptions=[-1])
        assert result.sat
        assert result.assignment[2] is True

    def test_contradictory_assumption(self):
        solver = Solver()
        solver.add_clause([1])
        assert not solver.solve(assumptions=[-1]).sat

    def test_solver_reusable_after_assumptions(self):
        solver = Solver()
        solver.add_clause([1, 2])
        assert not solver.solve(assumptions=[-1, -2]).sat
        assert solver.solve().sat


def _pigeonhole(pigeons: int, holes: int):
    """var(p, h) = p * holes + h + 1."""
    clauses = []
    for p in range(pigeons):
        clauses.append([p * holes + h + 1 for h in range(holes)])
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append([-(p1 * holes + h + 1), -(p2 * holes + h + 1)])
    return clauses


def _random_cnf(rng: random.Random, num_vars: int, num_clauses: int):
    clauses = []
    for _ in range(num_clauses):
        width = rng.randint(1, 3)
        vars_ = rng.sample(range(1, num_vars + 1), min(width, num_vars))
        clauses.append([v if rng.random() < 0.5 else -v for v in vars_])
    return clauses


class TestAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_instances_match_oracle(self, seed):
        rng = random.Random(seed)
        num_vars = rng.randint(3, 9)
        num_clauses = rng.randint(2, int(4.5 * num_vars))
        clauses = _random_cnf(rng, num_vars, num_clauses)
        expected = brute_force_solve(clauses, num_vars)
        result = solve_cnf(clauses, num_vars)
        assert result.sat == (expected is not None)
        if result.sat:
            assert check_assignment(clauses, result.assignment)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_hypothesis_random_instances(self, seed):
        rng = random.Random(seed)
        num_vars = rng.randint(2, 8)
        clauses = _random_cnf(rng, num_vars, rng.randint(1, 30))
        expected = brute_force_solve(clauses, num_vars)
        result = solve_cnf(clauses, num_vars)
        assert result.sat == (expected is not None)
        if result.sat:
            assert check_assignment(clauses, result.assignment)


class TestOracleHelpers:
    def test_count_models(self):
        # x1 or x2 over 2 vars has 3 models.
        assert count_models([[1, 2]], 2) == 3

    def test_brute_force_limit(self):
        with pytest.raises(ValueError):
            brute_force_solve([[1]], 30)


class _LinearScanSolver(Solver):
    """The branching rule before the order heap, kept as the reference:
    scan every variable, take the highest activity, lowest index on
    ties.  Everything else is the production solver."""

    def _pick_branch(self) -> int:
        best_var = 0
        best_act = -1.0
        for var in range(1, self.num_vars + 1):
            if (
                self._occurs[var]
                and self._vals[var << 1] == UNDEF
                and self._activity[var] > best_act
            ):
                best_act = self._activity[var]
                best_var = var
        if best_var == 0:
            return 0
        return best_var << 1 if self._phase[best_var] else (best_var << 1) | 1


def _random_3sat(rng: random.Random, num_vars: int, ratio: float = 4.26):
    clauses = []
    for _ in range(int(ratio * num_vars)):
        vars_ = rng.sample(range(1, num_vars + 1), 3)
        clauses.append([v if rng.random() < 0.5 else -v for v in vars_])
    return clauses


@dataclass(frozen=True)
class _Knobs:
    """Search settings the solver fixes as constants, varied here by
    test-only means so the heap and the search loop also run under
    other activity, phase and restart schedules."""

    #: Initial-activity jitter seed; 0 leaves every activity at 0.0.
    seed: int = 0
    phase: bool = False
    decay: float = VAR_DECAY
    restart_unit: int = RESTART_UNIT
    #: Geometric restarts with this growth factor; None keeps Luby.
    growth: Optional[float] = None


DEFAULT_KNOBS = _Knobs()

#: Five diversified settings: geometric and Luby restarts of several
#: units, both initial phases, three decays, all with jitter.
DIVERSE_KNOBS = (
    _Knobs(seed=1, phase=True, restart_unit=32, growth=1.3),
    _Knobs(seed=2, decay=0.92),
    _Knobs(seed=3, restart_unit=256, growth=2.0),
    _Knobs(seed=4, phase=True, restart_unit=128),
    _Knobs(seed=5, restart_unit=16, growth=1.1, decay=0.90),
)

_JITTER_MASK = (1 << 64) - 1


def _activity_jitter(seed: int, var: int) -> float:
    """A deterministic initial activity in [0, 1e-4) from (seed, var):
    below any bump, so it only reorders ties between equal activities."""
    x = (seed * 0x9E3779B97F4A7C15 + var * 0xBF58476D1CE4E5B9) & _JITTER_MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _JITTER_MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _JITTER_MASK
    x ^= x >> 31
    return (x / float(_JITTER_MASK + 1)) * 1e-4


def _tuned(solver_cls, knobs: _Knobs):
    """``solver_cls`` with ``knobs``' initial activities and phases."""

    class Tuned(solver_cls):
        def ensure_vars(self, n: int) -> None:
            first = self.num_vars + 1
            super().ensure_vars(n)
            for var in range(first, self.num_vars + 1):
                if knobs.seed:
                    self._activity[var] = _activity_jitter(knobs.seed, var)
                self._phase[var] = knobs.phase

    return Tuned


def _restart_schedule(knobs: _Knobs):
    """Patch the solver's Luby schedule to ``knobs``' restarts.  The
    search restarts after ``RESTART_UNIT * _luby(i)`` conflicts, so a
    unit of 1 lets ``_luby`` return the whole geometric interval."""
    if knobs.growth is None:
        return mock.patch.object(solver_mod, "RESTART_UNIT", knobs.restart_unit)

    def geometric(i: int) -> int:
        interval = float(knobs.restart_unit)
        for _ in range(i - 1):
            interval *= knobs.growth
        return int(interval)

    return mock.patch.multiple(solver_mod, RESTART_UNIT=1, _luby=geometric)


def _run_trace(solver_cls, knobs, clauses, queries=((),), between=None):
    """Every observable of a sequence of solve calls on one solver:
    verdicts, models, cores, work counters, and the clause database
    with learned clauses (whose literal order records every watch
    move propagation made).  ``between(solver)`` runs before every
    query but the first."""
    solver = _tuned(solver_cls, knobs)()
    solver._var_decay = knobs.decay
    for clause in clauses:
        solver.add_clause(clause)
    trace = []
    with _restart_schedule(knobs):
        for index, assumptions in enumerate(queries):
            if index and between is not None:
                between(solver)
            result = solver.solve(assumptions=assumptions)
            trace.append(
                (
                    result.sat,
                    sorted(result.assignment.items()),
                    result.core,
                    result.conflicts,
                    result.decisions,
                    result.propagations,
                    result.restarts,
                    solver.clause_database(include_learned=True),
                )
            )
    return trace


def _assumption_queries(rng: random.Random, num_vars: int, count: int):
    return [
        [
            v if rng.random() < 0.5 else -v
            for v in rng.sample(range(1, num_vars + 1), rng.randint(1, 10))
        ]
        for _ in range(count)
    ]


class TestOrderHeapMatchesLinearScan:
    """The order heap must make exactly the decisions of the linear
    scan it replaced, so every trace stays byte-identical."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_3sat(self, seed):
        rng = random.Random(seed)
        clauses = _random_3sat(rng, rng.randint(30, 70))
        expected = _run_trace(_LinearScanSolver, DEFAULT_KNOBS, clauses)
        assert _run_trace(Solver, DEFAULT_KNOBS, clauses) == expected
        assert expected[0][4] > 0  # the search made decisions

    def test_assumption_and_core_queries(self):
        cores = 0
        for seed in range(8):
            rng = random.Random(100 + seed)
            num_vars = rng.randint(30, 50)
            clauses = _random_3sat(rng, num_vars, ratio=3.8)
            queries = _assumption_queries(rng, num_vars, 8)
            expected = _run_trace(_LinearScanSolver, DEFAULT_KNOBS, clauses, queries)
            assert _run_trace(Solver, DEFAULT_KNOBS, clauses, queries) == expected
            cores += sum(1 for step in expected if not step[0] and step[2])
        assert cores > 0  # some queries fail with a nonempty core

    def test_activity_rescale_path(self, monkeypatch):
        rescales = []
        original = Solver._rescale

        def counting_rescale(solver):
            rescales.append(solver.num_vars)
            original(solver)

        monkeypatch.setattr(Solver, "_rescale", counting_rescale)
        # A steep decay drives activities past 1e100 within a search.
        knobs = _Knobs(decay=0.01)
        for seed in range(4):
            rng = random.Random(200 + seed)
            num_vars = rng.randint(40, 60)
            clauses = _random_3sat(rng, num_vars)
            queries = [()] + _assumption_queries(rng, num_vars, 3)
            expected = _run_trace(_LinearScanSolver, knobs, clauses, queries)
            assert _run_trace(Solver, knobs, clauses, queries) == expected
        assert rescales
        # Inside a search, a rescale finds most variables assigned; one
        # between queries finds them all unassigned, each with an old
        # heap entry that the rescale has made stale.
        rescale = Solver._rescale
        expected = _run_trace(
            _LinearScanSolver, knobs, clauses, queries, between=rescale
        )
        assert _run_trace(Solver, knobs, clauses, queries, between=rescale) == expected

    @pytest.mark.parametrize("member", range(1, 6))
    def test_jittered_knobs(self, member):
        knobs = DIVERSE_KNOBS[member - 1]
        rng = random.Random(300 + member)
        num_vars = rng.randint(40, 60)
        clauses = _random_3sat(rng, num_vars)
        queries = [()] + _assumption_queries(rng, num_vars, 3)
        expected = _run_trace(_LinearScanSolver, knobs, clauses, queries)
        assert _run_trace(Solver, knobs, clauses, queries) == expected


class TestOrderHeapBound:
    def test_heap_stays_bounded_under_restarts(self):
        """Each bump of an assigned variable queues a new heap entry at
        backtrack and leaves the old one stale; without the rebuild
        the heap grows with the conflict count (to ~150 entries per
        variable on this instance)."""
        solver = Solver()
        for clause in _pigeonhole(7, 6):
            solver.add_clause(clause)
        with mock.patch.object(solver_mod, "RESTART_UNIT", 1):
            result = solver.solve()
        assert not result.sat
        assert result.restarts > 100
        assert len(solver._order) <= 2 * solver.num_vars


class TestTracePinned:
    def test_search_traces_match_pinned_digest(self):
        """Decision traces are part of the output contract: SAT counters
        land in verdict rows and the model picks the witness.  The
        digest was taken with the linear-scan solver; a change to
        propagation, analysis or branching order moves it."""
        digest = hashlib.sha256()
        for knobs in (DEFAULT_KNOBS, DIVERSE_KNOBS[0]):
            for seed in range(6):
                rng = random.Random(400 + seed)
                num_vars = rng.randint(40, 70)
                clauses = _random_3sat(rng, num_vars)
                queries = [()] + _assumption_queries(rng, num_vars, 3)
                trace = _run_trace(Solver, knobs, clauses, queries)
                digest.update(repr(trace).encode())
        assert digest.hexdigest() == (
            "df558ef6223c5799fdd94b1d96b5c208c0b9fcc37f66c223e7740ff4f16d7bef"
        )
