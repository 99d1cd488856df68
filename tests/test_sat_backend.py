"""The pluggable solver-backend layer: configs, spec parsing,
portfolio racing, the external-solver bridge, and the query-layer
plumbing."""

import os
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SolverError
from repro.logic import TermBank
from repro.sat import (
    DEFAULT_CONFIG,
    ExternalBackend,
    PortfolioBackend,
    Solver,
    SolverBackend,
    SolverConfig,
    backend_label,
    brute_force_solve,
    check_assignment,
    default_portfolio,
    find_external_solver,
    make_solver,
    parse_backend_spec,
    solve_cnf,
)
from repro.sat import portfolio as portfolio_mod
from repro.sat.backend import solver_counters
from repro.sat.external import parse_solver_output
from repro.smt.query import IncrementalQuery, Query


def random_instance(seed, num_vars=8, num_clauses=30):
    rng = random.Random(seed)
    clauses = []
    for _ in range(num_clauses):
        width = rng.randint(1, 3)
        clause = [
            rng.choice([-1, 1]) * rng.randint(1, num_vars)
            for _ in range(width)
        ]
        clauses.append(clause)
    return clauses


class TestSolverConfig:
    def test_default_is_reference(self):
        assert DEFAULT_CONFIG == SolverConfig()
        assert DEFAULT_CONFIG.restart_policy == "luby"
        assert DEFAULT_CONFIG.seed == 0

    def test_rejects_unknown_restart_policy(self):
        with pytest.raises(ValueError, match="restart policy"):
            SolverConfig(restart_policy="inner-outer")

    def test_rejects_bad_restart_unit(self):
        with pytest.raises(ValueError, match="restart_unit"):
            SolverConfig(restart_unit=0)

    def test_rejects_decay_out_of_range(self):
        with pytest.raises(ValueError, match="decay"):
            SolverConfig(decay=1.0)
        with pytest.raises(ValueError, match="decay"):
            SolverConfig(decay=0.0)

    def test_frozen_and_hashable(self):
        config = SolverConfig(seed=3)
        with pytest.raises(Exception):
            config.seed = 4
        assert len({config, SolverConfig(seed=3)}) == 1

    def test_default_portfolio_shape(self):
        ladder = default_portfolio(4)
        assert len(ladder) == 4
        assert ladder[0] == DEFAULT_CONFIG
        assert len({c.name for c in ladder}) == 4

    def test_default_portfolio_extends_past_ladder(self):
        big = default_portfolio(9)
        assert len(big) == 9
        assert len({c.name for c in big}) == 9
        assert big[0] == DEFAULT_CONFIG

    def test_default_portfolio_rejects_zero(self):
        with pytest.raises(ValueError):
            default_portfolio(0)


class TestConfiguredSolver:
    """Configs change heuristics, never answers — and the default
    config is byte-identical to the historical solver."""

    @pytest.mark.parametrize("seed", range(6))
    def test_default_config_is_bit_identical(self, seed):
        clauses = random_instance(seed)
        plain = Solver()
        configured = Solver(config=DEFAULT_CONFIG)
        for solver in (plain, configured):
            for clause in clauses:
                solver.add_clause(clause)
        r1 = plain.solve()
        r2 = configured.solve()
        assert r1.sat == r2.sat
        assert r1.assignment == r2.assignment
        assert plain.conflicts == configured.conflicts
        assert plain.decisions == configured.decisions

    @pytest.mark.parametrize("config", default_portfolio(6)[1:])
    def test_every_ladder_member_is_sound(self, config):
        for seed in range(8):
            clauses = random_instance(seed, num_vars=7, num_clauses=24)
            solver = Solver(config=config)
            for clause in clauses:
                solver.add_clause(clause)
            result = solver.solve()
            expected = brute_force_solve(clauses, 7) is not None
            assert result.sat == expected, (config.name, seed)
            if result.sat:
                assert check_assignment(clauses, result.assignment)

    def test_seed_jitter_is_deterministic(self):
        clauses = random_instance(5)
        runs = []
        for _ in range(2):
            solver = Solver(config=SolverConfig(seed=7))
            for clause in clauses:
                solver.add_clause(clause)
            result = solver.solve()
            runs.append((result.sat, tuple(sorted(result.assignment.items()))))
        assert runs[0] == runs[1]


class TestParseBackendSpec:
    def test_cdcl_returns_plain_solver_factory(self):
        backend = parse_backend_spec("cdcl")()
        assert isinstance(backend, Solver)
        assert isinstance(backend, SolverBackend)

    def test_cdcl_with_portfolio_count_races(self):
        backend = parse_backend_spec("cdcl", portfolio=3)()
        assert isinstance(backend, PortfolioBackend)
        assert len(backend.configs) == 3

    def test_portfolio_spec_with_count(self):
        backend = parse_backend_spec("portfolio:2")()
        assert isinstance(backend, PortfolioBackend)
        assert len(backend.configs) == 2

    def test_portfolio_spec_defaults_to_four(self):
        assert len(parse_backend_spec("portfolio")().configs) == 4

    def test_bare_portfolio_takes_argument_default(self):
        assert len(parse_backend_spec("portfolio", portfolio=5)().configs) == 5

    def test_bare_portfolio_treats_one_as_unset(self):
        """The CLI's --portfolio default is 1 (no racing); an explicit
        '--solver portfolio' must still build the documented 4-member
        portfolio, matching what backend_label reports for the row."""
        backend = parse_backend_spec("portfolio", portfolio=1)()
        assert len(backend.configs) == 4
        assert backend_label("portfolio", portfolio=1) == "portfolio:4"

    def test_explicit_portfolio_one_is_single_member(self):
        assert len(parse_backend_spec("portfolio:1")().configs) == 1

    @pytest.mark.parametrize(
        "spec",
        ["cdcl:9", "portfolio:x", "portfolio:0", "dpll", "external:/no/such/solver"],
    )
    def test_bad_specs_raise(self, spec):
        with pytest.raises(ValueError):
            parse_backend_spec(spec)

    def test_invalid_counts_raise(self):
        with pytest.raises(ValueError, match="workers"):
            parse_backend_spec("cdcl", workers=0)
        with pytest.raises(ValueError, match="portfolio"):
            parse_backend_spec("cdcl", portfolio=0)

    def test_external_auto_without_solvers_names_candidates(self, monkeypatch):
        monkeypatch.setenv("PATH", "")
        with pytest.raises(ValueError, match="kissat"):
            parse_backend_spec("external:auto")

    def test_backend_label(self):
        assert backend_label() == "cdcl"
        assert backend_label(portfolio=3) == "portfolio:3"
        assert backend_label("portfolio") == "portfolio:4"
        assert backend_label("portfolio:2") == "portfolio:2"
        assert backend_label(portfolio=2, solver_workers=4) == "portfolio:2+cube:4"
        assert backend_label(solver_workers=2) == "cdcl+cube:2"
        assert backend_label("external:kissat") == "external:kissat"

    def test_solver_counters_shape(self):
        counters = solver_counters(make_solver())
        assert set(counters) == {
            "conflicts",
            "decisions",
            "propagations",
            "restarts",
        }


class TestPortfolioBackend:
    def test_needs_configs_and_workers(self):
        with pytest.raises(ValueError):
            PortfolioBackend(())
        with pytest.raises(ValueError):
            PortfolioBackend(default_portfolio(2), workers=0)

    def test_satisfies_protocol(self):
        assert isinstance(
            PortfolioBackend(default_portfolio(2)), SolverBackend
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_sequential_solver_exactly(self, seed):
        """On corpus-scale instances the reference member answers in
        round 0, so the portfolio is byte-identical to a plain
        solver — including incremental state across calls."""
        clauses = random_instance(seed, num_vars=9, num_clauses=35)
        plain = Solver()
        raced = PortfolioBackend(default_portfolio(3))
        for backend in (plain, raced):
            for clause in clauses:
                backend.add_clause(clause)
        for assumptions in ([], [1], [-2, 3], [4, -5]):
            r1 = plain.solve(assumptions)
            r2 = raced.solve(assumptions)
            assert r1.sat == r2.sat
            assert r1.assignment == r2.assignment
            assert r1.core == r2.core
        assert plain.conflicts == raced.conflicts

    def test_budget_racing_still_answers(self, monkeypatch):
        """With a starvation-level round budget the reference member
        overruns and the diversified helpers race; escalation must
        still land the right verdict, identically across runs."""
        monkeypatch.setattr(portfolio_mod, "FIRST_ROUND_BUDGET", 1)
        outcomes = []
        for _ in range(2):
            clauses = random_instance(3, num_vars=9, num_clauses=40)
            backend = PortfolioBackend(default_portfolio(4))
            for clause in clauses:
                backend.add_clause(clause)
            result = backend.solve()
            expected = brute_force_solve(clauses, 9) is not None
            assert result.sat == expected
            if result.sat:
                assert check_assignment(clauses, result.assignment)
            outcomes.append(
                (result.sat, tuple(sorted(result.assignment.items())))
            )
        assert outcomes[0] == outcomes[1]

    def test_preprocessing_member_reconstructs_models(self, monkeypatch):
        monkeypatch.setattr(portfolio_mod, "FIRST_ROUND_BUDGET", 1)
        # Only the reference and the preprocess-heavy member: any SAT
        # answer from the helper must decode over original variables.
        configs = (DEFAULT_CONFIG, default_portfolio(4)[3])
        assert configs[1].preprocess is True
        for seed in range(4):
            clauses = random_instance(seed, num_vars=8, num_clauses=28)
            backend = PortfolioBackend(configs)
            for clause in clauses:
                backend.add_clause(clause)
            result = backend.solve(assumptions=[2])
            expected = solve_cnf(clauses + [[2]])
            assert result.sat == expected.sat
            if result.sat:
                assert check_assignment(clauses, result.assignment)
                assert result.assignment.get(2, False) is True

    def test_pool_path_matches_serial(self, monkeypatch):
        monkeypatch.setattr(portfolio_mod, "FIRST_ROUND_BUDGET", 1)
        clauses = random_instance(2, num_vars=8, num_clauses=30)
        serial = PortfolioBackend(default_portfolio(3), workers=1)
        pooled = PortfolioBackend(default_portfolio(3), workers=2)
        try:
            for backend in (serial, pooled):
                for clause in clauses:
                    backend.add_clause(clause)
            r1 = serial.solve()
            r2 = pooled.solve()
            assert r1.sat == r2.sat
            assert r1.assignment == r2.assignment
        finally:
            pooled.close()

    def test_max_conflicts_still_enforced(self):
        clauses = random_instance(1, num_vars=10, num_clauses=45)
        backend = PortfolioBackend(default_portfolio(2))
        for clause in clauses:
            backend.add_clause(clause)
        with pytest.raises(SolverError):
            backend.solve(max_conflicts=0)

    def test_max_conflicts_bounds_total_portfolio_effort(self):
        """When the reference member exhausts the caller's whole
        max_conflicts budget, the backend must raise like the
        sequential solver would — not hand helpers the full round
        budget and answer anyway."""
        clauses = random_instance(3, num_vars=12, num_clauses=50)
        plain = Solver()
        for clause in clauses:
            plain.add_clause(clause)
        try:
            plain.solve(max_conflicts=1)
        except SolverError:
            pass
        else:
            pytest.skip("instance solved within one conflict")
        backend = PortfolioBackend(default_portfolio(4))
        for clause in clauses:
            backend.add_clause(clause)
        with pytest.raises(SolverError, match="budget"):
            backend.solve(max_conflicts=1)

    def test_helper_budget_clamped_to_remaining(self, monkeypatch):
        """Helpers race only with whatever budget is left after the
        reference's attempt, and exhausted helper rounds charge the
        budget; with a tiny cap the call raises instead of burning
        K * round-budget conflicts."""
        monkeypatch.setattr(portfolio_mod, "FIRST_ROUND_BUDGET", 1)
        seen_budgets = []
        real_attempt = portfolio_mod._helper_attempt

        def spy(config, clauses, num_vars, assumptions, budget):
            seen_budgets.append(budget)
            return real_attempt(
                config, clauses, num_vars, assumptions, budget
            )

        monkeypatch.setattr(portfolio_mod, "_helper_attempt", spy)
        clauses = random_instance(3, num_vars=12, num_clauses=50)
        backend = PortfolioBackend(default_portfolio(3))
        for clause in clauses:
            backend.add_clause(clause)
        cap = 5
        try:
            backend.solve(max_conflicts=cap)
        except SolverError:
            pass
        assert all(b <= cap for b in seen_budgets)


class TestParseSolverOutput:
    def test_competition_sat(self):
        verdict, model = parse_solver_output(
            "c comment\ns SATISFIABLE\nv 1 -2 3\nv -4 0\n"
        )
        assert verdict is True
        assert model == {1: True, 2: False, 3: True, 4: False}

    def test_competition_unsat(self):
        verdict, model = parse_solver_output("s UNSATISFIABLE\n")
        assert verdict is False
        assert model == {}

    def test_minisat_output_file_shape(self):
        verdict, model = parse_solver_output("SAT\n1 -2 3 0\n")
        assert verdict is True
        assert model == {1: True, 2: False, 3: True}
        assert parse_solver_output("UNSAT\n")[0] is False

    def test_no_verdict(self):
        assert parse_solver_output("c nothing to see\n")[0] is None


@pytest.fixture
def fake_solver(tmp_path):
    """A real subprocess speaking the SAT-competition protocol, backed
    by this repo's own solver — exercises the DIMACS round-trip and
    output parsing without any system solver installed."""
    src = Path(__file__).resolve().parents[1] / "src"
    body = (
        "import sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "from repro.sat.dimacs import read_dimacs\n"
        "from repro.sat.solver import solve_cnf\n"
        "with open(sys.argv[1]) as handle:\n"
        "    clauses, num_vars = read_dimacs(handle)\n"
        "result = solve_cnf(clauses)\n"
        "if result.sat:\n"
        "    print('s SATISFIABLE')\n"
        "    lits = [v if val else -v for v, val in"
        " sorted(result.assignment.items())]\n"
        "    print('v ' + ' '.join(map(str, lits)) + ' 0')\n"
        "    sys.exit(10)\n"
        "print('s UNSATISFIABLE')\n"
        "sys.exit(20)\n"
    )
    script = tmp_path / "fakesat.py"
    script.write_text(body)
    wrapper = tmp_path / "fakesat"
    wrapper.write_text(
        f"#!/bin/sh\nexec {sys.executable} {script} \"$@\"\n"
    )
    wrapper.chmod(0o755)
    return str(wrapper)


class TestExternalBackend:
    def test_sat_with_model(self, fake_solver):
        backend = ExternalBackend(fake_solver)
        backend.add_clause([1, 2])
        backend.add_clause([-1])
        result = backend.solve()
        assert result.sat
        assert result.assignment[2] is True
        assert result.assignment.get(1, False) is False

    def test_unsat(self, fake_solver):
        backend = ExternalBackend(fake_solver)
        backend.add_clause([1])
        backend.add_clause([-1])
        assert not backend.solve().sat

    def test_core_minimization(self, fake_solver):
        backend = ExternalBackend(fake_solver)
        backend.add_clause([-1])
        result = backend.solve(assumptions=[1, 2, 3])
        assert not result.sat
        assert result.core == [1]

    def test_empty_clause_short_circuits(self, fake_solver):
        backend = ExternalBackend(fake_solver)
        backend.add_clause([])
        assert not backend.solve().sat
        assert backend.clause_database() == [[]]

    def test_satisfies_protocol_with_zero_counters(self, fake_solver):
        backend = ExternalBackend(fake_solver)
        assert isinstance(backend, SolverBackend)
        assert solver_counters(backend) == {
            "conflicts": 0,
            "decisions": 0,
            "propagations": 0,
            "restarts": 0,
        }

    def test_spec_resolves_explicit_path(self, fake_solver):
        factory = parse_backend_spec(f"external:{fake_solver}")
        backend = factory()
        backend.add_clause([1])
        assert backend.solve().sat

    def test_missing_binary_is_solver_error(self, tmp_path):
        backend = ExternalBackend(str(tmp_path / "gone"))
        backend.add_clause([1])
        with pytest.raises(SolverError):
            backend.solve()

    def test_find_external_solver_path_form(self, fake_solver):
        assert find_external_solver(fake_solver) == fake_solver
        assert find_external_solver(fake_solver + ".nope") is None


@pytest.mark.skipif(
    find_external_solver() is None,
    reason="no SAT-competition solver (kissat/cadical/minisat) on PATH",
)
class TestRealExternalSolver:
    def test_agrees_with_reference(self):
        backend = parse_backend_spec("external:auto")()
        for seed in range(3):
            clauses = random_instance(seed, num_vars=6, num_clauses=18)
            fresh = ExternalBackend(backend.path)
            for clause in clauses:
                fresh.add_clause(clause)
            result = fresh.solve()
            assert result.sat == solve_cnf(clauses).sat
            if result.sat:
                assert check_assignment(clauses, result.assignment)


class TestQueryBackendPlumbing:
    def test_query_accepts_backend_factory(self):
        bank = TermBank()
        made = []

        def factory():
            made.append(True)
            return Solver()

        q = Query(bank, backend=factory)
        q.assert_term(bank.var("a"))
        result = q.check()
        assert result.sat and made

    def test_incremental_query_routes_through_backend(self):
        bank = TermBank()
        backend = PortfolioBackend(default_portfolio(2))
        q = IncrementalQuery(bank, backend=lambda: backend)
        assert q.solver is backend
        q.assert_term(bank.or_(bank.var("a"), bank.var("b")))
        selector = q.add_selector("only$b", bank.not_(bank.var("a")))
        result = q.check(assumptions=[selector])
        assert result.sat
        assert result.named_model["b"] is True

    def test_use_preprocessing_keyword_rejected(self):
        bank = TermBank()
        with pytest.raises(TypeError):
            Query(bank, use_preprocessing=False)
        with pytest.raises(TypeError):
            IncrementalQuery(bank, use_preprocessing=True)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**20))
def test_portfolio_members_agree_with_brute_force(seed):
    clauses = random_instance(seed, num_vars=6, num_clauses=20)
    expected = brute_force_solve(clauses, 6) is not None
    for config in default_portfolio(3):
        solver = Solver(config=config)
        for clause in clauses:
            solver.add_clause(clause)
        assert solver.solve().sat == expected
