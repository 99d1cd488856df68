"""Tests for the ``rehearsal solve`` subcommand and the DIMACS
solver-state export (the round-trip debugging loop)."""

import io

import pytest

from repro.core.cli import main
from repro.sat.brute import check_assignment
from repro.sat.dimacs import read_dimacs, solver_to_string, write_solver
from repro.sat.solver import Solver

SAT_CNF = "c a satisfiable instance\np cnf 3 2\n1 -2 0\n2 3 0\n"
UNSAT_CNF = "p cnf 2 4\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n"


@pytest.fixture
def sat_file(tmp_path):
    path = tmp_path / "sat.cnf"
    path.write_text(SAT_CNF, encoding="utf8")
    return path


@pytest.fixture
def unsat_file(tmp_path):
    path = tmp_path / "unsat.cnf"
    path.write_text(UNSAT_CNF, encoding="utf8")
    return path


class TestSolveCommand:
    def test_sat_exit_code_and_model(self, sat_file, capsys):
        code = main(["solve", str(sat_file)])
        out = capsys.readouterr().out
        assert code == 10
        assert "s SATISFIABLE" in out
        model_line = next(
            line for line in out.splitlines() if line.startswith("v ")
        )
        lits = [int(tok) for tok in model_line[2:].split()]
        assert lits[-1] == 0
        assignment = {abs(lit): lit > 0 for lit in lits[:-1]}
        clauses, _ = read_dimacs(io.StringIO(SAT_CNF))
        assert check_assignment(clauses, assignment)

    def test_unsat_exit_code(self, unsat_file, capsys):
        code = main(["solve", str(unsat_file)])
        assert code == 20
        assert "s UNSATISFIABLE" in capsys.readouterr().out

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        code = main(["solve", str(tmp_path / "nope.cnf")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_dump_round_trips(self, sat_file, tmp_path, capsys):
        dumped = tmp_path / "dumped.cnf"
        assert main(["solve", str(sat_file), "--dump", str(dumped)]) == 10
        capsys.readouterr()
        # The dumped solver clause database decides the same way.
        assert main(["solve", str(dumped)]) == 10

    def test_dump_round_trips_unsat(self, unsat_file, tmp_path, capsys):
        dumped = tmp_path / "dumped.cnf"
        assert main(["solve", str(unsat_file), "--dump", str(dumped)]) == 20
        capsys.readouterr()
        assert main(["solve", str(dumped)]) == 20

    def test_dump_preserves_forced_units(self, tmp_path, capsys):
        """The solver consumes forced units at the root; the dump must
        still assert them or models of the dumped file can violate the
        original instance."""
        original = tmp_path / "unit.cnf"
        original.write_text("p cnf 2 2\n1 0\n-1 2 0\n", encoding="utf8")
        dumped = tmp_path / "dumped.cnf"
        assert main(["solve", str(original), "--dump", str(dumped)]) == 10
        capsys.readouterr()
        assert main(["solve", str(dumped)]) == 10
        out = capsys.readouterr().out
        model_line = next(
            line for line in out.splitlines() if line.startswith("v ")
        )
        lits = [int(tok) for tok in model_line[2:].split()][:-1]
        assignment = {abs(lit): lit > 0 for lit in lits}
        clauses, _ = read_dimacs(
            io.StringIO(original.read_text(encoding="utf8"))
        )
        assert check_assignment(clauses, assignment)


class TestSolverExport:
    def test_write_solver_includes_units_and_clauses(self):
        solver = Solver(3)
        solver.add_clause([1])
        solver.add_clause([-1, 2])
        solver.add_clause([2, 3])
        text = solver_to_string(solver)
        clauses, num_vars = read_dimacs(io.StringIO(text))
        assert num_vars == 3
        rebuilt = Solver()
        for clause in clauses:
            rebuilt.add_clause(clause)
        result = rebuilt.solve()
        assert result.sat
        assert result.assignment[1] is True
        assert result.assignment[2] is True

    def test_export_after_incremental_calls_keeps_learned_facts(self):
        solver = Solver(3)
        solver.add_clause([1, 2])
        solver.add_clause([1, -2])
        solver.solve()
        buf = io.StringIO()
        write_solver(buf, solver, include_learned=True, comments=["snapshot"])
        text = buf.getvalue()
        assert text.startswith("c snapshot")
        clauses, _ = read_dimacs(io.StringIO(text))
        rebuilt = Solver()
        for clause in clauses:
            rebuilt.add_clause(clause)
        assert rebuilt.solve().sat
