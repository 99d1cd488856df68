"""SAT solving substrate: CDCL solver, DIMACS I/O and brute-force
oracle (see docs/solver.md)."""

from repro.sat.brute import brute_force_solve, check_assignment, count_models
from repro.sat.dimacs import dimacs_to_string, read_dimacs, write_dimacs
from repro.sat.solver import SolveResult, Solver, solve_cnf

__all__ = [
    "SolveResult",
    "Solver",
    "brute_force_solve",
    "check_assignment",
    "count_models",
    "dimacs_to_string",
    "read_dimacs",
    "solve_cnf",
    "write_dimacs",
]
