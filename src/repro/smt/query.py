"""SAT query plumbing: term → CNF → preprocessing → CDCL → named model.

Two interfaces:

* :class:`Query` — a one-shot satisfiability question.  The formula is
  Tseitin-encoded, simplified by :mod:`repro.sat.preprocess` (named
  input variables frozen so the witness model survives), solved, and
  the model reconstructed back onto the original encoding.

* :class:`IncrementalQuery` — many related questions over one shared
  solver instance.  Terms asserted with :meth:`IncrementalQuery.assert_term`
  hold in every call; terms registered with
  :meth:`IncrementalQuery.add_selector` are guarded by a fresh selector
  variable and only enforced when that selector is passed as an
  assumption to :meth:`IncrementalQuery.check`.  Clauses — including
  everything the CDCL solver *learns* — are retained across calls, and
  an UNSAT answer carries the subset of the assumptions in the unsat
  core, which the analyses use for fault localization
  (:mod:`repro.analysis.localize`).

  The clause database existing at the first ``check()`` is preprocessed
  once, with named variables and selectors frozen.  Terms encoded later
  share the persistent Tseitin cache; their clauses are simplified
  against the preprocessor's fixed assignments, and any variable the
  preprocessor eliminated is soundly re-introduced first
  (:meth:`repro.sat.preprocess.Preprocessed.restore`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.logic.cnf import CNF, TseitinEncoder
from repro.logic.terms import Term, TermBank
from repro.sat.preprocess import Preprocessed, preprocess
from repro.sat.solver import Solver

#: One-shot queries below this clause count skip preprocessing: the
#: pure-Python simplification passes cost more than the CDCL saves on
#: instances this size (measured on the §6 corpus; see docs/solver.md).
PREPROCESS_MIN_CLAUSES = 6000

@dataclass
class QueryResult:
    sat: bool
    named_model: Dict[str, bool] = field(default_factory=dict)
    #: On UNSAT under assumptions: the implicated assumption selector
    #: names (subset of those passed to ``check``).  Empty when the
    #: asserted formula alone is unsatisfiable.
    core: List[str] = field(default_factory=list)
    core_lits: List[int] = field(default_factory=list)
    num_vars: int = 0
    num_clauses: int = 0
    #: Instance size actually handed to the CDCL solver, after
    #: preprocessing (``num_vars``/``num_clauses`` report the raw
    #: encoding, feeding the Fig. 11 instrumentation as before).
    solved_clauses: int = 0
    eliminated_vars: int = 0
    solve_seconds: float = 0.0
    conflicts: int = 0
    decisions: int = 0


class Query:
    """A single satisfiability question over a term bank.

    ``preprocessing`` — None (default) preprocesses only instances
    with at least :data:`PREPROCESS_MIN_CLAUSES` clauses; True/False
    force it on/off.

    ``backend`` — a zero-argument factory producing the
    :class:`repro.sat.backend.SolverBackend` each ``check`` solves on
    (default: a fresh reference CDCL solver).
    """

    def __init__(
        self,
        bank: TermBank,
        preprocessing: Optional[bool] = None,
        backend: Optional[Callable[[], "Solver"]] = None,
        subterm_cache=None,
    ):
        self.bank = bank
        self.preprocessing = preprocessing
        self.backend = backend
        self._assertions: list[Term] = []
        #: Optional :class:`repro.logic.cnf.SubtermCache` — persisted
        #: and/or encodings rehydrate across runs (the incremental
        #: store's ``cnf`` section).  One-shot queries only; the
        #: incremental query below never uses it.
        self.subterm_cache = subterm_cache
        #: Subformula encodings served from :attr:`subterm_cache` by
        #: the last :meth:`check`.
        self.cnf_cache_hits = 0

    def assert_term(self, term: Term) -> None:
        self._assertions.append(term)

    def check(self, max_conflicts: Optional[int] = None) -> QueryResult:
        formula = self.bank.and_(*self._assertions)
        if formula is self.bank.TRUE:
            return QueryResult(sat=True)
        if formula is self.bank.FALSE:
            return QueryResult(sat=False)
        if self.subterm_cache is not None:
            encoder = TseitinEncoder(
                subterm_cache=self.subterm_cache,
                digest_fn=self.bank.digest,
            )
        else:
            encoder = TseitinEncoder()
        cnf = encoder.cnf
        root_lit = encoder.lit(formula)
        self.cnf_cache_hits = encoder.cache_hits
        cnf.add([root_lit])
        start = time.perf_counter()
        preprocessing = self.preprocessing
        if preprocessing is None:
            preprocessing = len(cnf.clauses) >= PREPROCESS_MIN_CLAUSES
        pre: Optional[Preprocessed] = None
        clauses = cnf.clauses
        if preprocessing:
            pre = preprocess(
                cnf.clauses, cnf.num_vars, frozen=cnf.var_ids.values()
            )
            if pre.unsat:
                return QueryResult(
                    sat=False,
                    num_vars=cnf.num_vars,
                    num_clauses=len(cnf.clauses),
                    eliminated_vars=pre.stats.eliminated_vars,
                    solve_seconds=time.perf_counter() - start,
                )
            clauses = pre.clauses
        solver = self.backend() if self.backend is not None else Solver()
        for clause in clauses:
            solver.add_clause(clause)
        result = solver.solve(max_conflicts=max_conflicts)
        elapsed = time.perf_counter() - start
        named: Dict[str, bool] = {}
        if result.sat:
            model = result.assignment
            if pre is not None:
                model = pre.reconstruct(model)
            named = cnf.decode(model)
        return QueryResult(
            sat=result.sat,
            named_model=named,
            num_vars=cnf.num_vars,
            num_clauses=len(cnf.clauses),
            solved_clauses=len(clauses),
            eliminated_vars=pre.stats.eliminated_vars if pre else 0,
            solve_seconds=elapsed,
            conflicts=result.conflicts,
            decisions=result.decisions,
        )


class IncrementalQuery:
    """Assumption-based incremental solving over one shared solver.

    ``preprocessing`` — None (default) preprocesses only when the
    clause database at the first ``check`` has at least
    :data:`PREPROCESS_MIN_CLAUSES` clauses; True/False force it.  The
    cost is paid once and amortized over every later check.

    ``backend`` — a zero-argument factory producing the
    :class:`repro.sat.backend.SolverBackend` this query's lifetime of
    checks runs on (default: the reference CDCL solver).  The backend
    must be incremental: clauses and learned facts persist across
    ``check`` calls.
    """

    def __init__(
        self,
        bank: TermBank,
        preprocessing: Optional[bool] = None,
        backend: Optional[Callable[[], "Solver"]] = None,
    ):
        self.bank = bank
        self.preprocessing = preprocessing
        self.cnf = CNF()
        self._encoder = TseitinEncoder(self.cnf)
        self._solver = backend() if backend is not None else Solver()
        self._pre: Optional[Preprocessed] = None
        self._checked = False
        self._flushed = 0  # cnf.clauses already handed to the solver
        self._selectors: Dict[int, str] = {}  # var id -> name
        self.checks = 0
        self.solve_seconds = 0.0
        #: CDCL work over every ``check`` on this solver (mirrors the
        #: shared solver's lifetime totals) — wall-clock-free effort
        #: counters for profiling and regression guards; each
        #: ``QueryResult`` reports its own per-call delta, so
        #: learned-clause reuse shows up as later checks costing few
        #: conflicts.
        self.conflicts = 0
        self.decisions = 0

    @property
    def solver(self):
        """The live :class:`repro.sat.backend.SolverBackend` instance."""
        return self._solver

    # -- building -----------------------------------------------------------

    def assert_term(self, term: Term) -> None:
        """Assert ``term`` unconditionally, for this and every later
        ``check``."""
        if term is self.bank.TRUE:
            return
        self.cnf.add([self._encoder.lit(term)])

    def add_selector(self, name: str, term: Term) -> int:
        """Register a guarded term: returns a fresh selector variable
        ``s`` with the clause ``s → term``, so passing ``s`` as an
        assumption enforces ``term`` for that call only."""
        selector = self.cnf.new_var(name)
        self._selectors[selector] = name
        self.cnf.add([-selector, self._encoder.lit(term)])
        return selector

    # -- solving ------------------------------------------------------------

    def check(
        self,
        assumptions: Sequence[int] = (),
        max_conflicts: Optional[int] = None,
    ) -> QueryResult:
        """Decide satisfiability of the asserted terms plus the guarded
        terms whose selectors appear in ``assumptions``."""
        start = time.perf_counter()
        self._flush()
        result = self._solver.solve(
            assumptions=assumptions, max_conflicts=max_conflicts
        )
        elapsed = time.perf_counter() - start
        self.checks += 1
        self.solve_seconds += elapsed
        # SolveResult counters are the shared solver's lifetime
        # totals, so this call's share is the delta since the last
        # check.
        call_conflicts = result.conflicts - self.conflicts
        call_decisions = result.decisions - self.decisions
        self.conflicts = result.conflicts
        self.decisions = result.decisions
        named: Dict[str, bool] = {}
        if result.sat:
            model = result.assignment
            if self._pre is not None:
                model = self._pre.reconstruct(model)
            named = self.cnf.decode(model)
        core_names = [
            self._selectors[lit]
            for lit in result.core
            if lit in self._selectors
        ]
        return QueryResult(
            sat=result.sat,
            named_model=named,
            core=core_names,
            core_lits=list(result.core),
            num_vars=self.cnf.num_vars,
            num_clauses=len(self.cnf.clauses),
            solved_clauses=len(self._pre.clauses) if self._pre else 0,
            eliminated_vars=(
                self._pre.stats.eliminated_vars if self._pre else 0
            ),
            solve_seconds=elapsed,
            conflicts=call_conflicts,
            decisions=call_decisions,
        )

    # -- internals ----------------------------------------------------------

    def _flush(self) -> None:
        if not self._checked:
            self._checked = True
            preprocessing = self.preprocessing
            if preprocessing is None:
                preprocessing = (
                    len(self.cnf.clauses) >= PREPROCESS_MIN_CLAUSES
                )
            if preprocessing:
                # Preprocess the whole database once, freezing the
                # variables later calls may mention — named inputs and
                # selectors.
                frozen = set(self.cnf.var_ids.values()) | set(
                    self._selectors
                )
                self._pre = preprocess(
                    self.cnf.clauses, self.cnf.num_vars, frozen=frozen
                )
                self._flushed = len(self.cnf.clauses)
                if self._pre.unsat:
                    self._solver.add_clause([])  # permanently UNSAT
                    return
                for clause in self._pre.clauses:
                    self._solver.add_clause(clause)
                # Forced assignments on frozen variables must reach
                # the solver as units: an assumption may contradict
                # one, and only the solver can report that (with the
                # right core).
                for var, value in self._pre.assigned.items():
                    if var in frozen:
                        self._solver.add_clause(
                            [var if value else -var]
                        )
                return
        if self._pre is None:
            # No preprocessing: hand clauses to the solver verbatim.
            while self._flushed < len(self.cnf.clauses):
                self._solver.add_clause(self.cnf.clauses[self._flushed])
                self._flushed += 1
            return
        # Later additions after preprocessing: simplify against the
        # preprocessor's fixed assignments and re-introduce any
        # variable it eliminated.
        pre = self._pre
        while self._flushed < len(self.cnf.clauses):
            clause = self.cnf.clauses[self._flushed]
            self._flushed += 1
            simplified = pre.simplify_clause(clause)
            if simplified is None:
                continue  # already satisfied
            for lit in simplified:
                for restored in pre.restore(abs(lit)):
                    self._solver.add_clause(restored)
            self._solver.add_clause(simplified)


def check_sat(
    bank: TermBank, term: Term, max_conflicts: Optional[int] = None
) -> QueryResult:
    """One-shot satisfiability check of a single term."""
    query = Query(bank)
    query.assert_term(term)
    return query.check(max_conflicts=max_conflicts)
