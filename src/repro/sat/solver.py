"""A CDCL SAT solver.

This replaces the Z3 backend of the original Rehearsal artifact.  The
determinacy formulas are propositional after finite-domain encoding
(see DESIGN.md), so a complete SAT solver decides exactly the same
queries.

Features: two-watched-literal propagation, first-UIP conflict-clause
learning with recursive minimization, EVSIDS branching over a lazy
order heap, phase saving, Luby restarts, and length-based
learned-clause deletion (the longer half goes first).

The solver is *incremental*: the clause database — including learned
clauses and root-level units — survives ``solve()`` calls, so a
sequence of related queries shares all derived facts.  Queries are
distinguished by ``assumptions``, temporary unit literals applied as
the first decisions of the search (MiniSat's interface).  When the
instance is unsatisfiable *under the assumptions*, final-conflict
analysis reports the subset of assumptions in the unsat core
(``SolveResult.core``), which callers use for fault localization.

Internally a literal is a *code*: variable ``v`` is ``2v`` when
positive and ``2v + 1`` when negated, so negation is ``code ^ 1`` and
per-literal tables (values, watch lists) are plain lists indexed by
code.  DIMACS integers appear only at the public surface.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from typing import Dict, List, Optional, Sequence

from repro.errors import SolverError

UNDEF = 0
TRUE = 1
FALSE = -1


def _code(lit: int) -> int:
    """DIMACS literal -> literal code."""
    return lit << 1 if lit > 0 else (-lit << 1) | 1


def _dimacs(code: int) -> int:
    """Literal code -> DIMACS literal."""
    return -(code >> 1) if code & 1 else code >> 1


@dataclass
class SolveResult:
    """Outcome of a solver run.

    ``core`` is only meaningful when ``sat`` is False and the query was
    made under assumptions: it holds the subset of the assumption
    literals (as passed) whose conjunction with the clause database is
    already unsatisfiable.  An empty core on an assumption query means
    the clauses alone are unsatisfiable.
    """

    sat: bool
    assignment: Dict[int, bool] = field(default_factory=dict)
    core: List[int] = field(default_factory=list)
    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0
    restarts: int = 0

    def __bool__(self) -> bool:
        return self.sat


class Solver:
    """CDCL solver over integer literals (DIMACS convention).

    ``config`` (a :class:`repro.sat.backend.SolverConfig`, held by
    duck-typed attribute access so this module stays import-cycle
    free) selects the restart policy, branching seed, phase polarity
    and activity decay.  ``config=None`` is byte-for-byte the
    historical behavior — the reference configuration.
    """

    def __init__(self, num_vars: int = 0, config=None):
        self.config = config
        if config is not None:
            self._var_decay = config.decay
            self._seed = config.seed
            self._phase_default = config.phase_default
            self._restart_policy = config.restart_policy
            self._restart_unit = config.restart_unit
            self._restart_growth = config.restart_growth
        else:
            self._var_decay = 0.95
            self._seed = 0
            self._phase_default = False
            self._restart_policy = "luby"
            self._restart_unit = 64
            self._restart_growth = 1.5
        self.num_vars = 0
        self._clauses: List[List[int]] = []
        self._learned: List[List[int]] = []
        # Indexed by literal code: the clauses to visit when that
        # literal becomes true (they watch its negation).
        self._watches: List[List[List[int]]] = [[], []]
        self._vals: List[int] = [UNDEF, UNDEF]
        self._level: List[int] = [0]
        self._reason: List[Optional[List[int]]] = [None]
        self._trail: List[int] = []
        self._trail_lim: List[int] = []
        self._queue_head = 0
        self._activity: List[float] = [0.0]
        self._phase: List[bool] = [False]
        self._occurs: List[bool] = [False]
        # The order heap: lazy (-activity, var) entries, so the heap
        # minimum is the most active variable, ties to the lowest
        # index — the tie-break of a linear scan over 1..num_vars.
        # ``_queued[var]`` is the activity of var's newest entry, or
        # -1.0 when it has none; entries whose activity is no longer
        # current are stale and skipped when popped.  Invariant: every
        # unassigned variable that occurs in a clause has an entry at
        # its current activity.
        self._order: List[tuple] = []
        self._queued: List[float] = [-1.0]
        # One shared int object per literal code: clauses hold these
        # instead of a fresh int per occurrence (codes above 256 are
        # not cached by CPython, and clauses hold most of the memory).
        self._codes: List[int] = [0, 1]
        self._var_inc = 1.0
        self._ok = True
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self.restarts = 0
        if num_vars:
            self.ensure_vars(num_vars)

    # -- clause database ----------------------------------------------------

    def ensure_vars(self, n: int) -> None:
        while self.num_vars < n:
            self.num_vars += 1
            self._vals += (UNDEF, UNDEF)
            self._watches += ([], [])
            self._level.append(0)
            self._reason.append(None)
            # With a nonzero branching seed, start each variable's
            # activity at a tiny deterministic jitter instead of 0.0:
            # too small to outweigh a single bump, but enough to
            # shuffle which variable wins ties between equally-active
            # candidates — the portfolio's branching diversification.
            self._activity.append(
                _activity_jitter(self._seed, self.num_vars)
                if self._seed
                else 0.0
            )
            self._phase.append(self._phase_default)
            self._occurs.append(False)
            self._queued.append(-1.0)
            self._codes += (self.num_vars << 1, (self.num_vars << 1) | 1)

    def add_clause(self, lits: Sequence[int]) -> None:
        """Add a problem clause; duplicate literals removed, tautologies
        dropped.  Empty clause makes the instance trivially UNSAT.

        Clauses may be added between ``solve()`` calls (the incremental
        interface).  The clause is simplified against the root-level
        assignment first: literals already false at level 0 must not be
        chosen as watches — propagation has moved past them, so a watch
        on one would never fire again and the solver could answer SAT
        with a model violating the clause.
        """
        if not self._ok:
            return
        if self._trail_lim:
            # A real check, not an assert: simplifying the clause
            # against search-level assignments below would silently
            # corrupt it (and -O strips asserts).
            raise SolverError("clauses can only be added at decision level 0")
        vals = self._vals
        occurs = self._occurs
        codes = self._codes
        seen: set[int] = set()
        clause: List[int] = []
        for lit in lits:
            if lit == 0:
                raise SolverError("literal 0 is not allowed")
            var = lit if lit > 0 else -lit
            if var > self.num_vars:
                self.ensure_vars(var)
            if -lit in seen:
                return  # tautology
            if lit in seen:
                continue
            code = codes[var << 1 if lit > 0 else (var << 1) | 1]
            value = vals[code]
            if value == TRUE:
                return  # satisfied at the root: implied by a unit
            seen.add(lit)
            if value != FALSE:
                clause.append(code)
            if not occurs[var]:
                self._occur(var)
        if not clause:
            self._ok = False
            return
        if len(clause) == 1:
            if not self._enqueue(clause[0], clause):
                self._ok = False
            return
        self._clauses.append(clause)
        self._watch(clause)

    def _watch(self, clause: List[int]) -> None:
        self._watches[clause[0] ^ 1].append(clause)
        self._watches[clause[1] ^ 1].append(clause)

    def _occur(self, var: int) -> None:
        """``var`` now occurs in a clause: it becomes a branching
        candidate.  Variables in no clause (e.g. eliminated by
        preprocessing) are free: branching on them only pads the
        trail."""
        self._occurs[var] = True
        act = self._activity[var]
        heappush(self._order, (-act, var))
        self._queued[var] = act

    # -- assignment helpers ---------------------------------------------------

    def _enqueue(self, lit: int, reason: Optional[List[int]]) -> bool:
        vals = self._vals
        val = vals[lit]
        if val == FALSE:
            return False
        if val == TRUE:
            return True
        vals[lit] = TRUE
        vals[lit ^ 1] = FALSE
        var = lit >> 1
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._trail.append(lit)
        return True

    def _decision_level(self) -> int:
        return len(self._trail_lim)

    # -- propagation ----------------------------------------------------------

    def _propagate(self) -> Optional[List[int]]:
        """Unit propagation; returns a conflicting clause or None."""
        trail = self._trail
        watches = self._watches
        vals = self._vals
        level = self._level
        reasons = self._reason
        cur_level = len(self._trail_lim)
        start = head = self._queue_head
        conflict = None
        while head < len(trail):
            lit = trail[head]
            head += 1
            false_lit = lit ^ 1
            watchers = watches[lit]
            kept: List[List[int]] = []
            watches[lit] = kept
            rest = iter(watchers)
            for clause in rest:
                # Normalize: the false watch goes to clause[1].
                first = clause[0]
                if first == false_lit:
                    first = clause[1]
                    clause[0] = first
                    clause[1] = false_lit
                if vals[first] == TRUE:
                    kept.append(clause)
                    continue
                # Look for a replacement watch.
                for k in range(2, len(clause)):
                    other = clause[k]
                    if vals[other] != FALSE:
                        clause[1] = other
                        clause[k] = false_lit
                        watches[other ^ 1].append(clause)
                        break
                else:
                    # Clause is unit or conflicting.
                    kept.append(clause)
                    if vals[first] == FALSE:
                        # Conflict: restore remaining watchers first.
                        kept.extend(rest)
                        conflict = clause
                        break
                    vals[first] = TRUE
                    vals[first ^ 1] = FALSE
                    var = first >> 1
                    level[var] = cur_level
                    reasons[var] = clause
                    trail.append(first)
            if conflict is not None:
                break
        self.propagations += head - start
        self._queue_head = head
        return conflict

    # -- conflict analysis -------------------------------------------------------

    def _analyze(self, conflict: List[int]) -> tuple[List[int], int]:
        """First-UIP learning; returns (learned clause, backjump level)."""
        level = self._level
        reasons = self._reason
        trail = self._trail
        activity = self._activity
        var_inc = self._var_inc
        learned: List[int] = [0]  # placeholder for the asserting literal
        seen = [False] * (self.num_vars + 1)
        counter = 0
        lit = 0  # no literal has code 0
        reason: Optional[List[int]] = conflict
        index = len(trail)
        cur_level = len(self._trail_lim)

        while True:
            assert reason is not None
            for q in reason:
                if q == lit:
                    continue
                var = q >> 1
                if not seen[var] and level[var] > 0:
                    seen[var] = True
                    # EVSIDS bump.  Every variable bumped here is
                    # assigned, so none needs an order-heap entry now:
                    # _backtrack queues it when it is unassigned.
                    act = activity[var] + var_inc
                    activity[var] = act
                    if act > 1e100:
                        self._rescale()
                        var_inc = self._var_inc
                    if level[var] >= cur_level:
                        counter += 1
                    else:
                        learned.append(q)
            # Pick the next literal to expand from the trail.
            while True:
                index -= 1
                lit = trail[index]
                if seen[lit >> 1]:
                    break
            counter -= 1
            if counter == 0:
                learned[0] = lit ^ 1
                break
            reason = reasons[lit >> 1]
            seen[lit >> 1] = False

        learned = self._minimize(learned, seen)
        if len(learned) == 1:
            return learned, 0
        # Backjump to the highest level among learned[1:], and move the
        # first literal at that level into position 1 (second watch).
        best = 1
        back_level = level[learned[1] >> 1]
        for i in range(2, len(learned)):
            lv = level[learned[i] >> 1]
            if lv > back_level:
                best = i
                back_level = lv
        learned[1], learned[best] = learned[best], learned[1]
        return learned, back_level

    def _minimize(self, learned: List[int], seen: List[bool]) -> List[int]:
        """Remove literals implied by the rest of the clause (recursive
        clause minimization, memoized — Tseitin reasons can be very
        wide, so the naive recursion is exponential)."""
        memo: Dict[int, bool] = {}
        kept = [learned[0]]
        for q in learned[1:]:
            if not self._redundant(q, seen, memo, depth=0):
                kept.append(q)
        return kept

    def _redundant(
        self, lit: int, seen: List[bool], memo: Dict[int, bool], depth: int
    ) -> bool:
        var = lit >> 1
        cached = memo.get(var)
        if cached is not None:
            return cached
        if depth > 24:
            return False
        reason = self._reason[var]
        if reason is None:
            memo[var] = False
            return False
        level = self._level
        result = True
        for q in reason:
            qvar = q >> 1
            if qvar == var or level[qvar] == 0 or seen[qvar]:
                continue
            if not self._redundant(q, seen, memo, depth + 1):
                result = False
                break
        memo[var] = result
        return result

    def _rescale(self) -> None:
        """Scale every activity down by 1e-100 once one passes 1e100.
        Every key in the order heap changes, so it is rebuilt."""
        for i in range(1, self.num_vars + 1):
            self._activity[i] *= 1e-100
        self._var_inc *= 1e-100
        self._rebuild_order()

    def _decay(self) -> None:
        self._var_inc /= self._var_decay

    def _rebuild_order(self) -> None:
        """Refill the order heap with exactly one current entry per
        unassigned occurring variable, dropping every stale one."""
        activity = self._activity
        vals = self._vals
        occurs = self._occurs
        queued = self._queued
        entries = []
        for var in range(1, self.num_vars + 1):
            if occurs[var] and vals[var << 1] == UNDEF:
                act = activity[var]
                entries.append((-act, var))
                queued[var] = act
            else:
                queued[var] = -1.0
        heapify(entries)
        self._order[:] = entries

    # -- backtracking ---------------------------------------------------------

    def _backtrack(self, level: int) -> None:
        trail_lim = self._trail_lim
        if len(trail_lim) <= level:
            return
        limit = trail_lim[level]
        trail = self._trail
        vals = self._vals
        phase = self._phase
        reasons = self._reason
        activity = self._activity
        queued = self._queued
        order = self._order
        for i in range(len(trail) - 1, limit - 1, -1):
            lit = trail[i]
            var = lit >> 1
            phase[var] = not lit & 1
            vals[lit] = UNDEF
            vals[lit ^ 1] = UNDEF
            reasons[var] = None
            act = activity[var]
            if queued[var] != act:
                heappush(order, (-act, var))
                queued[var] = act
        del trail[limit:]
        del trail_lim[level:]
        self._queue_head = len(trail)
        # Stale entries pile up between picks (a bumped variable is
        # re-queued at each new activity); bound the heap so restart-
        # heavy searches do not grow memory with the conflict count.
        if len(order) > _ORDER_SLACK * self.num_vars:
            self._rebuild_order()

    # -- branching --------------------------------------------------------------

    def _pick_branch(self) -> int:
        """The unassigned occurring variable of highest activity,
        lowest index first on ties, as a literal code in its saved
        phase; 0 when every candidate is assigned."""
        order = self._order
        activity = self._activity
        queued = self._queued
        vals = self._vals
        while order:
            neg_act, var = heappop(order)
            if -neg_act != activity[var]:
                continue  # stale: pushed at an older activity
            queued[var] = -1.0
            if vals[var << 1] == UNDEF:
                return var << 1 if self._phase[var] else (var << 1) | 1
        return 0

    # -- main loop ---------------------------------------------------------------

    def solve(
        self,
        assumptions: Sequence[int] = (),
        max_conflicts: Optional[int] = None,
    ) -> SolveResult:
        """Decide satisfiability under temporary ``assumptions``.

        The clause database (problem clauses, learned clauses,
        root-level units) persists across calls; only the assumptions
        are forgotten.  Following MiniSat, assumptions are applied as
        the first decisions of the search and *re-applied after every
        restart*, so learned unit clauses can be retained at level 0
        without ever losing an assumption.  On UNSAT,
        ``SolveResult.core`` holds the implicated assumptions.
        """
        self._backtrack(0)
        if not self._ok:
            return self._result(False)
        codes: List[int] = []
        for lit in assumptions:
            if lit == 0:
                raise SolverError("literal 0 is not allowed")
            var = abs(lit)
            self.ensure_vars(var)
            if not self._occurs[var]:
                self._occur(var)
            codes.append(_code(lit))
        if self._propagate() is not None:
            self._ok = False
            return self._result(False)

        vals = self._vals
        restart_unit = self._restart_unit
        luby_index = 1
        geometric_interval = float(restart_unit)
        if self._restart_policy == "geometric":
            conflicts_until_restart = restart_unit
        else:
            conflicts_until_restart = restart_unit * _luby(luby_index)
        max_learned = max(1000, len(self._clauses) // 2)
        # The budget is per call: self.conflicts accumulates over the
        # solver's lifetime, so a reused instance must not charge this
        # query for conflicts earlier queries spent.
        conflict_limit = (
            self.conflicts + max_conflicts
            if max_conflicts is not None
            else None
        )

        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.conflicts += 1
                conflicts_until_restart -= 1
                if self._decision_level() == 0:
                    self._ok = False
                    return self._result(False)
                learned, back_level = self._analyze(conflict)
                self._backtrack(back_level)
                if len(learned) == 1:
                    # A learned unit is implied by the clauses alone
                    # (conflict analysis never resolves on assumption
                    # literals), so it is sound — and valuable for
                    # later calls — to fix it at level 0.  Its reason
                    # is itself, which keeps final-conflict analysis
                    # from mistaking it for an assumption.
                    if not self._enqueue(learned[0], learned):
                        self._ok = False
                        self._backtrack(0)
                        return self._result(False)
                else:
                    self._learned.append(learned)
                    self._watch(learned)
                    self._enqueue(learned[0], learned)
                self._decay()
                if conflict_limit is not None and self.conflicts >= conflict_limit:
                    # Leave the solver reusable: every exit path —
                    # including this abnormal one — returns at level 0
                    # so clauses can still be added afterwards.
                    self._backtrack(0)
                    raise SolverError("conflict budget exhausted")
                if len(self._learned) > max_learned:
                    self._reduce_learned()
                    max_learned = int(max_learned * 1.3)
                continue

            if conflicts_until_restart <= 0:
                self.restarts += 1
                if self._restart_policy == "geometric":
                    geometric_interval *= self._restart_growth
                    conflicts_until_restart = int(geometric_interval)
                else:
                    luby_index += 1
                    conflicts_until_restart = restart_unit * _luby(luby_index)
                self._backtrack(0)
                continue

            # Re-establish assumptions first: decision level k holds
            # assumption k (or a dummy level when it already holds).
            lit = 0
            while self._decision_level() < len(codes):
                p = codes[self._decision_level()]
                v = vals[p]
                if v == TRUE:
                    self._trail_lim.append(len(self._trail))
                elif v == FALSE:
                    core = self._analyze_final(p)
                    self._backtrack(0)
                    return self._result(False, core=core)
                else:
                    lit = p
                    break
            if lit == 0 and self._decision_level() >= len(codes):
                lit = self._pick_branch()
                if lit == 0:
                    result = self._result(True)
                    self._backtrack(0)
                    return result
            self.decisions += 1
            self._trail_lim.append(len(self._trail))
            self._enqueue(lit, None)

    def _analyze_final(self, p: int) -> List[int]:
        """``p`` is an assumption found FALSE while (re-)applying the
        assumptions: every decision currently on the trail is itself an
        assumption.  Walk the implication graph of ¬p back to decisions
        to collect the implicated assumptions (MiniSat's analyzeFinal).
        """
        core = {_dimacs(p)}
        var0 = p >> 1
        if self._level[var0] == 0:
            return sorted(core)  # the clauses alone imply ¬p
        seen = {var0}
        start = self._trail_lim[0]
        for i in range(len(self._trail) - 1, start - 1, -1):
            lit = self._trail[i]
            var = lit >> 1
            if var not in seen:
                continue
            seen.discard(var)
            reason = self._reason[var]
            if reason is None:
                core.add(_dimacs(lit))  # a decision == an earlier assumption
            else:
                for q in reason:
                    qv = q >> 1
                    if qv != var and self._level[qv] > 0:
                        seen.add(qv)
        return sorted(core)

    def _reduce_learned(self) -> None:
        """Keep the shorter half of the learned clauses (by length);
        of the longer half, keep only binaries and clauses currently
        used as reasons."""
        reasons = {id(r) for r in self._reason if r is not None}
        self._learned.sort(key=len)
        keep = self._learned[: len(self._learned) // 2]
        drop = self._learned[len(self._learned) // 2 :]
        kept_drop = [c for c in drop if id(c) in reasons or len(c) <= 2]
        removed = {id(c) for c in drop if id(c) not in reasons and len(c) > 2}
        self._learned = keep + kept_drop
        for watchers in self._watches:
            if watchers:
                watchers[:] = [c for c in watchers if id(c) not in removed]

    def _result(self, sat: bool, core: Optional[List[int]] = None) -> SolveResult:
        assignment: Dict[int, bool] = {}
        if sat:
            vals = self._vals
            assignment = {
                var: vals[var << 1] == TRUE
                for var in range(1, self.num_vars + 1)
                if vals[var << 1] != UNDEF
            }
        return SolveResult(
            sat=sat,
            assignment=assignment,
            core=list(core or ()),
            conflicts=self.conflicts,
            decisions=self.decisions,
            propagations=self.propagations,
            restarts=self.restarts,
        )

    # -- database inspection ------------------------------------------------

    def root_units(self) -> List[int]:
        """The literals fixed at decision level 0 (problem units plus
        learned units)."""
        limit = self._trail_lim[0] if self._trail_lim else len(self._trail)
        return [_dimacs(lit) for lit in self._trail[:limit]]

    def clause_database(
        self, include_learned: bool = False
    ) -> List[List[int]]:
        """A snapshot of the current clause database: root-level units
        as unit clauses, then problem clauses (and optionally learned
        clauses).  Together with :attr:`num_vars` this is exactly what
        :func:`repro.sat.dimacs.write_dimacs` needs to dump the
        instance for offline debugging."""
        if not self._ok:
            # Known unsatisfiable regardless of clauses: the empty
            # clause reproduces that verdict on re-read.
            return [[]]
        clauses: List[List[int]] = [[lit] for lit in self.root_units()]
        clauses.extend([_dimacs(q) for q in c] for c in self._clauses)
        if include_learned:
            clauses.extend([_dimacs(q) for q in c] for c in self._learned)
        return clauses


#: The order heap is rebuilt once it holds more than this many entries
#: per variable; a rebuild leaves at most one per variable.
_ORDER_SLACK = 2

_JITTER_MASK = (1 << 64) - 1


def _activity_jitter(seed: int, var: int) -> float:
    """A deterministic pseudo-random initial activity in [0, 1e-4)
    from (seed, var) — splitmix64-style integer mixing, so the jitter
    is stable across processes and Python hash randomization."""
    x = (seed * 0x9E3779B97F4A7C15 + var * 0xBF58476D1CE4E5B9) & _JITTER_MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _JITTER_MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _JITTER_MASK
    x ^= x >> 31
    return (x / float(_JITTER_MASK + 1)) * 1e-4


def _luby(i: int) -> int:
    """The Luby restart sequence (1-based): 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8…

    If i = 2^k - 1 the value is 2^(k-1); otherwise recurse on
    i - 2^(k-1) + 1 where 2^(k-1) ≤ i < 2^k - 1.
    """
    while True:
        k = i.bit_length()
        if i == (1 << k) - 1:
            return 1 << (k - 1)
        i = i - (1 << (k - 1)) + 1


def solve_cnf(
    clauses: Sequence[Sequence[int]], num_vars: int = 0
) -> SolveResult:
    """One-shot convenience wrapper."""
    solver = Solver(num_vars)
    for clause in clauses:
        solver.add_clause(clause)
    return solver.solve()
