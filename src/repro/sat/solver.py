"""A CDCL SAT solver (conflict-driven clause learning), from scratch.

Implements the standard modern architecture: two-watched-literal unit
propagation, first-UIP conflict analysis with clause learning and
recursive learned-clause minimization, VSIDS-style activity-based
branching with decay (served from a lazy max-heap), phase saving,
non-chronological backjumping, Luby-sequence restarts and activity-based
learned-clause database reduction.  It is a real solver — complete and
sound — sized for the miter instances produced by the combinational
equivalence checker on circuits of a few thousand gates.

The solver is *incremental*: after construction it accepts new variables
(:meth:`CdclSolver.new_var`) and clauses (:meth:`CdclSolver.add_clause`)
and can be re-solved any number of times under different assumptions
without re-reading the CNF.  Learned clauses and variable activities
persist across :meth:`CdclSolver.solve` calls, which is what makes the
incremental equivalence session (:mod:`repro.sat.incremental`) pay off —
lemmas proved for one fingerprint copy transfer to the next.

The inner loop is tunable through :class:`SolverConfig`.  The default
configuration enables every speed feature (flat interleaved watch lists
with blocker literals and a dedicated binary-clause tier, recursive
learned-clause minimization); :data:`LEGACY_CONFIG` reproduces the
pre-tuning solver exactly, which is what the raw-speed benchmark
(``benchmarks/bench_sat_profile.py``) measures against and what the
differential suite compares verdicts with.

Internal literal encoding: variable ``v`` (1-based) maps to literals
``2*v`` (positive) and ``2*v + 1`` (negative); ``lit ^ 1`` negates.
"""

from __future__ import annotations

import enum
import heapq
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .. import telemetry
from ..budget import Budget, UNLIMITED
from ..telemetry.metrics import safe_rate
from .cnf import Cnf

_UNASSIGNED = -1


def _to_internal(lit: int) -> int:
    var = abs(lit)
    return 2 * var + (1 if lit < 0 else 0)


def _to_external(lit: int) -> int:
    var = lit >> 1
    return -var if lit & 1 else var


@dataclass(frozen=True)
class SolverConfig:
    """Inner-loop tuning knobs for :class:`CdclSolver`.

    Attributes:
        restart_base: Conflicts before the first restart; the Luby
            sequence scales subsequent restart intervals from this base.
        phase_saving: Remember each variable's last assigned polarity
            across backjumps and branch on it first.
        minimize: Recursive learned-clause minimization (self-subsuming
            resolution over the implication graph) after first-UIP
            analysis.
        flat_watches: Cache-friendly watch lists — flat interleaved int
            arrays ``[blocker, clause, blocker, clause, ...]`` with a
            dedicated binary-clause tier that propagates without touching
            clause objects at all.  ``False`` selects the historical
            per-literal clause-index lists.
        profile: Accumulate per-phase wall-clock time
            (propagate/analyze/decide/reduce) into :class:`SolverStats`.
            Off by default — the timers cost two clock reads per loop
            iteration.
        var_decay: VSIDS activity decay factor.
        cla_decay: Learned-clause activity decay factor.
    """

    restart_base: int = 100
    phase_saving: bool = True
    minimize: bool = True
    flat_watches: bool = True
    profile: bool = False
    var_decay: float = 0.95
    cla_decay: float = 0.999

    def key(self) -> str:
        """Stable short string identifying this configuration (cache keys)."""
        return (
            f"r{self.restart_base}-p{int(self.phase_saving)}"
            f"-m{int(self.minimize)}-f{int(self.flat_watches)}"
            f"-vd{self.var_decay:g}-cd{self.cla_decay:g}"
        )


#: The solver exactly as it behaved before the raw-speed program: no
#: learned-clause minimization, per-literal clause-index watch lists.
#: The profiling benchmark uses this as its "current solver" baseline.
LEGACY_CONFIG = SolverConfig(minimize=False, flat_watches=False)


@dataclass
class SolverStats:
    """Counters exposed for benchmarks and tests.

    All counters accumulate over the solver's lifetime (across repeated
    :meth:`CdclSolver.solve` calls on a persistent solver), so incremental
    sessions report total work.  ``watch_visits`` counts watch-list clause
    visits during propagation (the solver's true inner loop);
    ``learned_deleted`` counts clauses discarded by database reduction;
    ``minimized_literals`` counts literals removed from learned clauses by
    recursive minimization; ``solve_seconds`` is total wall-clock time
    spent inside ``solve``.  The ``*_seconds`` phase timers fill only
    under :attr:`SolverConfig.profile`.
    """

    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0
    learned: int = 0
    restarts: int = 0
    max_decision_level: int = 0
    watch_visits: int = 0
    learned_deleted: int = 0
    minimized_literals: int = 0
    solve_seconds: float = 0.0
    propagate_seconds: float = 0.0
    analyze_seconds: float = 0.0
    decide_seconds: float = 0.0
    reduce_seconds: float = 0.0

    _SUM_FIELDS = (
        "decisions",
        "propagations",
        "conflicts",
        "learned",
        "restarts",
        "watch_visits",
        "learned_deleted",
        "minimized_literals",
        "solve_seconds",
        "propagate_seconds",
        "analyze_seconds",
        "decide_seconds",
        "reduce_seconds",
    )

    @property
    def propagations_per_sec(self) -> float:
        """Propagation throughput over the accumulated solve time.

        Routed through :func:`repro.telemetry.safe_rate`, so an instant
        solve on a coarse clock (``solve_seconds == 0``) reports 0.0
        instead of raising ``ZeroDivisionError``.  Derived from the raw
        counters on every read — never stored — so merged stats report
        the true aggregate rate instead of a sum or average of rates.
        """
        return safe_rate(self.propagations, self.solve_seconds)

    def merge(self, other: "SolverStats") -> "SolverStats":
        """Fold another worker's counters into this one, in place.

        Raw counters and phase seconds add; ``max_decision_level`` takes
        the maximum.  Derived rates (``propagations_per_sec``) are *not*
        summed — they recompute from the merged raw counters, which is
        what keeps pool aggregation free of double counting.
        Returns ``self`` so merges chain.
        """
        for name in self._SUM_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.max_decision_level = max(
            self.max_decision_level, other.max_decision_level
        )
        return self

    @classmethod
    def merged(cls, many: Sequence["SolverStats"]) -> "SolverStats":
        """A fresh stats object folding ``many`` together (each once)."""
        total = cls()
        for stats in many:
            total.merge(stats)
        return total

    def as_dict(self) -> Dict[str, float]:
        """JSON-ready snapshot including the derived throughput."""
        payload: Dict[str, float] = {
            name: getattr(self, name) for name in self._SUM_FIELDS
        }
        payload["max_decision_level"] = self.max_decision_level
        payload["propagations_per_sec"] = self.propagations_per_sec
        return payload


class SatStatus(enum.Enum):
    """Three-valued solver verdict."""

    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"  # resource budget exhausted before a proof


class SatResult:
    """Outcome of :meth:`CdclSolver.solve`.

    ``status`` is three-valued: :data:`SatStatus.UNKNOWN` means the solver
    ran out of budget (see :class:`repro.budget.Budget`) before reaching a
    verdict; ``reason`` then records which limit was hit.  The historical
    boolean interface (``satisfiable`` / truthiness) maps UNKNOWN to
    ``False`` — no model is claimed — so pre-budget callers stay correct.
    """

    def __init__(
        self,
        status: Union[SatStatus, bool],
        model: Optional[Dict[int, bool]],
        stats: SolverStats,
        reason: Optional[str] = None,
    ):
        if isinstance(status, bool):
            status = SatStatus.SAT if status else SatStatus.UNSAT
        self.status = status
        self.model = model
        self.stats = stats
        self.reason = reason

    @property
    def satisfiable(self) -> bool:
        """True only for a proven SAT verdict (with model)."""
        return self.status is SatStatus.SAT

    @property
    def unknown(self) -> bool:
        """True when the budget ran out before a verdict."""
        return self.status is SatStatus.UNKNOWN

    def __bool__(self) -> bool:
        return self.status is SatStatus.SAT

    def value(self, var: int) -> bool:
        """Model value of ``var``; only valid when satisfiable.

        A variable absent from the model (e.g. allocated after the clauses
        were read, so the solver never saw it constrained) defaults to
        ``False`` — any completion of the model satisfies the formula.
        """
        if self.model is None:
            raise ValueError(f"no model: solver status is {self.status.value}")
        return self.model.get(var, False)


def _luby(x: int) -> int:
    """The Luby restart sequence (1,1,2,1,1,2,4,...), 0-indexed."""
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) // 2
        seq -= 1
        x %= size
    return 1 << seq


class CdclSolver:
    """An incremental CDCL solver over one growing clause database.

    Construct from a :class:`~repro.sat.cnf.Cnf` (or empty), then freely
    interleave :meth:`new_var` / :meth:`add_clause` with :meth:`solve`
    calls under assumptions.  State that persists between solves: the
    clause database (original + learned), variable activities and saved
    phases, and all root-level (decision level 0) implied assignments.

    ``config`` selects the inner-loop machinery (see
    :class:`SolverConfig`).
    """

    def __init__(
        self,
        cnf: Optional[Cnf] = None,
        config: Optional[SolverConfig] = None,
    ) -> None:
        config = config if config is not None else SolverConfig()
        self.config = config
        self.n_vars = cnf.n_vars if cnf is not None else 0
        self.stats = SolverStats()

        size = 2 * (self.n_vars + 1)
        self._flat = config.flat_watches
        self._clauses: List[List[int]] = []
        #: Parallel to ``_clauses``: True for learned (redundant) clauses.
        self._learned_mask: List[bool] = []
        #: Parallel to ``_clauses``: activity for DB-reduction ranking.
        self._clause_act: List[float] = []
        #: Flat mode: interleaved ``[blocker, clause, ...]`` per literal
        #: for clauses of 3+ literals.  Legacy mode: plain clause-index
        #: lists holding every clause.
        self._watches: List[List[int]] = [[] for _ in range(size)]
        #: Flat mode only: interleaved ``[other_lit, clause, ...]`` per
        #: literal for binary clauses — propagated without dereferencing
        #: the clause object.
        self._bin_watches: List[List[int]] = [[] for _ in range(size)]
        self._assign: List[int] = [_UNASSIGNED] * (self.n_vars + 1)
        self._level: List[int] = [0] * (self.n_vars + 1)
        self._reason: List[Optional[int]] = [None] * (self.n_vars + 1)
        self._trail: List[int] = []
        self._trail_lim: List[int] = []
        self._activity: List[float] = [0.0] * (self.n_vars + 1)
        self._phase: List[bool] = [False] * (self.n_vars + 1)
        self._var_inc = 1.0
        self._var_decay = config.var_decay
        self._cla_inc = 1.0
        self._cla_decay = config.cla_decay
        self._trivially_unsat = False
        #: Lazy VSIDS max-heap of ``(-activity_at_push, var)`` entries;
        #: stale entries (activity changed or var assigned) are skipped at
        #: pop time.
        self._heap: List[Tuple[float, int]] = [
            (0.0, var) for var in range(1, self.n_vars + 1)
        ]
        #: Learned clauses currently in the database (not yet deleted).
        self._n_learned_live = 0
        #: DB reduction fires when live learned clauses exceed this.
        self._reduce_limit = 2000

        if cnf is not None:
            seen_units: List[int] = []
            for clause in cnf.clauses:
                internal = [_to_internal(l) for l in dict.fromkeys(clause)]
                if self._tautological(internal):
                    continue
                if len(internal) == 1:
                    seen_units.append(internal[0])
                else:
                    self._add_clause(internal)
            self._reduce_limit = max(2000, len(self._clauses) // 3)
            for lit in seen_units:
                if not self._enqueue(lit, None):
                    self._trivially_unsat = True
                    return

    @staticmethod
    def _tautological(clause: Sequence[int]) -> bool:
        literals = set(clause)
        return any((lit ^ 1) in literals for lit in literals)

    # ------------------------------------------------------------------ #
    # incremental interface
    # ------------------------------------------------------------------ #

    def new_var(self) -> int:
        """Allocate a fresh variable; returns its (positive) DIMACS index."""
        self.n_vars += 1
        var = self.n_vars
        self._watches.append([])
        self._watches.append([])
        self._bin_watches.append([])
        self._bin_watches.append([])
        self._assign.append(_UNASSIGNED)
        self._level.append(0)
        self._reason.append(None)
        self._activity.append(0.0)
        self._phase.append(False)
        heapq.heappush(self._heap, (-0.0, var))
        return var

    def add_clause(self, literals: Sequence[int]) -> bool:
        """Add one clause (DIMACS literals) to the live database.

        Must be called between solves (the solver is at decision level 0
        then; :meth:`solve` always returns there).  The clause is
        simplified against root-level assignments: root-satisfied clauses
        are dropped, root-falsified literals removed.  Returns ``False``
        when the addition makes the formula trivially UNSAT (the solver
        stays usable and will answer UNSAT), ``True`` otherwise.
        """
        if self._trail_lim:
            raise ValueError("add_clause requires decision level 0")
        internal = []
        for lit in dict.fromkeys(literals):
            var = abs(lit)
            if lit == 0:
                raise ValueError("literal 0 is not allowed")
            if var > self.n_vars:
                raise ValueError(f"literal {lit} references unallocated variable")
            internal.append(_to_internal(lit))
        if self._tautological(internal):
            return True
        simplified: List[int] = []
        for lit in internal:
            value = self._lit_value(lit)
            if value == 1:
                return True  # satisfied at the root level forever
            if value == 0:
                continue  # falsified at the root level forever
            simplified.append(lit)
        if not simplified:
            self._trivially_unsat = True
            return False
        if len(simplified) == 1:
            if not self._enqueue(simplified[0], None):
                self._trivially_unsat = True
                return False
            return True
        self._add_clause(simplified)
        return True

    # ------------------------------------------------------------------ #
    # clause / assignment plumbing
    # ------------------------------------------------------------------ #

    def _add_clause(self, literals: List[int], learned: bool = False) -> int:
        index = len(self._clauses)
        self._clauses.append(literals)
        self._learned_mask.append(learned)
        self._clause_act.append(self._cla_inc if learned else 0.0)
        self._watch_clause(index, literals)
        if learned:
            self._n_learned_live += 1
        return index

    def _watch_clause(self, index: int, literals: List[int]) -> None:
        if self._flat:
            if len(literals) == 2:
                a, b = literals
                self._bin_watches[a].append(b)
                self._bin_watches[a].append(index)
                self._bin_watches[b].append(a)
                self._bin_watches[b].append(index)
            else:
                a, b = literals[0], literals[1]
                self._watches[a].append(b)
                self._watches[a].append(index)
                self._watches[b].append(a)
                self._watches[b].append(index)
        else:
            self._watches[literals[0]].append(index)
            self._watches[literals[1]].append(index)

    def _lit_value(self, lit: int) -> int:
        """1 true, 0 false, -1 unassigned."""
        value = self._assign[lit >> 1]
        if value == _UNASSIGNED:
            return -1
        return value ^ (lit & 1)

    def _enqueue(self, lit: int, reason: Optional[int]) -> bool:
        var = lit >> 1
        value = 1 - (lit & 1)
        if self._assign[var] != _UNASSIGNED:
            return self._assign[var] == value
        self._assign[var] = value
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._trail.append(lit)
        return True

    def _decision_level(self) -> int:
        return len(self._trail_lim)

    # ------------------------------------------------------------------ #
    # propagation
    # ------------------------------------------------------------------ #

    def _propagate(self, head: int) -> Tuple[Optional[int], int]:
        if self._flat:
            return self._propagate_flat(head)
        return self._propagate_legacy(head)

    def _propagate_flat(self, head: int) -> Tuple[Optional[int], int]:
        """Unit propagation over the flat interleaved watch arrays.

        Binary clauses propagate straight from their ``(other, clause)``
        pairs; longer clauses check the interleaved blocker literal first
        and touch the clause object only when the blocker is not already
        true.  Returns (conflicting clause index or None, head).
        """
        stats = self.stats
        assign = self._assign
        clauses = self._clauses
        trail = self._trail
        while head < len(trail):
            lit = trail[head]
            head += 1
            stats.propagations += 1
            false_lit = lit ^ 1

            blist = self._bin_watches[false_lit]
            stats.watch_visits += len(blist) >> 1
            for i in range(0, len(blist), 2):
                other = blist[i]
                value = assign[other >> 1]
                if value == _UNASSIGNED:
                    self._enqueue(other, blist[i + 1])
                elif value == (other & 1):
                    return blist[i + 1], head  # conflict: other is false

            watch_list = self._watches[false_lit]
            n = len(watch_list)
            stats.watch_visits += n >> 1
            i = j = 0
            conflict: Optional[int] = None
            while i < n:
                blocker = watch_list[i]
                value = assign[blocker >> 1]
                if value != _UNASSIGNED and value != (blocker & 1):
                    # Blocker literal is true; clause satisfied untouched.
                    watch_list[j] = blocker
                    watch_list[j + 1] = watch_list[i + 1]
                    i += 2
                    j += 2
                    continue
                clause_index = watch_list[i + 1]
                clause = clauses[clause_index]
                if clause[0] == false_lit:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                first_value = self._lit_value(first)
                if first_value == 1:
                    watch_list[j] = first
                    watch_list[j + 1] = clause_index
                    i += 2
                    j += 2
                    continue
                moved = False
                for k in range(2, len(clause)):
                    if self._lit_value(clause[k]) != 0:
                        clause[1], clause[k] = clause[k], clause[1]
                        new_list = self._watches[clause[1]]
                        new_list.append(first)
                        new_list.append(clause_index)
                        moved = True
                        break
                if moved:
                    i += 2
                    continue
                if first_value == 0:
                    conflict = clause_index
                    # Keep the unprocessed tail (including this entry).
                    watch_list[j:] = watch_list[i:]
                    return conflict, head
                self._enqueue(first, clause_index)
                watch_list[j] = first
                watch_list[j + 1] = clause_index
                i += 2
                j += 2
            if j != n:
                del watch_list[j:]
        return None, head

    def _propagate_legacy(self, head: int) -> Tuple[Optional[int], int]:
        """Unit propagation; returns (conflicting clause index or None, head)."""
        while head < len(self._trail):
            lit = self._trail[head]
            head += 1
            self.stats.propagations += 1
            false_lit = lit ^ 1
            watch_list = self._watches[false_lit]
            self.stats.watch_visits += len(watch_list)
            i = 0
            while i < len(watch_list):
                clause_index = watch_list[i]
                clause = self._clauses[clause_index]
                # Normalize: watched literals at positions 0 and 1.
                if clause[0] == false_lit:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                if self._lit_value(first) == 1:
                    i += 1
                    continue
                # Find a replacement watch.
                moved = False
                for k in range(2, len(clause)):
                    if self._lit_value(clause[k]) != 0:
                        clause[1], clause[k] = clause[k], clause[1]
                        self._watches[clause[1]].append(clause_index)
                        watch_list[i] = watch_list[-1]
                        watch_list.pop()
                        moved = True
                        break
                if moved:
                    continue
                # Clause is unit or conflicting on `first`.
                if self._lit_value(first) == 0:
                    return clause_index, head
                self._enqueue(first, clause_index)
                i += 1
        return None, head

    # ------------------------------------------------------------------ #
    # conflict analysis
    # ------------------------------------------------------------------ #

    def _bump(self, var: int) -> None:
        self._activity[var] += self._var_inc
        if self._activity[var] > 1e100:
            for v in range(1, self.n_vars + 1):
                self._activity[v] *= 1e-100
            self._var_inc *= 1e-100
            # Every heap entry is stale after a rescale; rebuild in bulk.
            self._heap = [
                (-self._activity[v], v)
                for v in range(1, self.n_vars + 1)
                if self._assign[v] == _UNASSIGNED
            ]
            heapq.heapify(self._heap)
            return
        if self._assign[var] == _UNASSIGNED:
            heapq.heappush(self._heap, (-self._activity[var], var))

    def _cla_bump(self, index: int) -> None:
        if not self._learned_mask[index]:
            return
        self._clause_act[index] += self._cla_inc
        if self._clause_act[index] > 1e20:
            for i in range(len(self._clause_act)):
                if self._learned_mask[i]:
                    self._clause_act[i] *= 1e-20
            self._cla_inc *= 1e-20

    def _analyze(self, conflict: int) -> Tuple[List[int], int]:
        """First-UIP learning (+ optional minimization); returns
        (learned clause, backjump level)."""
        learned: List[int] = [0]  # placeholder for the asserting literal
        seen = [False] * (self.n_vars + 1)
        counter = 0
        pivot = -1  # the literal asserted by the current reason clause
        self._cla_bump(conflict)
        clause = self._clauses[conflict]
        index = len(self._trail)
        current_level = self._decision_level()

        while True:
            for l in clause:
                if l == pivot:
                    continue
                var = l >> 1
                if seen[var] or self._level[var] == 0:
                    continue
                seen[var] = True
                self._bump(var)
                if self._level[var] == current_level:
                    counter += 1
                else:
                    learned.append(l)
            # Walk the trail backwards to the next marked literal.
            while True:
                index -= 1
                trail_lit = self._trail[index]
                if seen[trail_lit >> 1]:
                    break
            pivot = trail_lit
            counter -= 1
            seen[trail_lit >> 1] = False
            if counter == 0:
                break
            reason = self._reason[trail_lit >> 1]
            self._cla_bump(reason)
            clause = self._clauses[reason]
        learned[0] = pivot ^ 1

        if self.config.minimize and len(learned) > 2:
            learned = self._minimize_learned(learned, seen)
        if len(learned) == 1:
            return learned, 0
        # Backjump to the second-highest level in the clause.
        back_level = max(self._level[l >> 1] for l in learned[1:])
        # Move one literal of back_level into watch position 1.
        for k in range(1, len(learned)):
            if self._level[learned[k] >> 1] == back_level:
                learned[1], learned[k] = learned[k], learned[1]
                break
        return learned, back_level

    def _minimize_learned(self, learned: List[int], seen: List[bool]) -> List[int]:
        """Recursive learned-clause minimization (MiniSat's litRedundant).

        A non-UIP literal is dropped when its negation is implied by the
        remaining clause literals through the implication graph — i.e.
        every path from it upward terminates in level-0 facts or literals
        already in the clause.  ``seen`` arrives marking exactly the
        clause's non-UIP variables and is extended with proven-redundant
        variables so later checks reuse earlier proofs.
        """
        toclear: List[int] = []
        kept = [learned[0]]
        removed = 0
        for lit in learned[1:]:
            if self._reason[lit >> 1] is None or not self._lit_redundant(
                lit, seen, toclear
            ):
                kept.append(lit)
            else:
                removed += 1
        self.stats.minimized_literals += removed
        return kept

    def _lit_redundant(
        self, lit: int, seen: List[bool], toclear: List[int]
    ) -> bool:
        stack = [lit]
        top = len(toclear)
        while stack:
            p = stack.pop()
            clause = self._clauses[self._reason[p >> 1]]
            p_var = p >> 1
            for q in clause:
                var = q >> 1
                if var == p_var or seen[var] or self._level[var] == 0:
                    continue
                if self._reason[var] is None:
                    # Reached a decision outside the clause: not redundant.
                    for u in toclear[top:]:
                        seen[u] = False
                    del toclear[top:]
                    return False
                seen[var] = True
                stack.append(q)
                toclear.append(var)
        return True

    def _backjump(self, level: int) -> None:
        heap = self._heap
        activity = self._activity
        save_phase = self.config.phase_saving
        while self._trail_lim and self._decision_level() > level:
            limit = self._trail_lim.pop()
            while len(self._trail) > limit:
                lit = self._trail.pop()
                var = lit >> 1
                if save_phase:
                    self._phase[var] = bool(1 - (lit & 1))
                self._assign[var] = _UNASSIGNED
                self._reason[var] = None
                heapq.heappush(heap, (-activity[var], var))

    def _pick_branch(self) -> Optional[int]:
        heap = self._heap
        assign = self._assign
        activity = self._activity
        while heap:
            neg_act, var = heap[0]
            if assign[var] != _UNASSIGNED or -neg_act != activity[var]:
                heapq.heappop(heap)  # stale entry
                continue
            return 2 * var + (0 if self._phase[var] else 1)
        # Heap exhausted: either everything is assigned, or fresh entries
        # were lost (possible only transiently); fall back to a scan and
        # repopulate so subsequent picks are heap-served again.
        best_var, best_act = 0, -1.0
        rebuilt: List[Tuple[float, int]] = []
        for var in range(1, self.n_vars + 1):
            if assign[var] != _UNASSIGNED:
                continue
            rebuilt.append((-activity[var], var))
            if activity[var] > best_act:
                best_var, best_act = var, activity[var]
        if best_var == 0:
            return None
        heapq.heapify(rebuilt)
        self._heap = rebuilt
        return 2 * best_var + (0 if self._phase[best_var] else 1)

    # ------------------------------------------------------------------ #
    # learned-clause database reduction
    # ------------------------------------------------------------------ #

    def _maybe_reduce_db(self) -> None:
        if self._n_learned_live > self._reduce_limit:
            self._reduce_db()

    def _reduce_db(self) -> None:
        """Discard the low-activity half of the deletable learned clauses.

        Locked clauses (reasons of current assignments) and binary learned
        clauses are kept.  Clause indices are compacted and the watch lists
        and reason pointers rebuilt — called only at restart points, with
        no pending propagation.
        """
        locked = {r for r in self._reason if r is not None}
        deletable = [
            i
            for i in range(len(self._clauses))
            if self._learned_mask[i] and i not in locked and len(self._clauses[i]) > 2
        ]
        deletable.sort(key=lambda i: self._clause_act[i])
        drop = set(deletable[: len(deletable) // 2])
        if not drop:
            self._reduce_limit = int(self._reduce_limit * 1.5)
            return
        remap: Dict[int, int] = {}
        clauses: List[List[int]] = []
        learned_mask: List[bool] = []
        clause_act: List[float] = []
        for i, clause in enumerate(self._clauses):
            if i in drop:
                continue
            remap[i] = len(clauses)
            clauses.append(clause)
            learned_mask.append(self._learned_mask[i])
            clause_act.append(self._clause_act[i])
        self._clauses = clauses
        self._learned_mask = learned_mask
        self._clause_act = clause_act
        size = 2 * (self.n_vars + 1)
        self._watches = [[] for _ in range(size)]
        self._bin_watches = [[] for _ in range(size)]
        for index, clause in enumerate(clauses):
            self._watch_clause(index, clause)
        self._reason = [
            None if r is None else remap[r] for r in self._reason
        ]
        self.stats.learned_deleted += len(drop)
        self._n_learned_live -= len(drop)
        self._reduce_limit = int(self._reduce_limit * 1.2)

    # ------------------------------------------------------------------ #
    # main loop
    # ------------------------------------------------------------------ #

    def solve(
        self,
        assumptions: Sequence[int] = (),
        budget: Optional[Budget] = None,
    ) -> SatResult:
        """Solve, optionally under external (DIMACS-signed) assumptions.

        ``budget`` bounds *this call*: limits compare against the
        conflicts/decisions spent since the call began (not lifetime
        totals), so a persistent solver can be re-solved under the same
        budget repeatedly.  When any limit (wall clock, conflicts,
        decisions) is hit, the solver stops and returns a
        :data:`SatStatus.UNKNOWN` result whose ``reason`` names the spent
        limit — it never raises and never runs unbounded.  The solver
        always returns at decision level 0, ready for the next
        :meth:`add_clause` / :meth:`solve`.
        """
        stats = self.stats
        conflicts0 = stats.conflicts
        propagations0 = stats.propagations
        start = time.perf_counter()
        with telemetry.span("sat.solve", vars=self.n_vars) as solve_span:
            try:
                result = self._solve(assumptions, budget)
            finally:
                elapsed = time.perf_counter() - start
                stats.solve_seconds += elapsed
                telemetry.count("sat.solves")
                telemetry.count("sat.conflicts", stats.conflicts - conflicts0)
                telemetry.count(
                    "sat.propagations", stats.propagations - propagations0
                )
                telemetry.count("sat.solve_seconds", elapsed)
                telemetry.observe("sat.solve_seconds_hist", elapsed)
            solve_span.set(
                status=result.status.value,
                conflicts=stats.conflicts - conflicts0,
            )
            return result

    def _solve(
        self,
        assumptions: Sequence[int],
        budget: Optional[Budget],
    ) -> SatResult:
        clock = (budget if budget is not None else UNLIMITED).start()
        limited = not clock.budget.unlimited
        profile = self.config.profile
        perf = time.perf_counter
        stats = self.stats
        conflicts_base = stats.conflicts
        decisions_base = stats.decisions
        if self._trivially_unsat:
            return SatResult(False, None, stats)
        head = 0
        conflict, head = self._propagate(head)
        if conflict is not None:
            self._trivially_unsat = True  # root-level conflict is permanent
            return SatResult(False, None, stats)

        for external in assumptions:
            lit = _to_internal(external)
            if self._lit_value(lit) == 1:
                continue
            if self._lit_value(lit) == 0:
                self._backjump(0)
                return SatResult(False, None, stats)
            self._trail_lim.append(len(self._trail))
            self._enqueue(lit, None)
            conflict, head = self._propagate(head)
            if conflict is not None:
                self._backjump(0)
                return SatResult(False, None, stats)
        assumption_level = self._decision_level()

        conflicts_since_restart = 0
        restart_base = self.config.restart_base
        restart_limit = restart_base * _luby(stats.restarts)

        while True:
            if profile:
                t0 = perf()
                conflict, head = self._propagate(head)
                stats.propagate_seconds += perf() - t0
            else:
                conflict, head = self._propagate(head)
            if conflict is not None:
                stats.conflicts += 1
                conflicts_since_restart += 1
                self._cla_inc /= self._cla_decay
                if limited:
                    reason = clock.exhausted_reason(
                        stats.conflicts - conflicts_base,
                        stats.decisions - decisions_base,
                    )
                    if reason is not None:
                        self._backjump(0)
                        return SatResult(
                            SatStatus.UNKNOWN, None, stats, reason
                        )
                if self._decision_level() <= assumption_level:
                    if self._decision_level() == 0:
                        self._trivially_unsat = True
                    self._backjump(0)
                    return SatResult(False, None, stats)
                if profile:
                    t0 = perf()
                learned, back_level = self._analyze(conflict)
                back_level = max(back_level, assumption_level)
                self._backjump(back_level)
                if profile:
                    stats.analyze_seconds += perf() - t0
                head = len(self._trail)
                if len(learned) == 1:
                    if not self._enqueue(learned[0], None):
                        self._trivially_unsat = True
                        self._backjump(0)
                        return SatResult(False, None, stats)
                else:
                    index = self._add_clause(learned, learned=True)
                    stats.learned += 1
                    self._enqueue(learned[0], index)
                self._var_inc /= self._var_decay
                continue
            if conflicts_since_restart >= restart_limit:
                stats.restarts += 1
                conflicts_since_restart = 0
                restart_limit = restart_base * _luby(stats.restarts)
                self._backjump(assumption_level)
                head = len(self._trail)
                if profile:
                    t0 = perf()
                    self._maybe_reduce_db()
                    stats.reduce_seconds += perf() - t0
                else:
                    self._maybe_reduce_db()
                continue
            if limited:
                reason = clock.exhausted_reason(
                    stats.conflicts - conflicts_base,
                    stats.decisions - decisions_base,
                )
                if reason is not None:
                    self._backjump(0)
                    return SatResult(SatStatus.UNKNOWN, None, stats, reason)
            if profile:
                t0 = perf()
                lit = self._pick_branch()
                stats.decide_seconds += perf() - t0
            else:
                lit = self._pick_branch()
            if lit is None:
                model = {
                    var: bool(self._assign[var])
                    for var in range(1, self.n_vars + 1)
                }
                self._backjump(0)
                return SatResult(True, model, stats)
            stats.decisions += 1
            self._trail_lim.append(len(self._trail))
            stats.max_decision_level = max(
                stats.max_decision_level, self._decision_level()
            )
            self._enqueue(lit, None)


def solve_cnf(
    cnf: Cnf,
    assumptions: Sequence[int] = (),
    budget: Optional[Budget] = None,
    config: Optional[SolverConfig] = None,
) -> SatResult:
    """Convenience wrapper: build a solver and run it once."""
    return CdclSolver(cnf, config=config).solve(assumptions, budget=budget)
