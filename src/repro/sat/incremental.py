"""Incremental, simulation-guided equivalence checking for fingerprint copies.

The fingerprinting flow issues *many* distinct copies of one base design
(one per user), and every copy must be proven functionally equivalent to
the base.  Each copy differs from the base only inside the fanout cones of
a handful of ODC modifications, and each modification is masked at its
location's primary gate a few levels up.  :class:`IncrementalCecSession`
exploits both facts, and :func:`repro.sat.cec.check` is a one-shot session,
so every SAT proof of a copy runs through this one engine:

1. **Encode the base once.**  The base circuit is Tseitin-encoded a single
   time (stable variable numbering from the compiled IR's interned order)
   into one persistent :class:`~repro.sat.solver.CdclSolver`, and its full
   packed-simulation matrix is kept as per-net signatures.

2. **Simulation first.**  Packed random vectors are run through the copy
   before any encoding.  A signature mismatch on any output is an
   immediate NOT_EQUIVALENT with a concrete counterexample vector.

3. **Encode each copy as a delta.**  Copy gates are walked in topological
   order and structurally hashed over (kind, CNF fanin variables); a gate
   whose key already exists — in the base, or in a previously verified
   copy — reuses that variable and contributes *zero* clauses.  Only gates
   inside the modified cones allocate fresh variables.

4. **SAT sweeping.**  A freshly encoded gate whose same-name base net has
   an identical simulation signature is a candidate pair ("simulation
   proposes, SAT validates").  Two assumption solves, ``[v, -b]`` and
   ``[-v, b]``, under a small per-pair conflict cap (charged to the call's
   budget) try to prove it; when both are UNSAT the two equivalence
   clauses are added and the net and its strash entry take the base
   variable, so hashing resumes downstream and later copies reuse the
   merge without another SAT call.  A SAT or UNKNOWN answer keeps the
   fresh variable.  Bottom-up order means each proof only spans the logic
   between the last merged nets — typically the modified cone up to the
   location's primary gate.

5. **Discharge clean outputs structurally.**  An output whose copy
   variable equals its base variable is equivalent by construction; no
   miter, no SAT.  Only outputs the sweep did not reach need proof.

6. **Output obligations on one persistent solver.**  The remaining
   outputs are ordered hardest-last (by dirty-cone size) and each miter
   is gated behind a fresh activation literal and solved under
   assumptions, so learned clauses accumulate across copies and outputs;
   after the copy's verdict the activation literal is permanently
   negated, retiring its miter clauses without touching the shared base
   encoding.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import telemetry
from ..budget import Budget, BudgetClock
from ..ir import compile_circuit
from ..netlist.circuit import Circuit
from ..sim.equivalence import PortMismatchError
from ..sim.simulator import Simulator
from ..sim.vectors import WORD_BITS, random_stimulus, vector_of
from ..hashing import gate_key
from .cec import CecResult, CecVerdict
from .preprocess import preprocess  # noqa: F401 - re-export: perfbench/tracing.py wraps this name
from .solver import CdclSolver, SolverConfig
from .tseitin import _encode, encode_circuit

#: Conflicts one sweep candidate pair may spend on its two proof solves.
#: True pairs between a copy and its base close by propagation or a few
#: conflicts once their fanins are merged; a pair that needs more is left
#: to the output obligations rather than starving them.
SWEEP_PAIR_CONFLICTS = 100


class _SolverSink:
    """Duck-typed ``Cnf`` facade over a live solver.

    :func:`repro.sat.tseitin._encode` only calls ``add_clause`` and
    ``new_var``, so this adapter lets the gate encoders write clauses
    straight into the persistent solver instead of a throwaway CNF.
    """

    def __init__(self, solver: CdclSolver) -> None:
        self._solver = solver

    def new_var(self) -> int:
        return self._solver.new_var()

    def add_clause(self, literals: Sequence[int]) -> None:
        self._solver.add_clause(literals)


@dataclass
class SessionStats:
    """Aggregate work accounting across all copies verified by a session.

    ``pairs_proven`` / ``pairs_refuted`` / ``pairs_undecided`` count the
    sweep's candidate pairs by outcome (merged, SAT witness, cap or budget
    hit); ``sat_calls`` counts output obligations only.
    """

    copies: int = 0
    outputs_total: int = 0
    outputs_structural: int = 0
    sat_calls: int = 0
    sim_disproofs: int = 0
    sat_disproofs: int = 0
    undecided: int = 0
    gates_encoded: int = 0
    gates_reused: int = 0
    pairs_proven: int = 0
    pairs_refuted: int = 0
    pairs_undecided: int = 0


class IncrementalCecSession:
    """Verify many copies of one base circuit against a shared encoding.

    Construct once per base design, then call :meth:`verify` per copy.
    The base must not be structurally mutated while the session lives
    (detected via the circuit version and rejected).  Sessions are not
    thread-safe; the batch flow gives each worker process its own.

    Args:
        base: The golden circuit every copy is checked against.
        n_vectors: Packed random vectors for the simulation signatures
            (must be a multiple of 64; signatures cost one word-parallel
            sweep per copy).
        seed: Stimulus seed, so sessions are reproducible.
        solver_config: Inner-loop configuration for the persistent solver
            (default: all speed features on).
    """

    def __init__(
        self,
        base: Circuit,
        n_vectors: int = 512,
        seed: int = 2015,
        solver_config: Optional[SolverConfig] = None,
    ) -> None:
        if n_vectors <= 0 or n_vectors % WORD_BITS:
            raise ValueError(f"n_vectors must be a positive multiple of {WORD_BITS}")
        self.base = base
        self._base_version = base.version
        self.stats = SessionStats()

        with telemetry.span(
            "sat.encode_base", design=base.name, gates=base.n_gates
        ):
            encoding = encode_circuit(base)
            self._base_var: Dict[str, int] = dict(encoding.var_of)
            self.solver = CdclSolver(encoding.cnf, config=solver_config)
            self._sink = _SolverSink(self.solver)

            # Structural-hash table over CNF variables: (kind, fanin vars)
            # -> output var.  Seeded from the base; grows with every fresh
            # gate a copy introduces and is redirected by every sweep
            # merge, so later copies share earlier copies' deltas too.
            self._strash: Dict[Tuple, int] = {}
            #: Per-base-gate canonical key, for name-stable matching: a
            #: copy gate that keeps its base name and definition maps to
            #: its own base variable even when another base gate shares
            #: the same key (duplicate gates would otherwise alias and
            #: look "modified").
            self._base_key: Dict[str, Tuple] = {}
            compiled = compile_circuit(base)
            for gate in compiled.gates_in_order():
                key = self._key(gate.kind, [self._base_var[n] for n in gate.inputs])
                self._base_key[gate.name] = key
                self._strash.setdefault(key, self._base_var[gate.name])

            self.n_vectors = n_vectors
            self._stimulus = random_stimulus(base.inputs, n_vectors, seed=seed)
            #: Every base net's packed signature (row ``id_of(net)``).
            self._base_matrix = Simulator(base).run_matrix(self._stimulus)
            self._base_id: Dict[str, int] = compiled.ids

    # Canonical structural key (commutative fanins sorted), promoted to
    # repro.hashing so the artifact store and campaign ids share it.
    _key = staticmethod(gate_key)

    def _snapshot(
        self,
        verdict: CecVerdict,
        counterexample: Optional[Dict[str, int]],
        reason: Optional[str],
        detail: Dict[str, object],
    ) -> CecResult:
        stats = dataclasses.replace(self.solver.stats)
        return CecResult(verdict, counterexample, stats, reason, detail)

    @staticmethod
    def _remaining(
        budget: Optional[Budget],
        clock: Optional[BudgetClock],
        conflicts_spent: int,
        decisions_spent: int,
    ) -> Optional[Budget]:
        """The unspent remainder of ``budget`` for the next solver call."""
        if budget is None or budget.unlimited or clock is None:
            return None
        deadline = None
        if budget.deadline_s is not None:
            deadline = max(0.0, clock.remaining_seconds() or 0.0)
        max_conflicts = None
        if budget.max_conflicts is not None:
            max_conflicts = max(0, budget.max_conflicts - conflicts_spent)
        max_decisions = None
        if budget.max_decisions is not None:
            max_decisions = max(0, budget.max_decisions - decisions_spent)
        return Budget(deadline, max_conflicts, max_decisions)

    def verify(self, copy: Circuit, budget: Optional[Budget] = None) -> CecResult:
        """Check one copy against the base; returns a :class:`CecResult`.

        Three-valued verdict, counterexample as an input-name-to-bit dict,
        UNDECIDED under an exhausted ``budget``, plus a ``detail`` dict
        recording how the outputs were discharged and how many internal
        pairs the sweep merged.  The budget bounds this call as a whole:
        conflicts/decisions spent on sweep pairs and earlier outputs count
        against later ones.
        """
        with telemetry.span(
            "cec.verify", design=copy.name, outputs=len(copy.outputs)
        ) as verify_span:
            result = self._verify(copy, budget)
            verify_span.set(
                verdict=result.verdict.value,
                outputs_sat=result.detail.get("outputs_sat"),
                gates_encoded=result.detail.get("gates_encoded"),
                gates_reused=result.detail.get("gates_reused"),
                pairs_merged=result.detail.get("pairs_merged"),
            )
            telemetry.count("cec.copies")
            telemetry.count(f"cec.verdict.{result.verdict.value}")
            return result

    def _prove_pair(
        self,
        var: int,
        base: int,
        budget: Optional[Budget],
        clock: Optional[BudgetClock],
        conflicts0: int,
        decisions0: int,
    ) -> Optional[bool]:
        """Try to prove ``var == base``: True proven, False refuted, None unknown.

        Both directions are solved under assumptions; the pair's
        conflicts come out of :data:`SWEEP_PAIR_CONFLICTS` and out of the
        call's ``budget``.
        """
        solver = self.solver
        pair0 = solver.stats.conflicts
        for assumptions in ([var, -base], [-var, base]):
            stats = solver.stats
            remaining = self._remaining(
                budget, clock, stats.conflicts - conflicts0,
                stats.decisions - decisions0,
            )
            cap = SWEEP_PAIR_CONFLICTS - (stats.conflicts - pair0)
            if remaining is None:
                remaining = Budget(max_conflicts=cap)
            elif remaining.max_conflicts is None or remaining.max_conflicts > cap:
                remaining = dataclasses.replace(remaining, max_conflicts=cap)
            result = solver.solve(assumptions=assumptions, budget=remaining)
            if result.unknown:
                return None
            if result.satisfiable:
                return False
        return True

    def _verify(self, copy: Circuit, budget: Optional[Budget]) -> CecResult:
        if self.base.version != self._base_version:
            raise ValueError("base circuit was mutated after session construction")
        if set(copy.inputs) != set(self.base.inputs):
            raise PortMismatchError("input sets differ")
        if set(copy.outputs) != set(self.base.outputs):
            raise PortMismatchError("output sets differ")
        solver = self.solver
        clock = budget.start() if budget is not None and not budget.unlimited else None
        conflicts0 = solver.stats.conflicts
        decisions0 = solver.stats.decisions
        self.stats.copies += 1
        self.stats.outputs_total += len(copy.outputs)
        base_var = self._base_var
        base_id = self._base_id
        base_matrix = self._base_matrix
        detail: Dict[str, object] = {
            "engine": "incremental",
            "outputs": len(copy.outputs),
            "outputs_structural": 0,
            "outputs_sat": 0,
            "gates_encoded": 0,
            "gates_reused": 0,
            "pairs_merged": 0,
        }

        # --- simulation first: an output mismatch needs no encoding ------ #
        compiled = compile_circuit(copy)
        copy_matrix = Simulator(copy).run_matrix(self._stimulus)
        for net in copy.outputs:
            diff = base_matrix[base_id[net]] ^ copy_matrix[compiled.ids[net]]
            nonzero = np.nonzero(diff)[0]
            if len(nonzero):
                word = int(nonzero[0])
                bits = int(diff[word])
                index = word * WORD_BITS + ((bits & -bits).bit_length() - 1)
                self.stats.sim_disproofs += 1
                return self._snapshot(
                    CecVerdict.NOT_EQUIVALENT,
                    vector_of(self._stimulus, index),
                    f"simulation signature mismatch on output {net!r}",
                    detail,
                )

        # --- delta encoding with SAT sweeping ---------------------------- #
        var_of: Dict[str, int] = {name: base_var[name] for name in copy.inputs}
        encoded = reused = merged = refuted = undecided = 0
        sweeping = True
        for gate in compiled.gates_in_order():
            name = gate.name
            ins = [var_of[n] for n in gate.inputs]
            key = self._key(gate.kind, ins)
            if self._base_key.get(name) == key:
                var = base_var[name]  # unchanged gate, name-stable
            else:
                var = self._strash.get(key)
            if var is not None:
                reused += 1
                var_of[name] = var
                continue
            var = solver.new_var()
            _encode(self._sink, gate.kind, var, ins)
            self._strash[key] = var
            encoded += 1
            base = base_var.get(name)
            if (
                sweeping
                and base is not None
                and np.array_equal(
                    base_matrix[base_id[name]], copy_matrix[compiled.ids[name]]
                )
            ):
                if clock is not None and clock.exhausted_reason(
                    solver.stats.conflicts - conflicts0,
                    solver.stats.decisions - decisions0,
                ) is not None:
                    sweeping = False  # a spent budget buys no more pairs
                else:
                    proven = self._prove_pair(
                        var, base, budget, clock, conflicts0, decisions0
                    )
                    if proven:
                        solver.add_clause([-var, base])
                        solver.add_clause([var, -base])
                        self._strash[key] = base
                        var = base
                        merged += 1
                    elif proven is None:
                        undecided += 1
                    else:
                        refuted += 1
            var_of[name] = var
        self.stats.gates_encoded += encoded
        self.stats.gates_reused += reused
        self.stats.pairs_proven += merged
        self.stats.pairs_refuted += refuted
        self.stats.pairs_undecided += undecided
        telemetry.count("cec.sweep.merged", merged)
        telemetry.count("cec.sweep.refuted", refuted)

        affected = [net for net in copy.outputs if var_of[net] != base_var[net]]
        detail.update(
            outputs_structural=len(copy.outputs) - len(affected),
            gates_encoded=encoded,
            gates_reused=reused,
            pairs_merged=merged,
            obligations=len(affected),
        )
        self.stats.outputs_structural += len(copy.outputs) - len(affected)
        if not affected:
            return self._snapshot(
                CecVerdict.EQUIVALENT,
                None,
                "all outputs discharged structurally",
                detail,
            )

        # --- SAT obligations, hardest last ------------------------------- #
        def dirty_cone_size(out_name: str) -> int:
            """Nets in the output's cone carrying a non-base variable.

            Clean nets (variable shared with the base net of the same
            name) prune the walk — a shared variable implies the whole
            cone below it is shared.
            """
            count = 0
            seen = set()
            stack = [out_name]
            while stack:
                name = stack.pop()
                if name in seen:
                    continue
                seen.add(name)
                if var_of[name] == base_var.get(name):
                    continue
                count += 1
                gate = copy.driver(name)
                if gate is not None:
                    stack.extend(gate.inputs)
            return count

        cone_size = {net: dirty_cone_size(net) for net in affected}
        order = sorted(affected, key=cone_size.__getitem__)
        activation = solver.new_var()
        try:
            for position, net in enumerate(order):
                spent_c = solver.stats.conflicts - conflicts0
                spent_d = solver.stats.decisions - decisions0
                if clock is not None:
                    reason = clock.exhausted_reason(spent_c, spent_d)
                    if reason is not None:
                        self.stats.undecided += 1
                        detail["undecided_output"] = net
                        return self._snapshot(
                            CecVerdict.UNDECIDED, None, reason, detail
                        )
                left, right = base_var[net], var_of[net]
                diff_var = solver.new_var()
                for clause in (
                    [-diff_var, left, right],
                    [-diff_var, -left, -right],
                    [diff_var, -left, right],
                    [diff_var, left, -right],
                ):
                    clause.append(-activation)
                    solver.add_clause(clause)
                result = solver.solve(
                    assumptions=[activation, diff_var],
                    budget=self._remaining(budget, clock, spent_c, spent_d),
                )
                self.stats.sat_calls += 1
                detail["outputs_sat"] = position + 1
                if result.unknown:
                    self.stats.undecided += 1
                    detail["undecided_output"] = net
                    # Name the call's limit, not the remainder the solve got.
                    reason = clock.exhausted_reason(
                        solver.stats.conflicts - conflicts0,
                        solver.stats.decisions - decisions0,
                    )
                    return self._snapshot(
                        CecVerdict.UNDECIDED, None, reason or result.reason, detail
                    )
                if result.satisfiable:
                    counterexample = {
                        name: int(result.model.get(base_var[name], False))
                        for name in self.base.inputs
                    }
                    self.stats.sat_disproofs += 1
                    return self._snapshot(
                        CecVerdict.NOT_EQUIVALENT,
                        counterexample,
                        f"SAT counterexample on output {net!r}",
                        detail,
                    )
            return self._snapshot(
                CecVerdict.EQUIVALENT,
                None,
                f"{len(order)} miter obligations proven UNSAT",
                detail,
            )
        finally:
            # Retire this copy's miter clauses for good; the learned
            # clauses they produced remain valid for future copies.
            solver.add_clause([-activation])

    def verify_many(
        self,
        copies: Sequence[Circuit],
        budget: Optional[Budget] = None,
    ) -> List[CecResult]:
        """Verify copies in order (each bounded by its own ``budget``)."""
        return [self.verify(copy, budget=budget) for copy in copies]
