"""An equivalence reference independent of the product's CEC engine.

:func:`repro.sat.cec.check` and :class:`repro.sat.IncrementalCecSession`
are one engine (simulation, SAT sweeping, output obligations), so a test
that compares them compares the engine with itself.  This module decides
equivalence the plain way instead:

* the classic miter (:func:`repro.sat.cec.build_miter`) solved by a fresh
  :class:`~repro.sat.solver.CdclSolver` — no simulation, no sweeping, no
  preprocessing;
* for designs with at most :data:`EXHAUSTIVE_LIMIT` inputs, exhaustive
  simulation as a second, SAT-free oracle that must agree with the miter.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.netlist.circuit import Circuit
from repro.netlist.transform import rename_nets
from repro.sat.cec import CecVerdict, build_miter
from repro.sat.solver import CdclSolver
from repro.sim.equivalence import exhaustive_equivalent
from repro.sim.simulator import Simulator

#: Widest design also checked by exhaustive simulation.
EXHAUSTIVE_LIMIT = 16


def plain_miter(
    left: Circuit, right: Circuit
) -> Tuple[CecVerdict, Optional[Dict[str, int]]]:
    """Verdict and counterexample of the unswept miter, solved unbudgeted."""
    encoding = build_miter(left, right)
    result = CdclSolver(encoding.cnf).solve()
    if not result.satisfiable:
        return CecVerdict.EQUIVALENT, None
    counterexample = {
        net: int(result.model.get(encoding.var_of[net], False))
        for net in left.inputs
    }
    return CecVerdict.NOT_EQUIVALENT, counterexample


def reference_verdict(left: Circuit, right: Circuit) -> CecVerdict:
    """The independent verdict; both oracles must agree when both apply."""
    verdict, counterexample = plain_miter(left, right)
    if verdict is CecVerdict.NOT_EQUIVALENT:
        assert distinguishes(left, right, counterexample), (
            f"reference miter counterexample does not replay: {counterexample}"
        )
    if len(left.inputs) <= EXHAUSTIVE_LIMIT:
        exhaustive = exhaustive_equivalent(left, right).equivalent
        assert exhaustive == (verdict is CecVerdict.EQUIVALENT), (
            "plain miter and exhaustive simulation disagree"
        )
    return verdict


def distinguishes(
    left: Circuit, right: Circuit, counterexample: Optional[Dict[str, int]]
) -> bool:
    """True when simulating ``counterexample`` separates some output."""
    if counterexample is None:
        return False
    sim_l = Simulator(left).run_single(counterexample)
    sim_r = Simulator(right).run_single(counterexample)
    return any(sim_l[out] != sim_r[out] for out in left.outputs)


def rename_internal(circuit: Circuit, prefix: str = "r_") -> Circuit:
    """``circuit`` with every internal (non-port) net renamed.

    No internal net of the result shares a name with the original, so an
    engine that pairs nets by name finds nothing to pair inside the logic
    and must prove the outputs by search.
    """
    ports = set(circuit.inputs) | set(circuit.outputs)
    mapping = {
        name: prefix + name for name in circuit.gate_names() if name not in ports
    }
    return rename_nets(circuit, mapping, name=f"{circuit.name}_renamed")
