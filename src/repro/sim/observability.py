"""Simulation-based net observability (fault-injection style).

For a net ``n``, the *observability* under a stimulus is the fraction of
vectors for which flipping ``n``'s value changes some primary output —
the Monte-Carlo counterpart of exact global observability (the tests
check it against a truth-table oracle on small circuits), usable on
circuits far beyond any truth-table limit.  The implementation is
bit-parallel: the fanout cone of ``n`` is re-simulated once with the
net's packed words complemented, and output differences are counted per
vector.

Flip re-simulation is restricted to the precomputed fanout cone from the
compiled IR (:mod:`repro.ir`) — the cone members, in interned-ID order,
*are* a topological evaluation order — so per-net cost is O(cone), not
O(gates), and scanning every net of a design no longer re-walks the full
``circuit.topological_order()`` per flip.

This is the engine behind the reproduction's strongest empirical check of
the paper's core claim: *whenever the ODC trigger sits at the primary
gate's controlling value, the fingerprinted cone is unobservable* — see
``conditional_observability`` and the suite-wide property tests.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from ..ir import compile_circuit
from ..ir.kernels import eval_gate
from ..netlist.circuit import Circuit
from .simulator import Simulator
from .vectors import random_stimulus


def _resimulate_with_flip(
    circuit: Circuit,
    values: Dict[str, np.ndarray],
    net: str,
) -> Dict[str, np.ndarray]:
    """Values of the fanout cone of ``net`` with ``net`` complemented."""
    compiled = compile_circuit(circuit)
    flipped: Dict[str, np.ndarray] = {net: ~np.asarray(values[net], dtype=np.uint64)}
    for gate_id in compiled.fanout_cone(net):
        gate = compiled.gate_of(gate_id)
        operands = [
            flipped[name] if name in flipped else values[name]
            for name in gate.inputs
        ]
        flipped[gate.name] = eval_gate(int(compiled.kinds[gate_id]), operands)
    return flipped


def observability_words(
    circuit: Circuit,
    net: str,
    values: Dict[str, np.ndarray],
) -> np.ndarray:
    """Packed per-vector observability of ``net`` under given net values.

    Bit ``v`` is 1 when flipping ``net`` changes some primary output in
    vector ``v``.
    """
    if not circuit.has_net(net):
        raise ValueError(f"unknown net {net!r}")
    flipped = _resimulate_with_flip(circuit, values, net)
    width = len(next(iter(values.values())))
    difference = np.zeros(width, dtype=np.uint64)
    for output in circuit.outputs:
        if output in flipped:
            difference |= values[output] ^ flipped[output]
        elif output == net:
            difference |= ~np.zeros(width, dtype=np.uint64)
    return difference


def simulated_observability(
    circuit: Circuit,
    nets: Optional[Sequence[str]] = None,
    n_vectors: int = 4096,
    seed: int = 0,
) -> Dict[str, float]:
    """Observability fraction per net under uniform random vectors."""
    stimulus = random_stimulus(circuit.inputs, n_vectors, seed=seed)
    values = Simulator(circuit).run(stimulus)
    targets = list(nets) if nets is not None else (
        list(circuit.inputs) + circuit.gate_names()
    )
    result: Dict[str, float] = {}
    for net in targets:
        words = observability_words(circuit, net, values)
        bits = np.unpackbits(words.view(np.uint8), bitorder="little")[:n_vectors]
        result[net] = float(bits.sum()) / n_vectors
    return result


def conditional_observability(
    circuit: Circuit,
    net: str,
    condition_net: str,
    condition_value: int,
    n_vectors: int = 4096,
    seed: int = 0,
) -> Optional[float]:
    """Observability of ``net`` restricted to vectors where
    ``condition_net == condition_value``.

    Returns ``None`` when the condition never held in the sample.  The
    paper's ODC claim instantiates as: conditioned on the trigger sitting
    at the primary gate's controlling value, the FFC root's observability
    is exactly 0.
    """
    stimulus = random_stimulus(circuit.inputs, n_vectors, seed=seed)
    values = Simulator(circuit).run(stimulus)
    observable = observability_words(circuit, net, values)
    condition = values[condition_net]
    if not condition_value:
        condition = ~condition
    cond_bits = np.unpackbits(condition.view(np.uint8), bitorder="little")[:n_vectors]
    obs_bits = np.unpackbits(observable.view(np.uint8), bitorder="little")[:n_vectors]
    selected = cond_bits.astype(bool)
    total = int(selected.sum())
    if total == 0:
        return None
    return float(obs_bits[selected].sum()) / total
