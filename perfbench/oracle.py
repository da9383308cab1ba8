"""Correctness oracles, run outside every timed region.

The oracle is plain packed simulation (:mod:`repro.sim`), never the
verification ladder: exhaustive for designs with at most 16 inputs,
seeded random vectors otherwise.  It judges the ladder's verdicts, picks
each mutant's expected verdict, and replays counterexamples.
"""

from __future__ import annotations

import functools
import random
from contextlib import contextmanager
from typing import Dict, Optional

import numpy as np

EXHAUSTIVE_INPUTS = 16
RANDOM_VECTORS = 4096
#: Least share of input vectors on which a mutant must differ from its
#: circuit.  Rarer differences make a near-redundant mutant, whose
#: refutation is a deep SAT search (4982 conflicts on one k2 mutant against
#: at most 3 on most) and whose cost then swings with the seed.
MIN_OBSERVABILITY = 0.05


@contextmanager
def quiet():
    """Switch the program's telemetry off, so oracle work stays out of layer figures."""
    from repro import telemetry

    trace, metrics = telemetry.tracing_enabled(), telemetry.metrics_enabled()
    telemetry.disable()
    try:
        yield
    finally:
        if trace or metrics:
            telemetry.enable(trace=trace, metrics=metrics)


def _quiet(fn):
    @functools.wraps(fn)
    def inner(*args, **kwargs):
        with quiet():
            return fn(*args, **kwargs)

    return inner


@_quiet
def differs(left, right, seed: int) -> Optional[Dict[str, int]]:
    """A distinguishing input vector of two circuits, or None if none is found."""
    from repro.sim.equivalence import exhaustive_equivalent, random_equivalent

    if len(left.inputs) <= EXHAUSTIVE_INPUTS:
        result = exhaustive_equivalent(left, right)
    else:
        result = random_equivalent(left, right, n_vectors=RANDOM_VECTORS, seed=seed)
    return None if result.equivalent else result.counterexample


def _stimulus(circuit, seed: int):
    from repro.sim.vectors import (
        exhaustive_stimulus, exhaustive_vector_count, random_stimulus,
    )

    if len(circuit.inputs) <= EXHAUSTIVE_INPUTS:
        n_vectors = exhaustive_vector_count(len(circuit.inputs))
        return exhaustive_stimulus(circuit.inputs), n_vectors
    return random_stimulus(circuit.inputs, RANDOM_VECTORS, seed=seed), RANDOM_VECTORS


@_quiet
def observability(left, right, seed: int) -> float:
    """Share of input vectors (all, or seeded random) on which some output differs."""
    from repro.sim.simulator import Simulator

    stimulus, n_vectors = _stimulus(left, seed)
    left_out = Simulator(left).run_outputs(stimulus)
    right_out = Simulator(right).run_outputs(stimulus)
    diff = np.zeros_like(left_out[left.outputs[0]])
    for net in left.outputs:
        diff |= left_out[net] ^ right_out[net]
    bits = np.unpackbits(diff.view(np.uint8), bitorder="little")[:n_vectors]
    return int(bits.sum()) / n_vectors


@_quiet
def replays(left, right, vector: Optional[Dict[str, int]]) -> bool:
    """True when ``vector`` drives some primary output of the two apart."""
    from repro.sim.simulator import Simulator

    if not vector or set(vector) != set(left.inputs):
        return False
    stimulus = {net: np.array([vector[net] & 1], dtype=np.uint64) for net in left.inputs}
    left_out = Simulator(left).run_outputs(stimulus)
    right_out = Simulator(right).run_outputs(stimulus)
    return any((int(left_out[n][0]) ^ int(right_out[n][0])) & 1 for n in left.outputs)


@_quiet
def kind_swap_mutant(circuit, seed: int, tries: int = 64):
    """A seeded ``GateKindSwap`` mutant that the oracle tells apart from ``circuit``.

    Gate swaps in redundant logic can be unobservable, and some are
    observable on only a few input vectors; mutants that differ on fewer
    than ``MIN_OBSERVABILITY`` of the oracle's vectors are skipped.  The
    expected verdict of the returned mutant (MISMATCH) comes from the
    oracle, not from the ladder.
    """
    from repro.faultinject.mutators import GateKindSwap

    rng = random.Random(seed)
    for attempt in range(tries):
        mutant = circuit.clone(f"{circuit.name}_mut{attempt}")
        GateKindSwap().apply(mutant, rng)
        if observability(circuit, mutant, seed) >= MIN_OBSERVABILITY:
            return mutant
    raise RuntimeError(f"no observable GateKindSwap mutant of {circuit.name} in {tries} tries")
