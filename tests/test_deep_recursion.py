"""Pathologically deep netlists must not hit Python's recursion limit.

Every traversal in the package is iterative (explicit stacks); this module
pins that with a 5,000-gate inverter chain — more than 4x the default
interpreter recursion limit — pushed through validation, cone analysis,
timing and simulation.
"""

from __future__ import annotations

import sys

import pytest

from repro.netlist import Circuit
from repro.netlist.graph import fanout_free_cone, transitive_fanin, transitive_fanout
from repro.sim.simulator import Simulator
from repro.timing import analyze

DEPTH = 5_000


@pytest.fixture(scope="module")
def chain() -> Circuit:
    circuit = Circuit(f"inv_chain_{DEPTH}")
    circuit.add_inputs(["x"])
    previous = "x"
    for i in range(DEPTH):
        circuit.add_gate(f"n{i}", "INV", [previous])
        previous = f"n{i}"
    circuit.add_output(previous)
    return circuit


def test_chain_is_deeper_than_the_recursion_limit(chain):
    """The fixture only proves something if recursion *would* overflow."""
    assert chain.depth() == DEPTH
    assert DEPTH > sys.getrecursionlimit()


def test_validate_and_topological_order(chain):
    chain.validate()
    order = chain.topological_order()
    assert len(order) == DEPTH


def test_transitive_cones(chain):
    head = f"n{DEPTH - 1}"
    assert len(transitive_fanin(chain, head)) == DEPTH + 1  # gates + input
    assert len(transitive_fanout(chain, "x")) == DEPTH + 1  # gates + "x" itself
    assert len(fanout_free_cone(chain, head)) == DEPTH


def test_static_timing(chain):
    timing = analyze(chain)
    assert timing.critical_delay > 0


def test_simulation(chain):
    head = f"n{DEPTH - 1}"
    # even depth: 5,000 inversions restore the input value
    assert Simulator(chain).run_single({"x": 1})[head] == 1
    assert Simulator(chain).run_single({"x": 0})[head] == 0

