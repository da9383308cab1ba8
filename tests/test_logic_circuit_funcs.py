"""Unit tests for the oracle's exact circuit functions and global observability."""

import pytest

from tests.reference_logic import (
    TruthTable,
    global_observability,
    global_odc,
    local_odc,
    net_functions,
)


class TestNetFunctions:
    def test_fig1_functions(self, fig1_circuit):
        tables = net_functions(fig1_circuit)
        variables = tuple(fig1_circuit.inputs)
        a = TruthTable.variable("A", variables)
        b = TruthTable.variable("B", variables)
        c = TruthTable.variable("C", variables)
        d = TruthTable.variable("D", variables)
        assert tables["X"].equivalent(a & b)
        assert tables["Y"].equivalent(c | d)
        assert tables["F"].equivalent(a & b & (c | d))

    def test_constants_and_unary(self):
        from repro.netlist import Circuit

        c = Circuit("k")
        c.add_input("a")
        c.add_gate("one", "CONST1", [])
        c.add_gate("n", "INV", ["a"])
        c.add_gate("f", "AND", ["n", "one"])
        c.add_output("f")
        tables = net_functions(c)
        assert tables["one"].is_tautology()
        assert tables["f"].equivalent(~TruthTable.variable("a", ("a",)))


class TestGlobalObservability:
    def test_fig1_x_unobservable_when_y_zero(self, fig1_circuit):
        """Global ODC of X is exactly Y' = (C + D)' — the paper's example."""
        odc = global_odc(fig1_circuit, "X")
        variables = tuple(fig1_circuit.inputs)
        c = TruthTable.variable("C", variables)
        d = TruthTable.variable("D", variables)
        assert odc.equivalent(~(c | d))

    def test_output_always_observable(self, fig1_circuit):
        obs = global_observability(fig1_circuit, "F")
        assert obs.is_tautology()

    def test_primary_input_observability(self, fig1_circuit):
        # A observable iff B=1 and (C or D)=1.
        obs = global_observability(fig1_circuit, "A")
        variables = tuple(fig1_circuit.inputs)
        b = TruthTable.variable("B", variables)
        c = TruthTable.variable("C", variables)
        d = TruthTable.variable("D", variables)
        assert obs.equivalent(b & (c | d))

    def test_unknown_net_rejected(self, fig1_circuit):
        with pytest.raises(Exception):
            global_observability(fig1_circuit, "nope")

    def test_local_odc_implies_global_odc(self, fig1_circuit, deep_chain):
        """Local (per-gate) ODC conditions under-approximate global ones.

        For any net Y feeding a single gate P, the local ODC of P w.r.t. Y
        (expressed over primary inputs) must imply the global ODC of Y —
        this is the soundness fact Definition 1 leans on.
        """
        for circuit in (fig1_circuit, deep_chain):
            tables = net_functions(circuit)
            for gate in circuit.gates:
                if len(set(gate.inputs)) != gate.n_inputs:
                    continue
                for position, net in enumerate(gate.inputs):
                    if len(circuit.fanouts(net)) != 1 or circuit.is_output(net):
                        continue
                    anonymous = local_odc(gate.kind, gate.n_inputs, position)
                    local = TruthTable(tuple(gate.inputs), anonymous.bits)
                    # Express the local condition over primary inputs by
                    # substituting each sibling net with its global function.
                    expressed = local
                    for var in local.variables:
                        if var in tables and var not in circuit.inputs:
                            expressed = expressed.compose(var, tables[var])
                    expressed = expressed.extended(
                        tuple(dict.fromkeys(tuple(expressed.variables) + tuple(circuit.inputs)))
                    )
                    global_set = global_odc(circuit, net).extended(expressed.variables)
                    # local ODC (over PIs) must be a subset of the global ODC
                    assert (expressed & ~global_set).is_contradiction(), (
                        gate.name,
                        net,
                    )
