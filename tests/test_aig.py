"""Unit + property tests for the AIG substrate."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig import (
    FALSE,
    TRUE,
    Aig,
    aig_to_circuit,
    circuit_to_aig,
    lit_not,
    strash_equivalent,
)
from repro.bench import RandomLogicSpec, generate
from repro.sim import exhaustive_equivalent


class TestConstruction:
    def test_constants(self):
        aig = Aig()
        a = aig.add_input("a")
        assert aig.and_(a, TRUE) == a
        assert aig.and_(a, FALSE) == FALSE
        assert aig.and_(a, a) == a
        assert aig.and_(a, lit_not(a)) == FALSE

    def test_strashing_shares_nodes(self):
        aig = Aig()
        a, b = aig.add_input("a"), aig.add_input("b")
        first = aig.and_(a, b)
        second = aig.and_(b, a)  # commuted
        assert first == second
        assert aig.n_ands == 1

    def test_or_demorgan(self):
        aig = Aig()
        a, b = aig.add_input("a"), aig.add_input("b")
        node = aig.or_(a, b)
        aig.add_output("o", node)
        assert aig.evaluate({"a": 0, "b": 0})["o"] == 0
        assert aig.evaluate({"a": 1, "b": 0})["o"] == 1

    def test_xor(self):
        aig = Aig()
        a, b = aig.add_input("a"), aig.add_input("b")
        aig.add_output("o", aig.xor_(a, b))
        for va, vb in itertools.product([0, 1], repeat=2):
            assert aig.evaluate({"a": va, "b": vb})["o"] == va ^ vb

    def test_duplicate_input_rejected(self):
        aig = Aig()
        aig.add_input("a")
        with pytest.raises(ValueError):
            aig.add_input("a")

    def test_depth_and_levels(self):
        aig = Aig()
        a, b, c = (aig.add_input(x) for x in "abc")
        ab = aig.and_(a, b)
        abc = aig.and_(ab, c)
        aig.add_output("o", abc)
        assert aig.depth() == 2


class TestCircuitRoundTrip:
    def test_fig1_roundtrip(self, fig1_circuit):
        aig = circuit_to_aig(fig1_circuit)
        back = aig_to_circuit(aig, "fig1", fig1_circuit.library)
        assert exhaustive_equivalent(fig1_circuit, back).equivalent
        kinds = {g.kind for g in back.gates}
        assert kinds <= {"AND", "INV", "BUF", "CONST0", "CONST1"}

    def test_adder_roundtrip(self, adder4):
        aig = circuit_to_aig(adder4)
        back = aig_to_circuit(aig, "adder4")
        assert exhaustive_equivalent(adder4, back).equivalent

    def test_parity_roundtrip(self, parity8):
        aig = circuit_to_aig(parity8)
        back = aig_to_circuit(aig, "parity8")
        assert exhaustive_equivalent(parity8, back).equivalent

    def test_constant_output(self):
        from repro.netlist import Circuit

        c = Circuit("k")
        c.add_input("a")
        c.add_gate("one", "CONST1", [])
        c.add_gate("o", "AND", ["a", "one"])
        c.add_outputs(["o"])
        aig = circuit_to_aig(c)
        back = aig_to_circuit(aig, "k")
        assert exhaustive_equivalent(c, back).equivalent

    def test_strash_compresses_redundancy(self):
        from repro.netlist import Circuit

        c = Circuit("dup")
        c.add_inputs(["a", "b"])
        c.add_gate("x1", "AND", ["a", "b"])
        c.add_gate("x2", "AND", ["a", "b"])  # structural duplicate
        c.add_gate("o", "OR", ["x1", "x2"])  # OR(x, x) == x
        c.add_output("o")
        aig = circuit_to_aig(c)
        assert aig.n_ands == 1

    @given(st.integers(0, 5000))
    @settings(max_examples=12, deadline=None)
    def test_random_roundtrip(self, seed):
        base = generate(
            RandomLogicSpec(
                name=f"aig{seed}", n_inputs=8, n_outputs=3, n_gates=50, seed=seed
            )
        )
        aig = circuit_to_aig(base)
        back = aig_to_circuit(aig, base.name)
        assert exhaustive_equivalent(base, back).equivalent


class TestStrashEquivalence:
    def test_identical_circuits(self, fig1_circuit):
        assert strash_equivalent(fig1_circuit, fig1_circuit.clone("twin"))

    def test_commuted_inputs(self, fig1_circuit):
        other = fig1_circuit.clone("swap")
        other.replace_gate("X", "AND", ["B", "A"])
        assert strash_equivalent(fig1_circuit, other)

    def test_demorgan_recognized(self):
        from repro.netlist import Circuit

        left = Circuit("l")
        left.add_inputs(["a", "b"])
        left.add_gate("o", "NOR", ["a", "b"])
        left.add_output("o")
        right = Circuit("r")
        right.add_inputs(["a", "b"])
        right.add_gate("na", "INV", ["a"])
        right.add_gate("nb", "INV", ["b"])
        right.add_gate("o", "AND", ["na", "nb"])
        right.add_output("o")
        assert strash_equivalent(left, right)

    def test_real_difference_rejected(self, fig1_circuit):
        broken = fig1_circuit.clone("broken")
        broken.replace_gate("F", "OR", ["X", "Y"])
        assert not strash_equivalent(fig1_circuit, broken)

    def test_inconclusive_on_fingerprinted_copy(self, fig1_circuit):
        """The ODC modification is *not* structural — strash can't see the
        equivalence (that's exactly why the fingerprint is hard to spot)."""
        from repro.fingerprint import FingerprintCodec, embed, find_locations

        catalog = find_locations(fig1_circuit)
        codec = FingerprintCodec(catalog)
        copy = embed(fig1_circuit, catalog, codec.encode(1))
        assert not strash_equivalent(fig1_circuit, copy.circuit)
        assert exhaustive_equivalent(fig1_circuit, copy.circuit).equivalent

    def test_port_mismatch(self, fig1_circuit, parity8):
        assert not strash_equivalent(fig1_circuit, parity8)


class TestAigAgainstTruthTables:
    """Random expression trees evaluated via AIG and via truth tables."""

    @given(st.integers(0, 100000))
    @settings(max_examples=40, deadline=None)
    def test_random_expressions(self, seed):
        import random

        from tests.reference_logic import TruthTable

        rng = random.Random(seed)
        variables = ("a", "b", "c", "d")
        aig = Aig()
        literals = {v: aig.add_input(v) for v in variables}
        tables = {v: TruthTable.variable(v, variables) for v in variables}

        def build(depth):
            if depth == 0 or rng.random() < 0.3:
                v = rng.choice(variables)
                lit, table = literals[v], tables[v]
            else:
                left_lit, left_table = build(depth - 1)
                right_lit, right_table = build(depth - 1)
                op = rng.choice(("and", "or", "xor"))
                if op == "and":
                    lit = aig.and_(left_lit, right_lit)
                    table = left_table & right_table
                elif op == "or":
                    lit = aig.or_(left_lit, right_lit)
                    table = left_table | right_table
                else:
                    lit = aig.xor_(left_lit, right_lit)
                    table = left_table ^ right_table
            if rng.random() < 0.25:
                lit, table = lit_not(lit), ~table
            return lit, table

        lit, table = build(4)
        aig.add_output("o", lit)
        for row in range(16):
            assignment = {v: (row >> i) & 1 for i, v in enumerate(variables)}
            assert aig.evaluate(assignment)["o"] == table.evaluate(assignment)

    @given(st.integers(0, 100000))
    @settings(max_examples=20, deadline=None)
    def test_strash_canonical_for_equal_builds(self, seed):
        """Building the same expression twice yields the same literal."""
        import random

        rng = random.Random(seed)
        aig = Aig()
        lits = [aig.add_input(f"v{i}") for i in range(4)]

        def build(r):
            acc = lits[0]
            for _ in range(6):
                other = r.choice(lits)
                op = r.choice((aig.and_, aig.or_, aig.xor_))
                acc = op(acc, other)
            return acc

        first = build(random.Random(seed + 1))
        second = build(random.Random(seed + 1))
        assert first == second
