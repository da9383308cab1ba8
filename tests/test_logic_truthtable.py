"""Unit + property tests for the truth-table oracle (tests/reference_logic.py)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tests.reference_logic import TruthTable, TruthTableError

VARS3 = ("a", "b", "c")

tables3 = st.integers(0, (1 << 8) - 1).map(lambda bits: TruthTable(VARS3, bits))


class TestConstruction:
    def test_constant(self):
        one = TruthTable.constant(1, VARS3)
        zero = TruthTable.constant(0, VARS3)
        assert one.is_tautology()
        assert zero.is_contradiction()

    def test_variable(self):
        a = TruthTable.variable("a", VARS3)
        assert a.evaluate({"a": 1, "b": 0, "c": 0}) == 1
        assert a.evaluate({"a": 0, "b": 1, "c": 1}) == 0

    def test_from_kind(self):
        and2 = TruthTable.from_kind("AND", ("x", "y"))
        assert and2.bits == 0b1000

    def test_from_rows(self):
        t = TruthTable.from_rows(("x", "y"), [0, 3])
        assert t.evaluate({"x": 0, "y": 0}) == 1
        assert t.evaluate({"x": 1, "y": 1}) == 1
        assert t.evaluate({"x": 1, "y": 0}) == 0

    def test_duplicate_vars_rejected(self):
        with pytest.raises(TruthTableError):
            TruthTable(("a", "a"), 0)

    def test_too_many_vars_rejected(self):
        with pytest.raises(TruthTableError):
            TruthTable(tuple(f"v{i}" for i in range(25)), 0)

    def test_bits_out_of_range(self):
        with pytest.raises(TruthTableError):
            TruthTable(("a",), 0b111)


class TestAlgebra:
    def test_demorgan(self):
        a = TruthTable.variable("a", VARS3)
        b = TruthTable.variable("b", VARS3)
        assert (~(a & b)).equivalent(~a | ~b)

    def test_xor_definition(self):
        a = TruthTable.variable("a", VARS3)
        b = TruthTable.variable("b", VARS3)
        assert (a ^ b).equivalent((a & ~b) | (~a & b))

    def test_alignment_over_different_supports(self):
        a = TruthTable.variable("a", ("a",))
        b = TruthTable.variable("b", ("b",))
        both = a & b
        assert set(both.variables) == {"a", "b"}
        assert both.evaluate({"a": 1, "b": 1}) == 1
        assert both.evaluate({"a": 1, "b": 0}) == 0

    def test_extension_preserves_function(self):
        a = TruthTable.variable("a", ("a", "b"))
        extended = a.extended(("c", "a", "b"))
        assert extended.evaluate({"a": 1, "b": 0, "c": 1}) == 1
        assert extended.evaluate({"a": 0, "b": 1, "c": 1}) == 0

    def test_extension_cannot_drop(self):
        t = TruthTable.from_kind("AND", ("x", "y"))
        with pytest.raises(TruthTableError):
            t.extended(("x",))

    @given(tables3)
    def test_double_negation(self, t):
        assert (~~t).bits == t.bits

    @given(tables3, tables3)
    def test_and_is_intersection(self, s, t):
        assert (s & t).on_set_size() <= min(s.on_set_size(), t.on_set_size())

    @given(tables3, tables3)
    def test_xor_symmetric_difference(self, s, t):
        assert (s ^ t).equivalent((s | t) & ~(s & t))


class TestCofactorsAndDifference:
    def test_cofactor(self):
        and2 = TruthTable.from_kind("AND", ("x", "y"))
        assert and2.cofactor("x", 1).equivalent(TruthTable.variable("y", ("x", "y")))
        assert and2.cofactor("x", 0).is_contradiction()

    def test_boolean_difference_and(self):
        and2 = TruthTable.from_kind("AND", ("x", "y"))
        # d(xy)/dx = y
        assert and2.boolean_difference("x").equivalent(
            TruthTable.variable("y", ("x", "y"))
        )

    def test_boolean_difference_xor_is_tautology(self):
        xor2 = TruthTable.from_kind("XOR", ("x", "y"))
        assert xor2.boolean_difference("x").is_tautology()

    def test_odc_matches_paper_equation(self):
        """Paper Eq. 1 worked example: 2-input AND, ODC_x = y'."""
        and2 = TruthTable.from_kind("AND", ("x", "y"))
        odc = and2.odc("x")
        y_not = ~TruthTable.variable("y", ("x", "y"))
        assert odc.equivalent(y_not)

    def test_odc_or2(self):
        or2 = TruthTable.from_kind("OR", ("x", "y"))
        assert or2.odc("x").equivalent(TruthTable.variable("y", ("x", "y")))

    @given(tables3, st.sampled_from(VARS3))
    def test_odc_is_complement_of_difference(self, t, var):
        assert t.odc(var).equivalent(~t.boolean_difference(var))

    @given(tables3, st.sampled_from(VARS3))
    def test_cofactors_agree_on_odc(self, t, var):
        """On the ODC set, both cofactors produce the same output."""
        odc = t.odc(var)
        f1 = t.cofactor(var, 1)
        f0 = t.cofactor(var, 0)
        assert ((f1 ^ f0) & odc).is_contradiction()

    def test_depends_on_and_support(self):
        and2 = TruthTable.from_kind("AND", ("x", "y")).extended(("x", "y", "z"))
        assert and2.depends_on("x")
        assert not and2.depends_on("z")
        assert and2.support() == ["x", "y"]

    def test_compose(self):
        # F = x AND y; substitute x := (a OR b)
        f = TruthTable.from_kind("AND", ("x", "y"))
        g = TruthTable.from_kind("OR", ("a", "b"))
        composed = f.compose("x", g)
        assert composed.evaluate({"x": 0, "y": 1, "a": 1, "b": 0}) == 1
        assert composed.evaluate({"x": 1, "y": 1, "a": 0, "b": 0}) == 0

    def test_on_set(self):
        and2 = TruthTable.from_kind("AND", ("x", "y"))
        assert and2.on_set() == [{"x": 1, "y": 1}]

    def test_missing_assignment(self):
        t = TruthTable.from_kind("AND", ("x", "y"))
        with pytest.raises(TruthTableError):
            t.evaluate({"x": 1})
