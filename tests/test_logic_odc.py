"""Unit tests for the oracle's local ODC sets (paper §III.A, Eq. 1)."""

import pytest

from tests.reference_logic import TruthTable, local_odc


class TestLocalOdc:
    def test_and2_odc_is_other_input_low(self):
        odc = local_odc("AND", 2, 0)
        # ODC_in0 = in1'
        expected = ~TruthTable.variable("in1", odc.variables)
        assert odc.equivalent(expected)

    def test_or3_odc(self):
        odc = local_odc("OR", 3, 0)
        v1 = TruthTable.variable("in1", odc.variables)
        v2 = TruthTable.variable("in2", odc.variables)
        assert odc.equivalent(v1 | v2)

    def test_nand_same_as_and(self):
        assert local_odc("NAND", 2, 0).bits == local_odc("AND", 2, 0).bits

    def test_xor_has_empty_odc(self):
        assert local_odc("XOR", 2, 0).is_contradiction()
        assert local_odc("XNOR", 3, 1).is_contradiction()

    def test_inv_has_empty_odc(self):
        assert local_odc("INV", 1, 0).is_contradiction()

    def test_position_out_of_range(self):
        with pytest.raises(ValueError):
            local_odc("AND", 2, 5)
