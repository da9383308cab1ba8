"""The paper's worked examples, reproduced end to end.

These tests pin the narrative claims of the paper to executable checks:
the Fig. 1/2 equivalences, the Eq. 1 ODC derivation, the Fig. 4 generic
change, the Fig. 5 reroute and the one-bit fingerprint of the motivating
example.
"""


from repro.fingerprint import (
    FingerprintCodec,
    embed,
    extract,
    find_locations,
)
from tests.reference_logic import TruthTable, global_odc
from repro.netlist import Circuit
from repro.sim import exhaustive_equivalent


def figure2_variant_a() -> Circuit:
    """Fig. 2 left: Y also feeds an extra AND stage merged differently."""
    c = Circuit("fig2a")
    c.add_inputs(["A", "B", "C", "D"])
    c.add_gate("Y", "OR", ["C", "D"])
    c.add_gate("X1", "AND", ["A", "Y"])
    c.add_gate("X2", "AND", ["B", "X1"])
    c.add_gate("F", "AND", ["X2", "Y"])
    c.add_output("F")
    return c


def figure2_variant_b() -> Circuit:
    """Fig. 2 right: both fanins of the final AND absorb Y."""
    c = Circuit("fig2b")
    c.add_inputs(["A", "B", "C", "D"])
    c.add_gate("Y", "OR", ["C", "D"])
    c.add_gate("X1", "AND", ["A", "B", "Y"])
    c.add_gate("F", "AND", ["X1", "Y"])
    c.add_output("F")
    return c


class TestFigure1:
    def test_both_circuits_compute_f(self, fig1_circuit, fig1_modified):
        assert exhaustive_equivalent(fig1_circuit, fig1_modified).equivalent

    def test_circuits_structurally_distinct(self, fig1_circuit, fig1_modified):
        assert fig1_circuit.gate("X").inputs != fig1_modified.gate("X").inputs

    def test_one_bit_fingerprint(self, fig1_circuit):
        """Controlling whether X depends on Y embeds exactly one bit."""
        catalog = find_locations(fig1_circuit)
        codec = FingerprintCodec(catalog)
        bit0 = embed(fig1_circuit, catalog, codec.encode(0))
        bit1 = embed(fig1_circuit, catalog, codec.encode(1))
        assert exhaustive_equivalent(fig1_circuit, bit0.circuit).equivalent
        assert exhaustive_equivalent(fig1_circuit, bit1.circuit).equivalent
        read0 = extract(bit0.circuit, fig1_circuit, catalog)
        read1 = extract(bit1.circuit, fig1_circuit, catalog)
        assert codec.decode(read0.assignment) == 0
        assert codec.decode(read1.assignment) == 1

    def test_fingerprint_survives_copying(self, fig1_circuit):
        """Heredity: copying the layout copies the fingerprint."""
        catalog = find_locations(fig1_circuit)
        codec = FingerprintCodec(catalog)
        copy = embed(fig1_circuit, catalog, codec.encode(1))
        pirated = copy.circuit.clone("pirated")
        read = extract(pirated, fig1_circuit, catalog)
        assert codec.decode(read.assignment) == 1


class TestFigure2:
    def test_more_implementations_of_f(self, fig1_circuit):
        for variant in (figure2_variant_a(), figure2_variant_b()):
            assert exhaustive_equivalent(fig1_circuit, variant).equivalent, variant.name


class TestEquation1:
    def test_odc_of_and_input(self):
        """Eq. 1 worked example: 2-input AND, ODC_x = y'."""
        f = TruthTable.from_kind("AND", ("x", "y"))
        odc_x = (~f.boolean_difference("x"))
        assert odc_x.equivalent(~TruthTable.variable("y", ("x", "y")))

    def test_fig3_signals_blocked(self):
        """Fig. 3: a zero on the lower AND blocks C, A and B globally."""
        c = Circuit("fig3")
        c.add_inputs(["A", "B", "C", "D"])
        c.add_gate("inner", "AND", ["A", "B"])
        c.add_gate("upper", "AND", ["C", "inner"])
        c.add_gate("out", "AND", ["upper", "D"])
        c.add_output("out")
        variables = ("A", "B", "C", "D")
        d_low = ~TruthTable.variable("D", variables)
        for net in ("A", "B", "C", "inner", "upper"):
            odc = global_odc(c, net)
            # whenever D = 0, the net is unobservable
            assert (d_low & ~odc).is_contradiction(), net


class TestSecurityAnalysis:
    def test_fingerprinted_location_no_longer_qualifies(self, fig1_circuit):
        """§III.E: embedding destroys the location's own Definition-1 form.

        After Y is added to the AND that generates X, the FFC of X includes
        Y's OR gate — and criterion 4 can no longer be met at that spot, so
        an attacker re-running the finder sees a different catalog.
        """
        catalog = find_locations(fig1_circuit)
        codec = FingerprintCodec(catalog)
        copy = embed(fig1_circuit, catalog, codec.encode(1))
        recount = find_locations(copy.circuit)
        original = find_locations(fig1_circuit)
        assert [l.primary for l in recount] != [l.primary for l in original] or (
            recount.n_locations != original.n_locations
        ) or (
            [l.ffc_gates for l in recount] != [l.ffc_gates for l in original]
        )
