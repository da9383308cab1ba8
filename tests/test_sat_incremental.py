"""Differential tests for the incremental CEC session.

The contract under test: :meth:`IncrementalCecSession.verify` must agree
with an independent reference (:func:`tests.reference_cec.reference_verdict`:
the unswept scratch miter on a fresh solver, plus exhaustive simulation
for narrow designs) verdict for verdict on every kind of copy —
structurally identical, fingerprinted-equivalent, and functionally broken
(via the :mod:`repro.faultinject` mutators) — and its counterexamples must
be real (simulating them must expose an output difference).  SAT sweeping
must merge only proven pairs: a signature match alone never merges.
"""

from __future__ import annotations

import random

import pytest

from repro import telemetry
from repro.bench import RandomLogicSpec, build_benchmark, generate
from repro.budget import Budget
from repro.faultinject.mutators import functional_mutators
from repro.fingerprint import FingerprintCodec, embed, find_locations, full_assignment
from repro.netlist import Circuit
from repro.sat import IncrementalCecSession, check, structurally_identical
from repro.sat.cec import CecVerdict
from repro.sim.equivalence import PortMismatchError
from repro.sim.simulator import Simulator
from tests.reference_cec import reference_verdict


def _random_base(seed: int = 21, n_gates: int = 140) -> Circuit:
    return generate(
        RandomLogicSpec(
            name=f"incbase{seed}",
            n_inputs=12,
            n_outputs=8,
            n_gates=n_gates,
            seed=seed,
        )
    )


def _assert_counterexample_real(base, copy, counterexample):
    left = Simulator(base).run_single(counterexample)
    right = Simulator(copy).run_single(counterexample)
    assert any(left[o] != right[o] for o in base.outputs), (
        f"counterexample {counterexample} does not distinguish the circuits"
    )


class TestDifferentialAgainstScratch:
    def test_fingerprint_copies_agree(self):
        base = _random_base()
        catalog = find_locations(base)
        codec = FingerprintCodec(catalog)
        rng = random.Random(5)
        session = IncrementalCecSession(base)
        for _ in range(5):
            value = rng.randrange(codec.combinations)
            copy = embed(base, catalog, codec.encode(value)).circuit
            incremental = session.verify(copy)
            reference = reference_verdict(base, copy)
            assert incremental.verdict is reference
            assert incremental.verdict is CecVerdict.EQUIVALENT

    def test_mutated_copies_agree(self):
        """Faultinject mutants: verdicts match scratch CEC, and any
        counterexample actually separates the circuits."""
        base = _random_base(seed=33)
        session = IncrementalCecSession(base)
        rng = random.Random(99)
        outcomes = set()
        for trial in range(6):
            mutant = base.clone(f"mutant{trial}")
            mutator = rng.choice(functional_mutators())
            mutator.apply(mutant, rng)
            incremental = session.verify(mutant)
            reference = reference_verdict(base, mutant)
            assert incremental.verdict is reference
            outcomes.add(incremental.verdict)
            if incremental.counterexample is not None:
                _assert_counterexample_real(base, mutant, incremental.counterexample)
        # The campaign must actually have produced a disproof somewhere,
        # otherwise this test is vacuous.
        assert CecVerdict.NOT_EQUIVALENT in outcomes

    def test_mutated_fingerprint_copy(self):
        """A broken *fingerprinted* copy (mutation on top of an embedding)
        is caught, matching the scratch verdict."""
        base = _random_base(seed=8)
        catalog = find_locations(base)
        codec = FingerprintCodec(catalog)
        copy = embed(base, catalog, codec.encode(12345 % codec.combinations)).circuit
        mutant = copy.clone("tampered")
        rng = random.Random(3)
        mutator = functional_mutators()[0]  # StuckAtNet
        mutator.apply(mutant, rng)
        session = IncrementalCecSession(base)
        incremental = session.verify(mutant)
        reference = reference_verdict(base, mutant)
        assert incremental.verdict is reference


class TestSessionMechanics:
    def test_identical_copy_is_structural(self):
        base = _random_base(seed=2)
        session = IncrementalCecSession(base)
        result = session.verify(base.clone("twin"))
        assert result.verdict is CecVerdict.EQUIVALENT
        assert result.detail["outputs_sat"] == 0
        assert result.detail["outputs_structural"] == len(base.outputs)
        assert result.detail["gates_encoded"] == 0

    def test_solver_is_shared_across_copies(self):
        """One persistent solver: variables and learned clauses accumulate
        instead of being rebuilt per copy."""
        base = _random_base(seed=13)
        catalog = find_locations(base)
        codec = FingerprintCodec(catalog)
        session = IncrementalCecSession(base)
        solver = session.solver
        for value in (1, 2, 3):
            copy = embed(base, catalog, codec.encode(value)).circuit
            assert session.verify(copy).equivalent
            assert session.solver is solver
        assert session.stats.copies == 3
        assert session.stats.gates_reused > 0

    def test_second_copy_shares_first_copy_delta(self):
        """The same copy verified twice: the second pass encodes nothing —
        the structural-hash table already holds the first delta."""
        base = _random_base(seed=17)
        catalog = find_locations(base)
        codec = FingerprintCodec(catalog)
        copy = embed(base, catalog, codec.encode(777)).circuit
        session = IncrementalCecSession(base)
        first = session.verify(copy)
        second = session.verify(copy)
        assert first.equivalent and second.equivalent
        assert second.detail["gates_encoded"] == 0

    def test_budget_exhaustion_is_undecided(self):
        base = _random_base(seed=41)
        catalog = find_locations(base)
        codec = FingerprintCodec(catalog)
        copy = embed(base, catalog, codec.encode(4321)).circuit
        session = IncrementalCecSession(base)
        starved = session.verify(copy, budget=Budget(max_decisions=0))
        assert starved.verdict is CecVerdict.UNDECIDED
        assert starved.reason is not None
        # The session stays usable, and an unbudgeted retry decides.
        retry = session.verify(copy)
        assert retry.verdict is CecVerdict.EQUIVALENT

    def test_budget_spent_inside_an_output_obligation(self):
        """The sweep's share of the budget counts: an output miter that
        runs out mid-solve is UNDECIDED, named by the call's own limit."""
        from tests.reference_cec import rename_internal

        base = generate(
            RandomLogicSpec(name="budget_cec", n_inputs=12, n_outputs=5,
                            n_gates=150, seed=11)
        )
        catalog = find_locations(base)
        copy = rename_internal(
            embed(base, catalog, full_assignment(base, catalog)).circuit
        )
        session = IncrementalCecSession(base)
        starved = session.verify(copy, budget=Budget(max_conflicts=200))
        assert starved.verdict is CecVerdict.UNDECIDED
        assert starved.detail["outputs_sat"] == 1
        assert starved.reason == "conflict limit 200 reached"
        assert session.verify(copy).verdict is CecVerdict.EQUIVALENT

    def test_port_mismatch_raises(self):
        base = _random_base(seed=6)
        other = generate(
            RandomLogicSpec(
                name="other", n_inputs=10, n_outputs=8, n_gates=100, seed=6
            )
        )
        session = IncrementalCecSession(base)
        with pytest.raises(PortMismatchError):
            session.verify(other)

    def test_base_mutation_is_rejected(self):
        base = _random_base(seed=7)
        session = IncrementalCecSession(base)
        victim = base.gates[0]
        base.replace_gate(victim.name, victim.kind, list(victim.inputs))
        with pytest.raises(ValueError, match="mutated"):
            session.verify(base.clone("twin"))

    def test_bad_vector_count_rejected(self):
        base = _random_base(seed=5)
        with pytest.raises(ValueError, match="multiple"):
            IncrementalCecSession(base, n_vectors=100)

    def test_sim_prefilter_disproof_has_counterexample(self):
        """An easy inequivalence is caught by the signature pre-filter
        (no SAT) with a valid counterexample."""
        base = _random_base(seed=55)
        mutant = base.clone("stuck")
        victim = next(g for g in base.topological_order() if g.kind == "INV")
        mutant.replace_gate(victim.name, "BUF", list(victim.inputs))
        session = IncrementalCecSession(base)
        result = session.verify(mutant)
        reference = reference_verdict(base, mutant)
        assert result.verdict is reference
        if result.verdict is CecVerdict.NOT_EQUIVALENT:
            assert result.counterexample is not None
            _assert_counterexample_real(base, mutant, result.counterexample)


class TestStructuralFastPath:
    def test_clone_is_identical(self, adder4):
        assert structurally_identical(adder4, adder4.clone("twin"))

    def test_commutative_fanin_swap_is_identical(self, fig1_circuit):
        swapped = Circuit("swapped")
        swapped.add_inputs(["A", "B", "C", "D"])
        swapped.add_gate("X", "AND", ["B", "A"])
        swapped.add_gate("Y", "OR", ["D", "C"])
        swapped.add_gate("F", "AND", ["Y", "X"])
        swapped.add_output("F")
        assert structurally_identical(fig1_circuit, swapped)

    def test_functional_change_is_not_identical(self, fig1_circuit, fig1_modified):
        assert not structurally_identical(fig1_circuit, fig1_modified)

    def test_fingerprinted_copy_is_not_identical(self):
        base = _random_base(seed=61)
        catalog = find_locations(base)
        codec = FingerprintCodec(catalog)
        copy = embed(base, catalog, codec.encode(9)).circuit
        assert not structurally_identical(base, copy)

    def test_check_fast_path_skips_solver(self, adder4):
        from repro.sat import check

        result = check(adder4, adder4.clone("twin"))
        assert result.equivalent
        assert "structurally identical" in result.reason
        assert result.stats.decisions == 0 and result.stats.propagations == 0


def _rare_and_pair():
    """A base and a copy whose internal net ``w`` differs on 1 of 2**16 vectors.

    ``w`` is a 16-input AND in the base and drops ``a15`` in the copy, so
    the two differ only when ``a0..a14`` are all 1 and ``a15`` is 0: 512
    random vectors almost surely never see it, yet the nets are not
    equivalent and neither are the outputs that read ``w``.
    """

    def build(name, drop_last):
        circuit = Circuit(name)
        circuit.add_inputs([f"a{i}" for i in range(20)])
        legs = []
        for quad in range(4):
            ins = [f"a{4 * quad + k}" for k in range(4)]
            if drop_last and quad == 3:
                ins = ins[:3]
            circuit.add_gate(f"q{quad}", "AND", ins)
            legs.append(f"q{quad}")
        circuit.add_gate("w", "AND", legs)
        circuit.add_gate("o1", "XOR", ["w", "a16"])
        circuit.add_gate("o2", "OR", ["a17", "a18"])
        circuit.add_gate("o3", "NAND", ["o2", "a19"])
        circuit.add_outputs(["o1", "o3"])
        return circuit

    return build("rare", False), build("rare_copy", True)


class TestSatSweeping:
    def test_signature_match_is_refuted_not_merged(self):
        base, copy = _rare_and_pair()
        session = IncrementalCecSession(base)
        w = session._base_id["w"]
        sim = Simulator(copy)
        assert (
            session._base_matrix[w]
            == sim.run_matrix(session._stimulus)[sim.compiled.ids["w"]]
        ).all(), "premise: the 512 vectors must not separate w"
        result = session.verify(copy)
        assert result.verdict is CecVerdict.NOT_EQUIVALENT
        assert result.detail["pairs_merged"] == 0
        assert session.stats.pairs_refuted >= 1
        assert session.stats.pairs_proven == 0
        assert result.detail["outputs_sat"] >= 1  # decided by an output miter
        _assert_counterexample_real(base, copy, result.counterexample)
        assert reference_verdict(base, copy) is CecVerdict.NOT_EQUIVALENT

    @pytest.mark.parametrize("name", ["k2", "vda"])
    def test_maximal_embedding_proven_without_output_miters(self, name):
        base = build_benchmark(name)
        catalog = find_locations(base)
        copy = embed(base, catalog, full_assignment(base, catalog)).circuit
        result = check(base, copy, budget=Budget(max_conflicts=15000))
        assert result.verdict is CecVerdict.EQUIVALENT
        assert result.detail["outputs_sat"] == 0
        assert result.detail["pairs_merged"] > 0

    def test_sweep_is_observable(self):
        base = _random_base(seed=12)
        catalog = find_locations(base)
        copy = embed(base, catalog, full_assignment(base, catalog)).circuit
        session = IncrementalCecSession(base)
        with telemetry.enabled(trace=False, metrics=True):
            telemetry.drain_metrics()
            result = session.verify(copy)
            counters = telemetry.drain_metrics()["counters"]
        assert result.equivalent
        merged = result.detail["pairs_merged"]
        assert merged > 0
        assert session.stats.pairs_proven == merged
        assert counters["cec.sweep.merged"] == merged
        assert counters.get("cec.sweep.refuted", 0) == session.stats.pairs_refuted
        # A later copy reuses the merges through the strash table: no new
        # pair is proven and nothing is encoded afresh.
        again = session.verify(embed(base, catalog, full_assignment(base, catalog)).circuit)
        assert again.equivalent
        assert again.detail["pairs_merged"] == 0
        assert again.detail["gates_encoded"] == 0
        assert session.stats.pairs_proven == merged

    def test_renamed_copy_needs_output_miters(self):
        """With no name-matched internal net the sweep has nothing to
        propose, and the outputs are proven by their miters."""
        from tests.reference_cec import rename_internal

        base = _random_base(seed=12)
        catalog = find_locations(base)
        copy = rename_internal(
            embed(base, catalog, full_assignment(base, catalog)).circuit
        )
        result = IncrementalCecSession(base).verify(copy)
        assert result.equivalent
        assert result.detail["outputs_sat"] > 0
