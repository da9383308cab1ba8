"""Tests for simulation-based observability — and the paper's ODC claim
checked empirically across real catalogs."""

import pytest

from tests.reference_logic import global_observability
from repro.sim import (
    conditional_observability,
    simulated_observability,
)
from repro.bench import build_benchmark
from repro.fingerprint import find_locations


class TestAgainstExactAnalysis:
    def test_matches_global_observability(self, fig1_circuit):
        """Monte-Carlo observability converges to the exact fraction."""
        exact = {
            net: global_observability(fig1_circuit, net).on_set_size() / 16.0
            for net in ("A", "X", "Y", "F")
        }
        measured = simulated_observability(
            fig1_circuit, nets=list(exact), n_vectors=8192, seed=2
        )
        for net, fraction in exact.items():
            assert measured[net] == pytest.approx(fraction, abs=0.03), net

    def test_output_always_observable(self, fig1_circuit):
        measured = simulated_observability(fig1_circuit, nets=["F"], n_vectors=512)
        assert measured["F"] == 1.0

    def test_dead_gate_unobservable(self, fig1_circuit):
        fig1_circuit.add_gate("dead", "INV", ["A"])
        measured = simulated_observability(fig1_circuit, nets=["dead"], n_vectors=512)
        assert measured["dead"] == 0.0

    def test_unknown_net_rejected(self, fig1_circuit):
        with pytest.raises(ValueError):
            simulated_observability(fig1_circuit, nets=["ghost"])


class TestConditionalObservability:
    def test_fig1_blocking(self, fig1_circuit):
        """The paper's Fig. 1 claim: when Y = 0, X is unobservable."""
        blocked = conditional_observability(
            fig1_circuit, "X", "Y", 0, n_vectors=4096
        )
        open_ = conditional_observability(
            fig1_circuit, "X", "Y", 1, n_vectors=4096
        )
        assert blocked == 0.0
        assert open_ > 0.9  # with Y=1, X drives F directly

    def test_never_true_condition(self, fig1_circuit):
        fig1_circuit.add_gate("zero", "CONST0", [])
        fig1_circuit.add_gate("o2", "OR", ["F", "zero"])
        fig1_circuit.add_output("o2")
        assert (
            conditional_observability(fig1_circuit, "X", "zero", 1, n_vectors=256)
            is None
        )


class TestOdcClaimOnRealCatalogs:
    @pytest.mark.parametrize("name", ["C432", "C880", "vda"])
    def test_trigger_blocks_ffc_root(self, name):
        """Suite-wide empirical soundness of Definition 1: conditioned on
        the trigger at the controlling value, the FFC root of every
        location is unobservable."""
        base = build_benchmark(name)
        catalog = find_locations(base)
        checked = 0
        for location in list(catalog)[:12]:
            observability = conditional_observability(
                base,
                location.ffc_root,
                location.trigger,
                location.trigger_value,
                n_vectors=2048,
                seed=7,
            )
            if observability is None:
                continue  # trigger condition never sampled
            assert observability == 0.0, (name, location.primary)
            checked += 1
        assert checked > 0
