"""Differential harness: the fast SAT pipeline must match a plain reference.

The raw-speed program (SAT sweeping, learned-clause minimization, flat
watch lists, restarts) is only admissible because it is *identical in
verdicts* to an independent check.  The reference
(:mod:`tests.reference_cec`) is the unswept miter solved by a fresh
solver, plus exhaustive simulation for designs with at most 16 inputs.
This suite enforces agreement:

* scratch CEC (`repro.sat.cec.check`, a one-shot session) on bundled
  designs, embedded fingerprint copies, and faultinject mutants (tier-1);
* incremental sessions, default and `LEGACY_CONFIG`-configured, over the
  same copies (tier-1);
* every NOT_EQUIVALENT counterexample — from simulation, a sweep-merged
  encoding or an output miter — is replayed through the simulator and
  must actually distinguish the circuits;
* the bundled small benchmark suite plus k2 under the session engine
  (``-m differential``, run in the dedicated CI job).
"""

from __future__ import annotations

import random

import pytest

from repro.bench import RandomLogicSpec, generate
from repro.bench.data import data_path
from repro.bench.suite import SMALL_SUITE, build_benchmark
from repro.faultinject import GateKindSwap, StuckAtNet
from repro.fingerprint import embed, find_locations, full_assignment
from repro.netlist import read_blif
from repro.sat import LEGACY_CONFIG, IncrementalCecSession
from repro.sat.cec import CecVerdict, check
from repro.techmap import map_network
from tests.reference_cec import distinguishes, reference_verdict


def small_circuit(seed, n_gates=80, n_inputs=12, n_outputs=4):
    return generate(
        RandomLogicSpec(
            name=f"satdiff{seed}",
            n_inputs=n_inputs,
            n_outputs=n_outputs,
            n_gates=n_gates,
            seed=seed,
        )
    )


def fingerprint_copy(base):
    catalog = find_locations(base)
    return embed(base, catalog, full_assignment(base, catalog)).circuit


def mutated_variants(base, n_variants, seed):
    rng = random.Random(seed)
    mutators = [GateKindSwap(), StuckAtNet()]
    variants = []
    for index in range(n_variants):
        mutant = base.clone(f"{base.name}_m{index}")
        try:
            rng.choice(mutators).apply(mutant, rng)
            mutant.validate()
        except Exception:
            continue
        variants.append(mutant)
    return variants


def assert_counterexample_distinguishes(left, right, counterexample, note):
    """A counterexample must be a *real* witness."""
    assert counterexample is not None, note
    assert distinguishes(left, right, counterexample), (
        f"counterexample does not distinguish the circuits {note}: "
        f"{counterexample}"
    )


def assert_scratch_identical(left, right, note=""):
    """The differential oracle for `cec.check`."""
    fast = check(left, right)
    reference = reference_verdict(left, right)
    assert fast.verdict is reference, (
        f"scratch verdict divergence {note}: "
        f"fast={fast.verdict} ({fast.reason}) reference={reference}"
    )
    if fast.verdict is CecVerdict.NOT_EQUIVALENT:
        assert_counterexample_distinguishes(
            left, right, fast.counterexample, f"(fast path {note})"
        )


def assert_session_identical(base, copies, note=""):
    """The differential oracle for `IncrementalCecSession`."""
    fast = IncrementalCecSession(base)
    legacy = IncrementalCecSession(base, solver_config=LEGACY_CONFIG)
    for index, copy in enumerate(copies):
        reference = reference_verdict(base, copy)
        for label, session in (("fast", fast), ("legacy", legacy)):
            result = session.verify(copy)
            assert result.verdict is reference, (
                f"session verdict divergence {note} copy {index}: "
                f"{label}={result.verdict} ({result.reason}) "
                f"reference={reference}"
            )
            if result.verdict is CecVerdict.NOT_EQUIVALENT:
                assert_counterexample_distinguishes(
                    base, copy, result.counterexample,
                    f"({label} session {note})",
                )


class TestBundledC17:
    @pytest.fixture(scope="class")
    def c17(self):
        return map_network(read_blif(data_path("c17.blif")))

    def test_equivalent_copy(self, c17):
        assert_scratch_identical(c17, fingerprint_copy(c17), "(c17 copy)")

    def test_mutants(self, c17):
        for mutant in mutated_variants(c17, 6, seed=3):
            assert_scratch_identical(c17, mutant, "(c17 mutant)")

    def test_session_engine(self, c17):
        copies = [fingerprint_copy(c17)] + mutated_variants(c17, 3, seed=4)
        assert_session_identical(c17, copies, "(c17)")


class TestRandomCircuits:
    @pytest.mark.parametrize("seed", range(4))
    def test_equivalent_copies(self, seed):
        base = small_circuit(seed)
        assert_scratch_identical(
            base, fingerprint_copy(base), f"(seed {seed})"
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_mutants(self, seed):
        base = small_circuit(seed + 50)
        for mutant in mutated_variants(base, 2, seed=seed):
            assert_scratch_identical(base, mutant, f"(mutant seed {seed})")

    def test_session_engine(self):
        base = small_circuit(9, n_gates=120, n_inputs=14)
        copies = [fingerprint_copy(base)] + mutated_variants(base, 2, seed=9)
        assert_session_identical(base, copies, "(random)")


@pytest.mark.differential
@pytest.mark.timeout(900)
class TestBenchmarkSuite:
    """Scratch differential over the bundled small suite; session
    differential over k2.

    The per-test cap is raised because the reference deliberately solves
    full, unswept scratch miters."""

    @pytest.mark.parametrize("name", SMALL_SUITE)
    def test_scratch_copy_and_mutant(self, name):
        base = build_benchmark(name)
        assert_scratch_identical(
            base, fingerprint_copy(base), f"(benchmark {name})"
        )
        for mutant in mutated_variants(base, 1, seed=1):
            assert_scratch_identical(base, mutant, f"({name} mutant)")

    def test_k2_session(self):
        base = build_benchmark("k2")
        copies = [fingerprint_copy(base)] + mutated_variants(base, 2, seed=2)
        assert_session_identical(base, copies, "(k2)")
