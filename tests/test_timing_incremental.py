"""Incremental timing engine against full STA.

Two oracles:

* every edit of a seeded random apply/remove sequence is followed by a
  fresh :func:`analyze` and a direct per-gate arrival pass over the
  circuit; the engine's critical delay, arrivals and critical path must
  match exactly (``==``, not approximately);
* the pruning heuristics, which run on the engine, must make exactly the
  decisions of a straightforward loop that re-runs full STA after every
  trial edit (kept below as the reference).
"""

from __future__ import annotations

import functools
import random
from typing import Dict, List, Optional, Tuple

import pytest

from repro import telemetry
from repro.bench import RandomLogicSpec, build_benchmark, generate
from repro.fingerprint import (
    FingerprintedCircuit,
    embed,
    find_locations,
    full_assignment,
    proactive_delay_constrain,
    reactive_delay_constrain,
)
from repro.fingerprint.constraints import _candidates_on_critical_path
from repro.fingerprint.embed import representative_slots
from repro.netlist import Circuit
from repro.timing import (
    LIBRARY_DELAY,
    UNIT_DELAY,
    WIRE_DELAY,
    TimingEngine,
    analyze,
    critical_delay,
)

MODELS = {"unit": UNIT_DELAY, "library": LIBRARY_DELAY, "wire": WIRE_DELAY}
EDITS = 30


@functools.lru_cache(maxsize=None)
def _design(name: str):
    """(base, catalog) of a suite design or, for ``rl<seed>``, random logic."""
    if name.startswith("rl"):
        spec = RandomLogicSpec(
            name=f"sta_{name}", n_inputs=10, n_outputs=4, n_gates=90, seed=int(name[2:])
        )
        base = generate(spec)
    else:
        base = build_benchmark(name)
    return base, find_locations(base)


def reference_arrival(circuit, model) -> Dict[str, float]:
    arrival = {net: 0.0 for net in circuit.inputs}
    for gate in circuit.topological_order():
        delay = model.gate_delay(circuit, gate)
        if gate.inputs:
            arrival[gate.name] = delay + max(arrival[n] for n in gate.inputs)
        else:
            arrival[gate.name] = delay
    return arrival


def assert_matches_full_sta(engine: TimingEngine, circuit, model) -> None:
    fresh = analyze(circuit, model)
    got = engine.report()
    assert engine.critical_delay() == fresh.critical_delay
    assert got.arrival == fresh.arrival
    assert got.arrival == reference_arrival(circuit, model)
    assert got.gate_delays == fresh.gate_delays
    assert got.required == fresh.required
    assert engine.critical_path() == fresh.critical_path


def _random_edit(fp: FingerprintedCircuit, rng: random.Random) -> List[str]:
    target = rng.choice(sorted(s.target for s in fp.catalog.slots()))
    slot = fp.slot(target)
    if target in fp.applied and rng.random() < 0.5:
        return fp.remove(target)
    return fp.apply(target, rng.randrange(len(slot.variants) + 1))


@pytest.mark.parametrize("model_name", sorted(MODELS))
@pytest.mark.parametrize("design", ["C432", "C880", "i8", "rl1", "rl2", "rl3"])
def test_random_edits_match_full_sta(design, model_name):
    model = MODELS[model_name]
    base, catalog = _design(design)
    rng = random.Random(f"{design}/{model_name}")
    fp = embed(base, catalog, full_assignment(base, catalog))
    for target in sorted(fp.applied):
        if rng.random() < 0.5:
            fp.remove(target)
    engine = TimingEngine(fp.circuit, model)
    assert_matches_full_sta(engine, fp.circuit, model)
    for _ in range(EDITS):
        engine.update(_random_edit(fp, rng))
        assert_matches_full_sta(engine, fp.circuit, model)


@pytest.mark.parametrize("design", ["C432", "rl4"])
def test_superset_order_needs_no_rebuild(design):
    """Positions from the maximal embedding hold for any subset of it."""
    base, catalog = _design(design)
    chosen = [(s.target, 1) for s in representative_slots(base, catalog)]
    maximal = FingerprintedCircuit(base, catalog)
    for target, index in chosen:
        maximal.apply(target, index)
    order = [gate.name for gate in maximal.circuit.topological_order()]
    fp = FingerprintedCircuit(base, catalog)
    rng = random.Random(design)
    with telemetry.enabled(trace=False, metrics=True):
        telemetry.get_registry().reset()
        engine = TimingEngine(fp.circuit, WIRE_DELAY, order=order)
        for _ in range(EDITS):
            target, index = rng.choice(chosen)
            touched = fp.remove(target) if target in fp.applied else fp.apply(target, index)
            engine.update(touched)
            assert_matches_full_sta(engine, fp.circuit, WIRE_DELAY)
        counters = telemetry.get_registry().snapshot()["counters"]
    # One engine build; the fresh analyses above build their own engines.
    assert counters["timing.builds"] - counters["timing.analyses"] == 1


def _fresh_inverter_edit(base, catalog) -> Tuple[str, int]:
    """A slot variant whose application mints a new inverter."""
    for slot in catalog.slots():
        for index in range(1, len(slot.variants) + 1):
            if len(FingerprintedCircuit(base, catalog).apply(slot.target, index)) > 1:
                return slot.target, index
    raise AssertionError("no variant mints an inverter")


def test_edit_outside_layout_rebuilds():
    base, catalog = _design("C432")
    target, index = _fresh_inverter_edit(base, catalog)
    fp = FingerprintedCircuit(base, catalog)
    with telemetry.enabled(trace=False, metrics=True):
        telemetry.get_registry().reset()
        # An order that cannot place the gates is ignored at build.
        engine = TimingEngine(fp.circuit, WIRE_DELAY, order=[])
        engine.update(fp.apply(target, index))  # new inverter: no position
        builds = telemetry.get_registry().snapshot()["counters"]["timing.builds"]
    assert builds == 2
    assert_matches_full_sta(engine, fp.circuit, WIRE_DELAY)


def test_several_edits_in_one_update():
    base, catalog = _design("C432")
    target, index = _fresh_inverter_edit(base, catalog)
    fp = FingerprintedCircuit(base, catalog)
    engine = TimingEngine(fp.circuit, WIRE_DELAY)
    engine.update(fp.apply(target, index))
    # The inverter is released, minted again and released again.
    touched = fp.remove(target) + fp.apply(target, index) + fp.remove(target)
    engine.update(touched)
    assert_matches_full_sta(engine, fp.circuit, WIRE_DELAY)


def test_repeated_net_keeps_circuit_load_order():
    """A net touched twice lands after everything touched in between.

    Load sums follow the circuit's consumer order, and float addition is
    not associative: here ``s`` drives x, n, t (loads 1.24, 1.0, 1.24),
    and (1.24 + 1.0) + 1.24 != (1.24 + 1.24) + 1.0.
    """
    c = Circuit("reorder")
    c.add_inputs(["a", "p", "q"])
    c.add_gate("s", "BUF", ["a"])
    c.add_gate("x", "AND", ["s", "p", "q"])
    c.add_gate("t", "AND", ["s", "p"])
    c.add_gate("f", "OR", ["x", "t"])
    c.add_output("f")
    engine = TimingEngine(c, LIBRARY_DELAY, order=["s", "x", "n", "t", "f"])
    c.replace_gate("t", "AND", ["s", "q"])
    c.add_gate("n", "INV", ["s"])
    c.replace_gate("t", "AND", ["s", "q", "n"])
    engine.update(["t", "n", "t"])
    assert engine.fanouts("s") == c.fanouts("s") == ["x", "n", "t"]
    assert_matches_full_sta(engine, c, LIBRARY_DELAY)


def test_touched_nets_in_mutation_order():
    base, catalog = _design("C432")
    target, index = _fresh_inverter_edit(base, catalog)
    fp = FingerprintedCircuit(base, catalog)
    applied = fp.apply(target, index)
    assert applied[-1] == target
    created = applied[:-1]
    assert all(fp.circuit.gate(net).kind == "INV" for net in created)
    removed = fp.remove(target)
    assert removed == [target] + created
    assert not any(fp.circuit.has_net(net) for net in created)
    assert fp.apply(target, 0) == []
    # Re-applying over an active variant reports the removal first.
    fp.apply(target, index)
    assert fp.apply(target, index) == removed + applied


# ---------------------------------------------------------------------- #
# pruning decisions against a full-STA reference loop
# ---------------------------------------------------------------------- #


def reference_reactive(fp, max_delay_overhead, seed=0, tolerance=1e-9):
    rng = random.Random(seed)
    budget = critical_delay(fp.base) * (1.0 + max_delay_overhead)
    steps: List[Tuple[str, str]] = []
    current = critical_delay(fp.circuit)
    while fp.n_active > 0 and current > budget + tolerance:
        critical_nets = set(analyze(fp.circuit).critical_path)
        best_target: Optional[str] = None
        best_delay = current
        for target in _candidates_on_critical_path(fp, critical_nets):
            variant_index = fp.applied[target]
            fp.remove(target)
            trial = critical_delay(fp.circuit)
            if trial < best_delay - tolerance:
                best_delay = trial
                best_target = target
            fp.apply(target, variant_index)
        if best_target is not None:
            fp.remove(best_target)
            steps.append(("greedy", best_target))
            current = best_delay
        else:
            target = rng.choice(sorted(fp.applied))
            fp.remove(target)
            steps.append(("random", target))
            current = critical_delay(fp.circuit)
    return steps, fp.n_active, current


def reference_proactive(base, catalog, max_delay_overhead):
    report = analyze(base)
    budget = report.critical_delay * (1.0 + max_delay_overhead)
    slots = sorted(
        representative_slots(base, catalog),
        key=lambda s: (-report.slack(s.target), s.target),
    )
    fp = FingerprintedCircuit(base, catalog)
    steps: List[Tuple[str, str]] = []
    for slot in slots:
        fp.apply(slot.target, 1)
        if critical_delay(fp.circuit) > budget:
            fp.remove(slot.target)
            steps.append(("rejected", slot.target))
        else:
            steps.append(("accepted", slot.target))
    return steps, fp, critical_delay(fp.circuit)


@pytest.mark.parametrize("design", ["C432", "C499", "C1355", "i8"])
def test_reactive_decisions_identical(design):
    base, catalog = _design(design)
    assignment = full_assignment(base, catalog)
    reference = embed(base, catalog, assignment)
    steps, kept, final = reference_reactive(reference, 0.05)
    copy = embed(base, catalog, assignment)
    result = reactive_delay_constrain(copy, 0.05)
    assert result.steps == steps
    assert result.kept == kept
    assert result.final_delay == final
    assert copy.assignment() == reference.assignment()
    assert result.final_delay == critical_delay(copy.circuit)


@pytest.mark.parametrize("design", ["C432", "C880"])
def test_proactive_decisions_identical(design):
    base, catalog = _design(design)
    steps, reference, final = reference_proactive(base, catalog, 0.05)
    result = proactive_delay_constrain(base, catalog, 0.05)
    assert result.steps == steps
    assert result.kept == reference.n_active
    assert result.final_delay == final
    assert result.fingerprinted.assignment() == reference.assignment()


def test_pruning_does_no_per_trial_recompile_or_full_analysis():
    base, catalog = _design("C1355")
    copy = embed(base, catalog, full_assignment(base, catalog))
    with telemetry.enabled(trace=False, metrics=True):
        telemetry.get_registry().reset()
        result = reactive_delay_constrain(copy, 0.05)
        counters = telemetry.get_registry().snapshot()["counters"]
    assert len(result.steps) > 10
    assert counters.get("ir.compile", 0) == 0
    assert counters.get("timing.analyses", 0) <= 1  # the baseline only
    assert counters.get("timing.builds", 0) <= 2  # baseline + the engine
    # Every trial is a remove and a re-apply, both incremental.
    assert counters["timing.updates"] > 2 * len(result.steps)
