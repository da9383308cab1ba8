"""A4 — Substrate throughput: simulator, STA, power, mapper, I/O.

Raw performance of the EDA substrates on the largest quick-suite circuit.
These numbers bound the cost of every experiment above (the reactive
heuristic is essentially repeated STA; verification is repeated
simulation).
"""

from __future__ import annotations

import pytest

from repro.analysis import measure
from repro.netlist import parse_blif, parse_verilog, write_blif, write_verilog
from repro.power import estimate_power
from repro.sim import Simulator, random_stimulus
from repro.techmap import map_network
from repro.timing import analyze


@pytest.fixture(scope="module")
def big(circuits, suite_names):
    name = max(suite_names, key=lambda n: circuits[n].n_gates)
    return name, circuits[name]


def test_simulator_throughput(benchmark, big):
    name, circuit = big
    stimulus = random_stimulus(circuit.inputs, 4096, seed=0)
    sim = Simulator(circuit)
    benchmark(sim.run_outputs, stimulus)
    benchmark.extra_info["circuit"] = name
    benchmark.extra_info["gate_evals_per_round"] = circuit.n_gates * 4096


def test_sta_throughput(benchmark, big):
    name, circuit = big
    report = benchmark(analyze, circuit)
    assert report.critical_delay > 0
    benchmark.extra_info["circuit"] = name


def test_power_estimation_throughput(benchmark, big):
    name, circuit = big
    report = benchmark(estimate_power, circuit)
    assert report.total > 0
    benchmark.extra_info["circuit"] = name


def test_measure_throughput(benchmark, big):
    name, circuit = big
    metrics = benchmark(measure, circuit)
    assert metrics.gates == circuit.n_gates


def test_verilog_roundtrip_throughput(benchmark, big):
    name, circuit = big

    def roundtrip():
        return parse_verilog(write_verilog(circuit))

    back = benchmark(roundtrip)
    assert back.n_gates == circuit.n_gates


def test_blif_map_throughput(benchmark, big):
    name, circuit = big

    def roundtrip():
        return map_network(parse_blif(write_blif(circuit)))

    mapped = benchmark.pedantic(roundtrip, rounds=2, iterations=1)
    assert mapped.n_gates > 0

