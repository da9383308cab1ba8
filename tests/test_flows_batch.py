"""Tests for the parallel multi-copy batch flow (``repro.flows.batch``)."""

from __future__ import annotations

import pytest

from repro.api import batch
from repro.bench import RandomLogicSpec, generate
from repro.budget import Budget
from repro.flows import BatchError, LadderConfig, select_values
from repro.netlist import Circuit


@pytest.fixture(scope="module")
def wide_base() -> Circuit:
    """18 inputs: too wide for the exhaustive tier, so the batch exercises
    the incremental SAT path."""
    return generate(
        RandomLogicSpec(name="batchbase", n_inputs=18, n_outputs=10, n_gates=200, seed=5)
    )


class TestSelectValues:
    def test_distinct_and_deterministic(self):
        values = select_values(10_000, 16, seed=3)
        assert len(values) == len(set(values)) == 16
        assert values == select_values(10_000, 16, seed=3)
        assert values == sorted(values)

    def test_huge_space(self):
        """Fingerprint spaces beyond ssize_t must still sample."""
        values = select_values(1 << 200, 8, seed=0)
        assert len(set(values)) == 8
        assert all(0 <= v < (1 << 200) for v in values)

    def test_capacity_too_small(self):
        with pytest.raises(BatchError, match="capacity"):
            select_values(3, 4)

    def test_no_copies(self):
        with pytest.raises(BatchError):
            select_values(10, 0)


class TestSerialBatch:
    def test_all_copies_verified(self, wide_base):
        result = batch(wide_base, n_copies=4, jobs=1, seed=1)
        assert result.n_copies == 4
        assert len(result.records) == 4
        assert result.n_equivalent == 4
        assert result.n_mismatch == 0
        assert result.n_proven == 4
        assert result.copies_per_sec > 0
        values = [r.value for r in result.records]
        assert values == sorted(values)
        assert len(set(values)) == 4
        assert all(r.tier == "sat-cec" for r in result.records)
        assert all(r.n_modifications > 0 for r in result.records)

    def test_overheads_recorded(self, wide_base):
        result = batch(
            wide_base, n_copies=2, jobs=1, seed=2, measure_overheads=True
        )
        for record in result.records:
            assert record.area_overhead is not None
            assert record.area_overhead >= 0.0
            assert record.delay_overhead is not None
            assert record.power_overhead is not None

    def test_as_dict_roundtrips_json(self, wide_base):
        import json

        result = batch(wide_base, n_copies=2, jobs=1, seed=0)
        payload = json.loads(json.dumps(result.as_dict()))
        assert payload["n_copies"] == 2
        assert len(payload["records"]) == 2
        assert payload["n_equivalent"] == 2

    def test_summary_mentions_throughput(self, wide_base):
        result = batch(wide_base, n_copies=2, jobs=1, seed=0)
        assert "copies/s" in result.summary()
        assert "2 equivalent" in result.summary()


class TestParallelBatch:
    def test_jobs2_matches_serial(self, wide_base):
        serial = batch(wide_base, n_copies=4, jobs=1, seed=7)
        parallel = batch(wide_base, n_copies=4, jobs=2, seed=7)
        assert [r.value for r in parallel.records] == [
            r.value for r in serial.records
        ]
        assert [(r.equivalent, r.proven, r.tier) for r in parallel.records] == [
            (r.equivalent, r.proven, r.tier) for r in serial.records
        ]
        assert parallel.jobs == 2

    def test_chunking_covers_all_values(self, wide_base):
        from repro.flows.batch import _chunked

        values = list(range(23))
        chunks = _chunked(values, jobs=3)
        assert [v for chunk in chunks for v in chunk] == values
        assert len(chunks) >= 3  # more chunks than workers -> stealing


class TestBudgetDegradation:
    def test_undecided_propagates_through_ladder(self, wide_base):
        """A starved SAT budget degrades every copy's verdict to the
        random tier — visible per record, never an exception."""
        config = LadderConfig(
            max_exhaustive_inputs=0,
            sat_budget=Budget(max_decisions=0),
            n_random_vectors=256,
        )
        result = batch(wide_base, n_copies=2, jobs=1, seed=1, ladder=config)
        assert result.n_degraded == 2
        for record in result.records:
            assert record.budget_hit
            assert not record.proven
            assert record.tier == "random-sim"
            assert record.equivalent  # probabilistic verdict, still positive

    def test_exhaustive_tier_still_fires_for_narrow_designs(self):
        narrow = generate(
            RandomLogicSpec(
                name="narrow", n_inputs=8, n_outputs=4, n_gates=60, seed=11
            )
        )
        result = batch(narrow, n_copies=2, jobs=1, seed=0)
        assert all(r.tier == "exhaustive-sim" for r in result.records)
        assert all(r.proven for r in result.records)


class TestBatchTelemetry:
    @pytest.fixture(autouse=True)
    def clean_telemetry(self):
        from repro import telemetry

        telemetry.disable()
        telemetry.get_tracer().reset()
        telemetry.get_registry().reset()
        yield
        telemetry.disable()
        telemetry.get_tracer().reset()
        telemetry.get_registry().reset()

    def test_worker_spans_round_trip_through_pool(self, wide_base):
        """Spans recorded inside ProcessPoolExecutor workers come back
        serialized with the results and graft into the parent's trace,
        stamped with the worker pid."""
        import os

        from repro import telemetry
        from repro.flows import FlowOptions, run_batch_flow

        with telemetry.enabled(trace=True, metrics=True):
            result = run_batch_flow(wide_base, 4, FlowOptions(jobs=2, seed=2))
        assert result.n_mismatch == 0
        roots = telemetry.get_tracer().drain()
        assert [r.name for r in roots] == ["batch.run"]
        nodes = list(roots[0].walk())
        copies = [n for n in nodes if n.name == "batch.copy"]
        assert len(copies) == 4
        parent_pid = os.getpid()
        workers = {n.attrs.get("worker") for n in copies}
        assert workers and parent_pid not in workers
        # Worker spans keep their children: the ladder ran inside them.
        assert any(
            child.name == "ladder.verify"
            for copy_span in copies
            for child in copy_span.children
        )
        # Worker metrics merged into the parent registry.
        counters = telemetry.get_registry().snapshot()["counters"]
        assert counters["batch.copies_verified"] == 4

    def test_serial_batch_spans_stay_local(self, wide_base):
        from repro import telemetry
        from repro.flows import FlowOptions, run_batch_flow

        with telemetry.enabled(trace=True, metrics=True):
            run_batch_flow(wide_base, 2, FlowOptions(jobs=1, seed=2))
        roots = telemetry.get_tracer().drain()
        nodes = list(roots[0].walk())
        assert sum(1 for n in nodes if n.name == "batch.copy") == 2
        assert all("worker" not in n.attrs for n in nodes)

    def test_disabled_batch_records_nothing(self, wide_base):
        from repro import telemetry
        from repro.flows import FlowOptions, run_batch_flow

        run_batch_flow(wide_base, 2, FlowOptions(jobs=1, seed=2))
        assert telemetry.get_tracer().finished == []
        assert telemetry.get_registry().snapshot()["counters"] == {}


class TestPoolBrokenSalvage:
    """A dying worker pool must not lose completed copies (satellite of the
    campaign engine: the batch flow degrades to serial instead)."""

    @pytest.fixture()
    def c17(self):
        from repro.api import load_circuit
        from repro.bench.data import data_path

        return load_circuit(data_path("c17.blif"))

    def test_crash_mid_batch_salvages_and_finishes(self, c17, monkeypatch):
        from repro.fingerprint import FingerprintCodec, find_locations
        from repro.flows import FlowOptions, run_batch_flow

        codec = FingerprintCodec(find_locations(c17))
        values = select_values(codec.combinations, 4, seed=0)
        monkeypatch.setenv("REPRO_BATCH_CRASH_VALUE", str(values[-1]))
        with pytest.warns(RuntimeWarning, match="pool died"):
            broken = run_batch_flow(c17, 4, FlowOptions(jobs=2, seed=0))
        assert broken.pool_broken is True
        assert sorted(r.value for r in broken.records) == sorted(values)
        assert broken.n_equivalent == 4
        assert broken.as_dict()["pool_broken"] is True

    def test_salvaged_verdicts_match_clean_run(self, c17, monkeypatch):
        from repro.flows import FlowOptions, run_batch_flow

        clean = run_batch_flow(c17, 4, FlowOptions(jobs=1, seed=0))
        assert clean.pool_broken is False
        monkeypatch.setenv(
            "REPRO_BATCH_CRASH_VALUE", str(clean.records[0].value)
        )
        with pytest.warns(RuntimeWarning):
            broken = run_batch_flow(c17, 4, FlowOptions(jobs=2, seed=0))
        key = lambda result: sorted(
            (r.value, r.equivalent, r.proven, r.tier) for r in result.records
        )
        assert key(broken) == key(clean)
