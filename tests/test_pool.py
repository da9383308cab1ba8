"""The shared worker pool (``repro.pool``): crash policy, rebuild, telemetry.

Batch, campaign and service all run on :class:`repro.pool.WorkerPool`,
so its crash policy is tested once, here, against real worker processes
killed through the ``REPRO_POOL_CRASH`` fault hook.  The callers' own
tests check only how each one records the policy's verdicts.
"""

from __future__ import annotations

import os
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro import telemetry
from repro.pool import (
    CRASH_ENV,
    CRASH_LIMIT,
    WorkerCrash,
    WorkerPool,
    convicted,
    hook_matches,
)


def _square(x):
    return x * x


def _sleep(seconds):
    time.sleep(seconds)
    return seconds


def _fail(message):
    raise ValueError(message)


def _traced(x):
    with telemetry.span("test.task", x=x):
        telemetry.count("test.tasks")
    return x


def drive(pool, tasks):
    """A minimal caller of the pool: its policy over a dict ledger.

    ``tasks`` are ``(task_id, fn, arg)``; returns the values by task id,
    the convicted task ids, and the ledger of charges.
    """
    ledger = {}
    queued = deque(tasks)
    inflight = {}
    values, guilty = {}, []
    while queued or inflight:
        window = 1 if pool.isolating else len(tasks)
        while queued and len(inflight) < window:
            task = queued.popleft()
            future = pool.submit(task[0], task[1], task[2], keys=(task[0],),
                                 attempt=ledger.get(task[0], 0))
            inflight[future] = task
        finished, _ = wait(inflight, timeout=60, return_when=FIRST_COMPLETED)
        assert finished, "pool made no progress in 60 s"
        for future in finished:
            task = inflight.pop(future)
            try:
                values[task[0]] = pool.collect(future)
            except WorkerCrash as crash:
                ledger[task[0]] = ledger.get(task[0], 0) + 1
                if pool.charge(crash, ledger[task[0]]):
                    guilty.append(task[0])
                else:
                    queued.append(task)
    return values, guilty, ledger


class TestPolicy:
    def test_first_crash_is_retried(self):
        assert not convicted(1)
        assert not convicted(1, suspect=False, alone=True)

    def test_suspect_dying_alone_is_convicted(self):
        assert convicted(1, suspect=True, alone=True)
        assert not convicted(1, suspect=True, alone=False)

    def test_second_charge_convicts_any_task(self):
        assert CRASH_LIMIT == 2
        assert convicted(CRASH_LIMIT)

    def test_hook_grammar(self, monkeypatch):
        monkeypatch.setenv(CRASH_ENV, "a:2, 7")
        assert hook_matches(CRASH_ENV, ("a",), 1)
        assert not hook_matches(CRASH_ENV, ("a",), 2)
        assert hook_matches(CRASH_ENV, (3, 7), 5)  # keys compare as strings
        assert not hook_matches(CRASH_ENV, ("b",), 0)
        monkeypatch.delenv(CRASH_ENV)
        assert not hook_matches(CRASH_ENV, ("a",), 0)


class TestCrashes:
    def test_first_crash_is_retried(self, monkeypatch):
        monkeypatch.setenv(CRASH_ENV, "a:1")
        with WorkerPool(2) as pool:
            values, guilty, ledger = drive(pool, [("a", _square, 3)])
            assert values == {"a": 9}
            assert guilty == [] and ledger == {"a": 1}
            assert pool.generation == 1
            assert not pool.isolating  # the suspect completed: cleared

    def test_suspect_dying_alone_is_convicted(self, monkeypatch):
        monkeypatch.setenv(CRASH_ENV, "a")
        with WorkerPool(2) as pool:
            values, guilty, ledger = drive(pool, [("a", _square, 3)])
            assert values == {} and guilty == ["a"]
            assert ledger == {"a": 2}
            assert pool.crashes == 2
            assert not pool.isolating

    def test_innocent_beside_an_always_crashing_task_completes(
            self, monkeypatch):
        monkeypatch.setenv(CRASH_ENV, "bad")
        with WorkerPool(2) as pool:
            values, guilty, ledger = drive(
                pool, [("slow", _sleep, 1.0), ("bad", _square, 2)]
            )
            assert values == {"slow": 1.0}
            assert guilty == ["bad"]
            # both were in flight at the first death; only "bad" died again
            assert ledger == {"slow": 1, "bad": 2}

    def test_task_refused_at_submit_is_not_charged(self, monkeypatch):
        class SecondSubmitBreaks(ProcessPoolExecutor):
            submits = 0

            def submit(self, fn, *args, **kwargs):
                SecondSubmitBreaks.submits += 1
                if SecondSubmitBreaks.submits == 2:
                    raise BrokenProcessPool("pool died before accepting")
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr("repro.pool.ProcessPoolExecutor",
                            SecondSubmitBreaks)
        with WorkerPool(2) as pool:
            first = pool.submit("first", _sleep, 0.5)
            refused = pool.submit("refused", _square, 4)
            assert pool.generation == 1
            # the refused task ran on the rebuilt pool, uncharged ...
            assert pool.collect(refused) == 16
            # ... while the task in flight on the dead pool is its casualty
            with pytest.raises(WorkerCrash) as excinfo:
                pool.collect(first)
            assert excinfo.value.alone is True


class TestPoolUnit:
    def test_rebuild_is_generation_guarded(self):
        pool = WorkerPool(workers=1)
        try:
            assert pool.rebuild(0) is True
            # A second casualty of the same break reports the same
            # generation: no double rebuild.
            assert pool.rebuild(0) is False
            assert pool.generation == 1
            assert pool.crashes == 1
        finally:
            pool.shutdown()

    def test_submit_after_shutdown_raises(self):
        pool = WorkerPool(workers=1)
        pool.shutdown()
        with pytest.raises(RuntimeError):
            pool.submit("x", _square, 1)

    def test_task_error_is_raised_not_charged(self):
        with WorkerPool(workers=1) as pool:
            future = pool.submit("f", _fail, "boom")
            with pytest.raises(ValueError, match="boom"):
                pool.collect(future)
            assert pool.generation == 0 and not pool.isolating

    def test_worker_count_validated(self):
        with pytest.raises(ValueError):
            WorkerPool(workers=0)


class TestTelemetry:
    def test_spans_and_metrics_round_trip_with_worker_pids(self):
        telemetry.get_tracer().reset()
        telemetry.get_registry().reset()
        try:
            with telemetry.enabled(trace=True, metrics=True):
                with WorkerPool(2) as pool:
                    futures = [pool.submit(i, _traced, i) for i in range(4)]
                    assert sorted(pool.collect(f) for f in futures) == [0, 1, 2, 3]
                    stats = pool.stats()
                counters = telemetry.get_registry().snapshot()["counters"]
            roots = telemetry.get_tracer().drain()
        finally:
            telemetry.get_tracer().reset()
            telemetry.get_registry().reset()
        assert counters["test.tasks"] == 4
        tasks = [root for root in roots if root.name == "test.task"]
        assert sorted(root.attrs["x"] for root in tasks) == [0, 1, 2, 3]
        pids = {root.attrs["worker"] for root in tasks}
        assert os.getpid() not in pids
        assert pids == {w["pid"] for w in stats["worker_processes"]}
        assert stats["jobs_done"] == 4
        assert sum(w["jobs"] for w in stats["worker_processes"]) == 4
        assert all(w["alive"] for w in stats["worker_processes"])
