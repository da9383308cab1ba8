"""One worker pool for every pooled flow: batch, campaign and service.

:class:`WorkerPool` is the package's one process pool (it wraps the
standard library's process executor).  It owns, once each:

* **The worker bootstrap.**  Under the fork start method a worker
  inherits the parent's live tracer stack, metrics registry, tracer
  listeners and active artifact store.  :func:`_bootstrap` clears the
  tracer and registry, re-enables telemetry with the parent's flags,
  activates the store (over a shared disk root when one is given,
  otherwise from the environment) and only then calls the caller's
  setup function.
* **The telemetry return path.**  Every task runs inside
  :func:`_run_task`, which drains the worker's spans (stamped
  ``worker=<pid>``) and metrics and returns them with the value;
  :meth:`WorkerPool.collect` grafts them into the parent's tracer and
  registry and updates the per-pid liveness table.
* **The fault hook.**  ``REPRO_POOL_CRASH=key[:n],...`` makes a worker
  exit with ``os._exit(3)``, as a native crash would, when one of a
  task's keys matches and the task's attempt ordinal is below ``n``
  (no ``:n`` means always).  Batch keys a task by its copy values, the
  campaign by its job id, the service by its submitted design string.
* **The rebuild.**  A worker death breaks the whole executor; every
  task in flight sees it.  :meth:`WorkerPool.rebuild` swaps in a fresh
  executor once per death (later observers of the same generation do
  nothing) and records which tasks were in flight.
* **The crash policy** (:func:`convicted` plus :meth:`WorkerPool.charge`):

  - a task in flight when the pool dies is charged one crash, becomes a
    suspect and is retried;
  - while any suspect remains the caller runs one task at a time
    (:attr:`WorkerPool.isolating`), so the next death names its culprit;
  - a suspect that dies alone, or any task at its :data:`CRASH_LIMIT`-th
    charge, is convicted;
  - a task that an already-dead pool refuses at ``submit`` never ran and
    is not charged (:meth:`WorkerPool.submit` resubmits it);
  - a suspect that completes is cleared;
  - a timeout, where a caller has one, is charged like a crash.

  Each caller keeps the crash count in its own ledger: the campaign in
  its SQLite job row (so the count survives resumes), the service in
  ``ServiceJob.attempts``, batch in a local dict.

The pool is driven from one thread (the caller's loop); it holds no lock.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, Hashable, Iterable, Optional, Set, Tuple

from . import telemetry

#: Charges (worker deaths or timeouts) that convict any task.
CRASH_LIMIT = 2

#: The fault-hook environment variable (see the module docstring).
CRASH_ENV = "REPRO_POOL_CRASH"


def hook_matches(env_var: str, keys: Iterable[Any], attempt: int) -> bool:
    """Parse a ``key[:n],...`` fault-hook env var and test a task's keys.

    An entry fires when its key equals ``str(k)`` for one of ``keys``
    and ``attempt`` is below ``n`` (an entry without ``:n`` always fires).
    """
    raw = os.environ.get(env_var)
    if not raw:
        return False
    names = {str(key) for key in keys}
    for entry in raw.split(","):
        target, _, bound = entry.strip().partition(":")
        if target and target in names and (not bound or attempt < int(bound)):
            return True
    return False


def convicted(crashes: int, suspect: bool = False, alone: bool = False) -> bool:
    """The crash policy: is a task charged its ``crashes``-th crash convicted?

    ``suspect``: the task already crashed once and has not completed
    since.  ``alone``: it was the only task in flight when the pool died.
    """
    return (suspect and alone) or crashes >= CRASH_LIMIT


class WorkerCrash(Exception):
    """The pool died while this task was in flight.

    Raised by :meth:`WorkerPool.collect`; the caller charges the task in
    its ledger and passes the new count to :meth:`WorkerPool.charge`.
    """

    def __init__(self, task_id: Hashable, alone: bool) -> None:
        super().__init__(f"worker process died while running task {task_id!r}")
        self.task_id = task_id
        self.alone = alone


@dataclass
class WorkerInfo:
    """Liveness record for one observed worker process."""

    pid: int
    jobs: int = 0
    last_seen: Optional[float] = None
    generation: int = 0

    def as_dict(self, current_generation: int) -> Dict[str, Any]:
        return {
            "pid": self.pid,
            "jobs": self.jobs,
            "last_seen": self.last_seen,
            # A worker from a previous pool generation is gone by
            # construction: its pool was shut down when it broke.
            "alive": self.generation == current_generation,
        }


def _bootstrap(
    telemetry_flags: Tuple[bool, bool],
    store_root: Optional[str],
    memory_entries: int,
    setup: Optional[Callable[..., None]],
    setup_args: Tuple[Any, ...],
) -> None:
    """Worker initializer: reset fork-inherited state, then opt back in.

    Cleared first, or worker spans nest under the parent's open span (a
    ghost nobody drains) and inherited counters ride back as the
    worker's own.
    """
    trace_on, metrics_on = telemetry_flags
    telemetry.disable()
    telemetry.get_tracer().reset()
    telemetry.get_registry().reset()
    if trace_on or metrics_on:
        telemetry.enable(trace=trace_on, metrics=metrics_on)
    from .store.core import activate_store, ensure_default_store

    if store_root is not None:
        activate_store(root=store_root, memory_entries=memory_entries)
    else:
        ensure_default_store()
    if setup is not None:
        setup(*setup_args)


def _run_task(
    fn: Callable[..., Any], args: Tuple[Any, ...], keys: Tuple[Any, ...], attempt: int
) -> Tuple[Any, int, list, Dict[str, Any]]:
    """Worker side of one task: ``(value, pid, spans, metrics)``."""
    if hook_matches(CRASH_ENV, keys, attempt):
        os._exit(3)
    value = fn(*args)
    pid = os.getpid()
    spans = telemetry.drain_spans() if telemetry.tracing_enabled() else []
    for payload in spans:
        payload.setdefault("attrs", {})["worker"] = pid
    metrics = telemetry.drain_metrics() if telemetry.metrics_enabled() else {}
    return value, pid, spans, metrics


class WorkerPool:
    """N worker processes with one bootstrap, crash policy and telemetry path.

    Args:
        workers: Worker process count (>= 1).
        setup: Called in each worker after the bootstrap, with
            ``setup_args`` (per-process state such as a warm CEC session).
        store_root: Shared disk-tier directory every worker activates its
            artifact store on; ``None`` activates a store only when
            ``REPRO_STORE_DIR`` asks for one.
        memory_entries: Per-worker memory-tier bound with ``store_root``.
    """

    def __init__(
        self,
        workers: int,
        setup: Optional[Callable[..., None]] = None,
        setup_args: Tuple[Any, ...] = (),
        store_root: Optional[str] = None,
        memory_entries: int = 128,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.store_root = store_root
        self._initargs = (
            (telemetry.tracing_enabled(), telemetry.metrics_enabled()),
            store_root,
            memory_entries,
            setup,
            setup_args,
        )
        self.generation = 0
        #: Pool deaths so far (one rebuild each).
        self.crashes = 0
        self._pool = self._make_pool()
        self._inflight: Dict[Future, Tuple[Hashable, int]] = {}
        #: dead generation -> the tasks that were in flight when it died
        self._casualties: Dict[int, FrozenSet[Hashable]] = {}
        self._suspects: Set[Hashable] = set()
        self._workers: Dict[int, WorkerInfo] = {}
        self._jobs_done = 0

    def _make_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.workers, initializer=_bootstrap, initargs=self._initargs
        )

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    def shutdown(self, wait: bool = True) -> None:
        """Cancel queued tasks and stop the workers (``wait``: join them)."""
        self._pool.shutdown(wait=wait, cancel_futures=True)

    @property
    def isolating(self) -> bool:
        """True while a crash suspect remains: run one task at a time."""
        return bool(self._suspects)

    def submit(
        self,
        task_id: Hashable,
        fn: Callable[..., Any],
        *args: Any,
        keys: Iterable[Any] = (),
        attempt: int = 0,
    ) -> Future:
        """Dispatch ``fn(*args)`` (picklable) as task ``task_id``.

        ``keys`` and ``attempt`` feed the fault hook.  A pool found dead
        here is rebuilt and the task resubmitted uncharged; the tasks in
        flight on the dead pool are its casualties.
        """
        task = (fn, args, tuple(keys), attempt)
        try:
            future = self._pool.submit(_run_task, *task)
        except BrokenProcessPool:
            self.rebuild(self.generation)
            future = self._pool.submit(_run_task, *task)
        self._inflight[future] = (task_id, self.generation)
        return future

    def rebuild(self, seen_generation: int) -> bool:
        """Replace a broken pool, at most once per death.

        Every observer of one death reports the generation it saw; only
        the first report swaps the pool.  Tasks of that generation that
        had not run to their end become its casualties.  Returns True
        when this call did the rebuild.
        """
        if seen_generation != self.generation:
            return False
        self._casualties[seen_generation] = frozenset(
            task_id
            for future, (task_id, generation) in self._inflight.items()
            if generation == seen_generation and not _completed(future)
        )
        self.generation += 1
        self.crashes += 1
        broken, self._pool = self._pool, self._make_pool()
        telemetry.count("pool.rebuilds")
        # The broken pool runs nothing again; reap it without waiting.
        broken.shutdown(wait=False, cancel_futures=True)
        return True

    def collect(self, future: Future) -> Any:
        """The value of a finished task, with its telemetry adopted.

        Raises :class:`WorkerCrash` when the pool died under the task,
        and whatever the task itself raised.
        """
        task_id, generation = self._inflight.pop(future)
        if task_id not in self._casualties.get(generation, ()):
            if not isinstance(future.exception(), BrokenProcessPool):
                # The task completed (a task's own error re-raises here).
                self._suspects.discard(task_id)
                value, pid, spans, metrics = future.result()
                if spans:
                    telemetry.get_tracer().adopt(spans)
                if metrics:
                    telemetry.get_registry().merge(metrics)
                info = self._workers.get(pid)
                if info is None:
                    info = self._workers[pid] = WorkerInfo(pid=pid)
                info.jobs += 1
                info.last_seen = time.time()
                info.generation = generation
                self._jobs_done += 1
                return value
            self.rebuild(generation)
        raise WorkerCrash(task_id, alone=len(self._casualties[generation]) == 1)

    def charge(self, crash: WorkerCrash, crashes: int) -> bool:
        """Apply the crash policy to a casualty charged its ``crashes``-th crash.

        Returns True when the task is convicted; otherwise it is a
        suspect and the caller retries it.
        """
        guilty = convicted(crashes, crash.task_id in self._suspects, crash.alone)
        if guilty:
            self._suspects.discard(crash.task_id)
        else:
            self._suspects.add(crash.task_id)
        return guilty

    def stats(self) -> Dict[str, Any]:
        """Pool state for the service's ``/v1/stats`` ``executor`` section."""
        return {
            "backend": "process",
            "workers": self.workers,
            "generation": self.generation,
            "crashes": self.crashes,
            "jobs_done": self._jobs_done,
            "store_root": self.store_root,
            "worker_processes": [
                info.as_dict(self.generation)
                for info in sorted(self._workers.values(), key=lambda w: w.pid)
            ],
        }


def _completed(future: Future) -> bool:
    """True when the task ran to its end: a value or the task's own error."""
    return (
        future.done()
        and not future.cancelled()
        and not isinstance(future.exception(), BrokenProcessPool)
    )


__all__ = [
    "CRASH_ENV",
    "CRASH_LIMIT",
    "WorkerCrash",
    "WorkerInfo",
    "WorkerPool",
    "convicted",
    "hook_matches",
]
