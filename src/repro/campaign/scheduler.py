"""The campaign scheduler: shard persisted jobs over workers, survive chaos.

:func:`run_campaign` is the engine behind ``repro-fp campaign run`` and
:func:`repro.api.campaign`.  Given a :class:`~repro.campaign.spec.CampaignSpec`
and a database path it:

1. binds the spec to the DB (first run stores it; later runs must match),
2. resolves and records the designs, expands the deterministic job grid,
   and inserts any job rows not already present (``INSERT OR IGNORE``),
3. sweeps ``running`` rows left behind by a killed scheduler back to
   ``pending`` and applies the ``--overwrite`` policy, and
4. executes everything still pending — serially or across a
   ``ProcessPoolExecutor`` — with per-job wall-clock timeouts, bounded
   retries with exponential backoff, and crash quarantine: a job whose
   worker dies (or which times out) :data:`quarantine_limit` times is
   marked ``faulty`` and never retried again, so one poisonous input
   cannot wedge an overnight sweep.

Because every completed job is committed to SQLite before the next one is
scheduled, *resume is free*: re-running the same spec against the same DB
executes only non-terminal jobs, a killed run continues where it stopped,
and a finished campaign is a no-op.  SIGINT/SIGTERM request a graceful
stop — in-flight results are flushed, unfinished jobs return to
``pending`` — so Ctrl-C loses at most the jobs that were mid-execution,
and not even those if their workers finish within the drain window.
"""

from __future__ import annotations

import signal
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Mapping, Optional, Tuple

from .. import telemetry
from ..flows.ladder import LadderConfig
from ..netlist.circuit import Circuit
from ..telemetry.metrics import safe_rate
from . import jobs as jobmod
from .spec import (
    CampaignError,
    CampaignSpec,
    expand_jobs,
    resolve_designs,
)
from .store import JobRow, JobStore, TERMINAL_STATES


@dataclass(frozen=True)
class CampaignOptions:
    """How a campaign executes (never part of job identity).

    Attributes:
        jobs: Worker processes (1 = serial, in-process).
        timeout_s: Per-job wall-clock cap (``None``/``<=0`` disables).
        retry_attempts: Re-executions allowed after a job's first failed
            attempt (DAVOS's ``retry_attempts``); exhausted -> ``failed``.
        quarantine_limit: Worker crashes / timeouts a job may cause
            before it is marked ``faulty`` and abandoned.
        backoff_s: Base of the exponential retry backoff
            (``backoff_s * 2**(attempt-1)`` seconds before re-dispatch).
        overwrite: Which terminal rows to re-open before running
            (``none`` / ``failed`` / ``all``).
        max_jobs: Execute at most this many job attempts this run, then
            stop gracefully (checkpointed interrupt; ``None`` = no cap).
        ladder: Verification-ladder tuning passed to job executors.
        measure_overheads: Record per-copy area/delay/power overheads
            (``fingerprint`` kind).
        drain_s: How long a graceful stop waits for in-flight workers
            before handing their jobs back to ``pending``.
    """

    jobs: int = 1
    timeout_s: Optional[float] = 300.0
    retry_attempts: int = 2
    quarantine_limit: int = 2
    backoff_s: float = 0.5
    overwrite: str = "none"
    max_jobs: Optional[int] = None
    ladder: Optional[LadderConfig] = None
    measure_overheads: bool = False
    drain_s: float = 30.0


@dataclass
class CampaignSummary:
    """What one scheduler invocation did and where the campaign stands."""

    db_path: str
    designs: List[str]
    counts: Dict[str, int] = field(default_factory=dict)
    n_jobs: int = 0
    inserted: int = 0
    executed: int = 0
    retried: int = 0
    timeouts: int = 0
    crashes: int = 0
    quarantined: int = 0
    wall_seconds: float = 0.0
    interrupted: bool = False
    jobs: int = 1

    @property
    def pending(self) -> int:
        return self.counts.get("pending", 0) + self.counts.get("running", 0)

    @property
    def complete(self) -> bool:
        """Every job row is in a terminal state."""
        return self.pending == 0

    @property
    def clean(self) -> bool:
        """No job ended ``failed`` or ``faulty``."""
        return not (self.counts.get("failed") or self.counts.get("faulty"))

    @property
    def jobs_per_sec(self) -> float:
        return safe_rate(self.executed, self.wall_seconds)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "db_path": self.db_path,
            "designs": self.designs,
            "counts": self.counts,
            "n_jobs": self.n_jobs,
            "inserted": self.inserted,
            "executed": self.executed,
            "retried": self.retried,
            "timeouts": self.timeouts,
            "crashes": self.crashes,
            "quarantined": self.quarantined,
            "wall_seconds": self.wall_seconds,
            "jobs_per_sec": self.jobs_per_sec,
            "interrupted": self.interrupted,
            "complete": self.complete,
            "clean": self.clean,
            "jobs": self.jobs,
        }

    def summary(self) -> str:
        states = ", ".join(
            f"{key}={value}" for key, value in sorted(self.counts.items())
        ) or "no jobs"
        lines = [
            f"campaign {self.db_path}: {self.n_jobs} jobs ({states})",
            f"this run: {self.executed} executed in {self.wall_seconds:.2f}s "
            f"({self.jobs_per_sec:.2f} jobs/s) over {self.jobs} worker(s), "
            f"{self.retried} retried, {self.timeouts} timed out, "
            f"{self.crashes} worker crashes, {self.quarantined} quarantined",
        ]
        if self.interrupted:
            lines.append(
                f"interrupted: {self.pending} job(s) still pending — "
                "re-run `campaign resume` to continue"
            )
        return "\n".join(lines)


class GracefulStop:
    """SIGINT/SIGTERM -> a cooperative stop flag (restored on exit).

    Handlers are only installed on the main thread (the signal module
    refuses elsewhere); tests and embedders can call :meth:`request`
    directly, or pass ``on_attempt`` hooks that do.
    """

    def __init__(self) -> None:
        self.requested = False
        self._previous: Dict[int, Any] = {}

    def request(self, *_args: object) -> None:
        self.requested = True

    def __enter__(self) -> "GracefulStop":
        if threading.current_thread() is threading.main_thread():
            for signum in (signal.SIGINT, signal.SIGTERM):
                try:
                    self._previous[signum] = signal.signal(signum, self.request)
                except (ValueError, OSError):  # pragma: no cover — exotic hosts
                    pass
        return self

    def __exit__(self, *exc_info: object) -> None:
        for signum, previous in self._previous.items():
            signal.signal(signum, previous)
        self._previous.clear()


def _backoff_delay(options: CampaignOptions, attempts: int) -> float:
    """Exponential backoff before re-dispatching attempt ``attempts + 1``."""
    if options.backoff_s <= 0:
        return 0.0
    return options.backoff_s * (2.0 ** max(0, attempts - 1))


def _payload(row: JobRow, attempt: int, options: CampaignOptions) -> Dict[str, Any]:
    return {
        "job_id": row.job_id,
        "design": row.design,
        "kind": row.kind,
        "params": row.params,
        "seed": row.seed,
        "attempt": attempt,
        "timeout_s": options.timeout_s,
    }


class _Run:
    """Mutable state for one scheduler invocation (shared by both modes)."""

    def __init__(self, store: JobStore, options: CampaignOptions,
                 summary: CampaignSummary, stop: GracefulStop) -> None:
        self.store = store
        self.options = options
        self.summary = summary
        self.stop = stop
        self.ready: Deque[JobRow] = deque()
        #: retry queue: (monotonic eligible-at, row)
        self.delayed: List[Tuple[float, JobRow]] = []
        #: job ids that were in flight when a worker pool died.  While any
        #: remain, the pooled loop runs one job at a time so the next
        #: crash identifies its culprit definitively (see _charge_crash).
        self.suspects: set = set()

    # -------------------------------------------------------------- #

    def budget_left(self) -> bool:
        if self.stop.requested:
            return False
        max_jobs = self.options.max_jobs
        return max_jobs is None or self.summary.executed < max_jobs

    def promote_delayed(self) -> None:
        now = time.monotonic()
        still: List[Tuple[float, JobRow]] = []
        for eligible_at, row in self.delayed:
            if eligible_at <= now:
                self.ready.append(row)
            else:
                still.append((eligible_at, row))
        self.delayed = still

    def requeue(self, row: JobRow, attempts: int, reason: str) -> None:
        """Hand a job back to pending and schedule its retry dispatch."""
        self.store.mark_pending([row.job_id])
        self.store.record_event(row.job_id, "retry", reason)
        self.summary.retried += 1
        telemetry.count("campaign.retries")
        delay = _backoff_delay(self.options, attempts)
        self.delayed.append((time.monotonic() + delay, row))

    def dispose(self, row: JobRow, attempts: int, result: Dict[str, Any]) -> None:
        """Fold one execution result into the store per the retry policy."""
        status = result["status"]
        if status == "done":
            self.store.record_result(
                row.job_id, "done",
                verdict=result["verdict"],
                seconds=result["seconds"],
                worker=result["pid"],
                cache=result.get("cache"),
            )
            telemetry.count("campaign.jobs_done")
            return
        if status == "timeout":
            self.summary.timeouts += 1
            telemetry.count("campaign.timeouts")
            crashes = self.store.record_crash(row.job_id)
            self.store.record_event(
                row.job_id, "timeout",
                f"attempt {attempts}: {result['error']}",
            )
            if crashes >= self.options.quarantine_limit:
                self.quarantine(row, result["error"], result["error_type"])
            else:
                self.requeue(row, attempts, f"timeout #{crashes}")
            return
        # status == "error"
        self.store.record_event(
            row.job_id, "error",
            f"attempt {attempts}: {result['error_type']}: {result['error']}",
        )
        if attempts <= self.options.retry_attempts:
            self.requeue(row, attempts, f"error: {result['error_type']}")
        else:
            self.store.record_result(
                row.job_id, "failed",
                error=result["error"],
                error_type=result["error_type"],
                seconds=result.get("seconds"),
                worker=result.get("pid"),
            )
            telemetry.count("campaign.jobs_failed")

    def quarantine(self, row: JobRow, error: Optional[str],
                   error_type: Optional[str]) -> None:
        self.suspects.discard(row.job_id)
        self.store.record_result(
            row.job_id, "faulty",
            error=error or "quarantined after repeated crashes",
            error_type=error_type or "WorkerCrash",
        )
        self.store.record_event(row.job_id, "quarantine", error or "")
        self.summary.quarantined += 1
        telemetry.count("campaign.quarantined")


def _run_serial(run: _Run, designs: Mapping[str, Circuit],
                spec: CampaignSpec) -> None:
    """In-process execution: one job at a time, stop-aware backoff sleeps."""
    jobmod.set_context(
        dict(designs), spec.kind, spec.seed,
        run.options.ladder, run.options.measure_overheads,
    )
    while True:
        run.promote_delayed()
        if not run.ready and run.delayed and run.budget_left():
            # Sleep toward the earliest retry, in small stop-aware steps.
            wake = min(eligible for eligible, _ in run.delayed)
            while time.monotonic() < wake and not run.stop.requested:
                time.sleep(min(0.05, max(0.0, wake - time.monotonic())))
            continue
        if not run.ready or not run.budget_left():
            break
        row = run.ready.popleft()
        run.store.mark_running([row.job_id])
        attempts = run.store.record_attempt(row.job_id)
        result = jobmod.execute_payload(
            _payload(row, attempts - 1, run.options)
        )
        run.summary.executed += 1
        telemetry.count("campaign.jobs_executed")
        run.dispose(row, attempts, result)
    # Anything still queued goes back to pending for the next resume.
    leftover = [row.job_id for row in run.ready] + [
        row.job_id for _, row in run.delayed
    ]
    if leftover:
        run.store.mark_pending(leftover)


def _adopt_worker_telemetry(result: Dict[str, Any]) -> None:
    spans = result.get("spans")
    if spans:
        telemetry.get_tracer().adopt(spans)
    metrics = result.get("metrics")
    if metrics:
        telemetry.get_registry().merge(metrics)


def _run_pooled(run: _Run, designs: Mapping[str, Circuit],
                spec: CampaignSpec) -> None:
    """Pool execution: windowed submission, crash handling, graceful drain."""
    options = run.options
    # Fresh clones drop per-version caches before pickling into workers.
    payload_designs = {
        name: circuit.clone(name) for name, circuit in designs.items()
    }
    flags = (telemetry.tracing_enabled(), telemetry.metrics_enabled())

    def make_pool() -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=options.jobs,
            initializer=jobmod.init_worker,
            initargs=(
                payload_designs, spec.kind, spec.seed,
                options.ladder, options.measure_overheads, flags,
            ),
        )

    pool = make_pool()
    inflight: Dict[Future, Tuple[JobRow, int]] = {}
    draining_since: Optional[float] = None

    def replace_broken_pool(alone: bool) -> ProcessPoolExecutor:
        # The pool is dead: every in-flight future raises the same
        # error.  Each in-flight job is charged one crash (see
        # _charge_crash for when that convicts it).
        for in_row, _attempts in inflight.values():
            _charge_crash(run, in_row, alone=alone)
        inflight.clear()
        pool.shutdown(wait=False, cancel_futures=True)
        return make_pool()

    try:
        while True:
            run.promote_delayed()
            # Submission window: keep ~2 queued tasks per worker so idle
            # workers always have something without hoarding the queue.
            # While crash suspects exist the window collapses to one job
            # at a time, so the next pool death names its culprit.
            window = 1 if run.suspects else options.jobs * 2
            while (run.ready and run.budget_left()
                   and len(inflight) < window):
                row = run.ready.popleft()
                run.store.mark_running([row.job_id])
                attempts = run.store.record_attempt(row.job_id)
                try:
                    future = pool.submit(
                        jobmod.execute_payload_pooled,
                        _payload(row, attempts - 1, options),
                    )
                except BrokenProcessPool:
                    # The pool died before accepting this job — it never
                    # ran, so hand it straight back (no crash charge).
                    run.store.mark_pending([row.job_id])
                    run.ready.appendleft(row)
                    pool = replace_broken_pool(alone=len(inflight) == 1)
                    continue
                inflight[future] = (row, attempts)
                run.summary.executed += 1
                telemetry.count("campaign.jobs_executed")
            if not inflight:
                if run.ready and run.budget_left():
                    continue
                if run.delayed and run.budget_left():
                    wake = min(eligible for eligible, _ in run.delayed)
                    while time.monotonic() < wake and not run.stop.requested:
                        time.sleep(
                            min(0.05, max(0.0, wake - time.monotonic()))
                        )
                    continue
                break
            if run.stop.requested and draining_since is None:
                draining_since = time.monotonic()
            if (draining_since is not None
                    and time.monotonic() - draining_since > options.drain_s):
                # Drain window exhausted: abandon in-flight work; their
                # rows return to pending (attempt already counted).
                run.store.mark_pending(
                    [row.job_id for row, _ in inflight.values()]
                )
                inflight.clear()
                break
            done, _ = wait(
                set(inflight), timeout=0.1, return_when=FIRST_COMPLETED
            )
            broken = False
            alone = len(inflight) == 1
            for future in done:
                row, attempts = inflight.pop(future)
                try:
                    result = future.result()
                except BrokenProcessPool:
                    broken = True
                    _charge_crash(run, row, alone=alone)
                    continue
                _adopt_worker_telemetry(result)
                run.suspects.discard(row.job_id)  # completed -> exonerated
                run.dispose(row, attempts, result)
            if broken:
                pool = replace_broken_pool(alone=alone)
        leftover = [row.job_id for row in run.ready] + [
            row.job_id for _, row in run.delayed
        ]
        if leftover:
            run.store.mark_pending(leftover)
    finally:
        pool.shutdown(wait=False, cancel_futures=True)


def _charge_crash(run: _Run, row: JobRow, alone: bool = False) -> None:
    """One worker-death charge against an in-flight job.

    A crashed job becomes a *suspect*: it is requeued and the loop drops
    to one-job-at-a-time until each suspect either completes
    (exonerated) or crashes again.  ``alone`` means this job was the
    *only* one in flight when the pool died; a suspect that dies alone
    is the culprit definitively and is quarantined at once, whatever its
    crash count.  A first crash never convicts on sight, even alone, so
    it is retried the same way whether the death surfaced at
    ``submit`` or at ``result()``; ``quarantine_limit`` crashes
    quarantine any job.  An innocent job repeatedly co-resident with a
    crasher is never quarantined.
    """
    suspect = row.job_id in run.suspects
    run.summary.crashes += 1
    telemetry.count("campaign.crashes")
    crashes = run.store.record_crash(row.job_id)
    run.store.record_event(
        row.job_id, "crash",
        f"worker died (#{crashes})" + (" [isolated]" if alone else ""),
    )
    if (alone and suspect) or crashes >= run.options.quarantine_limit:
        run.quarantine(row, "worker process died while executing this job",
                       "WorkerCrash")
    else:
        run.suspects.add(row.job_id)
        run.store.mark_pending([row.job_id])
        run.delayed.append(
            (time.monotonic() + _backoff_delay(run.options, crashes), row)
        )
        run.summary.retried += 1
        telemetry.count("campaign.retries")


def run_campaign(
    spec: CampaignSpec,
    db_path: str,
    options: Optional[CampaignOptions] = None,
    inline_designs: Optional[Mapping[str, Circuit]] = None,
) -> CampaignSummary:
    """Execute (or continue) a campaign spec against a result database.

    ``inline_designs`` carries in-memory circuits for ``db:<name>``
    sources — the API facade serializes them into the DB so later resumes
    can reload them without the caller's process.
    """
    options = options if options is not None else CampaignOptions()
    if options.jobs < 1:
        raise CampaignError("campaign needs at least one worker",
                            stage="campaign")
    start = time.perf_counter()
    with telemetry.span(
        "campaign.run", db=db_path, kind=spec.kind, workers=options.jobs
    ) as campaign_span, JobStore(db_path) as store:
        store.bind_spec(spec)
        if inline_designs:
            from ..netlist.verilog import write_verilog

            for name, circuit in inline_designs.items():
                store.store_design(name, f"db:{name}", write_verilog(circuit))
        resolved = resolve_designs(spec, store.design_verilog())
        for name, entry in resolved.items():
            if not entry.source.startswith("db:"):
                store.store_design(name, entry.source)
        designs = {name: entry.circuit for name, entry in resolved.items()}

        expanded = expand_jobs(spec, designs)
        inserted = store.insert_jobs(expanded)
        swept = store.sweep_stale_running()
        if swept:
            telemetry.count("campaign.stale_swept", swept)
        store.apply_overwrite(options.overwrite)

        summary = CampaignSummary(
            db_path=db_path,
            designs=list(designs),
            n_jobs=len(expanded),
            inserted=inserted,
            jobs=options.jobs,
        )
        stop = GracefulStop()
        run = _Run(store, options, summary, stop)
        run.ready.extend(store.pending_jobs())
        with stop:
            if options.jobs <= 1:
                _run_serial(run, designs, spec)
            else:
                _run_pooled(run, designs, spec)
        summary.counts = store.counts()
        summary.interrupted = stop.requested or (
            not summary.complete and options.max_jobs is not None
            and summary.executed >= options.max_jobs
        )
        summary.wall_seconds = time.perf_counter() - start
        store.flush()
        campaign_span.set(
            executed=summary.executed,
            interrupted=summary.interrupted,
            **{f"n_{key}": value for key, value in summary.counts.items()},
        )
        telemetry.observe("campaign.wall_seconds", summary.wall_seconds)
    return summary


def resume_campaign(
    db_path: str, options: Optional[CampaignOptions] = None
) -> CampaignSummary:
    """Continue a campaign from its stored spec (no spec re-entry needed)."""
    with JobStore(db_path) as store:
        spec = store.load_spec()
    if spec is None:
        raise CampaignError(
            f"{db_path!r} holds no campaign spec — run `campaign run` first",
            stage="campaign",
        )
    return run_campaign(spec, db_path, options)


def campaign_status(db_path: str) -> Dict[str, Any]:
    """A cheap read-only snapshot of a campaign DB (safe during a run)."""
    with JobStore(db_path) as store:
        spec = store.load_spec()
        counts = store.counts()
        n_jobs = sum(counts.values())
        terminal = sum(counts.get(state, 0) for state in TERMINAL_STATES)
        return {
            "db_path": db_path,
            "spec": None if spec is None else spec.to_json(),
            "designs": store.design_sources(),
            "counts": counts,
            "n_jobs": n_jobs,
            "terminal": terminal,
            "complete": n_jobs > 0 and terminal == n_jobs,
            "events": store.event_counts(),
        }


__all__ = [
    "CampaignOptions",
    "CampaignSummary",
    "GracefulStop",
    "campaign_status",
    "resume_campaign",
    "run_campaign",
]
