"""The four workloads: oneshot, batch, modifier and service.

Each workload is a closed loop driven from this one process with at most
two threads or connections.  ``setup_once`` is one repetition of the
workload's set-up; ``run_pass`` runs the fixed work once on freshly built
circuits and returns a :class:`PassResult`.  Oracles run inside
``run_pass`` but outside every timed region.

Every time a workload reports is in reference seconds: the wall interval
converted by :class:`perfbench.hostclock.HostClock` at the host speed
sampled during it.  Per-layer figures stay in wall seconds.
"""

from __future__ import annotations

import importlib.util
import os
import queue as queue_mod
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List

from perfbench import oracle

#: Conflict budget for every verification.  The deadline is only a safety
#: cap: it is far above the slowest budgeted call, so verdicts depend on
#: conflicts alone and repeat from run to run.
MAX_CONFLICTS = 15_000
SAFETY_DEADLINE_S = 600.0

#: C1355, C1908 and vda are left out for run length: C1355 and C1908 prove
#: like C499 and dalu, and vda burns its whole budget like k2.
ONESHOT_DESIGNS = ("C432", "C880", "C499", "t481", "dalu", "k2")
BATCH_DESIGN = "C432"
#: 200 copies a pass, issued in eight calls: the pool hands out about eight
#: chunks a call, so the wall time of one call jumps by a chunk with the
#: order workers finish in; many smaller calls average that out.
BATCH_CALLS = 8
BATCH_COPIES = 25
BATCH_JOBS = 2
MODIFIER_DESIGNS = (
    "C432", "C499", "C880", "C1355", "C1908", "C3540", "C6288",
    "des", "k2", "t481", "i10", "i8", "dalu", "vda",
)
#: Left out of constrain_s for run length only (54 s and 27 s each).
CONSTRAIN_SKIPPED = ("C6288", "des")
DELAY_CONSTRAINT = 0.05
SERVICE_ROUNDS = 12
SERVICE_CLIENTS = 2
SERVICE_WORKERS = 2
TENANTS = ("tenant-a", "tenant-b", "tenant-c", "tenant-d")
#: Per-layer metric -> the program's counter in each service job envelope:
#: the work done inside the server's workers.
ENVELOPE_COUNTERS = {
    "odcwin.candidates": "odcwin.candidates",
    "solver.conflicts": "sat.conflicts",
    "solver.propagations": "sat.propagations",
    "ir.compiles": "ir.compile",
}


def ladder_options(**extra: Any):
    from repro.api import FlowOptions, LadderConfig
    from repro.budget import Budget

    budget = Budget(max_conflicts=MAX_CONFLICTS, deadline_s=SAFETY_DEADLINE_S)
    return FlowOptions(ladder=LadderConfig(sat_budget=budget), **extra)


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 1]) of a non-empty list."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def build(name: str):
    """A freshly built suite circuit (no derived-structure cache carried over)."""
    from repro import bench

    return bench.build_benchmark(name)


@dataclass
class PassResult:
    """One pass of a workload's fixed work."""

    work_s: float
    ops_s: List[float]
    attempted: int
    failures: List[str] = field(default_factory=list)
    #: Counts that must repeat exactly between passes of one invocation.
    counts: Dict[str, Any] = field(default_factory=dict)
    #: The workload's own end-to-end figures, by their flow names.
    flow: Dict[str, float] = field(default_factory=dict)
    #: Per-layer figures measured outside the tracer (pool, store, service).
    layers: Dict[str, float] = field(default_factory=dict)


class Workload:
    designs: tuple = ()
    #: True when the work runs in several processes at once (a pool or a
    #: server); the host clock then samples every CPU in turn instead of
    #: the CPU this process runs on.
    parallel = False

    def __init__(self, seed: int, root: Path, scratch: Path, clock) -> None:
        self.seed = seed
        self.root = root
        self.scratch = scratch
        self.clock = clock

    def setup_once(self) -> float:
        """Imports (fresh interpreter) plus building the workload's designs."""
        code = (
            "import sys; sys.path.insert(0, 'src'); "
            "import repro.api, repro.bench, repro.service, repro.fingerprint"
        )
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code], cwd=self.root)
        followed = self.clock.follow(proc.pid)
        try:
            if proc.wait() != 0:
                raise RuntimeError("importing the program failed")
        finally:
            self.clock.follow(followed)
        for name in self.designs:
            build(name)
        return self.clock.span(start, time.perf_counter())

    def run_pass(self) -> PassResult:
        raise NotImplementedError


class Oneshot(Workload):
    """One designer: api.fingerprint then api.verify on a mutant, per design."""

    designs = ONESHOT_DESIGNS

    def run_pass(self) -> PassResult:
        from repro import api

        failures: List[str] = []
        counts: Dict[str, Any] = {}
        fingerprint_s = refute_s = 0.0
        ops: List[float] = []
        proven = 0
        for index, name in enumerate(self.designs):
            base = build(name)
            start = time.perf_counter()
            result = api.fingerprint(base, ladder_options(seed=self.seed))
            elapsed = self.clock.span(start, time.perf_counter())
            fingerprint_s += elapsed
            ops.append(elapsed)
            report = result.verification
            copy = result.copy.circuit
            if report.equivalent and report.proven:
                proven += 1
            if not report.equivalent:
                failures.append(f"{name}: fingerprinted copy reported MISMATCH")
            elif oracle.differs(base, copy, self.seed) is not None:
                failures.append(f"{name}: oracle refutes the equivalent verdict")

            mutant = oracle.kind_swap_mutant(copy, self.seed * 1009 + index)
            start = time.perf_counter()
            refuted = api.verify(base, mutant, ladder_options())
            refute_s += self.clock.span(start, time.perf_counter())
            if refuted.equivalent:
                failures.append(f"{name}: mutant reported equivalent, oracle says MISMATCH")
            elif not oracle.replays(base, mutant, refuted.counterexample):
                failures.append(f"{name}: mutant counterexample does not replay in sim")

            stats, mstats = report.sat_stats, refuted.sat_stats
            counts[name] = {
                "tier": report.tier.value,
                "proven": report.proven,
                "conflicts": stats.conflicts if stats else 0,
                "propagations": stats.propagations if stats else 0,
                "refute_tier": refuted.tier.value,
                "refute_conflicts": mstats.conflicts if mstats else 0,
                "refute_propagations": mstats.propagations if mstats else 0,
            }
        n = len(self.designs)
        return PassResult(
            work_s=fingerprint_s + refute_s,
            ops_s=ops,
            attempted=2 * n,
            failures=failures,
            counts=counts,
            flow={
                "fingerprint_s": fingerprint_s,
                "refute_s": refute_s,
                "proven_share": proven / n,
            },
        )


class Batch(Workload):
    """One vendor: eight api.batch calls of 25 copies each across a 2-process pool."""

    designs = (BATCH_DESIGN,)
    parallel = True

    def run_pass(self) -> PassResult:
        from repro import api

        failures: List[str] = []
        records = []
        seconds: List[float] = []
        work = raw_wall = raw_busy = 0.0
        for call in range(BATCH_CALLS):
            seed = self.seed * BATCH_CALLS + call
            base = build(BATCH_DESIGN)
            opts = ladder_options(seed=seed, jobs=BATCH_JOBS)
            start = time.perf_counter()
            result = api.batch(base, BATCH_COPIES, opts)
            end = time.perf_counter()
            speed = self.clock.speed(start, end)
            work += (end - start) * speed
            raw_wall += end - start
            # A copy's seconds are timed in a pool worker: they take the
            # mean speed of the whole call.
            seconds += [r.seconds * speed for r in result.records]
            raw_busy += sum(r.seconds for r in result.records)
            records += result.records
            failures += _check_batch(result, seed)

        n = len(records)
        proven = sum(1 for r in records if r.proven and r.equivalent)
        return PassResult(
            work_s=work,
            ops_s=seconds,
            attempted=BATCH_CALLS * BATCH_COPIES,
            failures=failures,
            counts={
                "copies": [
                    (r.value % 1_000_000_007, r.n_modifications, r.tier, r.proven)
                    for r in records
                ],
            },
            flow={
                "copies_per_s": n / work,
                "copy_p50_s": percentile(seconds, 0.5),
                "copy_p90_s": percentile(seconds, 0.9),
                "proven_share": proven / n,
            },
            layers={
                "pool.busy_share": raw_busy / (raw_wall * BATCH_JOBS),
            },
        )


def _check_batch(result, seed: int) -> List[str]:
    """Oracle checks of one api.batch call: its values, verdicts and copies."""
    from repro import api
    from repro.fingerprint import FingerprintCodec, embed
    from repro.flows.batch import select_values

    failures: List[str] = []
    with oracle.quiet():
        golden = build(BATCH_DESIGN)
        catalog = api.locate(golden)
        codec = FingerprintCodec(catalog)
        expected = select_values(codec.combinations, BATCH_COPIES, seed=seed)
        if sorted(r.value for r in result.records) != expected:
            failures.append(f"batch seed {seed} issued a different set of fingerprint values")
        for record in result.records:
            copy = embed(golden, catalog, codec.encode(record.value))
            if not record.equivalent:
                failures.append(f"copy {record.value}: reported MISMATCH")
            elif oracle.differs(golden, copy.circuit, seed) is not None:
                failures.append(f"copy {record.value}: oracle refutes the equivalent verdict")
            if record.n_modifications != copy.n_active:
                failures.append(f"copy {record.value}: modification count differs")
    if result.pool_broken:
        failures.append(f"batch seed {seed}: worker pool broke")
    return failures


class Modifier(Workload):
    """The paper's circuit modifier (locate, embed, measure) and Table III pruning."""

    designs = MODIFIER_DESIGNS

    def run_pass(self) -> PassResult:
        from repro import api
        from repro.analysis import measure
        from repro.fingerprint import capacity, embed, extract, full_assignment
        from repro.fingerprint import reactive_delay_constrain

        failures: List[str] = []
        counts: Dict[str, Any] = {}
        modify_s = constrain_s = 0.0
        ops: List[float] = []
        # The seed picks the design order; the pruning heuristic keeps its
        # default seed, so every run does the same pruning work.
        order = list(self.designs)
        random.Random(self.seed).shuffle(order)
        for name in order:
            base = build(name)
            start = time.perf_counter()
            catalog = api.locate(base)
            copy = embed(base, catalog, full_assignment(base, catalog))
            measure(base)
            measure(copy.circuit)
            modify = self.clock.span(start, time.perf_counter())
            modify_s += modify

            if not _round_trips(extract, copy, base, catalog):
                failures.append(f"{name}: embedded copy does not round-trip through extract")
            entry = {
                "locations": catalog.n_locations,
                "bits": round(capacity(catalog).bits, 9),
                "modifications": copy.n_active,
            }
            constrain = 0.0
            if name not in CONSTRAIN_SKIPPED:
                start = time.perf_counter()
                pruned = reactive_delay_constrain(copy, DELAY_CONSTRAINT)
                constrain = self.clock.span(start, time.perf_counter())
                constrain_s += constrain
                entry["kept"] = pruned.kept
                if not _round_trips(extract, copy, base, catalog):
                    failures.append(f"{name}: pruned copy does not round-trip through extract")
            ops.append(modify + constrain)
            counts[name] = entry
        return PassResult(
            work_s=modify_s + constrain_s,
            ops_s=ops,
            attempted=2 * len(self.designs) - len(CONSTRAIN_SKIPPED),
            failures=failures,
            counts=counts,
            flow={"modify_s": modify_s, "constrain_s": constrain_s},
        )


def _round_trips(extract, copy, base, catalog) -> bool:
    with oracle.quiet():
        read = extract(copy.circuit, base, catalog)
    return read.clean and read.assignment == copy.assignment()


class ServerProcess:
    """``repro-fp serve --workers 2`` as a child process over a fresh store."""

    def __init__(self, root: Path, store_dir: Path) -> None:
        self.store_dir = store_dir
        shutil.rmtree(store_dir, ignore_errors=True)
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        env.pop("REPRO_STORE_DIR", None)
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--store", str(store_dir),
                "--port", "0",
                "--workers", str(SERVICE_WORKERS),
                "--quota-max-pending", "64",
            ],
            cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True,
        )
        self.port = self._read_port()

    def _read_port(self) -> int:
        marker = "http://"
        for line in self.proc.stdout:
            if marker in line:
                address = line.split(marker, 1)[1].split()[0]
                return int(address.rsplit(":", 1)[1])
        self.stop()
        raise RuntimeError("service exited before reporting its port")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        shutil.rmtree(self.store_dir, ignore_errors=True)


def _load_digest(root: Path):
    """``stable_verdict_digest`` from the repository's service load harness."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_service_load", root / "scripts" / "service_load.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module.stable_verdict_digest


def service_jobs(root: Path, seed: int) -> List[Dict[str, Any]]:
    """The service_load.py round mix, salted by the seed (cold on a fresh store).

    A round is 4 c17 fingerprints (one per tenant), 2 C432 fingerprints,
    a k2 locate and a des locate.
    """
    from repro.netlist.verilog import write_verilog

    c17 = (root / "src" / "repro" / "bench" / "data" / "c17.blif").read_text()

    def salted_blif(salt: str) -> str:
        return c17.replace(".model c17", f".model c17_{salt}", 1)

    def salted_verilog(name: str, salt: str) -> str:
        circuit = build(name)
        circuit.name = f"{circuit.name}_{salt}"
        return write_verilog(circuit)

    options = {"seed": seed}
    jobs: List[Dict[str, Any]] = []
    for r in range(SERVICE_ROUNDS):
        salt = f"s{seed}r{r}"
        for i, tenant in enumerate(TENANTS):
            jobs.append({"label": f"c17-fp-{salt}t{i}", "command": "fingerprint",
                         "tenant": tenant, "design": salted_blif(f"{salt}t{i}"),
                         "format": "blif", "options": dict(options)})
        for part, tenant in (("a", TENANTS[0]), ("b", TENANTS[1])):
            jobs.append({"label": f"C432-fp-{salt}{part}", "command": "fingerprint",
                         "tenant": tenant, "design": salted_verilog("C432", salt + part),
                         "format": "verilog", "options": dict(options)})
        for name, tenant in (("k2", TENANTS[2]), ("des", TENANTS[3])):
            jobs.append({"label": f"{name}-locate-{salt}", "command": "locate",
                         "tenant": tenant, "design": salted_verilog(name, salt),
                         "format": "verilog"})
    return jobs


class Service(Workload):
    """Two client connections against a 2-worker service; cold then warm submissions."""

    designs = ("C432", "k2", "des")
    parallel = True

    def setup_once(self) -> float:
        """Server start (a fresh interpreter, so imports included) plus design builds."""
        start = time.perf_counter()
        server = ServerProcess(self.root, self.scratch / "store-setup")
        for name in self.designs:
            build(name)
        seconds = self.clock.span(start, time.perf_counter())
        server.stop()
        return seconds

    def run_pass(self) -> PassResult:
        from repro.service import ServiceClient, ServiceHttpError

        digest = _load_digest(self.root)
        jobs = service_jobs(self.root, self.seed)
        # Every submission once cold, then once more unchanged (warm).
        work: "queue_mod.Queue[tuple]" = queue_mod.Queue()
        for phase in ("cold", "warm"):
            for job in jobs:
                work.put((phase, job))
        records: List[Dict[str, Any]] = []
        lock = threading.Lock()
        retries = [0]

        server = ServerProcess(self.root, self.scratch / "store")

        def drive() -> None:
            client = ServiceClient(port=server.port, timeout=120.0, retry_429=0)
            while True:
                try:
                    phase, job = work.get_nowait()
                except queue_mod.Empty:
                    return
                payload = {k: v for k, v in job.items() if k not in ("label", "command")}
                record = {"label": job["label"], "command": job["command"], "phase": phase}
                start = time.perf_counter()
                try:
                    for attempt in range(10):
                        try:
                            accepted = client.submit(job["command"], **payload)
                            break
                        except ServiceHttpError as exc:
                            if exc.status != 429 or attempt == 9:
                                raise
                            with lock:
                                retries[0] += 1
                            time.sleep(0.05 * 2 ** attempt)
                    status = _await(client, accepted["job_id"])
                    record["span"] = (start, time.perf_counter())
                    record["status"] = status
                    record["envelope"] = status.get("envelope")
                except (ServiceHttpError, TimeoutError, OSError) as exc:
                    record["span"] = (start, time.perf_counter())
                    record["error"] = str(exc)[:200]
                with lock:
                    records.append(record)

        threads = [threading.Thread(target=drive) for _ in range(SERVICE_CLIENTS)]
        start = time.perf_counter()
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            wall = self.clock.span(start, time.perf_counter())
        finally:
            server.stop()
        for record in records:
            record["latency_s"] = record["span"][1] - record["span"][0]
            record["ref_latency_s"] = self.clock.span(*record["span"])
        return self._result(records, 2 * len(jobs), wall, retries[0], digest)

    def _result(self, records, submitted, wall, retries, digest) -> PassResult:
        failures: List[str] = []
        if len(records) != submitted:
            failures.append(f"{submitted - len(records)} submissions never completed")
        digests: Dict[str, Dict[str, str]] = {}
        hits = misses = evictions = 0
        waits, runs, overheads = [], [], []
        inside = dict.fromkeys(ENVELOPE_COUNTERS, 0.0)
        for record in records:
            envelope = record.get("envelope")
            if not envelope or not envelope.get("ok"):
                failures.append(f"{record['label']} ({record['phase']}): "
                                f"{record.get('error', 'job failed')}")
                continue
            result = envelope.get("result") or {}
            verification = result.get("verification")
            if verification is not None and not verification.get("equivalent"):
                failures.append(f"{record['label']}: fingerprinted copy reported MISMATCH")
            digests.setdefault(record["label"], {})[record["phase"]] = digest(envelope)
            counters = ((envelope.get("telemetry") or {}).get("metrics") or {}).get("counters", {})
            for name, program_name in ENVELOPE_COUNTERS.items():
                inside[name] += counters.get(program_name, 0.0)
            cache = envelope.get("cache") or {}
            hits += int(cache.get("hits", 0))
            misses += int(cache.get("misses", 0))
            evictions += sum(v for k, v in (cache.get("counters") or {}).items()
                             if k.startswith("evict") and k.count(".") == 1)
            status = record["status"]
            created, started, finished = status["created"], status["started"], status["finished"]
            waits.append(started - created)
            runs.append(finished - started)
            overheads.append(record["latency_s"] - (finished - created))
        for label, pair in sorted(digests.items()):
            if pair.get("cold") != pair.get("warm"):
                failures.append(f"{label}: warm and cold verdict digests differ")
        latencies = [r["ref_latency_s"] for r in records if r.get("envelope")]
        return PassResult(
            work_s=wall,
            ops_s=latencies or [wall],
            attempted=submitted,
            failures=failures,
            counts={"digests": digests},
            flow={
                "jobs_per_s": len(latencies) / wall,
                "job_p50_s": percentile(latencies, 0.5) if latencies else 0.0,
                "job_p90_s": percentile(latencies, 0.9) if latencies else 0.0,
            },
            layers={
                "store.hits": hits,
                "store.misses": misses,
                "store.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
                "store.evictions": evictions,
                "queue.wait_p50_s": percentile(waits, 0.5) if waits else 0.0,
                "queue.wait_p90_s": percentile(waits, 0.9) if waits else 0.0,
                "job.run_p50_s": percentile(runs, 0.5) if runs else 0.0,
                "http.overhead_p50_s": percentile(overheads, 0.5) if overheads else 0.0,
                "service.retries_429": retries,
                **inside,
            },
        )


def _await(client, job_id: str, timeout: float = 120.0) -> Dict[str, Any]:
    """The job's final status and envelope, pushed by the server-sent event stream."""
    for event in client.events(job_id, timeout=timeout):
        if event.get("event") == "result":
            return event.get("data") or {}
    raise TimeoutError(f"event stream of job {job_id} ended without a result")


WORKLOADS = {
    "oneshot": Oneshot,
    "batch": Batch,
    "modifier": Modifier,
    "service": Service,
}
