"""End-to-end and per-layer benchmark of the fingerprinting system.

Run from the repository root::

    python3 perfbench/run.py --workload oneshot --seed 1 --seconds 10 --trace 0

``--trace 0`` times the workload's fixed work (repeated in whole passes
until ``--seconds`` have been measured) and reports the end-to-end
metrics; ``--trace 1`` runs one untraced pass and one pass with the layer
tracer installed and reports the per-layer metrics, including the tracing
overhead (traced minus untraced timed work).  End-to-end times are in
reference seconds: wall time converted at the host speed sampled while it
ran (see ``perfbench/hostclock.py``).  Every verdict is checked
against a simulation oracle outside the timed regions; a wrong verdict
makes the run exit non-zero.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; a fuller
record (host, gaps, exact-repeat counts, spans and layer self times) is
written to ``.perfbench/`` in the working directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

ROOT = Path.cwd()
SETUP_REPEATS = 3
#: A seed not used while the benchmark was tuned, kept for later claims.
HELD_OUT_SEED = 9001
HASH_SEED = "0"

END_TO_END_UNITS = {
    "setup_s": "s",
    "work_s": "s",
    "op_p90_s": "s",
    "peak_rss_mb": "MB",
}

#: The workloads' own end-to-end figures, printed on every run and reported as the
#: ``flow.*`` per-layer metrics of a traced run (measured untraced).
FLOW_UNITS = {
    "fingerprint_s": "s",
    "refute_s": "s",
    "proven_share": "ratio",
    "copies_per_s": "1/s",
    "copy_p50_s": "s",
    "copy_p90_s": "s",
    "modify_s": "s",
    "constrain_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_p90_s": "s",
    "failed_share": "ratio",
}

LAYER_UNITS = {
    "bench.build_s": "s",
    "ir.compile_s": "s",
    "ir.gates": "count",
    "ir.compiles": "count",
    "locate.busy_s": "s",
    "odcwin.candidates": "count",
    "locate.locations": "count",
    "locate.useful_ratio": "ratio",
    "embed.busy_s": "s",
    "embed.modifications": "count",
    "constrain.busy_s": "s",
    "constrain.removals": "count",
    "sta.calls": "count",
    "sta.busy_s": "s",
    "measure.busy_s": "s",
    "power.busy_s": "s",
    "ladder.busy_s.structural": "s",
    "ladder.busy_s.exhaustive_sim": "s",
    "ladder.busy_s.sat_cec": "s",
    "ladder.busy_s.random_sim": "s",
    "ladder.tier_count.structural": "count",
    "ladder.tier_count.exhaustive_sim": "count",
    "ladder.tier_count.sat_cec": "count",
    "ladder.tier_count.random_sim": "count",
    "ladder.budget_hits": "count",
    "encode.busy_s": "s",
    "encode.clauses": "count",
    "encode.vars": "count",
    "preprocess.busy_s": "s",
    "preprocess.eliminated_vars": "count",
    "preprocess.clauses_out_ratio": "ratio",
    "solver.conflicts": "count",
    "solver.decisions": "count",
    "solver.propagations": "count",
    "solver.propagations_per_s": "1/s",
    "solver.solve_s": "s",
    "solver.restarts": "count",
    "session.busy_s": "s",
    "session.structural_ratio": "ratio",
    "session.sat_calls": "count",
    "session.sim_disproofs": "count",
    "session.reuse_ratio": "ratio",
    "sim.busy_s": "s",
    "sim.vectors": "count",
    "pool.busy_share": "ratio",
    "pool.spawn_s": "s",
    "store.hits": "count",
    "store.misses": "count",
    "store.hit_rate": "ratio",
    "store.evictions": "count",
    "queue.wait_p50_s": "s",
    "queue.wait_p90_s": "s",
    "job.run_p50_s": "s",
    "http.overhead_p50_s": "s",
    "service.retries_429": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

#: Everything a traced run reports: the layers plus the workloads' own figures.
PER_LAYER_UNITS = {**LAYER_UNITS, **{"flow." + name: unit for name, unit in FLOW_UNITS.items()}}

GAPS = (
    "every verification uses a 15000-conflict SAT budget (deadline 600 s, never reached) "
    "instead of the default 30 s wall-clock deadline, so verdicts repeat across runs",
    "oneshot: C1355, C1908 and vda are left out for run length; C1355 and C1908 prove "
    "like C499 and dalu, vda burns its budget like k2",
    "modifier: C6288 and des are left out of constrain_s for run length (about 54 s and 27 s)",
    "batch: C432 instead of C499, so the copies fit the run length; eight api.batch calls "
    "of 25 copies instead of one of 100, since one call's wall time jumps by a pool chunk",
    "oneshot: mutants that differ from the copy on fewer than 5% of the oracle's vectors "
    "are skipped; refuting such a near-redundant mutant is a deep SAT search whose cost "
    "swings with the seed",
    "times are reference seconds (perfbench/hostclock.py): wall time converted at the host "
    "speed sampled during it; per-layer busy and self times stay in wall seconds",
    "service: layers inside the server process are seen only through the job envelopes "
    "(store, odcwin, solver and IR counters) and job timestamps; the other layer metrics read 0",
    "service: fingerprint jobs use the server's default ladder; c17 and C432 prove "
    "far inside any budget",
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def host_details() -> Dict[str, Any]:
    import numpy

    rev = "unknown"
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, check=True,
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_rev": rev,
    }


def layer_metrics(times, counters, histograms, plain, traced, flow):
    """The per-layer metric dict of a traced run (``plain``/``traced``: its two passes)."""

    def busy(layer: str) -> float:
        return times.get(layer, {}).get("busy_s", 0.0)

    def count(name: str) -> float:
        return counters.get("perf." + name, 0.0)

    clauses_in = count("preprocess.clauses_in")
    outputs = count("session.outputs_total")
    gates = count("session.gates_reused") + count("session.gates_encoded")
    solve_s = count("solver.solve_s")
    init = histograms.get("perf.pool.init_s") or {}
    metrics = {
        "bench.build_s": busy("bench"),
        "ir.compile_s": busy("ir"),
        "ir.gates": count("ir.gates"),
        "ir.compiles": times.get("ir", {}).get("calls", 0),
        "locate.busy_s": busy("locate"),
        "odcwin.candidates": counters.get("odcwin.candidates", 0.0),
        "locate.locations": count("locate.locations"),
        "locate.useful_ratio": _ratio(
            count("locate.locations"), counters.get("odcwin.candidates", 0.0)
        ),
        "embed.busy_s": busy("embed"),
        "embed.modifications": count("embed.modifications"),
        "constrain.busy_s": busy("constrain"),
        "constrain.removals": count("constrain.removals"),
        "sta.calls": count("sta.calls"),
        "sta.busy_s": busy("sta"),
        "measure.busy_s": busy("measure"),
        "power.busy_s": busy("power"),
        "ladder.busy_s.structural": busy("ladder.structural"),
        "ladder.busy_s.exhaustive_sim": busy("ladder.exhaustive_sim"),
        "ladder.busy_s.sat_cec": busy("ladder.sat_cec") + busy("session"),
        "ladder.busy_s.random_sim": busy("ladder.random_sim"),
        "ladder.budget_hits": count("ladder.budget_hits"),
        "encode.busy_s": busy("encode"),
        "encode.clauses": count("encode.clauses"),
        "encode.vars": count("encode.vars"),
        "preprocess.busy_s": busy("preprocess"),
        "preprocess.eliminated_vars": count("preprocess.eliminated_vars"),
        "preprocess.clauses_out_ratio": _ratio(count("preprocess.clauses_out"), clauses_in),
        "solver.conflicts": count("solver.conflicts"),
        "solver.decisions": count("solver.decisions"),
        "solver.propagations": count("solver.propagations"),
        "solver.propagations_per_s": _ratio(count("solver.propagations"), solve_s),
        "solver.solve_s": solve_s,
        "solver.restarts": count("solver.restarts"),
        "session.busy_s": busy("session"),
        "session.structural_ratio": _ratio(count("session.outputs_structural"), outputs),
        "session.sat_calls": count("session.sat_calls"),
        "session.sim_disproofs": count("session.sim_disproofs"),
        "session.reuse_ratio": _ratio(count("session.gates_reused"), gates),
        "sim.busy_s": busy("sim"),
        "sim.vectors": count("sim.vectors"),
        "pool.spawn_s": init.get("mean", 0.0) or 0.0,
        # Timed work of the traced pass minus that of the untraced pass.
        "trace.wall_s": traced.work_s,
        "trace.overhead_s": traced.work_s - plain.work_s,
    }
    for tier in ("structural", "exhaustive_sim", "sat_cec", "random_sim"):
        metrics[f"ladder.tier_count.{tier}"] = count(f"ladder.tier_count.{tier}")
    for name in LAYER_UNITS:
        metrics.setdefault(name, 0.0)
    # Figures the workloads measure themselves (pool, store, service).
    metrics.update(traced.layers)
    for name in FLOW_UNITS:
        metrics["flow." + name] = flow.get(name, 0.0)
    return metrics


def traced_pass(workload):
    """Run one pass with the layer tracer and the program's telemetry on."""
    from repro import telemetry
    from perfbench.tracing import LayerTracer, layer_times, spans_payload

    tracer = LayerTracer()
    telemetry.get_tracer().reset()
    telemetry.get_registry().reset()
    tracer.install()
    telemetry.enable(trace=True, metrics=True)
    try:
        result = workload.run_pass()
    finally:
        telemetry.disable()
        tracer.uninstall()
    roots = telemetry.get_tracer().drain()
    snapshot = telemetry.get_registry().snapshot()
    telemetry.get_registry().reset()
    return result, layer_times(roots), snapshot, spans_payload(roots)


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("oneshot", "batch", "modifier", "service"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "api.py").is_file():
        print("perfbench: no program source at src/repro; run from the repository root",
              file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # One string-hash layout for every run (and for the server and pool
        # processes, which inherit it), so that runs differ only in the
        # inputs drawn from --seed.  exec replaces this process.
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  dict(os.environ, PYTHONHASHSEED=HASH_SEED))
    # A terminated run still stops the sampler and any server it started.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # Cold-state guard: no artifact store outside the service workload.
    os.environ.pop("REPRO_STORE_DIR", None)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    from perfbench.hostclock import REFERENCE_KERNEL_S, HostClock
    from perfbench.workloads import WORKLOADS, percentile
    from repro.store.core import active_store

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    scratch = out_dir / f"tmp-{os.getpid()}"
    kind = WORKLOADS[args.workload]
    passes = []
    layers: Dict[str, float] = {}
    record: Dict[str, Any] = {}
    clock = HostClock(scratch / "hostclock.txt", None if kind.parallel else os.getpid())
    try:
        workload = kind(args.seed, ROOT, scratch, clock)
        setups = [workload.setup_once() for _ in range(SETUP_REPEATS)]
        if active_store() is not None:
            raise RuntimeError("an artifact store is active in the benchmark process")
        if args.trace:
            passes.append(workload.run_pass())
            result, times, snapshot, spans = traced_pass(workload)
            passes.append(result)
            record.update(layer_times=times, spans=spans)
        else:
            start = time.perf_counter()
            while not passes or time.perf_counter() - start < args.seconds:
                passes.append(workload.run_pass())
    finally:
        clock.stop()
        shutil.rmtree(scratch, ignore_errors=True)
    kernel_s = [sample[1] for sample in clock.samples]
    first, last = clock.samples[0][3], clock.samples[-1][3]
    steal_share = sum(b[0] - a[0] for a, b in zip(first, last)) / max(
        1, sum(b[1] - a[1] for a, b in zip(first, last)))

    failures = [f for result in passes for f in result.failures]
    attempted = sum(result.attempted for result in passes)
    reference = json.dumps(passes[0].counts, sort_keys=True)
    if any(json.dumps(r.counts, sort_keys=True) != reference for r in passes[1:]):
        failures.append("exact-repeat counts differ between passes of one invocation")
    failed = len(failures)

    # End-to-end figures come from untraced passes only.
    timed = passes[:1] if args.trace else passes
    flow = {
        name: statistics.median(r.flow[name] for r in timed)
        for name in timed[0].flow
    }
    flow["failed_share"] = failed / attempted
    e2e = {
        "setup_s": statistics.median(setups),
        "work_s": statistics.median(r.work_s for r in timed),
        "op_p90_s": statistics.median(percentile(r.ops_s, 0.9) for r in timed),
        "peak_rss_mb": peak_rss_mb(),
    }
    if args.trace:
        layers = layer_metrics(
            times, snapshot.get("counters", {}), snapshot.get("histograms", {}),
            passes[0], passes[1], flow,
        )
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in PER_LAYER_UNITS.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}

    record.update(
        workload=args.workload,
        seed=args.seed,
        held_out_seed=HELD_OUT_SEED,
        trace=args.trace,
        passes=len(passes),
        host=host_details(),
        gaps=list(GAPS),
        setup_repeats_s=setups,
        host_clock={
            "reference_kernel_s": REFERENCE_KERNEL_S,
            "samples": len(kernel_s),
            "kernel_s_quartiles": statistics.quantiles(kernel_s, n=4),
            "steal_share": steal_share,
            "followed_pid": not kind.parallel,
        },
        end_to_end=e2e,
        flow=flow,
        layers=layers,
        counts=[r.counts for r in passes],
        failures=failures,
    )
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1, sort_keys=True, default=str) + "\n")

    for name, unit in END_TO_END_UNITS.items():
        print(f"{args.workload} {name} = {e2e[name]:.6g} {unit}")
    for name, value in flow.items():
        print(f"{args.workload} {name} = {value:.6g} {FLOW_UNITS[name]}")
    for failure in failures:
        print(f"FAILED: {failure}")
    print(f"record written to {out_file.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
