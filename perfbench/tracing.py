"""Benchmark-side layer tracing: spans and counters around the program's calls.

Nothing under ``src/`` is edited.  :class:`LayerTracer` replaces each
layer's entry point *at the names the flow imports it under* (module
attributes and three class methods) with a wrapper that opens a span named
``perf:<layer>`` and adds counters.  Spans and counters go through the
program's own tracer and metrics registry, so work done in forked
``flows.batch`` pool workers rides back to this process with the chunk
results, exactly as the program's own telemetry does.

After the traced pass, :func:`layer_times` turns the span forest into busy
time (outermost span of a layer) and self time (span minus the nested
``perf:`` spans of other layers) per layer.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

PREFIX = "perf:"


def _counts_ir(args, kwargs, result) -> Dict[str, float]:
    return {"ir.gates": args[0].n_gates}


def _counts_locate(args, kwargs, result) -> Dict[str, float]:
    return {"locate.locations": result.n_locations}


def _counts_embed(args, kwargs, result) -> Dict[str, float]:
    return {"embed.modifications": result.n_active}


def _counts_constrain(args, kwargs, result) -> Dict[str, float]:
    return {"constrain.removals": result.removed}


def _counts_sta(args, kwargs, result) -> Dict[str, float]:
    return {"sta.calls": 1}


def _counts_encoding(args, kwargs, result) -> Dict[str, float]:
    return {"encode.clauses": len(result.cnf.clauses), "encode.vars": result.cnf.n_vars}


def _counts_preprocess(args, kwargs, result) -> Dict[str, float]:
    stats = result.stats
    return {
        "preprocess.eliminated_vars": stats.eliminated_vars,
        "preprocess.clauses_in": stats.clauses_in,
        "preprocess.clauses_out": stats.clauses_out,
    }


def _counts_ladder(args, kwargs, result) -> Dict[str, float]:
    counts = {f"ladder.tier_count.{result.tier.value.replace('-', '_')}": 1}
    if result.budget_hit:
        counts["ladder.budget_hits"] = 1
    return counts


#: (layer, [(module, attribute), ...], counter function).  Every import
#: site of a layer's entry point is listed, because ``from x import f``
#: binds its own name.
FUNCTION_PATCHES: Tuple[Tuple[str, List[Tuple[str, str]], Optional[Callable]], ...] = (
    ("bench", [("repro.bench", "build_benchmark")], None),
    # compile_circuit is imported under its own name by half the program and
    # returns cached IR; _compile is the one place an actual compile happens.
    ("ir", [("repro.ir.compiled", "_compile")], _counts_ir),
    ("locate", [
        ("repro.fingerprint.locations", "find_locations"),
        ("repro.fingerprint", "find_locations"),
        ("repro.flows.pipeline", "find_locations"),
        ("repro.flows.batch", "find_locations"),
    ], _counts_locate),
    ("embed", [
        ("repro.fingerprint.embed", "embed"),
        ("repro.fingerprint", "embed"),
        ("repro.flows.pipeline", "embed"),
        ("repro.flows.batch", "embed"),
    ], _counts_embed),
    ("constrain", [
        ("repro.fingerprint.constraints", "reactive_delay_constrain"),
        ("repro.fingerprint", "reactive_delay_constrain"),
        ("repro.flows.pipeline", "reactive_delay_constrain"),
    ], _counts_constrain),
    ("sta", [("repro.timing.sta", "_analyze")], _counts_sta),
    ("measure", [
        ("repro.analysis.metrics", "measure"),
        ("repro.analysis", "measure"),
        ("repro.flows.pipeline", "measure"),
        ("repro.flows.batch", "measure"),
    ], None),
    ("power", [
        ("repro.power.estimate", "estimate_power"),
        ("repro.analysis.metrics", "estimate_power"),
    ], None),
    ("ladder", [
        ("repro.flows.ladder", "run_ladder"),
        ("repro.flows.pipeline", "run_ladder"),
        ("repro.flows.batch", "run_ladder"),
        ("repro.api", "run_ladder"),
    ], _counts_ladder),
    ("ladder.structural", [("repro.flows.ladder", "structurally_identical")], None),
    ("ladder.exhaustive_sim", [("repro.flows.ladder", "exhaustive_equivalent")], None),
    ("ladder.sat_cec", [("repro.flows.ladder", "sat_check")], None),
    ("ladder.random_sim", [("repro.flows.ladder", "random_equivalent")], None),
    ("encode", [
        ("repro.sat.cec", "build_miter"),
        ("repro.sat.incremental", "encode_circuit"),
    ], _counts_encoding),
    ("preprocess", [
        ("repro.sat.cec", "preprocess"),
        ("repro.sat.incremental", "preprocess"),
    ], _counts_preprocess),
)

_SOLVER_FIELDS = ("conflicts", "decisions", "propagations", "restarts")
_SESSION_FIELDS = (
    "outputs_total", "outputs_structural", "sat_calls", "sim_disproofs",
    "gates_encoded", "gates_reused",
)


class LayerTracer:
    """Installs the layer wrappers; :meth:`uninstall` restores the originals."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def install(self) -> None:
        from repro import telemetry

        def wrap(layer: str, fn: Callable, counter: Optional[Callable]) -> Callable:
            name = PREFIX + layer

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                with telemetry.span(name):
                    result = fn(*args, **kwargs)
                if counter is not None:
                    for key, value in counter(args, kwargs, result).items():
                        telemetry.count("perf." + key, value)
                return result

            return traced

        for layer, sites, counter in FUNCTION_PATCHES:
            for module_name, attr in sites:
                module = importlib.import_module(module_name)
                self._replace(module, attr, wrap(layer, getattr(module, attr), counter))

        from repro.sat.incremental import IncrementalCecSession
        from repro.sat.solver import CdclSolver
        from repro.sim.simulator import Simulator
        from repro.flows import batch as batch_mod

        solve = CdclSolver.solve

        @functools.wraps(solve)
        def traced_solve(self, *args, **kwargs):
            before = [getattr(self.stats, f) for f in _SOLVER_FIELDS]
            seconds = self.stats.solve_seconds
            with telemetry.span(PREFIX + "solver"):
                result = solve(self, *args, **kwargs)
            for field, old in zip(_SOLVER_FIELDS, before):
                telemetry.count("perf.solver." + field, getattr(self.stats, field) - old)
            telemetry.count("perf.solver.solve_s", self.stats.solve_seconds - seconds)
            return result

        verify = IncrementalCecSession.verify

        @functools.wraps(verify)
        def traced_verify(self, *args, **kwargs):
            before = [getattr(self.stats, f) for f in _SESSION_FIELDS]
            with telemetry.span(PREFIX + "session"):
                result = verify(self, *args, **kwargs)
            for field, old in zip(_SESSION_FIELDS, before):
                telemetry.count("perf.session." + field, getattr(self.stats, field) - old)
            return result

        # run_matrix is the one entry every packed simulation goes through
        # (run, the session's pre-filter, odcwin and power call it).
        run_matrix = Simulator.run_matrix

        @functools.wraps(run_matrix)
        def traced_run(self, stimulus, *args, **kwargs):
            with telemetry.span(PREFIX + "sim"):
                result = run_matrix(self, stimulus, *args, **kwargs)
            words = len(next(iter(stimulus.values()))) if stimulus else 0
            telemetry.count("perf.sim.vectors", 64 * words)
            return result

        init_worker = batch_mod._init_worker

        @functools.wraps(init_worker)
        def traced_init(*args, **kwargs):
            # The real initializer resets the worker's registry, so the
            # observation is made after it returns.
            start = time.perf_counter()
            init_worker(*args, **kwargs)
            telemetry.observe("perf.pool.init_s", time.perf_counter() - start)

        self._replace(CdclSolver, "solve", traced_solve)
        self._replace(IncrementalCecSession, "verify", traced_verify)
        self._replace(Simulator, "run_matrix", traced_run)
        self._replace(batch_mod, "_init_worker", traced_init)

    def _replace(self, owner: Any, attr: str, value: Any) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def _nearest_perf(span: Any) -> List[Any]:
    """The ``perf:`` spans directly below ``span`` (skipping program spans)."""
    found = []
    for child in span.children:
        if child.name.startswith(PREFIX):
            found.append(child)
        else:
            found.extend(_nearest_perf(child))
    return found


def layer_times(roots: Iterable[Any]) -> Dict[str, Dict[str, float]]:
    """Busy and self seconds per layer over a span forest.

    Busy time sums the outermost span of each layer (a layer re-entered
    below itself is not counted twice); self time is a span's duration
    minus that of the nearest ``perf:`` spans nested inside it.
    """
    busy: Dict[str, float] = {}
    self_time: Dict[str, float] = {}
    calls: Dict[str, int] = {}

    def visit(span: Any, open_layers: Tuple[str, ...]) -> None:
        layers = open_layers
        if span.name.startswith(PREFIX):
            layer = span.name[len(PREFIX):]
            calls[layer] = calls.get(layer, 0) + 1
            if layer not in open_layers:
                busy[layer] = busy.get(layer, 0.0) + span.duration
            inner = sum(child.duration for child in _nearest_perf(span))
            self_time[layer] = self_time.get(layer, 0.0) + max(0.0, span.duration - inner)
            layers = open_layers + (layer,)
        for child in span.children:
            visit(child, layers)

    for root in roots:
        visit(root, ())
    return {
        layer: {"busy_s": busy.get(layer, 0.0), "self_s": self_time[layer], "calls": calls[layer]}
        for layer in sorted(self_time)
    }


def spans_payload(roots: Iterable[Any]) -> List[Dict[str, Any]]:
    """The ``perf:`` spans only, as nested dicts (program spans elided)."""

    def keep(span: Any) -> Dict[str, Any]:
        return {
            "name": span.name[len(PREFIX):],
            "start": span.start,
            "duration": span.duration,
            "children": [keep(child) for child in _nearest_perf(span)],
        }

    out = []
    for root in roots:
        if root.name.startswith(PREFIX):
            out.append(keep(root))
        else:
            out.extend(keep(span) for span in _nearest_perf(root))
    return out
