"""The stable public surface of the fingerprinting system.

Everything a client needs lives here, behind four verbs and one options
object::

    from repro.api import FlowOptions, batch, fingerprint, verify

    design = load_circuit("design.blif")          # or .v
    result = fingerprint(design, FlowOptions(delay_constraint=0.05))
    issued = batch(design, 32, FlowOptions(jobs=4, trace=True))
    report = verify(design, result.copy.circuit)

Every entry point takes the same keyword-only :class:`FlowOptions`
(individual fields can also be passed directly as keyword overrides,
e.g. ``fingerprint(design, seed=3)``).  Setting ``FlowOptions(trace=True, metrics=True)``
records telemetry for the duration of the call; read it back through
:mod:`repro.telemetry` (``get_tracer().finished``,
``telemetry_snapshot()``, ``write_chrome_trace(...)``).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Optional, Union

from . import telemetry
from .errors import DesignLoadError, ReproError, annotate
from .flows.batch import BatchResult, run_batch_flow
from .flows.ladder import LadderConfig, LadderResult, run_ladder
from .flows.options import FlowOptions
from .flows.pipeline import FlowResult, run_flow
from .netlist.blif import read_blif, save_blif
from .netlist.circuit import Circuit
from .netlist.sop import SopNetwork
from .netlist.verilog import read_verilog, save_verilog
from .techmap.mapper import map_network

Design = Union[Circuit, SopNetwork, str]


def _resolve(opts: Optional[FlowOptions], overrides: Dict[str, object]) -> FlowOptions:
    if opts is None:
        return FlowOptions(**overrides)
    if overrides:
        return opts.replace(**overrides)
    return opts


@contextmanager
def _telemetry_scope(opts: FlowOptions):
    """Enable telemetry for the call when the options ask for it."""
    if opts.trace or opts.metrics:
        with telemetry.enabled(trace=opts.trace, metrics=opts.metrics):
            yield
    else:
        yield


def fingerprint(
    design: Design,
    opts: Optional[FlowOptions] = None,
    **overrides: object,
) -> FlowResult:
    """Run the full fingerprinting pipeline on one design.

    ``design`` may be a gate-level :class:`Circuit`, a parsed
    :class:`SopNetwork`, or BLIF text (mapped with ``opts.map_style``).
    Returns a :class:`FlowResult` covering locations, capacity, the
    embedded copy, verification and overhead measurements.
    """
    opts = _resolve(opts, overrides)
    with _telemetry_scope(opts):
        return run_flow(design, opts)


def batch(
    design: Circuit,
    n_copies: int = 8,
    opts: Optional[FlowOptions] = None,
    **overrides: object,
) -> BatchResult:
    """Generate and verify ``n_copies`` distinct fingerprinted copies.

    ``opts.jobs > 1`` fans the generate-and-verify loop across worker
    processes (one incremental CEC session each); telemetry recorded in
    the workers is folded back into the parent's tracer and registry.
    """
    opts = _resolve(opts, overrides)
    with _telemetry_scope(opts):
        return run_batch_flow(design, n_copies, opts)


def locate(
    design: Design,
    opts: Optional[FlowOptions] = None,
    **overrides: object,
):
    """Enumerate fingerprint locations in a design.

    Runs only the location-discovery stage of the pipeline (with each
    candidate's ODC condition validated by the
    :class:`~repro.odcwin.WindowedOdcEngine`) and returns the
    :class:`~repro.fingerprint.locations.LocationCatalog`.  Select the
    validation strategy with ``opts.strategy`` (``"windowed"`` default,
    ``"global"`` for the exhaustive baseline; verdicts are identical).
    """
    from .fingerprint.locations import find_locations

    opts = _resolve(opts, overrides)
    with _telemetry_scope(opts):
        if isinstance(design, str) or isinstance(design, SopNetwork):
            from .flows.pipeline import _to_circuit

            design = _to_circuit(design, opts.map_style)
        return find_locations(design, opts.resolved_finder())


def verify(
    left: Circuit,
    right: Circuit,
    opts: Optional[FlowOptions] = None,
    **overrides: object,
) -> LadderResult:
    """Check two circuits for functional equivalence (budgeted ladder).

    Runs structural identity → exhaustive simulation → budgeted SAT CEC
    → random simulation; a spent budget degrades the verdict (visible in
    ``LadderResult.budget_hit``) instead of hanging.  Tune via
    ``opts.ladder`` (a :class:`LadderConfig`).
    """
    opts = _resolve(opts, overrides)
    with _telemetry_scope(opts):
        return run_ladder(left, right, config=opts.ladder)


def attack(
    design: Design,
    attacks=None,
    opts: Optional[FlowOptions] = None,
    *,
    attack_config=None,
    **overrides: object,
):
    """Run the adversarial attack suite against a fingerprinted design.

    Builds the defender world (catalog, buyer registry, victim copy) from
    ``design``, runs each attack engine in ``attacks`` (default: the full
    roster — see :data:`repro.attack.ATTACK_NAMES`), verifies every
    attacked copy functionally equivalent through the ladder, and scores
    how many fingerprint bits survive.  ``attack_config`` is an
    :class:`repro.attack.AttackConfig`; seed/ladder/finder settings come
    from ``opts`` unless the config overrides them.  Returns an
    :class:`repro.attack.AttackSuiteReport`.
    """
    from .attack import AttackConfig, run_attack_suite

    opts = _resolve(opts, overrides)
    if attack_config is None:
        attack_config = AttackConfig(seed=opts.seed)
    with _telemetry_scope(opts):
        if isinstance(design, str) or isinstance(design, SopNetwork):
            from .flows.pipeline import _to_circuit

            design = _to_circuit(design, opts.map_style)
        return run_attack_suite(
            design,
            attacks=attacks,
            config=attack_config,
            ladder=opts.ladder,
            finder=opts.resolved_finder(),
        )


def load_circuit(path: str, map_style: str = "aoi") -> Circuit:
    """Read a design file by extension.

    ``.blif`` files are parsed and technology-mapped (the
    ABC-replacement path of the paper's flow); ``.v`` files are read as
    structural Verilog over the generic library.
    """
    try:
        if path.endswith(".blif"):
            return map_network(read_blif(path), style=map_style)
        if path.endswith(".v"):
            return read_verilog(path)
    except OSError as exc:
        raise DesignLoadError(f"cannot read {path!r}: {exc}", stage="load") from exc
    except ReproError as exc:
        raise annotate(exc, stage="load", design=path)
    raise DesignLoadError(
        f"unsupported design extension: {path!r} (.blif or .v)", stage="load"
    )


def campaign(
    designs,
    db_path: str,
    *,
    kind: str = "fingerprint",
    n_copies: int = 8,
    trials: int = 1,
    injectors=None,
    seed: int = 0,
    options=None,
):
    """Run (or continue) a persistent, resumable campaign.

    Where :func:`batch` answers "verify N copies right now",
    ``campaign`` answers "run this fleet of jobs against a SQLite result
    database, survive crashes, and let me resume later":  the spec
    expands deterministically into content-addressed job rows, only
    non-terminal rows execute, and re-running a finished campaign is a
    no-op.  See :mod:`repro.campaign` for the engine.

    ``designs`` is one design or a sequence; each entry is a file path
    (``.blif`` / ``.v``), a ``bench:<name>`` suite circuit, or an
    in-memory :class:`Circuit` (serialized into the DB, so resumes in a
    fresh process can reload it).  ``options`` is a
    :class:`repro.campaign.CampaignOptions` (workers, timeouts, retry
    budget, overwrite policy).  Returns a
    :class:`repro.campaign.CampaignSummary`.
    """
    from .campaign import CampaignSpec, run_campaign

    if isinstance(designs, (Circuit, str)):
        designs = [designs]
    sources = []
    inline: Dict[str, Circuit] = {}
    for design in designs:
        if isinstance(design, Circuit):
            inline[design.name] = design
            sources.append(f"db:{design.name}")
        else:
            sources.append(design)
    spec = CampaignSpec(
        kind=kind,
        designs=tuple(sources),
        n_copies=n_copies,
        trials=trials,
        injectors=None if injectors is None else tuple(injectors),
        seed=seed,
    )
    return run_campaign(spec, db_path, options, inline_designs=inline)


def campaign_resume(db_path: str, options=None):
    """Continue a campaign from the spec stored in its database."""
    from .campaign import resume_campaign

    return resume_campaign(db_path, options)


def campaign_status(db_path: str) -> Dict[str, object]:
    """Read-only progress snapshot of a campaign DB (safe mid-run)."""
    from .campaign import campaign_status as _status

    return _status(db_path)


def campaign_report(db_path: str, out_dir: Optional[str] = None) -> Dict[str, object]:
    """Aggregate a campaign DB into the JSON fleet report.

    When ``out_dir`` is given, also writes ``report.json`` and
    ``report.html`` there.
    """
    from .campaign import build_report, write_report

    if out_dir is not None:
        write_report(db_path, out_dir)
    return build_report(db_path)


def serve(
    host: str = "127.0.0.1",
    port: int = 8765,
    *,
    store_dir: Optional[str] = None,
    memory_entries: int = 128,
    workers: int = 1,
    default_quota=None,
    quotas=None,
    trace_path: Optional[str] = None,
):
    """Build the long-running fingerprinting HTTP service (not yet started).

    Returns a :class:`repro.service.Server` wired to a content-addressed
    artifact store (disk tier at ``store_dir``, or memory-only) and a
    pool of ``workers`` execution processes sharing that store's disk
    tier.  Start it with :meth:`~repro.service.Server.run` (blocking),
    :meth:`~repro.service.Server.run_async` (inside an event loop), or
    :meth:`~repro.service.Server.start_in_thread` (embedding/tests).
    Submissions speak JSON over HTTP against the typed ``/v1`` API and
    come back in the same envelope the CLI emits; see
    :mod:`repro.service` for the endpoint reference.
    """
    from .service.server import serve as _serve

    return _serve(
        host=host,
        port=port,
        store_dir=store_dir,
        memory_entries=memory_entries,
        workers=workers,
        default_quota=default_quota,
        quotas=quotas,
        trace_path=trace_path,
    )


def save_circuit(circuit: Circuit, path: str) -> None:
    """Write a circuit by extension (``.v`` structural Verilog, ``.blif``)."""
    if path.endswith(".v"):
        save_verilog(circuit, path)
        return
    if path.endswith(".blif"):
        save_blif(circuit, path)
        return
    raise DesignLoadError(
        f"unsupported design extension: {path!r} (.blif or .v)", stage="save"
    )


__all__ = [
    "BatchResult",
    "Circuit",
    "FlowOptions",
    "FlowResult",
    "LadderConfig",
    "LadderResult",
    "attack",
    "batch",
    "campaign",
    "campaign_report",
    "campaign_resume",
    "campaign_status",
    "fingerprint",
    "load_circuit",
    "locate",
    "save_circuit",
    "serve",
    "verify",
]
