"""Experiment harness regenerating the paper's tables and figure.

* :func:`run_table2`  — Table II: per-circuit baseline metrics, fingerprint
  locations, log2 combinations and area/delay/power overheads of the full
  (unconstrained) embedding.
* :func:`run_table3`  — Table III: suite-average fingerprint reduction and
  overheads after the reactive delay heuristic at 10%/5%/1% constraints.
* :func:`run_figure7` — Fig. 7: per-circuit fingerprint sizes (bits)
  before and after each delay constraint.

Every run verifies functional equivalence of each fingerprinted copy
against its golden design through the verification ladder
(:func:`repro.flows.ladder.run_ladder`: exhaustive simulation when narrow
enough, SAT otherwise) unless ``verify=False``; each Table II row records
whether its verdict is proven.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.compare import Overhead, overhead
from ..analysis.metrics import Metrics, measure
from ..fingerprint.capacity import CapacityReport, capacity
from ..fingerprint.constraints import reactive_delay_constrain
from ..fingerprint.embed import embed, full_assignment
from ..fingerprint.locations import FinderOptions, find_locations
from ..flows.ladder import LadderConfig, run_ladder
from .suite import PAPER_TABLE2, PAPER_TABLE3, SUITE_ORDER, build_benchmark

#: Default constraint levels of Table III / Fig. 7.
CONSTRAINT_LEVELS: Tuple[float, ...] = (0.10, 0.05, 0.01)

#: Suite subsets for different time budgets.
QUICK_SUITE: Tuple[str, ...] = ("C432", "C880", "C499", "vda")
MEDIUM_SUITE: Tuple[str, ...] = QUICK_SUITE + ("C1355", "C1908", "t481", "dalu", "k2")


def suite_for_budget(budget: Optional[str] = None) -> Tuple[str, ...]:
    """Pick the circuit list: 'quick', 'medium' or 'full'.

    Defaults to the ``REPRO_SUITE`` environment variable, then 'quick'.
    """
    budget = budget or os.environ.get("REPRO_SUITE", "quick")
    if budget == "full":
        return SUITE_ORDER
    if budget == "medium":
        return MEDIUM_SUITE
    return QUICK_SUITE


@dataclass
class Table2Row:
    """One Table II row: baseline, capacity and full-embedding overheads."""

    name: str
    baseline: Metrics
    fingerprinted: Metrics
    capacity: CapacityReport
    overhead: Overhead
    equivalent: bool
    paper: Optional[Dict[str, float]] = None
    #: The ladder's verdict is a proof (always False with ``verify=False``).
    proven: bool = False


def run_table2(
    names: Optional[Sequence[str]] = None,
    options: Optional[FinderOptions] = None,
    verify: bool = True,
    n_random_vectors: int = 2048,
) -> List[Table2Row]:
    """Regenerate Table II for the given circuits."""
    rows: List[Table2Row] = []
    for name in names or suite_for_budget():
        base = build_benchmark(name)
        baseline = measure(base)
        catalog = find_locations(base, options)
        report = capacity(catalog)
        assignment = full_assignment(base, catalog)
        copy = embed(base, catalog, assignment)
        fingerprinted = measure(copy.circuit)
        equivalent, proven = True, False
        if verify:
            result = run_ladder(
                base,
                copy.circuit,
                LadderConfig(n_random_vectors=n_random_vectors),
            )
            equivalent, proven = result.equivalent, result.proven
        rows.append(
            Table2Row(
                name=name,
                baseline=baseline,
                fingerprinted=fingerprinted,
                capacity=report,
                overhead=overhead(baseline, fingerprinted),
                equivalent=equivalent,
                paper=PAPER_TABLE2.get(name),
                proven=proven,
            )
        )
    return rows


@dataclass
class Table3Cell:
    """One circuit at one delay-constraint level."""

    name: str
    constraint: float
    result_overhead: Overhead
    fingerprint_reduction: float
    surviving_bits: float
    met_constraint: bool


@dataclass
class Table3Row:
    """Suite-average row of Table III at one constraint level."""

    constraint: float
    fingerprint_reduction: float
    area_overhead: float
    delay_overhead: float
    power_overhead: float
    cells: List[Table3Cell] = field(default_factory=list)
    paper: Optional[Dict[str, float]] = None

    @staticmethod
    def from_cells(
        constraint: float, cells: List[Table3Cell]
    ) -> "Table3Row":
        n = max(1, len(cells))
        paper_key = f"{int(round(constraint * 100))}%"
        return Table3Row(
            constraint=constraint,
            fingerprint_reduction=sum(c.fingerprint_reduction for c in cells) / n,
            area_overhead=sum(c.result_overhead.area for c in cells) / n,
            delay_overhead=sum(c.result_overhead.delay for c in cells) / n,
            power_overhead=sum(c.result_overhead.power for c in cells) / n,
            cells=cells,
            paper=PAPER_TABLE3.get(paper_key),
        )


def run_table3(
    names: Optional[Sequence[str]] = None,
    constraints: Sequence[float] = CONSTRAINT_LEVELS,
    options: Optional[FinderOptions] = None,
    seed: int = 0,
) -> List[Table3Row]:
    """Regenerate Table III (reactive heuristic at each constraint)."""
    names = list(names or suite_for_budget())
    prepared = []
    for name in names:
        base = build_benchmark(name)
        catalog = find_locations(base, options)
        assignment = full_assignment(base, catalog)
        baseline = measure(base)
        prepared.append((name, base, catalog, assignment, baseline))

    rows: List[Table3Row] = []
    for constraint in constraints:
        cells: List[Table3Cell] = []
        for name, base, catalog, assignment, baseline in prepared:
            copy = embed(base, catalog, assignment)
            result = reactive_delay_constrain(copy, constraint, seed=seed)
            constrained = measure(copy.circuit)
            cells.append(
                Table3Cell(
                    name=name,
                    constraint=constraint,
                    result_overhead=overhead(baseline, constrained),
                    fingerprint_reduction=result.fingerprint_reduction,
                    surviving_bits=result.surviving_bits,
                    met_constraint=result.met_constraint,
                )
            )
        rows.append(Table3Row.from_cells(constraint, cells))
    return rows


@dataclass
class Figure7Series:
    """Fingerprint size (bits) of one circuit across constraint levels."""

    name: str
    unconstrained_bits: float
    constrained_bits: Dict[float, float]


def run_figure7(
    names: Optional[Sequence[str]] = None,
    constraints: Sequence[float] = CONSTRAINT_LEVELS,
    options: Optional[FinderOptions] = None,
    seed: int = 0,
    table3_rows: Optional[Sequence[Table3Row]] = None,
) -> List[Figure7Series]:
    """Regenerate Fig. 7: fingerprint sizes before/after constraints.

    Passing ``table3_rows`` (from :func:`run_table3` over the same names,
    constraints and seed) reuses its reactive runs instead of repeating
    them — the surviving-bit numbers are identical by construction.
    """
    names = list(names or suite_for_budget())
    surviving: Dict[str, Dict[float, float]] = {name: {} for name in names}
    if table3_rows is not None:
        for row in table3_rows:
            for cell in row.cells:
                if cell.name in surviving:
                    surviving[cell.name][row.constraint] = cell.surviving_bits

    series: List[Figure7Series] = []
    for name in names:
        base = build_benchmark(name)
        catalog = find_locations(base, options)
        report = capacity(catalog)
        assignment = full_assignment(base, catalog)
        constrained_bits: Dict[float, float] = {}
        for constraint in constraints:
            cached = surviving[name].get(constraint)
            if cached is not None:
                constrained_bits[constraint] = cached
                continue
            copy = embed(base, catalog, assignment)
            result = reactive_delay_constrain(copy, constraint, seed=seed)
            constrained_bits[constraint] = result.surviving_bits
        series.append(
            Figure7Series(
                name=name,
                unconstrained_bits=report.bits,
                constrained_bits=constrained_bits,
            )
        )
    return series
