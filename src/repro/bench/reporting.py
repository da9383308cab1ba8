"""Text rendering of harness results, paper-vs-measured side by side."""

from __future__ import annotations

from typing import List, Sequence

from .harness import Figure7Series, Table2Row, Table3Row


def _fmt(value: float, digits: int = 2) -> str:
    if value != value:  # NaN
        return "n/a"
    if value == float("inf"):
        return "inf"
    return f"{value:.{digits}f}"


def _equiv_cell(row: Table2Row) -> str:
    """``yes`` for a proven equivalence, ``yes?`` for an unproven one."""
    if not row.equivalent:
        return "NO"
    return "yes" if row.proven else "yes?"


def render_table2(rows: Sequence[Table2Row]) -> str:
    """Render Table II with measured and paper overheads."""
    header = (
        f"{'circuit':<8}{'gates':>7}{'area':>12}{'delay':>8}{'power':>10}"
        f"{'locs':>6}{'log2(FP)':>10}"
        f"{'area%':>8}{'delay%':>8}{'power%':>8}"
        f"{'p.locs':>8}{'p.log2':>8}{'p.a%':>7}{'p.d%':>7}{'p.p%':>7}{'equiv':>7}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        paper = row.paper or {}
        lines.append(
            f"{row.name:<8}"
            f"{row.baseline.gates:>7}"
            f"{_fmt(row.baseline.area, 0):>12}"
            f"{_fmt(row.baseline.delay):>8}"
            f"{_fmt(row.baseline.power, 1):>10}"
            f"{row.capacity.n_locations:>6}"
            f"{_fmt(row.capacity.bits):>10}"
            f"{_fmt(100 * row.overhead.area):>8}"
            f"{_fmt(100 * row.overhead.delay):>8}"
            f"{_fmt(100 * row.overhead.power):>8}"
            f"{paper.get('locations', float('nan')):>8}"
            f"{_fmt(paper.get('log2_combos', float('nan'))):>8}"
            f"{_fmt(paper.get('area_oh', float('nan'))):>7}"
            f"{_fmt(paper.get('delay_oh', float('nan'))):>7}"
            f"{_fmt(paper.get('power_oh', float('nan'))):>7}"
            f"{_equiv_cell(row):>7}"
        )
    if rows:
        n = len(rows)
        avg_area = sum(r.overhead.area for r in rows) / n
        avg_delay = sum(r.overhead.delay for r in rows) / n
        avg_power = sum(r.overhead.power for r in rows) / n
        lines.append("-" * len(header))
        lines.append(
            f"{'Avg':<8}{'':>7}{'':>12}{'':>8}{'':>10}{'':>6}{'':>10}"
            f"{_fmt(100 * avg_area):>8}{_fmt(100 * avg_delay):>8}"
            f"{_fmt(100 * avg_power):>8}"
        )
    return "\n".join(lines)


def render_table3(rows: Sequence[Table3Row]) -> str:
    """Render Table III: measured vs paper averages per constraint."""
    header = (
        f"{'constraint':<12}{'FP reduction%':>14}{'area%':>8}{'delay%':>8}"
        f"{'power%':>8}   |  paper:"
        f"{'FPred%':>8}{'area%':>7}{'delay%':>8}{'power%':>8}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        paper = row.paper or {}
        lines.append(
            f"{f'{row.constraint:.0%}':<12}"
            f"{_fmt(100 * row.fingerprint_reduction):>14}"
            f"{_fmt(100 * row.area_overhead):>8}"
            f"{_fmt(100 * row.delay_overhead):>8}"
            f"{_fmt(100 * row.power_overhead):>8}   |        "
            f"{_fmt(paper.get('fp_reduction', float('nan'))):>8}"
            f"{_fmt(paper.get('area_oh', float('nan'))):>7}"
            f"{_fmt(paper.get('delay_oh', float('nan'))):>8}"
            f"{_fmt(paper.get('power_oh', float('nan'))):>8}"
        )
    return "\n".join(lines)


def render_figure7(series: Sequence[Figure7Series]) -> str:
    """Render Fig. 7 as a table of fingerprint bits per constraint level."""
    constraints: List[float] = []
    for s in series:
        for c in s.constrained_bits:
            if c not in constraints:
                constraints.append(c)
    constraints.sort(reverse=True)
    header = f"{'circuit':<8}{'unconstrained':>14}" + "".join(
        f"{f'{c:.0%}':>10}" for c in constraints
    )
    lines = [header, "-" * len(header)]
    for s in series:
        lines.append(
            f"{s.name:<8}{_fmt(s.unconstrained_bits):>14}"
            + "".join(
                f"{_fmt(s.constrained_bits.get(c, float('nan'))):>10}"
                for c in constraints
            )
        )
    return "\n".join(lines)


def table2_records(rows: Sequence[Table2Row]) -> List[dict]:
    """Table II rows as plain dicts (for JSON/CSV export)."""
    records = []
    for row in rows:
        records.append(
            {
                "circuit": row.name,
                "gates": row.baseline.gates,
                "area": row.baseline.area,
                "delay": row.baseline.delay,
                "power": row.baseline.power,
                "locations": row.capacity.n_locations,
                "slots": row.capacity.n_slots,
                "log2_combinations": row.capacity.bits,
                "area_overhead": row.overhead.area,
                "delay_overhead": row.overhead.delay,
                "power_overhead": row.overhead.power,
                "equivalent": row.equivalent,
                "proven": row.proven,
                "paper": row.paper,
            }
        )
    return records


def table3_records(rows: Sequence[Table3Row]) -> List[dict]:
    """Table III rows as plain dicts."""
    return [
        {
            "constraint": row.constraint,
            "fingerprint_reduction": row.fingerprint_reduction,
            "area_overhead": row.area_overhead,
            "delay_overhead": row.delay_overhead,
            "power_overhead": row.power_overhead,
            "cells": [
                {
                    "circuit": cell.name,
                    "fingerprint_reduction": cell.fingerprint_reduction,
                    "surviving_bits": cell.surviving_bits,
                    "met_constraint": cell.met_constraint,
                }
                for cell in row.cells
            ],
            "paper": row.paper,
        }
        for row in rows
    ]


def figure7_records(series: Sequence[Figure7Series]) -> List[dict]:
    """Fig. 7 series as plain dicts."""
    return [
        {
            "circuit": s.name,
            "unconstrained_bits": s.unconstrained_bits,
            "constrained_bits": {str(k): v for k, v in s.constrained_bits.items()},
        }
        for s in series
    ]


def save_json(records, path: str) -> None:
    """Write exported records as JSON."""
    import json

    with open(path, "w") as handle:
        json.dump(records, handle, indent=2, default=str)


def save_csv(records: List[dict], path: str) -> None:
    """Write flat records as CSV (nested fields are stringified)."""
    import csv

    if not records:
        raise ValueError("no records to write")
    fields = list(records[0].keys())
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=fields)
        writer.writeheader()
        for record in records:
            writer.writerow({k: record.get(k) for k in fields})
