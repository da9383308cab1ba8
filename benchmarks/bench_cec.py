"""A3 — Substrate cross-check: equivalence-checking engines.

Benchmarks the functional-verification back ends on the same
fingerprinted design — exhaustive bit-parallel simulation, random
simulation and SAT-based CEC — and asserts they agree.  This is the check
that backs every "without changing the functionality" claim in the
reproduction.

Also measures the incremental CEC session
(:class:`repro.sat.incremental.IncrementalCecSession`, which
:func:`repro.sat.cec.check` runs one-shot) against a per-copy scratch
miter (:func:`repro.sat.cec.build_miter` on a fresh solver, no sweeping)
on a multi-copy fingerprint workload, and writes
``BENCH_cec_incremental.json`` at the repository root.

Acceptance gate: >= 3x total speedup verifying 8 fingerprint copies of a
>= 1,000-gate design (``k2``, 1206 gates), verdicts identical to the
scratch miter on every copy.

Standalone usage::

    python benchmarks/bench_cec.py            # full record + gate check
    python benchmarks/bench_cec.py --smoke    # small CI-sized cross-check
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import time
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np
import pytest

from repro.bench import RandomLogicSpec, build_benchmark, generate
from repro.fingerprint import (
    FingerprintCodec,
    embed,
    find_locations,
    full_assignment,
)
from repro.netlist.circuit import Circuit
from repro.sat import CdclSolver, IncrementalCecSession, sat_equivalent
from repro.sat.cec import CecVerdict, build_miter
from repro.sim import exhaustive_equivalent, random_equivalent

#: The >= 1,000-gate design the incremental acceptance gate runs on.
INCREMENTAL_DESIGN = "k2"
N_COPIES = 8
N_MODS_PER_COPY = 3
MIN_INCREMENTAL_SPEEDUP = 3.0

RECORD_PATH = Path(__file__).resolve().parents[1] / "BENCH_cec_incremental.json"


@pytest.fixture(scope="module")
def pair():
    base = generate(
        RandomLogicSpec(name="cec", n_inputs=14, n_outputs=6, n_gates=220, seed=77)
    )
    catalog = find_locations(base)
    copy = embed(base, catalog, full_assignment(base, catalog))
    return base, copy.circuit


def test_exhaustive_simulation(benchmark, pair):
    base, fingerprinted = pair
    result = benchmark(exhaustive_equivalent, base, fingerprinted)
    assert result.equivalent and result.complete
    benchmark.extra_info["vectors"] = result.n_vectors


def test_random_simulation(benchmark, pair):
    base, fingerprinted = pair
    result = benchmark(random_equivalent, base, fingerprinted, 4096)
    assert result.equivalent and not result.complete


def test_sat_cec(benchmark, pair):
    base, fingerprinted = pair
    result = benchmark.pedantic(
        sat_equivalent, args=(base, fingerprinted), rounds=2, iterations=1
    )
    assert result.equivalent
    benchmark.extra_info["conflicts"] = result.stats.conflicts
    benchmark.extra_info["decisions"] = result.stats.decisions
    benchmark.extra_info["watch_visits"] = result.stats.watch_visits
    benchmark.extra_info["learned_deleted"] = result.stats.learned_deleted
    benchmark.extra_info["propagations_per_sec"] = round(
        result.stats.propagations_per_sec
    )


def test_engines_agree_on_mutant(pair):
    """All engines must catch an injected functional bug."""
    base, fingerprinted = pair
    mutant = fingerprinted.clone("mutant")
    victim = next(g for g in mutant.topological_order() if g.kind in ("AND", "OR"))
    flipped = "NAND" if victim.kind == "AND" else "NOR"
    mutant.replace_gate(victim.name, flipped, list(victim.inputs))
    assert not exhaustive_equivalent(base, mutant).equivalent
    assert not sat_equivalent(base, mutant).equivalent


def test_strash_check(benchmark, pair):
    """Strashing is a fast sufficient check — and it must NOT recognize a
    fingerprinted copy (the modification is functional, not structural),
    which is the paper's hard-to-detect argument in substrate form."""
    from repro.aig import strash_equivalent

    base, fingerprinted = pair
    verdict = benchmark(strash_equivalent, base, fingerprinted)
    assert verdict is False  # inconclusive -> needs sim/SAT
    assert strash_equivalent(base, base.clone("twin"))


# --------------------------------------------------------------------- #
# incremental session vs per-copy scratch CEC
# --------------------------------------------------------------------- #


def make_sparse_copies(
    base: Circuit,
    catalog,
    n_copies: int,
    n_mods: int,
    seed: int = 2015,
) -> List[Tuple[int, Circuit]]:
    """Distinct fingerprint copies with ``n_mods`` active slots each.

    Sparse assignments model the deployed regime (each issued copy flips a
    handful of ODC modifications); the codec value identifies the copy.
    """
    codec = FingerprintCodec(catalog)
    slots = [slot for location in catalog for slot in location.slots]
    if len(slots) < n_mods:
        raise ValueError(f"only {len(slots)} slots; cannot modify {n_mods}")
    rng = random.Random(seed)
    copies: List[Tuple[int, Circuit]] = []
    seen = set()
    while len(copies) < n_copies:
        assignment = {slot.target: 0 for slot in slots}
        for index in rng.sample(range(len(slots)), n_mods):
            slot = slots[index]
            assignment[slot.target] = rng.randrange(1, len(slot.variants) + 1)
        value = codec.decode(assignment)
        if value in seen:
            continue
        seen.add(value)
        name = f"{base.name}_v{len(copies)}"
        copies.append((value, embed(base, catalog, assignment, name=name).circuit))
    return copies


def scratch_miter(base: Circuit, copy: Circuit) -> CecVerdict:
    """The unswept miter of ``base`` and ``copy`` on a fresh solver."""
    result = CdclSolver(build_miter(base, copy).cnf).solve()
    return CecVerdict.NOT_EQUIVALENT if result.satisfiable else CecVerdict.EQUIVALENT


def collect_incremental(
    base: Optional[Circuit] = None,
    n_copies: int = N_COPIES,
    n_mods: int = N_MODS_PER_COPY,
    seed: int = 2015,
) -> dict:
    """Scratch-vs-incremental timing record for a multi-copy workload.

    Every copy is checked twice — once through a fresh miter + fresh
    solver (:func:`scratch_miter`) and once through one shared
    :class:`IncrementalCecSession` — and the verdicts must agree copy for
    copy.
    """
    if base is None:
        base = build_benchmark(INCREMENTAL_DESIGN)
    catalog = find_locations(base)
    copies = make_sparse_copies(base, catalog, n_copies, n_mods, seed=seed)

    scratch_rows = []
    scratch_total = 0.0
    for value, copy in copies:
        start = time.perf_counter()
        result = scratch_miter(base, copy)
        seconds = time.perf_counter() - start
        scratch_total += seconds
        scratch_rows.append((value, result, seconds))

    start = time.perf_counter()
    session = IncrementalCecSession(base)
    setup_seconds = time.perf_counter() - start
    incremental_rows = []
    incremental_total = setup_seconds
    for value, copy in copies:
        start = time.perf_counter()
        result = session.verify(copy)
        seconds = time.perf_counter() - start
        incremental_total += seconds
        incremental_rows.append((value, result, seconds))

    rows = []
    for (value, scratch, s_sec), (_, inc, i_sec) in zip(
        scratch_rows, incremental_rows
    ):
        if scratch is not inc.verdict:
            raise AssertionError(
                f"verdict mismatch on copy {value}: "
                f"scratch={scratch} incremental={inc.verdict}"
            )
        rows.append(
            {
                "value": value,
                "verdict": inc.verdict.value,
                "scratch_seconds": s_sec,
                "incremental_seconds": i_sec,
                "outputs_structural": inc.detail["outputs_structural"],
                "outputs_sat": inc.detail["outputs_sat"],
                "pairs_merged": inc.detail["pairs_merged"],
                "gates_encoded": inc.detail["gates_encoded"],
                "gates_reused": inc.detail["gates_reused"],
            }
        )

    stats = session.solver.stats
    return {
        "bench": "cec_incremental",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "design": base.name,
        "gates": base.n_gates,
        "inputs": len(base.inputs),
        "outputs": len(base.outputs),
        "n_copies": n_copies,
        "n_mods_per_copy": n_mods,
        "scratch_seconds_total": scratch_total,
        "incremental_seconds_total": incremental_total,
        "session_setup_seconds": setup_seconds,
        "speedup": scratch_total / incremental_total,
        "verdicts_match": True,
        "copies": rows,
        "session_solver": {
            "propagations": stats.propagations,
            "conflicts": stats.conflicts,
            "decisions": stats.decisions,
            "learned": stats.learned,
            "learned_deleted": stats.learned_deleted,
            "watch_visits": stats.watch_visits,
            "restarts": stats.restarts,
            "propagations_per_sec": stats.propagations_per_sec,
        },
    }


def write_record(record: dict, path: Path = RECORD_PATH) -> None:
    path.write_text(json.dumps(record, indent=2) + "\n")


def smoke_base() -> Circuit:
    """A small design for the CI-sized incremental cross-check."""
    return generate(
        RandomLogicSpec(name="cec-smoke", n_inputs=12, n_outputs=8, n_gates=150, seed=9)
    )


def run_smoke() -> dict:
    """Exercise the incremental path at CI scale (no record written).

    Besides the equivalent copies, a functionally broken copy must come
    back NOT_EQUIVALENT from both engines.
    """
    base = smoke_base()
    record = collect_incremental(base, n_copies=3, n_mods=2, seed=4)
    mutant = base.clone("mutant")
    victim = next(g for g in mutant.topological_order() if g.kind in ("AND", "OR"))
    flipped = "NAND" if victim.kind == "AND" else "NOR"
    mutant.replace_gate(victim.name, flipped, list(victim.inputs))
    session = IncrementalCecSession(base)
    inc = session.verify(mutant)
    ref = scratch_miter(base, mutant)
    if inc.verdict is not ref:
        raise AssertionError(
            f"mutant verdicts disagree: incremental={inc.verdict} ref={ref}"
        )
    record["mutant_verdict"] = inc.verdict.value
    return record


def test_incremental_session_smoke():
    """CI-sized differential check of session vs scratch miter."""
    record = run_smoke()
    assert record["verdicts_match"]
    assert all(row["verdict"] == "equivalent" for row in record["copies"])
    assert record["mutant_verdict"] == "not_equivalent"


def _print_record(record: dict) -> None:
    print(
        f"{record['design']}: {record['gates']} gates, "
        f"{record['n_copies']} copies x {record['n_mods_per_copy']} mods"
    )
    for row in record["copies"]:
        print(
            f"  copy {str(row['value'])[:12]:<12} {row['verdict']:<14} "
            f"scratch {row['scratch_seconds']:7.2f}s  "
            f"incremental {row['incremental_seconds']:6.2f}s  "
            f"(structural {row['outputs_structural']}, sat {row['outputs_sat']}, "
            f"encoded {row['gates_encoded']}, reused {row['gates_reused']})"
        )
    solver = record["session_solver"]
    print(
        f"session solver: {solver['propagations']} props "
        f"({solver['propagations_per_sec']:.0f}/s), "
        f"{solver['conflicts']} conflicts, {solver['learned']} learned "
        f"({solver['learned_deleted']} deleted), "
        f"{solver['watch_visits']} watch visits"
    )
    print(
        f"total: scratch {record['scratch_seconds_total']:.2f}s  "
        f"incremental {record['incremental_seconds_total']:.2f}s "
        f"(setup {record['session_setup_seconds']:.2f}s)  "
        f"speedup {record['speedup']:.2f}x"
    )


def main(argv: Optional[List[str]] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small CI-sized cross-check; does not write the record",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        record = run_smoke()
        _print_record(record)
        print(f"mutant verdict: {record['mutant_verdict']}")
        print("smoke OK")
        return
    record = collect_incremental()
    write_record(record)
    print(f"wrote {RECORD_PATH}")
    _print_record(record)
    if record["speedup"] < MIN_INCREMENTAL_SPEEDUP:
        raise SystemExit(
            f"speedup {record['speedup']:.2f}x below the "
            f"{MIN_INCREMENTAL_SPEEDUP}x gate"
        )


if __name__ == "__main__":
    main()
