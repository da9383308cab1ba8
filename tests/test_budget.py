"""Budgets, three-valued SAT results, and the budgeted solver/CEC path."""

from __future__ import annotations

import pytest

from repro.budget import UNLIMITED, Budget
from repro.fingerprint import embed, find_locations, full_assignment
from repro.sat import CecVerdict, SatStatus, check, sat_equivalent, solve_cnf
from repro.sat.cnf import Cnf


def _pigeonhole(holes: int) -> Cnf:
    """PHP(holes+1, holes): unsatisfiable and conflict-heavy — ideal for
    forcing the solver into its budget checks."""
    cnf = Cnf()
    pigeons = holes + 1
    var = [[cnf.new_var() for _ in range(holes)] for _ in range(pigeons)]
    for p in range(pigeons):
        cnf.add_clause(var[p])
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                cnf.add_clause([-var[p1][h], -var[p2][h]])
    return cnf


# --------------------------------------------------------------------- #
# Budget / BudgetClock
# --------------------------------------------------------------------- #


def test_default_budget_is_unlimited():
    assert Budget().unlimited
    assert UNLIMITED.unlimited
    clock = UNLIMITED.start()
    assert clock.exhausted_reason(10**9, 10**9) is None


def test_negative_limits_rejected():
    from repro.budget import BudgetError
    from repro.errors import ReproError

    with pytest.raises(BudgetError) as excinfo:
        Budget(deadline_s=-1.0)
    # typed for the CLI, still a ValueError for old-style handlers
    assert isinstance(excinfo.value, (ReproError, ValueError))
    with pytest.raises(ValueError):
        Budget(max_conflicts=-5)


def test_conflict_limit_reason():
    clock = Budget(max_conflicts=100).start()
    assert clock.exhausted_reason(99, 0) is None
    reason = clock.exhausted_reason(100, 0)
    assert reason is not None and "conflict limit 100" in reason


def test_decision_limit_reason():
    clock = Budget(max_decisions=7).start()
    assert clock.exhausted_reason(0, 6) is None
    reason = clock.exhausted_reason(0, 7)
    assert reason is not None and "decision limit 7" in reason


def test_deadline_reason():
    clock = Budget(deadline_s=0.0).start()
    reason = clock.exhausted_reason(0, 0)
    assert reason is not None and "deadline" in reason


def test_budget_str_lists_limits():
    text = str(Budget(deadline_s=30.0, max_conflicts=1000))
    assert "deadline=30s" in text
    assert "conflicts<=1000" in text


# --------------------------------------------------------------------- #
# three-valued SatResult
# --------------------------------------------------------------------- #


def test_sat_result_statuses():
    cnf = Cnf()
    a = cnf.new_var()
    cnf.add_clause([a])
    result = solve_cnf(cnf)
    assert result.status is SatStatus.SAT
    assert result.satisfiable and not result.unknown and bool(result)

    cnf.add_clause([-a])
    result = solve_cnf(cnf)
    assert result.status is SatStatus.UNSAT
    assert not result.satisfiable and not result.unknown and not bool(result)


def test_value_defaults_unassigned_vars_to_false():
    """Regression: vars never touched by the search (e.g. eliminated by
    simplification or absent from any clause) used to raise ``KeyError``."""
    cnf = Cnf()
    a = cnf.new_var()
    unused = cnf.new_var()
    cnf.add_clause([a])
    result = solve_cnf(cnf)
    assert result.value(a) is True
    assert result.value(unused) is False  # no KeyError


def test_value_without_model_raises_typed_error():
    cnf = Cnf()
    a = cnf.new_var()
    cnf.add_clause([a])
    cnf.add_clause([-a])
    result = solve_cnf(cnf)
    with pytest.raises(ValueError, match="unsat"):
        result.value(a)


def test_budgeted_solve_returns_unknown_with_reason():
    result = solve_cnf(_pigeonhole(8), budget=Budget(max_conflicts=3))
    assert result.status is SatStatus.UNKNOWN
    assert result.unknown and not result.satisfiable and not bool(result)
    assert result.reason is not None and "conflict limit 3" in result.reason
    assert result.model is None


def test_budgeted_solve_decision_limit():
    result = solve_cnf(_pigeonhole(8), budget=Budget(max_decisions=2))
    assert result.status is SatStatus.UNKNOWN
    assert "decision limit 2" in result.reason


def test_unlimited_budget_still_decides():
    result = solve_cnf(_pigeonhole(4), budget=UNLIMITED)
    assert result.status is SatStatus.UNSAT


# --------------------------------------------------------------------- #
# budgeted CEC
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def fingerprinted_pair():
    from repro.bench import RandomLogicSpec, generate

    base = generate(
        RandomLogicSpec(name="budget_cec", n_inputs=12, n_outputs=5,
                        n_gates=150, seed=11)
    )
    catalog = find_locations(base)
    copy = embed(base, catalog, full_assignment(base, catalog))
    return base, copy.circuit


def test_cec_undecided_on_starved_budget(fingerprinted_pair):
    """A 1-conflict budget on a non-trivial miter must come back
    UNDECIDED, not hang or crash.  The copy's internal nets are renamed so
    SAT sweeping pairs none of them and the outputs still need search."""
    from tests.reference_cec import rename_internal

    base, copy = fingerprinted_pair
    result = check(base, rename_internal(copy), budget=Budget(max_conflicts=1))
    assert result.verdict is CecVerdict.UNDECIDED
    assert not result.decided
    assert result.equivalent is False  # undecided is never "equivalent"
    assert "conflict limit 1" in result.reason


def test_cec_decides_with_ample_budget(fingerprinted_pair):
    base, copy = fingerprinted_pair
    result = check(base, copy, budget=Budget(max_conflicts=2_000_000))
    assert result.verdict is CecVerdict.EQUIVALENT
    assert result.decided and result.equivalent


def test_sat_equivalent_compat_wrapper(fingerprinted_pair):
    base, copy = fingerprinted_pair
    assert sat_equivalent(base, copy).equivalent
