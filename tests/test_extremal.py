"""Minimal Lipschitz constant among unit-sup-norm solutions.

The library solves a reduced problem whose variables live only on the
grid columns that appear in some constraint row, relying on two
reductions: straight-line fill between constrained columns (optimal for
both the sup norm and the slope), and pin positions limited to the left
half by reflection symmetry.  full_grid_minimum below re-solves the
problem with one variable per grid column, slope rows for every adjacent
pair, and pins over every non-forced column, so it validates both
reductions at small N.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from divdiff import (
    build_constraint_system,
    min_lipschitz_unit_norm,
    nullspace,
)
from divdiff.cli import main
from divdiff.simplex import INFEASIBLE, OPTIMAL, solve_lp


def full_grid_minimum(N):
    system = build_constraint_system(N)
    report = nullspace(system)
    if report.dimension == 0:
        return None
    L = system.L
    nvars = L + 2  # u_0..u_L and the slope bound t
    t = L + 1

    eq_rows = []
    eq_rhs = []
    for row in system.rows:
        dense = [Fraction(0)] * nvars
        for col, coeff in row.items():
            dense[col] = Fraction(coeff)
        eq_rows.append(dense)
        eq_rhs.append(Fraction(sum(row.values())))

    ub_rows = []
    ub_rhs = []
    for k in range(L):
        for sign in (1, -1):
            dense = [Fraction(0)] * nvars
            dense[k] = Fraction(-sign * L)
            dense[k + 1] = Fraction(sign * L)
            dense[t] = Fraction(-1)
            ub_rows.append(dense)
            ub_rhs.append(Fraction(0))
    for k in range(L + 1):
        dense = [Fraction(0)] * nvars
        dense[k] = Fraction(1)
        ub_rows.append(dense)
        ub_rhs.append(Fraction(2))

    objective = [Fraction(0)] * nvars
    objective[t] = Fraction(1)

    forced = set(report.forced_zero_points)
    best = None
    for pin in range(L + 1):
        if pin in forced:
            continue
        pin_row = [Fraction(0)] * nvars
        pin_row[pin] = Fraction(1)
        res = solve_lp(
            objective,
            a_ub=ub_rows,
            b_ub=ub_rhs,
            a_eq=eq_rows + [pin_row],
            b_eq=eq_rhs + [Fraction(2)],
        )
        if res.status == INFEASIBLE:
            continue
        assert res.status == OPTIMAL
        if best is None or res.value < best:
            best = res.value
    return best


def test_one_and_two_are_infeasible():
    for N in (1, 2):
        result = min_lipschitz_unit_norm(N)
        assert result.status == "infeasible"
        assert result.value is None
        assert result.witness is None


def test_three_attains_six():
    result = min_lipschitz_unit_norm(3)
    assert result.status == "optimal"
    assert result.value == 6
    assert result.L == 6


def witness_is_valid(result):
    system = build_constraint_system(result.N)
    witness = result.witness
    assert witness is not None
    assert all(r == 0 for r in system.residuals(witness))
    assert witness.sup_norm() == 1
    assert witness.lipschitz_constant() == result.value
    assert witness.value(result.pin_index) in (1, -1)


def test_three_witness_is_valid():
    result = min_lipschitz_unit_norm(3)
    witness_is_valid(result)
    # hand check: height 1 at 1/6 forces slope 6 on [0, 1/6]
    assert result.witness.value(result.pin_index) == 1


def test_four_attains_six_with_valid_witness():
    result = min_lipschitz_unit_norm(4)
    assert result.status == "optimal"
    assert result.value == 6
    witness_is_valid(result)


@pytest.mark.parametrize("N", [3, 4])
def test_reduced_problem_matches_full_grid(N):
    assert min_lipschitz_unit_norm(N).value == full_grid_minimum(N)


def test_five_and_six_stay_at_six():
    for N in (5, 6):
        result = min_lipschitz_unit_norm(N)
        assert result.status == "optimal"
        assert result.value == 6
        witness_is_valid(result)


# SHA-256 of the full stdout of `divdiff minlip --N k`, and the pin the
# optimum was found at, recorded with the rational (Fraction) tableau.
# The witness and pin come from the pivot path of Bland's rule, so a
# change to that path shows up here even when the value stays 6.
MINLIP_REPORTS = {
    3: (1, "bfbc05ad05007afe0c128db14a6043da5e77eb3dbcc898f09621111b52e5c9e5"),
    4: (2, "9c324280106ddbea5c42e547af059c34c0054f2503be857ed7e3286e9f6d1ee7"),
    5: (10, "ec188bf350a57e945643e73827ce2427941c106ee65b268a9c36063f9507df0a"),
    6: (10, "88ea50d284d4b24524b55feb3a8506ebcdf1304d9610a44c7a751bebe848bebf"),
}


@pytest.mark.parametrize("N", sorted(MINLIP_REPORTS))
def test_minlip_report_is_byte_identical(N, capsys):
    pin, digest = MINLIP_REPORTS[N]
    assert main(["minlip", "--N", str(N)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
    assert json.loads(out)["results"]["pin_index"] == pin


def test_rejects_nonpositive_n():
    with pytest.raises(ValueError):
        min_lipschitz_unit_norm(0)
