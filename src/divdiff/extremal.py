"""Flattest unit-size solutions of the difference constraint system.

Among grid functions that satisfy every constraint of
:func:`divdiff.constraints.build_constraint_system` and have sup norm
exactly 1, we look for one whose Lipschitz constant (largest slope
between neighbouring grid points, scaled by the grid density L) is as
small as possible.

The search is organised as a family of linear programs.  A solution
with sup norm 1 attains the value +1 or -1 at some grid index p; after
a sign flip and a reflection k -> L - k (both leave the constraints and
the objective unchanged) we may assume the value +1 is attained at some
p <= L/2.  For each such pin the program

    minimize  t
    subject to constraint rows,  f(p/L) = 1,  |f(k/L)| <= 1,
               |f((k+1)/L) - f(k/L)| * L <= t

is solved exactly.  Only columns that occur in some constraint row (or
the pin itself) need to be variables: between two consecutive
constrained columns the straight-line fill is optimal, because the
largest slope over a gap is at least the average slope, the line stays
inside the sup-norm box, and the skipped columns appear in no
constraint.  The slope bound across a gap of width g therefore reads
|f(c')-f(c)| * L / g.  Variables are shifted by u = f + 1 so they live
in [0, 2] and fit the nonnegative LP format.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .constraints import ConstraintSystem, build_constraint_system, nullspace
from .funcs import GridFunction
from .simplex import INFEASIBLE, OPTIMAL, solve_lp


@dataclass(frozen=True)
class MinLipschitzResult:
    N: int
    L: int
    status: str  # "optimal" or "infeasible"
    value: Optional[Fraction]
    pin_index: Optional[int]
    witness: Optional[GridFunction]


def _solve_pinned(
    system: ConstraintSystem, cols: list[int], pin: int
) -> tuple[Optional[Fraction], Optional[tuple[Fraction, ...]]]:
    index = {k: i for i, k in enumerate(cols)}
    nv = len(cols) + 1  # grid unknowns plus the slope bound t
    t = len(cols)
    zero = Fraction(0)

    a_eq: list[list[Fraction]] = []
    b_eq: list[Fraction] = []
    for row in system.rows:
        coeffs = [zero] * nv
        for col, coeff in row.items():
            coeffs[index[col]] = Fraction(coeff)
        a_eq.append(coeffs)
        b_eq.append(Fraction(sum(row.values())))
    pin_row = [zero] * nv
    pin_row[index[pin]] = Fraction(1)
    a_eq.append(pin_row)
    b_eq.append(Fraction(2))

    a_ub: list[list[Fraction]] = []
    b_ub: list[Fraction] = []
    for i in range(len(cols) - 1):
        weight = Fraction(system.L, cols[i + 1] - cols[i])
        for sign in (1, -1):
            coeffs = [zero] * nv
            coeffs[i + 1] = sign * weight
            coeffs[i] = -sign * weight
            coeffs[t] = Fraction(-1)
            a_ub.append(coeffs)
            b_ub.append(zero)
    for i in range(len(cols)):
        coeffs = [zero] * nv
        coeffs[i] = Fraction(1)
        a_ub.append(coeffs)
        b_ub.append(Fraction(2))

    objective = [zero] * nv
    objective[t] = Fraction(1)
    result = solve_lp(objective, a_ub, b_ub, a_eq, b_eq)
    if result.status == INFEASIBLE:
        return None, None
    if result.status != OPTIMAL:
        raise ArithmeticError(f"unexpected LP status {result.status}")
    return result.value, result.x


def _fill_witness(L: int, cols: list[int], shifted: tuple[Fraction, ...]) -> GridFunction:
    values = {k: shifted[i] - 1 for i, k in enumerate(cols)}
    entries: dict[int, Fraction] = dict(values)
    for a, b in zip(cols, cols[1:]):
        va, vb = values[a], values[b]
        for k in range(a + 1, b):
            entries[k] = va + (vb - va) * Fraction(k - a, b - a)
    return GridFunction(denominator=L, entries=entries)


def min_lipschitz_unit_norm(N: int) -> MinLipschitzResult:
    """Smallest Lipschitz constant among sup-norm-1 solutions, or infeasible."""
    system = build_constraint_system(N)
    report = nullspace(system)
    if report.dimension == 0:
        return MinLipschitzResult(
            N=N, L=system.L, status="infeasible", value=None, pin_index=None, witness=None
        )

    touched = set(system.touched)
    forced = set(report.forced_zero_points)

    best_value: Optional[Fraction] = None
    best_x: Optional[tuple[Fraction, ...]] = None
    best_cols: Optional[list[int]] = None
    best_pin: Optional[int] = None
    for pin in range(system.L // 2 + 1):
        if pin in forced:
            continue
        cols = sorted(touched | {pin})
        value, x = _solve_pinned(system, cols, pin)
        if value is None:
            continue
        if best_value is None or value < best_value:
            best_value, best_x, best_cols, best_pin = value, x, cols, pin
    if best_value is None:
        return MinLipschitzResult(
            N=N, L=system.L, status="infeasible", value=None, pin_index=None, witness=None
        )
    witness = _fill_witness(system.L, best_cols, best_x[: len(best_cols)])
    return MinLipschitzResult(
        N=N,
        L=system.L,
        status="optimal",
        value=best_value,
        pin_index=best_pin,
        witness=witness,
    )
