"""Exact linear programming over the rationals.

Solves   minimize c.x   subject to   A_ub x <= b_ub,  A_eq x = b_eq,  x >= 0

by the two-phase tableau simplex method with Bland's anti-cycling rule.
The tableau is integer-preserving: each row (and the cost row) is kept
as a list of ints that is a positive multiple of the true rational row.
Input rows are scaled once by the lcm of their denominators; a pivot
replaces row i by p*row_i - row_i[c]*pivot_row, touching only the pivot
row's nonzero columns for the subtraction, and then divides the row by
the gcd of its entries.  A positive row scale changes neither the sign
of an entry nor the ratio rhs/entry, which is all Bland's rule reads, so
pivoting follows exactly the path of a rational tableau.  Feasibility,
optimality and the reported optimum are therefore exact statements,
never floating-point verdicts; the solution is read back as the
Fraction rhs/basic-entry.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LpResult:
    status: str
    value: Optional[Fraction]
    x: Optional[tuple[Fraction, ...]]


def _reduced(row: list[int]) -> list[int]:
    """``row`` divided by the gcd of its entries (a zero row is returned as is)."""
    g = math.gcd(*row)
    return [v // g for v in row] if g > 1 else row


def _scaled(values: Sequence) -> tuple[list[int], int]:
    """``values`` times the lcm of their denominators, and that lcm."""
    values = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in values]
    scale = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values], scale


def _eliminate(row: list[int], f: int, p: int, support: list[tuple[int, int]]) -> list[int]:
    """p*row - f*prow over the pivot row's nonzero entries ``support``."""
    row = [p * v for v in row] if p != 1 else row[:]
    for j, v in support:
        row[j] -= f * v
    return _reduced(row)


def _pivot(rows: list[list[int]], cost: list[int], basis: list[int], r: int, c: int) -> None:
    prow = rows[r]
    p = prow[c]
    # Negating keeps the pivot row a positive multiple of the rational row
    # prow/p; the artificial cleanup in solve_lp can pivot on a negative entry.
    if p < 0:
        prow = rows[r] = [-v for v in prow]
        p = -p
    support = [(j, v) for j, v in enumerate(prow) if v]
    for i, row in enumerate(rows):
        if i != r and row[c]:
            rows[i] = _eliminate(row, row[c], p, support)
    if cost[c]:
        cost[:] = _eliminate(cost, cost[c], p, support)
    basis[r] = c


def _price_out(cost: list[int], rows: list[list[int]], basis: list[int]) -> None:
    for i, b in enumerate(basis):
        if cost[b]:
            row = rows[i]
            cost[:] = _eliminate(cost, cost[b], row[b], [(j, v) for j, v in enumerate(row) if v])


def _iterate(
    rows: list[list[int]],
    cost: list[int],
    basis: list[int],
    banned: frozenset[int],
) -> str:
    width = len(cost) - 1
    while True:
        entering = next(
            (j for j in range(width) if j not in banned and cost[j] < 0), None
        )
        if entering is None:
            return OPTIMAL
        leaving = None
        best_rhs = best_coeff = 0
        for i, row in enumerate(rows):
            coeff = row[entering]
            if coeff > 0:
                # rhs/coeff against best_rhs/best_coeff, both denominators > 0.
                lhs = row[-1] * best_coeff
                rhs = best_rhs * coeff
                # Bland: break ratio ties on the smallest basic variable index.
                if leaving is None or lhs < rhs or (lhs == rhs and basis[i] < basis[leaving]):
                    best_rhs, best_coeff = row[-1], coeff
                    leaving = i
        if leaving is None:
            return UNBOUNDED
        _pivot(rows, cost, basis, leaving, entering)


def solve_lp(
    c: Sequence[Fraction],
    a_ub: Sequence[Sequence[Fraction]] = (),
    b_ub: Sequence[Fraction] = (),
    a_eq: Sequence[Sequence[Fraction]] = (),
    b_eq: Sequence[Fraction] = (),
) -> LpResult:
    """Minimize c.x over x >= 0 with the given inequality and equality rows."""
    ub = [_scaled([*row, b]) for row, b in zip(a_ub, b_ub, strict=True)]
    eq = [_scaled([*row, b]) for row, b in zip(a_eq, b_eq, strict=True)]
    n = len(c)
    m_ub = len(ub)
    n_art = len(eq) + sum(1 for scaled, _ in ub if scaled[-1] < 0)
    art_start = n + m_ub
    total = art_start + n_art

    rows: list[list[int]] = []
    basis: list[int] = []
    art = art_start
    for i, (scaled, s) in enumerate(ub):
        negate = scaled[-1] < 0
        if negate:
            scaled = [-v for v in scaled]
        row = scaled[:n] + [0] * (m_ub + n_art) + scaled[n:]
        row[n + i] = -s if negate else s
        if negate:
            row[art] = s
            basis.append(art)
            art += 1
        else:
            basis.append(n + i)
        rows.append(_reduced(row))
    for scaled, s in eq:
        if scaled[-1] < 0:
            scaled = [-v for v in scaled]
        row = scaled[:n] + [0] * (m_ub + n_art) + scaled[n:]
        row[art] = s
        basis.append(art)
        art += 1
        rows.append(_reduced(row))

    if n_art:
        cost1 = [0] * art_start + [1] * n_art + [0]
        _price_out(cost1, rows, basis)
        status = _iterate(rows, cost1, basis, frozenset())
        if status != OPTIMAL or -cost1[-1] > 0:
            return LpResult(INFEASIBLE, None, None)
        # Pivot leftover artificials out of the basis; rows that cannot be
        # pivoted are redundant and get dropped.
        keep: list[int] = []
        for i in range(len(rows)):
            if basis[i] >= art_start:
                col = next((j for j in range(art_start) if rows[i][j] != 0), None)
                if col is None:
                    continue
                _pivot(rows, cost1, basis, i, col)
            keep.append(i)
        rows = [rows[i] for i in keep]
        basis = [basis[i] for i in keep]

    banned = frozenset(range(art_start, total))
    cost2 = _reduced(_scaled(c)[0]) + [0] * (m_ub + n_art) + [0]
    _price_out(cost2, rows, basis)
    status = _iterate(rows, cost2, basis, banned)
    if status == UNBOUNDED:
        return LpResult(UNBOUNDED, None, None)

    x = [Fraction(0)] * n
    for i, b in enumerate(basis):
        if b < n:
            x[b] = Fraction(rows[i][-1], rows[i][b])
    value = sum(ci * xi for ci, xi in zip(c, x))
    return LpResult(OPTIMAL, value, tuple(x))
