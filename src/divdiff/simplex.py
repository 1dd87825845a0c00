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

The cost row carries one more entry after its rhs: the positive factor
it is scaled by, which the pivots update like any other entry.  With it
the final cost row gives the simplex multipliers exactly: the reduced
cost of a row's slack (or, for an equality, its artificial) column is
minus that row's multiplier.  ``solve_lp`` returns them as a dual
solution when the program is optimal and as a Farkas ray, read from the
phase-1 cost row, when it is infeasible; ``certify`` checks either one
from the program's own data, without the tableau.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
_ZERO = Fraction(0)


@dataclass(frozen=True)
class LpResult:
    """An LP outcome.  ``dual`` holds one multiplier per row, the a_ub rows
    first: an optimal dual solution when OPTIMAL, a Farkas ray when
    INFEASIBLE, None when UNBOUNDED."""

    status: str
    value: Optional[Fraction]
    x: Optional[tuple[Fraction, ...]]
    dual: Optional[tuple[Fraction, ...]] = None


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


# Degenerate pivots in a row after which the largest-coefficient rule
# gives way to Bland's rule until the next nondegenerate pivot.
STALL_LIMIT = 50


def _iterate(
    rows: list[list[int]],
    cost: list[int],
    basis: list[int],
    banned: frozenset[int],
    largest: bool = False,
) -> str:
    width = len(cost) - 2  # the cost row ends in its rhs and its scale
    stalls = 0
    while True:
        if largest and stalls < STALL_LIMIT:
            # Dantzig: the most negative reduced cost, the smallest index on ties.
            entering = min(
                ((v, j) for j, v in enumerate(cost[:width]) if v < 0 and j not in banned),
                default=(0, None),
            )[1]
        else:
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
        stalls = stalls + 1 if best_rhs == 0 else 0
        _pivot(rows, cost, basis, leaving, entering)


def _multipliers(
    cost: list[int], n: int, m_ub: int, eq_units: list[tuple[int, int]], art_cost: int
) -> tuple[Fraction, ...]:
    """The multiplier of every input row, read from the reduced costs.

    A cost row is scale * (cost - y.M) over the input rows M, so the
    slack column of a_ub row i holds -scale * y_i.  An equality row is
    read at its artificial column (entry art_cost before pricing), with
    sign -1 when the row was negated to make its rhs nonnegative.
    """
    scale = cost[-1]
    y = [-cost[n + i] for i in range(m_ub)]
    y += [sign * (art_cost * scale - cost[j]) for j, sign in eq_units]
    return tuple(Fraction(v, scale) if v else _ZERO for v in y)


def solve_lp(
    c: Sequence[Fraction],
    a_ub: Sequence[Sequence[Fraction]] = (),
    b_ub: Sequence[Fraction] = (),
    a_eq: Sequence[Sequence[Fraction]] = (),
    b_eq: Sequence[Fraction] = (),
    largest: bool = False,
) -> LpResult:
    """Minimize c.x over x >= 0 with the given inequality and equality rows.

    Pivots follow Bland's rule, so the vertex returned is a function of
    the program alone.  With largest, a column enters by the most
    negative reduced cost instead (Dantzig's rule), which usually takes
    far fewer pivots; after STALL_LIMIT degenerate pivots in a row,
    Bland's rule picks the entering column until a nondegenerate pivot
    comes.  It still cannot cycle: a nondegenerate pivot strictly lowers
    the objective, so a cycle would be a run of degenerate pivots only,
    and such a run ends under Bland's rule.  The optimum value is the
    same either way, the vertex may not be.
    """
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
    eq_units: list[tuple[int, int]] = []  # (artificial column, sign) per a_eq row
    for scaled, s in eq:
        sign = -1 if scaled[-1] < 0 else 1
        if sign < 0:
            scaled = [-v for v in scaled]
        row = scaled[:n] + [0] * (m_ub + n_art) + scaled[n:]
        row[art] = s
        basis.append(art)
        eq_units.append((art, sign))
        art += 1
        rows.append(_reduced(row))

    if n_art:
        cost1 = [0] * art_start + [1] * n_art + [0, 1]
        _price_out(cost1, rows, basis)
        status = _iterate(rows, cost1, basis, frozenset(), largest)
        if status != OPTIMAL or -cost1[-2] > 0:
            ray = _multipliers(cost1, n, m_ub, eq_units, 1)
            return LpResult(INFEASIBLE, None, None, ray)
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
    scaled_c, s = _scaled(c)
    cost2 = _reduced(scaled_c + [0] * (m_ub + n_art) + [0, s])
    _price_out(cost2, rows, basis)
    status = _iterate(rows, cost2, basis, banned, largest)
    if status == UNBOUNDED:
        return LpResult(UNBOUNDED, None, None)

    x = [Fraction(0)] * n
    for i, b in enumerate(basis):
        if b < n:
            x[b] = Fraction(rows[i][-1], rows[i][b])
    value = sum(ci * xi for ci, xi in zip(c, x))
    return LpResult(OPTIMAL, value, tuple(x), _multipliers(cost2, n, m_ub, eq_units, 0))


def _dot(row: Sequence[Fraction], x: Sequence[Fraction]) -> Fraction:
    """row . x over the nonzero products, in integers, as one Fraction."""
    num, den = 0, 1
    for a, v in zip(row, x):
        if a and v:
            d = a.denominator * v.denominator
            num = num * d + a.numerator * v.numerator * den
            den *= d
    return Fraction(num, den)


def certify(
    result: LpResult,
    c: Sequence[Fraction],
    a_ub: Sequence[Sequence[Fraction]] = (),
    b_ub: Sequence[Fraction] = (),
    a_eq: Sequence[Sequence[Fraction]] = (),
    b_eq: Sequence[Fraction] = (),
) -> None:
    """Check result's certificate against the program; raise ArithmeticError if it fails.

    An OPTIMAL result needs x feasible, its dual y feasible (y <= 0 on
    the a_ub rows, A^T y <= c) and b.y == c.x == value: weak duality
    then makes value the exact optimum.  An INFEASIBLE result needs its
    ray y <= 0 on the a_ub rows with A^T y <= 0 and b.y > 0, which no
    x >= 0 can satisfy.  Each sum of products runs in integers over the
    nonzero terms, so the check costs one pass over the program.
    """
    rows = [*a_ub, *a_eq]
    y = result.dual
    if result.status not in (OPTIMAL, INFEASIBLE) or y is None or len(y) != len(rows):
        raise ArithmeticError(f"LP result ({result.status}) carries no certificate")
    if any(v > 0 for v in y[: len(a_ub)]):
        raise ArithmeticError("LP multiplier of an inequality row is positive")
    ty = [_dot(column, y) for column in zip(*rows)] or [0] * len(c)  # A^T y
    by = _dot(y, [*b_ub, *b_eq])
    if result.status == INFEASIBLE:
        if by <= 0 or any(v > 0 for v in ty):
            raise ArithmeticError("LP Farkas ray does not prove infeasibility")
        return
    x = result.x
    if (
        x is None
        or len(x) != len(c)
        or any(v < 0 for v in x)
        or any(_dot(row, x) > b for row, b in zip(a_ub, b_ub))
        or any(_dot(row, x) != b for row, b in zip(a_eq, b_eq))
    ):
        raise ArithmeticError("LP solution is not feasible")
    if any(v > cj for v, cj in zip(ty, c)):
        raise ArithmeticError("LP dual is not feasible")
    if not _dot(c, x) == by == result.value:
        raise ArithmeticError("LP duality gap is not zero")
