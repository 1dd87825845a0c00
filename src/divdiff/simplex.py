"""Exact linear programming over the rationals.

Solves   minimize c.x   subject to   A_ub x <= b_ub,  A_eq x = b_eq,  x >= 0

by the two-phase tableau simplex method with Bland's anti-cycling rule,
and solves the same program again for new right-hand sides by the dual
simplex method, starting from the last optimal basis.

The tableau is integer-preserving and sparse: each row (and the cost
row) is a positive multiple of the true rational row, kept as a dict of
its nonzero entries, column -> int, with the rhs under the key _RHS.
Input rows are scaled once by the lcm of their denominators; a pivot
replaces each row i that has a nonzero f in the pivot column by
p*row_i - f*pivot_row, which touches only the nonzero entries of the two
rows, and then divides the row by the gcd of its entries.  A positive
row scale changes neither the sign of an entry nor the ratio of two
entries, which is all Bland's rule reads, so pivoting follows exactly
the path of a rational tableau.  Feasibility, optimality and the
reported optimum are therefore exact statements, never floating-point
verdicts; the solution is read back as the Fraction rhs/basic-entry.

The cost row carries one more entry, under the key _SCALE: the positive
factor it is scaled by, which the pivots update like any other entry.
With it the final cost row gives the simplex multipliers exactly: the
reduced cost of a row's slack (or, for an equality, its artificial)
column is minus that row's multiplier.  A solve returns them as a dual
solution when the program is optimal and as a Farkas ray when it is
infeasible; ``certify`` checks either one from the program's own data,
without the tableau.

A new right-hand side needs no new tableau.  The tableau is D B^-1 times
the scaled input rows, for the basis matrix B and a positive diagonal D
of row scales, and the slack column of an inequality row (the
artificial column of an equality row, negated when that row was) is D
B^-1 times the row's unit vector at the row's input scale.  So every
row's rhs is the sum over the input rows i of b_i times the row's entry
in the unit column of i, and a change of b_i by d adds d times that
entry, in the rows where it is nonzero.  The reduced costs do not
depend on b, so the basis stays dual feasible (the cost row's rhs, the
objective value, is not read after phase 1 and is left as it is).  The
dual simplex method then restores primal feasibility: while some rhs
is negative, the row of the smallest basic index with a negative rhs
leaves, and the column with the least ratio of reduced cost to minus
its negative entry in that row enters, the smallest index on ties.
That is Bland's rule on the dual, so it cannot cycle.  When the leaving
row has no negative entry in a column that may enter, it states that a
sum of nonnegative terms is negative: its unit-column entries, negated,
are a Farkas ray, and the basis, still dual feasible, is kept for the
next right-hand side.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
_ZERO = Fraction(0)
_RHS = -1  # the key of a row's right-hand side
_SCALE = -2  # the key of the cost row's positive scale

Row = dict[int, int]


@dataclass(frozen=True)
class LpResult:
    """An LP outcome.  ``dual`` holds one multiplier per row, the a_ub rows
    first: an optimal dual solution when OPTIMAL, a Farkas ray when
    INFEASIBLE, None when UNBOUNDED."""

    status: str
    value: Optional[Fraction]
    x: Optional[tuple[Fraction, ...]]
    dual: Optional[tuple[Fraction, ...]] = None


def _reduced(row: Row) -> Row:
    """``row`` divided by the gcd of its entries (a zero row is returned as is)."""
    g = math.gcd(*row.values())
    return {j: v // g for j, v in row.items()} if g > 1 else row


def _scaled(values: Sequence) -> tuple[list[int], int]:
    """``values`` (ints and Fractions) times the lcm of their denominators, and that lcm."""
    scale = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values], scale


def _eliminate(row: Row, f: int, p: int, prow: Row) -> Row:
    """p*row - f*prow, reduced, for p > 0: the entry f of row against p of prow."""
    g = math.gcd(f, p)
    if g > 1:
        f //= g
        p //= g
    new = {j: p * v for j, v in row.items()} if p != 1 else row.copy()
    for j, v in prow.items():
        w = new.get(j, 0) - f * v
        if w:
            new[j] = w
        else:
            del new[j]
    return _reduced(new)


def _moved(row: Row, moves: list[tuple[int, int]], d: int) -> Row:
    """``row`` with its rhs moved by sum(delta * row[unit]) / d, over (unit, delta) in moves."""
    s = sum(delta * row[unit] for unit, delta in moves if unit in row)
    if not s:
        return row
    row = {j: d * v for j, v in row.items()}
    rhs = row.get(_RHS, 0) + s
    if rhs:
        row[_RHS] = rhs
    else:
        del row[_RHS]
    return _reduced(row)


class _Tableau:
    """The simplex tableau of one program, kept to solve it for new right-hand sides.

    ``solve(b_ub, b_eq)`` starts from the last optimal basis by the dual
    simplex method when there is one, and runs the two-phase method from
    scratch otherwise: on the first call, after a cold solve that found
    the program infeasible or unbounded, and after phase 1 dropped a
    redundant equality (whose row a new rhs could make inconsistent).
    """

    def __init__(
        self,
        c: Sequence[Fraction],
        a_ub: Sequence[Sequence[Fraction]] = (),
        a_eq: Sequence[Sequence[Fraction]] = (),
    ) -> None:
        self.c = c
        self.a_ub = a_ub
        self.a_eq = a_eq
        self.warm = False
        self.rows: list[Row] = []
        self.basis: list[int] = []
        self.cost: Row = {}
        # (column, sign) per input row, a_ub rows first: the row's unit column.
        self.units: list[tuple[int, int]] = []
        self.b: list[int | Fraction] = []  # the rhs the tableau holds, per input row
        self.limit = 0  # columns below it may enter the basis

    def solve(self, b_ub: Sequence[Fraction] = (), b_eq: Sequence[Fraction] = ()) -> LpResult:
        if self.warm:
            return self._resolve([*b_ub, *b_eq])
        return self._cold(b_ub, b_eq)

    def _pivot(self, r: int, c: int) -> None:
        rows = self.rows
        prow = rows[r]
        p = prow[c]
        # Negating keeps the pivot row a positive multiple of the rational
        # row prow/p; the artificial cleanup and the dual simplex pivot on
        # negative entries.
        if p < 0:
            prow = rows[r] = {j: -v for j, v in prow.items()}
            p = -p
        for i, row in enumerate(rows):
            f = row.get(c)
            if f and i != r:
                rows[i] = _eliminate(row, f, p, prow)
        f = self.cost.get(c)
        if f:
            self.cost = _eliminate(self.cost, f, p, prow)
        self.basis[r] = c

    def _price_out(self) -> None:
        for row, b in zip(self.rows, self.basis):
            f = self.cost.get(b)
            if f:
                self.cost = _eliminate(self.cost, f, row[b], row)

    def _primal(self) -> str:
        """Primal simplex by Bland's rule; OPTIMAL or UNBOUNDED."""
        rows, basis, limit = self.rows, self.basis, self.limit
        while True:
            entering = min(
                (j for j, v in self.cost.items() if v < 0 and 0 <= j < limit), default=None
            )
            if entering is None:
                return OPTIMAL
            leaving = None
            best_rhs = best_coeff = 0
            for i, row in enumerate(rows):
                coeff = row.get(entering, 0)
                if coeff > 0:
                    # rhs/coeff against best_rhs/best_coeff, both denominators > 0.
                    lhs = row.get(_RHS, 0) * best_coeff
                    rhs = best_rhs * coeff
                    # Bland: break ratio ties on the smallest basic variable index.
                    if leaving is None or lhs < rhs or (lhs == rhs and basis[i] < basis[leaving]):
                        best_rhs, best_coeff = row.get(_RHS, 0), coeff
                        leaving = i
            if leaving is None:
                return UNBOUNDED
            self._pivot(leaving, entering)

    def _dual(self) -> Optional[int]:
        """Dual simplex by Bland's rule on the dual, from a dual feasible basis.

        None once every rhs is nonnegative (the basis is then optimal), or
        the index of a row with a negative rhs and no negative entry in a
        column that may enter, which proves the program infeasible.
        """
        rows, basis, limit = self.rows, self.basis, self.limit
        while True:
            leaving = min(
                (i for i, row in enumerate(rows) if row.get(_RHS, 0) < 0),
                key=basis.__getitem__,
                default=None,
            )
            if leaving is None:
                return None
            cost = self.cost
            entering = None
            best_cost = best_coeff = 0
            for j, v in rows[leaving].items():
                if v < 0 and 0 <= j < limit:
                    # cost_j/-v against best_cost/-best_coeff, both denominators > 0.
                    lhs = cost.get(j, 0) * best_coeff
                    rhs = best_cost * v
                    if entering is None or lhs > rhs or (lhs == rhs and j < entering):
                        best_cost, best_coeff = cost.get(j, 0), v
                        entering = j
            if entering is None:
                return leaving
            self._pivot(leaving, entering)

    def _multipliers(self, art_cost: int) -> tuple[Fraction, ...]:
        """The multiplier of every input row, read from the reduced costs.

        A cost row is scale * (cost - y.M) over the input rows M, so the
        slack column of a_ub row i holds -scale * y_i.  An equality row is
        read at its artificial column (entry art_cost before pricing), with
        sign -1 when the row was negated to make its rhs nonnegative.
        """
        cost, m_ub = self.cost, len(self.a_ub)
        scale = cost[_SCALE]
        y = [-cost.get(j, 0) for j, _ in self.units[:m_ub]]
        y += [sign * (art_cost * scale - cost.get(j, 0)) for j, sign in self.units[m_ub:]]
        return tuple(Fraction(v, scale) if v else _ZERO for v in y)

    def _optimum(self) -> LpResult:
        """The result at the current basis, which is optimal."""
        c = self.c
        x = [_ZERO] * len(c)
        for row, b in zip(self.rows, self.basis):
            if b < len(c):
                x[b] = Fraction(row.get(_RHS, 0), row[b])
        value = sum(ci * xi for ci, xi in zip(c, x))
        return LpResult(OPTIMAL, value, tuple(x), self._multipliers(0))

    def _cold(self, b_ub: Sequence[Fraction], b_eq: Sequence[Fraction]) -> LpResult:
        c = self.c
        inputs = [*zip(self.a_ub, b_ub, strict=True), *zip(self.a_eq, b_eq, strict=True)]
        n = len(c)
        m_ub = len(self.a_ub)
        art_start = art = n + m_ub

        # An inequality row gets its slack; an equality row, and an
        # inequality row negated for its negative rhs, get an artificial.
        rows: list[Row] = []
        basis: list[int] = []
        units: list[tuple[int, int]] = []
        for i, (a, b) in enumerate(inputs):
            scaled, s = _scaled([*a, b])
            sign = -1 if scaled[-1] < 0 else 1
            row = {j: sign * v for j, v in enumerate(scaled) if v}
            if scaled[-1]:
                row[_RHS] = row.pop(n)
            if i < m_ub:
                row[n + i] = sign * s
                units.append((n + i, 1))
            else:
                units.append((art, sign))
            if i < m_ub and sign > 0:
                basis.append(n + i)
            else:
                row[art] = s
                basis.append(art)
                art += 1
            rows.append(_reduced(row))
        self.rows, self.basis, self.units = rows, basis, units
        self.warm = False

        if art > art_start:
            self.cost = {j: 1 for j in range(art_start, art)}
            self.cost[_SCALE] = 1
            self.limit = art
            self._price_out()
            if self._primal() != OPTIMAL or -self.cost.get(_RHS, 0) > 0:
                return LpResult(INFEASIBLE, None, None, self._multipliers(1))
            # Pivot leftover artificials out of the basis; rows that cannot be
            # pivoted are redundant and get dropped.
            keep: list[int] = []
            for i in range(len(rows)):
                if basis[i] >= art_start:
                    col = min((j for j in rows[i] if 0 <= j < art_start), default=None)
                    if col is None:
                        continue
                    self._pivot(i, col)
                keep.append(i)
            dropped = len(keep) < len(rows)
            self.rows = [rows[i] for i in keep]
            self.basis = [basis[i] for i in keep]
        else:
            dropped = False

        scaled_c, s = _scaled(c)
        self.cost = _reduced({**{j: v for j, v in enumerate(scaled_c) if v}, _SCALE: s})
        self.limit = art_start
        self._price_out()
        if self._primal() == UNBOUNDED:
            return LpResult(UNBOUNDED, None, None)
        self.b = [*b_ub, *b_eq]
        self.warm = not dropped
        return self._optimum()

    def _resolve(self, b: list) -> LpResult:
        moves = [
            (unit, sign * (new - old))
            for (unit, sign), new, old in zip(self.units, b, self.b, strict=True)
            if new != old
        ]
        self.b = b
        if moves:
            d = math.lcm(*(delta.denominator for _, delta in moves))
            moves = [(unit, delta.numerator * (d // delta.denominator)) for unit, delta in moves]
            self.rows = [_moved(row, moves, d) for row in self.rows]
        r = self._dual()
        if r is None:
            return self._optimum()
        row = self.rows[r]
        ray = tuple(Fraction(-sign * row.get(j, 0)) for j, sign in self.units)
        return LpResult(INFEASIBLE, None, None, ray)


def solve_lp(
    c: Sequence[Fraction],
    a_ub: Sequence[Sequence[Fraction]] = (),
    b_ub: Sequence[Fraction] = (),
    a_eq: Sequence[Sequence[Fraction]] = (),
    b_eq: Sequence[Fraction] = (),
) -> LpResult:
    """Minimize c.x over x >= 0 with the given inequality and equality rows.

    Pivots follow Bland's rule, so the vertex returned is a function of
    the program alone.
    """
    return _Tableau(c, a_ub, a_eq).solve(b_ub, b_eq)


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
    # A^T y, over the rows whose multiplier is not 0.
    used = [(row, v) for row, v in zip(rows, y) if v]
    weights = [v for _, v in used]
    ty = [_dot(column, weights) for column in zip(*(row for row, _ in used))] or [0] * len(c)
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
