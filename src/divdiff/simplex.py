"""Exact linear programming over integer programs.

Solves   minimize c.x   subject to   A_ub x <= b_ub,  A_eq x = b_eq,  x >= 0

by the two-phase tableau simplex method with Bland's anti-cycling rule,
and solves the same program again for new right-hand sides by the dual
simplex method, starting from the last optimal basis.  The cost vector c
is dense and, as ``minlip`` builds it, nonnegative, so c.x >= 0 and each
solve ends optimal or infeasible.  Each row of A_ub and A_eq maps a
variable's index to its nonzero coefficient.  c, every coefficient and
every rhs are ints, as ``minlip`` builds them (a Fraction raises
TypeError at the first gcd of a row that holds it); x, the value and
the multipliers are Fractions.

The tableau is integer-preserving and sparse: each row (and the cost
row) is a positive multiple of the true rational row, kept as a dict of
its nonzero entries, column -> int, with the rhs under the key _RHS
when it is not 0.  An input row enters as it is, its slack or
artificial column at 1; a pivot replaces each row i that has a nonzero
f in the pivot column by p*row_i - f*pivot_row, which touches only the
nonzero entries of the two rows.  The rows and this row operation
(``linalg._eliminate``) are those of the null space's echelon form, so
both solvers pivot one way.  A pivot reduces its pivot row (divides it
by the gcd of its entries) but not the rows it makes; every _SWEEP
pivots, one sweep reduces every row and the cost row, which keeps the
entries short without a gcd per row per pivot.  So no read may depend
on a row's scale.  A positive row scale changes neither the sign of an
entry nor the ratio of two entries, which is all Bland's rule reads, in
the primal and the dual method alike, so pivoting follows exactly the
path of a rational tableau.  The solution is the Fraction
rhs/basic-entry and a multiplier is a cost-row entry over the cost
row's own scale (below), so neither sees the scale either.
Feasibility, optimality and the reported optimum are therefore exact
statements, never floating-point verdicts.  Rational data is written in
integers by multiplying each row and its rhs by some k > 0, which
scales only that row's slack or artificial column: the pivots and x
stay, and the row's multiplier is divided by k, as long as the rows
that start with an artificial (the equality rows and the a_ub rows with
rhs < 0) share one k, since phase 1 minimizes the sum of those columns.

The cost row carries one more entry, under the key _SCALE: the positive
factor it is scaled by, which the pivots update like any other entry.
With it the final cost row gives the simplex multipliers exactly: the
reduced cost of a row's slack (or, for an equality, its artificial)
column is minus that row's multiplier.  A solve returns them as a dual
solution when the program is optimal and as a Farkas ray when phase 1
finds it infeasible; ``certify`` checks either one from the program's
own data, without the tableau.

A new right-hand side needs no new tableau.  The tableau is D B^-1 times
the input rows, for the basis matrix B and a positive diagonal D of row
scales, and the slack column of an inequality row (the artificial
column of an equality row, negated when that row was) is D B^-1 times
the row's unit vector.  So every row's rhs is the sum over the input
rows i of b_i times the row's entry in the unit column of i, and a
change of b_i by d adds d times that entry, in the rows where it is
nonzero.  The reduced costs do not depend on b, so the basis stays dual
feasible (the cost row's rhs, the objective value, is not read after
phase 1 and is left as it is).  The dual simplex method then restores
primal feasibility: while some rhs is negative, the row of the smallest
basic index with a negative rhs leaves, and the column with the least
ratio of reduced cost to minus its negative entry in that row enters,
the smallest index on ties.  That is Bland's rule on the dual, so it
cannot cycle.  A leaving row with no negative entry in a column that
may enter would state that a sum of nonnegative terms is negative, that
the program is infeasible, and no program re-solved here is: for each
gap i of ``minlip``'s relaxed programs, u = 1 with t = 2 L / g meets
every constraint, box, slope and merged row at gap i's rhs, and the
working set is a subset of those rows.  So that row is a fault, an
ArithmeticError; the basis stays dual feasible for the next solve.

A tableau may hold only some of the a_ub rows, its working set, and add
the others as they are needed: row generation (Dantzig, Fulkerson &
Johnson, Oper. Res. 2, 1954).  An omitted row i keeps its slack column
n + i, so no column index, which is all Bland's rule breaks ties by,
shifts.  After each optimum over the working set, ``solve`` checks the
omitted rows against x in integers; it reads only x there, and builds
the multipliers once, at the optimum it returns.  Each violated row is
written in the current basis (``_eliminate`` against the row of each
basic column it holds) with its slack basic at a negative rhs.  That
leaves every reduced cost as it was, so the basis stays dual feasible
and the dual simplex method runs again, as after a new right-hand side.
A row never leaves the working set, so the loop ends, at an optimum
that meets every row.  Its multipliers, and a Farkas ray of the working
set, are 0 on the omitted rows and certify the full program.

The equality rows are independent, so phase 1 can pivot every
artificial left at level 0 out on a real column; one with no real
column in its row is a fault, an ArithmeticError.  On the columns 0,
L/1, .., L/N, ``minlip``'s constraint row m holds L/n only when n
divides m, and +-m at n = m: a lower-triangular minor.  A pinned
program adds u_p = 2, dependent only at a forced zero p, where u = 1
shows it inconsistent; no forced pin is solved.

Neither method can cycle, so a solve counts the pivots of both and
raises ArithmeticError past _MAX_PIVOTS: a fault that made a tableau
cycle ends the run instead of hanging it.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from .linalg import Row, _eliminate, _reduced

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
_ZERO = Fraction(0)
_RHS = -1  # the key of a row's right-hand side
_SCALE = -2  # the key of the cost row's positive scale
_SWEEP = 16  # the pivots between two sweeps that reduce every row
_MAX_PIVOTS = 25_000  # over 30 times the most one solve takes, 776 in minlip --N 13

InputRow = Mapping[int, int]


@dataclass(frozen=True)
class LpResult:
    """An LP outcome, in Fractions.  ``dual`` holds one multiplier per row,
    the a_ub rows first: an optimal dual solution when OPTIMAL, a Farkas
    ray when INFEASIBLE."""

    status: str
    value: Optional[Fraction]
    x: Optional[tuple[Fraction, ...]]
    dual: Optional[tuple[Fraction, ...]] = None


def _moved(row: Row, moves: list[tuple[int, int]]) -> Row:
    """``row`` with its rhs moved by sum(delta * row[unit]), over (unit, delta) in moves."""
    s = sum(delta * row[unit] for unit, delta in moves if unit in row)
    if not s:
        return row
    row = {**row, _RHS: row.get(_RHS, 0) + s}
    if not row[_RHS]:
        del row[_RHS]
    return _reduced(row)


class _Tableau:
    """The simplex tableau of one program, kept to solve it for new right-hand sides.

    ``solve(b_ub, b_eq)`` starts from the last optimal basis by the dual
    simplex method when there is one, and runs the two-phase method from
    scratch otherwise: on the first call, and after a cold solve that
    found the program infeasible.

    The a_ub rows whose indices are in ``lazy`` start out of the working
    set, the rows the tableau holds; ``solve`` adds each one when an
    optimum violates it (see the module docstring).  The program is in
    ints, as for ``solve_lp``, and a negative cost is a ValueError.
    """

    def __init__(
        self,
        c: Sequence[int],
        a_ub: Sequence[InputRow] = (),
        a_eq: Sequence[InputRow] = (),
        lazy: Iterable[int] = (),
    ) -> None:
        if any(v < 0 for v in c):
            raise ValueError("the simplex method here takes no negative cost")
        self.c = c
        self.a_ub = a_ub
        self.a_eq = a_eq
        # Each a_ub row out of the working set, by index.
        self.lazy = {i: a_ub[i] for i in sorted(lazy)}
        self.warm = False
        self.rows: list[Row] = []
        self.basis: list[int] = []
        self.cost: Row = {}
        # (column, sign) per input row, a_ub rows first: the row's unit column.
        self.units: list[tuple[int, int]] = []
        self.b: list[int] = []  # the rhs the tableau holds, per input row
        self.limit = 0  # columns below it may enter the basis
        self.unswept = 0  # pivots since the rows were last reduced
        self.pivots = 0  # simplex pivots in this solve

    def solve(self, b_ub: Sequence[int] = (), b_eq: Sequence[int] = ()) -> LpResult:
        self.pivots = 0
        if self.warm:
            self._resolve([*b_ub, *b_eq])
        elif (infeasible := self._cold(b_ub, b_eq)) is not None:
            return infeasible
        # An optimum over the working set: only x is read until it meets
        # every row, and only then are the multipliers built.
        x = self._solution()
        while self.lazy and (violated := self._violated(x)):
            for i in violated:
                self._activate(i)
            self._dual()
            x = self._solution()
        return self._optimum(x)

    def _violated(self, x: tuple[Fraction, ...]) -> list[int]:
        """The rows out of the working set that x violates, in index order."""
        dx = math.lcm(*(v.denominator for v in x))
        X = [v.numerator * (dx // v.denominator) for v in x]
        b = self.b
        # row.x = row.X / dx against b_i, both sides times dx.
        return [
            i for i, row in self.lazy.items() if sum(a * X[j] for j, a in row.items()) > b[i] * dx
        ]

    def _activate(self, i: int) -> None:
        """Add a_ub row i to the working set, written in the current basis.

        Its slack, column n + i, becomes basic.  The row is eliminated
        against the row of each basic column it holds, which leaves every
        reduced cost as it was, so the basis stays dual feasible.
        """
        del self.lazy[i]
        slack = len(self.c) + i
        row = {j: v for j, v in {**self.a_ub[i], _RHS: self.b[i]}.items() if v}
        row[slack] = 1
        at = {col: r for r, col in enumerate(self.basis)}
        for col in [j for j in row if j in at]:
            prow = self.rows[at[col]]
            row = _eliminate(row, row[col], prow[col], prow)
        self.rows.append(_reduced(row))
        self.basis.append(slack)

    def _pivot(self, r: int, c: int) -> None:
        rows = self.rows
        prow = rows[r]
        p = prow[c]
        # Negating keeps the pivot row a positive multiple of the rational
        # row prow/p; the artificial cleanup and the dual simplex pivot on
        # negative entries.  Each row the pivot touches takes on the pivot
        # row's scale, so that row is reduced first.
        if p < 0:
            prow = {j: -v for j, v in prow.items()}
        prow = rows[r] = _reduced(prow)
        p = prow[c]
        for i, row in enumerate(rows):
            f = row.get(c)
            if f and i != r:
                rows[i] = _eliminate(row, f, p, prow)
        f = self.cost.get(c)
        if f:
            self.cost = _eliminate(self.cost, f, p, prow)
        self.basis[r] = c
        self.unswept += 1
        if self.unswept == _SWEEP:
            # In place: the callers hold self.rows across pivots.
            rows[:] = map(_reduced, rows)
            self.cost = _reduced(self.cost)
            self.unswept = 0

    def _count_pivot(self) -> None:
        """Count one simplex pivot of this solve.  Bland's rule cannot
        cycle, so a solve past _MAX_PIVOTS is a fault: ArithmeticError."""
        self.pivots += 1
        if self.pivots > _MAX_PIVOTS:
            raise ArithmeticError(f"simplex passed {_MAX_PIVOTS} pivots in one solve")

    def _price_out(self) -> None:
        for row, b in zip(self.rows, self.basis):
            f = self.cost.get(b)
            if f:
                self.cost = _eliminate(self.cost, f, row[b], row)

    def _primal(self) -> None:
        """Primal simplex by Bland's rule, to an optimal basis.  The cost is
        nonnegative, so an entering column with no leaving row is a fault."""
        rows, basis, limit = self.rows, self.basis, self.limit
        while True:
            entering = min(
                (j for j, v in self.cost.items() if v < 0 and 0 <= j < limit), default=None
            )
            if entering is None:
                return
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
                raise ArithmeticError(f"simplex column {entering} has no row to leave")
            self._count_pivot()
            self._pivot(leaving, entering)

    def _dual(self) -> None:
        """Dual simplex by Bland's rule on the dual, from a dual feasible basis,
        until every rhs is nonnegative and the basis is optimal.  Every
        program it runs on is feasible, so a row with a negative rhs and no
        negative entry in a column that may enter is a fault: ArithmeticError."""
        rows, basis, limit = self.rows, self.basis, self.limit
        while True:
            leaving = min(
                (i for i, row in enumerate(rows) if row.get(_RHS, 0) < 0),
                key=basis.__getitem__,
                default=None,
            )
            if leaving is None:
                return
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
                raise ArithmeticError(f"dual simplex row {leaving} has no column to enter")
            self._count_pivot()
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

    def _solution(self) -> tuple[Fraction, ...]:
        """x at the current basis."""
        n = len(self.c)
        x = [_ZERO] * n
        for row, b in zip(self.rows, self.basis):
            if b < n:
                x[b] = Fraction(row.get(_RHS, 0), row[b])
        return tuple(x)

    def _optimum(self, x: tuple[Fraction, ...]) -> LpResult:
        """The result at x, the solution at the current basis, which is optimal."""
        value = sum((cj * x[j] for j, cj in enumerate(self.c) if cj), _ZERO)
        return LpResult(OPTIMAL, value, x, self._multipliers(0))

    def _cold(self, b_ub: Sequence[int], b_eq: Sequence[int]) -> Optional[LpResult]:
        """The two-phase method from scratch: None when it ends at an optimal
        basis, the infeasible result with its Farkas ray otherwise.  The
        equality rows must be independent: ArithmeticError if they are not."""
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
            if i in self.lazy:
                units.append((n + i, 1))
                continue
            sign = -1 if b < 0 else 1
            # With its slack or artificial at +-1, the row is at its lowest terms.
            row = {j: sign * v for j, v in {**a, _RHS: b}.items() if v}
            if i < m_ub:
                row[n + i] = sign
                units.append((n + i, 1))
            else:
                units.append((art, sign))
            if i < m_ub and sign > 0:
                basis.append(n + i)
            else:
                row[art] = 1
                basis.append(art)
                art += 1
            rows.append(row)
        self.rows, self.basis, self.units = rows, basis, units

        if art > art_start:
            self.cost = {j: 1 for j in range(art_start, art)}
            self.cost[_SCALE] = 1
            self.limit = art
            self._price_out()
            self._primal()
            if -self.cost.get(_RHS, 0) > 0:
                return LpResult(INFEASIBLE, None, None, self._multipliers(1))
            # Pivot leftover artificials out of the basis.  The equality rows
            # are independent, so each such row holds a real column.
            for i in range(len(rows)):
                if basis[i] >= art_start:
                    col = min((j for j in rows[i] if 0 <= j < art_start), default=None)
                    if col is None:
                        raise ArithmeticError(f"phase 1 left row {i} with no column to pivot on")
                    self._pivot(i, col)

        self.cost = {j: v for j, v in enumerate(c) if v}
        self.cost[_SCALE] = 1
        self.limit = art_start
        self._price_out()
        self._primal()
        self.b = [*b_ub, *b_eq]
        self.warm = True
        return None

    def _resolve(self, b: list) -> None:
        """The dual simplex method from the current basis, for the rhs b."""
        moves = [
            (unit, sign * (new - old))
            for (unit, sign), new, old in zip(self.units, b, self.b, strict=True)
            if new != old
        ]
        self.b = b
        if moves:
            self.rows = [_moved(row, moves) for row in self.rows]
        self._dual()


def solve_lp(
    c: Sequence[int],
    a_ub: Sequence[InputRow] = (),
    b_ub: Sequence[int] = (),
    a_eq: Sequence[InputRow] = (),
    b_eq: Sequence[int] = (),
) -> LpResult:
    """Minimize c.x over x >= 0 with the given inequality and equality rows.

    c is dense; each row maps a variable's index to its nonzero
    coefficient, all in ints (see the module docstring).  Pivots follow
    Bland's rule, so the vertex returned is a function of the program
    alone.
    """
    return _Tableau(c, a_ub, a_eq).solve(b_ub, b_eq)


def certify(
    result: LpResult,
    c: Sequence[int],
    a_ub: Sequence[InputRow] = (),
    b_ub: Sequence[int] = (),
    a_eq: Sequence[InputRow] = (),
    b_eq: Sequence[int] = (),
) -> None:
    """Check result's certificate against the program; raise ArithmeticError if it fails.

    An OPTIMAL result needs x feasible, its dual y feasible (y <= 0 on
    the a_ub rows, A^T y <= c) and b.y == c.x == value: weak duality
    then makes value the exact optimum.  An INFEASIBLE result needs its
    ray y <= 0 on the a_ub rows with A^T y <= 0 and b.y > 0, which no
    x >= 0 can satisfy.  The program is in ints, as ``solve_lp`` takes
    it, with each row a mapping of its nonzero entries.  y and x are
    each taken over their common denominator, so every sign test and
    every sum of products runs in integers.  Nothing here reads the
    tableau.
    """
    rows = [*a_ub, *a_eq]
    b = [*b_ub, *b_eq]
    y = result.dual
    if result.status not in (OPTIMAL, INFEASIBLE) or y is None or len(y) != len(rows):
        raise ArithmeticError(f"LP result ({result.status}) carries no certificate")
    dy = math.lcm(*(v.denominator for v in y))
    Y = [v.numerator * (dy // v.denominator) for v in y]
    if any(v > 0 for v in Y[: len(a_ub)]):
        raise ArithmeticError("LP multiplier of an inequality row is positive")
    # b.y = by / dy and A^T y = ty / dy, over the rows whose multiplier is not 0.
    by = 0
    ty = [0] * len(c)
    for row, bi, v in zip(rows, b, Y):
        if v:
            by += bi * v
            for j, a in row.items():
                ty[j] += a * v
    if result.status == INFEASIBLE:
        if by <= 0 or any(v > 0 for v in ty):
            raise ArithmeticError("LP Farkas ray does not prove infeasibility")
        return
    x = result.x
    if x is None or len(x) != len(c):
        raise ArithmeticError("LP solution is not feasible")
    dx = math.lcm(*(v.denominator for v in x))
    X = [v.numerator * (dx // v.denominator) for v in x]
    if any(v < 0 for v in X):
        raise ArithmeticError("LP solution is not feasible")
    for i, (row, bi) in enumerate(zip(rows, b)):
        # row.x = row.X / dx against bi, both sides times dx.
        lhs = sum(a * X[j] for j, a in row.items())
        if lhs > bi * dx or (lhs != bi * dx and i >= len(a_ub)):
            raise ArithmeticError("LP solution is not feasible")
    if any(v > cj * dy for v, cj in zip(ty, c)):
        raise ArithmeticError("LP dual is not feasible")
    cx = sum(cj * v for cj, v in zip(c, X) if cj)
    if not Fraction(cx, dx) == Fraction(by, dy) == result.value:
        raise ArithmeticError("LP duality gap is not zero")
