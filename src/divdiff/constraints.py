"""Grid functions annihilated by every low-order forward difference.

Fix N >= 1 and let L = lcm(1, ..., N).  A function on the grid
{0, 1/L, ..., 1} is constrained by requiring

    f(0) = 0   and   D_{1/n}^n f(0) = 0   for every n = 1, ..., N,

where D is the forward difference operator.  Each condition is an
integer linear equation in the grid values f(k/L): the order-n row has
entry (-1)**(n-j) * C(n, j) in the column k = j*L/n for j = 0..n.  The
null space of the resulting (N+1) x (L+1) system describes exactly the
grid functions invisible to all these differences at once.

Only the touched columns, the Farey fractions of order N scaled by L,
carry any structure.  Every other column is free with a singleton null
vector, so it is never forced to zero; the null space is computed from the
touched columns alone.  Its basis keeps each run of consecutive untouched
columns as one range (a ``linalg.NullBasis``).
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .differences import difference_stencil
from .funcs import GridFunction
from .linalg import NullBasis, kernel_basis


@dataclass(frozen=True)
class ConstraintSystem:
    N: int
    L: int
    rows: tuple[dict[int, int], ...]

    @property
    def ncols(self) -> int:
        return self.L + 1

    @cached_property
    def touched(self) -> tuple[int, ...]:
        """The columns some row has an entry in, in increasing order."""
        return tuple(sorted(self._column_rows))

    @cached_property
    def _column_rows(self) -> dict[int, list[tuple[int, int]]]:
        """For each touched column, the (row index, coefficient) pairs of
        the rows that hold it, in increasing row order."""
        index: dict[int, list[tuple[int, int]]] = {}
        for n, row in enumerate(self.rows):
            for c, coeff in row.items():
                index.setdefault(c, []).append((n, coeff))
        return index

    def residuals(self, g: GridFunction) -> tuple[Fraction, ...]:
        """Evaluate every constraint row at g (all zero iff g is a solution)."""
        if g.denominator != self.L:
            raise ValueError(
                f"grid denominator {g.denominator} does not match L={self.L}"
            )
        return tuple(
            sum((coeff * g.value(col) for col, coeff in row.items()), Fraction(0))
            for row in self.rows
        )


def build_constraint_system(N: int) -> ConstraintSystem:
    if N < 1:
        raise ValueError("N must be at least 1")
    L = math.lcm(*range(1, N + 1))
    rows: list[dict[int, int]] = [{0: 1}]
    for n in range(1, N + 1):
        stride = L // n
        rows.append({j * stride: w for j, w in enumerate(difference_stencil(n))})
    return ConstraintSystem(N=N, L=L, rows=tuple(rows))


@dataclass(frozen=True)
class NullspaceReport:
    """Rank, forced zeros and null space of a constraint system.

    ``basis`` is the null space basis as ``kernel_basis`` returns it, a
    ``NullBasis``: sparse mappings from grid index to value, one per free
    column, in increasing free-column order, with the singleton vectors of
    the untouched columns kept as runs of columns.
    """

    N: int
    L: int
    rank: int
    dimension: int
    forced_zero_points: tuple[int, ...]
    basis: NullBasis


def _check_free_vector(
    system: ConstraintSystem, pivots: set[int], free: int, vector: dict[int, Fraction]
) -> None:
    """Certify the null vector of a touched free column, exactly.

    It must hold 1 in its own free column and 0 in every other free
    column, which makes the basis independent, and every constraint row
    must vanish on it.  Each row is summed over the vector's own columns
    alone, through ``system._column_rows``: a row that holds none of them
    vanishes on the vector.  A vector that fails raises ArithmeticError,
    naming the lowest row it fails.
    """
    if vector.get(free) != 1 or any(
        v and c != free and c not in pivots for c, v in vector.items()
    ):
        raise ArithmeticError(
            f"null vector of column {free} is not 1 there and 0 in the other free columns"
        )
    # Each entry times the lcm of the vector's denominators, in integers.
    d = math.lcm(*(v.denominator for v in vector.values()))
    sums: dict[int, int] = {}
    for c, v in vector.items():
        v = v.numerator * (d // v.denominator)
        for n, coeff in system._column_rows.get(c, ()):
            sums[n] = sums.get(n, 0) + coeff * v
    if any(sums.values()):
        n = min(n for n, total in sums.items() if total)
        raise ArithmeticError(f"null vector of column {free} fails constraint row {n}")


def _rank(rows: list[dict[int, int]]) -> int:
    """The rank of sparse integer rows, by exact Gaussian elimination.

    Each row is reduced by the kept rows until its leading column is new
    (a kept row joins) or nothing is left (the row was dependent).
    """
    kept: dict[int, dict[int, int]] = {}  # leading column -> row
    for row in rows:
        r = {c: v for c, v in row.items() if v}
        while r:
            lead = min(r)
            krow = kept.get(lead)
            if krow is None:
                kept[lead] = r
                break
            # r becomes p * r - f * krow, p and f their leading entries;
            # p is not 0, so r keeps its rank.
            p, f = krow[lead], r[lead]
            r = {c: v * p for c, v in r.items()}
            for c, v in krow.items():
                w = r.get(c, 0) - f * v
                if w:
                    r[c] = w
                else:
                    del r[c]
    return len(kept)


def _check_rank(
    system: ConstraintSystem, rank: int, pivot_cols: list[int], dimension: int
) -> None:
    """Certify that the rows have the reported rank, exactly.

    The basis has ``dimension`` vectors, independent by the free-column
    check, so the rank is at most ncols - dimension; that must be the
    rank and the number of pivots.  The rows restricted to the pivot
    columns must have full column rank, so the rank is at least that
    number.  ``_rank`` finds that rank by its own elimination, apart from
    the echelon form it certifies.  A failed check raises ArithmeticError.
    """
    if not rank == len(pivot_cols) == system.ncols - dimension:
        raise ArithmeticError(
            f"rank {rank} with {len(pivot_cols)} pivots and {dimension} null vectors"
            f" for {system.ncols} columns"
        )
    pivots = set(pivot_cols)
    minor = [{c: v for c, v in row.items() if c in pivots} for row in system.rows]
    if _rank(minor) < rank:
        raise ArithmeticError(f"the rows have rank below their {rank} pivot columns")


def nullspace(system: ConstraintSystem) -> NullspaceReport:
    """Compute a basis of the solution set and the columns it never touches.

    A grid index k is reported as forced to zero when every solution
    vanishes there, i.e. no basis vector has a nonzero entry in column k.
    An untouched column carries its own singleton vector, so only touched
    columns can be forced, and only the vectors of touched free columns
    can cover them.  The basis holds their vectors as its dict segments,
    in free-column order, so the touched free columns, walked in
    increasing order, take them one by one.  Each vector of a touched free
    column is certified on the way; the singleton vectors of untouched
    columns hold by construction.  The rank is certified as well, so no
    null vector can be missing.
    """
    rank, pivot_cols, basis = kernel_basis(system.rows, system.ncols)
    _check_rank(system, rank, pivot_cols, basis.dimension)
    pivots = set(pivot_cols)
    covered: set[int] = set()
    vectors = (segment for segment in basis.segments if type(segment) is dict)
    for c in system.touched:
        if c not in pivots:
            vector = next(vectors)
            _check_free_vector(system, pivots, c, vector)
            covered.update(vector)
    forced = tuple(c for c in system.touched if c not in covered)
    return NullspaceReport(
        N=system.N,
        L=system.L,
        rank=rank,
        dimension=basis.dimension,
        forced_zero_points=forced,
        basis=basis,
    )
