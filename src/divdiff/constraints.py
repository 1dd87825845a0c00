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
from .linalg import NullBasis, integer_echelon, kernel_basis


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
        return tuple(sorted({c for row in self.rows for c in row}))

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
    must vanish on it.  A row reads only the touched columns.  A vector
    that fails raises ArithmeticError.
    """
    if vector.get(free) != 1 or any(
        v and c != free and c not in pivots for c, v in vector.items()
    ):
        raise ArithmeticError(
            f"null vector of column {free} is not 1 there and 0 in the other free columns"
        )
    # The vector times the lcm of its denominators, in integers.
    scale = math.lcm(*(v.denominator for v in vector.values()))
    scaled = {c: v.numerator * (scale // v.denominator) for c, v in vector.items()}
    for n, row in enumerate(system.rows):
        if sum(coeff * scaled[c] for c, coeff in row.items() if c in scaled):
            raise ArithmeticError(f"null vector of column {free} fails constraint row {n}")


# A word-size prime.  A minor with a nonzero residue modulo it is nonzero.
_PRIME = (1 << 61) - 1


def _rank_modulo(rows: list[dict[int, int]], prime: int) -> int:
    """The rank of sparse integer rows modulo prime, by Gaussian elimination.

    Each row is reduced by the kept rows until its leading column is new
    (a kept row joins) or nothing is left (the row was dependent).
    """
    kept: dict[int, dict[int, int]] = {}  # leading column -> row
    for row in rows:
        r = {c: v % prime for c, v in row.items() if v % prime}
        while r:
            lead = min(r)
            krow = kept.get(lead)
            if krow is None:
                kept[lead] = r
                break
            # r becomes p * r - f * krow, p and f their leading entries;
            # p is a unit modulo prime, so r keeps its rank.
            p, f = krow[lead], r[lead]
            r = {c: v * p % prime for c, v in r.items()}
            for c, v in krow.items():
                w = (r.get(c, 0) - f * v) % prime
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
    number.  The rank of that submatrix modulo _PRIME bounds its rank
    over the rationals from below, and only when it falls short is
    fraction-free elimination run.  A check that fails raises
    ArithmeticError.
    """
    if not rank == len(pivot_cols) == system.ncols - dimension:
        raise ArithmeticError(
            f"rank {rank} with {len(pivot_cols)} pivots and {dimension} null vectors"
            f" for {system.ncols} columns"
        )
    pivots = set(pivot_cols)
    minor = [{c: v for c, v in row.items() if c in pivots} for row in system.rows]
    if _rank_modulo(minor, _PRIME) < rank:
        dense = [[row.get(c, 0) for c in pivot_cols] for row in minor]
        if len(integer_echelon(dense)[1]) < rank:
            raise ArithmeticError(f"the rows have rank below their {rank} pivot columns")


def nullspace(system: ConstraintSystem) -> NullspaceReport:
    """Compute a basis of the solution set and the columns it never touches.

    A grid index k is reported as forced to zero when every solution
    vanishes there, i.e. no basis vector has a nonzero entry in column k.
    An untouched column carries its own singleton vector, so only touched
    columns can be forced, and only the vectors of touched free columns
    can cover them.  The vectors come in free-column order, so the vector
    of free column c sits at c minus the number of pivot columns below c.
    Each vector of a touched free column is certified on the way; the
    singleton vectors of untouched columns hold by construction.  The
    rank is certified as well, so no null vector can be missing.
    """
    rank, pivot_cols, vectors = kernel_basis(system.rows, system.ncols)
    _check_rank(system, rank, pivot_cols, len(vectors))
    pivots = set(pivot_cols)
    covered: set[int] = set()
    pivots_below = 0
    for c in system.touched:
        if c in pivots:
            pivots_below += 1
        else:
            vector = vectors[c - pivots_below]
            _check_free_vector(system, pivots, c, vector)
            covered.update(vector)
    forced = tuple(c for c in system.touched if c not in covered)
    return NullspaceReport(
        N=system.N,
        L=system.L,
        rank=rank,
        dimension=len(vectors),
        forced_zero_points=forced,
        basis=vectors,
    )
