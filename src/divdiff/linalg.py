"""Exact linear algebra helpers: fraction-free echelon form and kernels.

Rows are sparse mappings from column index to coefficient.  Elimination
and back-substitution run on the submatrix of columns actually touched by
some row.  A column no row touches is free, with the singleton kernel
vector {k: 1}, so it is never forced to zero.  The basis keeps each run
of consecutive untouched columns as a ``range`` and builds their vectors
only when they are read, so a very wide system costs little more than
its touched columns.  The echelon step is the one-step fraction-free
(integer-preserving) scheme: every division is exact, so no rational
blowup occurs during pivoting.
"""

import math
from bisect import bisect_right
from collections.abc import Sequence
from fractions import Fraction
from operator import index
from typing import Iterable, Iterator, Mapping, Union

# The value every vector holds in its own free column.
ONE = Fraction(1)


def _exact_div(a: int, b: int) -> int:
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError("inexact division in fraction-free elimination")
    return q


def integer_echelon(matrix: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Row echelon form of an integer matrix by fraction-free elimination.

    Returns the nonzero echelon rows and their pivot column indices.
    """
    rows = [list(r) for r in matrix]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivot_cols: list[int] = []
    prev = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pivot = rows[r][c]
        for i in range(r + 1, nrows):
            factor = rows[i][c]
            rows[i] = [
                _exact_div(pivot * rows[i][j] - factor * rows[r][j], prev)
                for j in range(ncols)
            ]
        prev = pivot
        pivot_cols.append(c)
        r += 1
    return rows[:r], pivot_cols


class NullBasis(Sequence[dict[int, Fraction]]):
    """A null-space basis: a sequence of sparse vectors in free-column order.

    ``segments`` holds the vector of each touched free column as a dict,
    and each run of consecutive untouched columns as a range, whose
    vectors are the singletons {k: ONE} for k in the run; those are built
    only when they are read.  ``offsets[s]`` is the index of the first
    vector of ``segments[s]``.  A NullBasis equals any list, tuple or
    NullBasis of the same vectors in the same order.  As in kernel_basis,
    a run is nonempty, of step 1, and its first column is no lower than
    its first vector's index; any other range raises ValueError.
    """

    __slots__ = ("segments", "offsets", "_len")

    def __init__(self, segments: Iterable[Union[dict[int, Fraction], range]]) -> None:
        self.segments = tuple(segments)
        offsets = []
        n = 0
        for segment in self.segments:
            offsets.append(n)
            run = type(segment) is range
            if run and not (segment and segment.step == 1 and segment.start >= n):
                raise ValueError(f"not a run of columns from index {n}: {segment!r}")
            n += len(segment) if run else 1
        self.offsets = tuple(offsets)
        self._len = n

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, i: int) -> dict[int, Fraction]:
        j = index(i)
        if j < 0:
            j += self._len
        if not 0 <= j < self._len:
            raise IndexError("null space basis index out of range")
        s = bisect_right(self.offsets, j) - 1
        segment = self.segments[s]
        if type(segment) is range:
            return {segment[j - self.offsets[s]]: ONE}
        return segment

    def __iter__(self) -> Iterator[dict[int, Fraction]]:
        for segment in self.segments:
            if type(segment) is range:
                yield from ({k: ONE} for k in segment)
            else:
                yield segment

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (list, tuple, NullBasis)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return f"NullBasis({list(self.segments)!r})"


def kernel_basis(
    rows: Sequence[Mapping[int, int | Fraction]], ncols: int
) -> tuple[int, list[int], NullBasis]:
    """Null-space basis of a sparse row system over the columns 0..ncols-1.

    Returns (rank, pivot columns, basis).  Each basis vector is a sparse
    mapping normalised so its free column holds 1; vectors are ordered by
    free column.  Untouched columns always contribute singleton vectors,
    kept in the basis as runs of columns.
    """
    touched = sorted({c for row in rows for c in row})
    col_of = {c: i for i, c in enumerate(touched)}

    int_rows: list[list[int]] = []
    for row in rows:
        if not row:
            continue
        # ints and Fractions alike carry a numerator and a denominator.
        scale = math.lcm(*(v.denominator for v in row.values()))
        dense = [0] * len(touched)
        for c, v in row.items():
            dense[col_of[c]] = v.numerator * (scale // v.denominator)
        int_rows.append(dense)

    echelon, pivot_local = integer_echelon(int_rows) if int_rows else ([], [])
    rank = len(pivot_local)
    pivot_cols = [touched[c] for c in pivot_local]
    pivot_set = set(pivot_local)

    segments: list[Union[dict[int, Fraction], range]] = []
    start = 0  # the first column not yet in a segment
    for local, f in enumerate(touched):
        if f > start:
            segments.append(range(start, f))
        start = f + 1
        if local in pivot_set:
            continue
        vec_local: dict[int, Fraction] = {local: ONE}
        for row, pc in zip(reversed(echelon), reversed(pivot_local)):
            # row is zero left of pc, and vec_local holds only f and the
            # pivots right of pc, so this is the sum over j > pc.
            s = sum((row[j] * v for j, v in vec_local.items() if row[j]), Fraction(0))
            if s:
                vec_local[pc] = -s / row[pc]
        segments.append({touched[j]: v for j, v in vec_local.items()})
    if ncols > start:
        segments.append(range(start, ncols))
    return rank, pivot_cols, NullBasis(segments)
