"""Exact linear algebra helpers: sparse integer rows, echelon form and kernels.

Rows are sparse mappings from column index to coefficient.  A ``Row``
is one of integers, kept as a dict of its nonzero entries; the simplex
tableau pivots on such rows too, with the same row operation
``_eliminate``: p*row - f*prow, which touches only the nonzero entries
of the two rows.  It leaves the result unreduced, and each caller
divides rows by their gcd (``_reduced``) when it chooses: the echelon
form every row it makes, the tableau its pivot row at each pivot and
all its rows every few pivots.
The echelon form is the reduced one, so each null vector is read off
the echelon rows without back-substitution.  A column no row touches is
free, with the singleton kernel vector {k: 1}, so it is never forced to
zero.  The basis keeps each run of consecutive untouched columns as a
``range`` and builds their vectors only when they are iterated, so a
very wide system costs little more than its touched columns, and its
dimension is an exact int at any width.
"""

import math
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence, Union

# The value every vector holds in its own free column.
ONE = Fraction(1)

Row = dict[int, int]


def _reduced(row: Row) -> Row:
    """``row`` divided by the gcd of its entries (a zero row is returned as is)."""
    g = math.gcd(*row.values())
    return {j: v // g for j, v in row.items()} if g > 1 else row


def _eliminate(row: Row, f: int, p: int, prow: Row) -> Row:
    """p*row - f*prow, for p > 0: the entry f of row against p of prow.

    f and p are divided by their gcd first; the result is not reduced.
    """
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
    return new


def integer_echelon(rows: Iterable[Mapping[int, int]]) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form of sparse integer rows, and its pivot columns.

    The columns are visited in ascending order.  At each, the first
    remaining row that holds it becomes a pivot row, negated if its entry
    there is negative, and ``_eliminate`` removes the column from every
    other row, remaining or already a pivot row, as a tableau pivot does.
    Each returned row is reduced by its gcd and holds a positive entry at
    its own pivot column and none at any other; the pivot columns ascend.
    """
    pending = [_reduced({j: v for j, v in row.items() if v}) for row in rows]
    echelon: list[Row] = []
    pivot_cols: list[int] = []
    while pending := [row for row in pending if row]:
        c = min(min(row) for row in pending)
        prow = pending.pop(next(i for i, row in enumerate(pending) if c in row))
        p = prow[c]
        if p < 0:
            prow = {j: -v for j, v in prow.items()}
            p = -p
        pending = [
            _reduced(_eliminate(row, row[c], p, prow)) if c in row else row for row in pending
        ]
        echelon = [
            _reduced(_eliminate(row, row[c], p, prow)) if c in row else row for row in echelon
        ]
        echelon.append(prow)
        pivot_cols.append(c)
    return echelon, pivot_cols


class NullBasis:
    """A null-space basis: sparse vectors in free-column order, kept as segments.

    ``segments`` holds the vector of each touched free column as a dict,
    and each run of consecutive untouched columns as a range, whose
    vectors {k: ONE} are built only when iterated.  ``dimension``, the
    number of vectors, is an exact int: a run counts stop - start.  A
    NullBasis has no len() or index; it iterates its vectors and equals
    any list, tuple or NullBasis of the same vectors in the same order.
    As in kernel_basis, a run is nonempty, of step 1, and starts at a
    column no lower than its first vector's place in the basis; any
    other range raises ValueError.
    """

    def __init__(self, segments: Iterable[Union[dict[int, Fraction], range]]) -> None:
        self.segments = tuple(segments)
        n = 0
        for segment in self.segments:
            if type(segment) is not range:
                n += 1
            elif segment and segment.step == 1 and segment.start >= n:
                n += segment.stop - segment.start
            else:
                raise ValueError(f"not a run of columns from index {n}: {segment!r}")
        self.dimension = n

    def __iter__(self) -> Iterator[dict[int, Fraction]]:
        for segment in self.segments:
            if type(segment) is range:
                yield from ({k: ONE} for k in segment)
            else:
                yield segment

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (list, tuple, NullBasis)):
            return NotImplemented
        n = other.dimension if isinstance(other, NullBasis) else len(other)
        return self.dimension == n and all(a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return f"NullBasis({list(self.segments)!r})"


def kernel_basis(
    rows: Sequence[Mapping[int, int]], ncols: int
) -> tuple[int, list[int], NullBasis]:
    """Null-space basis of sparse integer rows over the columns 0..ncols-1.

    Returns (rank, pivot columns, basis).  The rows go to integer_echelon
    as they are, so a Fraction entry raises TypeError at the first gcd.
    Each basis vector is a sparse mapping normalised so its free column
    holds 1, read off the echelon rows that hold that column, found
    through an index made once; vectors are ordered by free column.
    Untouched columns contribute singleton vectors, kept as runs.
    """
    touched = sorted({c for row in rows for c in row})
    echelon, pivot_cols = integer_echelon(rows)
    pivot_set = set(pivot_cols)
    holders: dict[int, list[tuple[Row, int]]] = {}
    for row, pc in zip(echelon, pivot_cols):
        for c in row:
            holders.setdefault(c, []).append((row, pc))

    segments: list[Union[dict[int, Fraction], range]] = []
    start = 0  # the first column not yet in a segment
    for f in touched:
        if f > start:
            segments.append(range(start, f))
        start = f + 1
        if f in pivot_set:
            continue
        # The pivot row of pc holds no other pivot column, and f's vector
        # is 0 in every other free column: row[pc]*x[pc] + row[f]*1 = 0.
        vector: dict[int, Fraction] = {f: ONE}
        for row, pc in holders.get(f, ()):
            vector[pc] = Fraction(-row[f], row[pc])
        segments.append(vector)
    if ncols > start:
        segments.append(range(start, ncols))
    return len(pivot_cols), pivot_cols, NullBasis(segments)
