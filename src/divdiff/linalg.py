"""Exact linear algebra helpers: fraction-free echelon form and kernels.

Rows are sparse mappings from column index to coefficient.  Elimination
and back-substitution run on the submatrix of columns actually touched by
some row.  A column no row touches is free: it gets its singleton kernel
vector directly, so it is never forced to zero, and a very wide system
costs little more than its touched columns.  The echelon step is the
one-step fraction-free (integer-preserving) scheme: every division is
exact, so no rational blowup occurs during pivoting.
"""

import math
from fractions import Fraction
from typing import Mapping, Sequence


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


def kernel_basis(
    rows: Sequence[Mapping[int, int | Fraction]], ncols: int
) -> tuple[int, list[int], list[dict[int, Fraction]]]:
    """Null-space basis of a sparse row system over the rationals.

    Returns (rank, pivot columns, basis).  Each basis vector is a sparse
    mapping normalised so its free column holds 1; vectors are ordered by
    free column.  Untouched columns always contribute singleton vectors.
    """
    touched = sorted({c for row in rows for c in row})
    col_of = {c: i for i, c in enumerate(touched)}

    int_rows: list[list[int]] = []
    for row in rows:
        if not row:
            continue
        scale = math.lcm(*(Fraction(v).denominator for v in row.values()))
        dense = [0] * len(touched)
        for c, v in row.items():
            scaled = Fraction(v) * scale
            dense[col_of[c]] = scaled.numerator
        int_rows.append(dense)

    echelon, pivot_local = integer_echelon(int_rows) if int_rows else ([], [])
    rank = len(pivot_local)
    pivot_cols = [touched[c] for c in pivot_local]
    pivot_set = set(pivot_local)

    one = Fraction(1)
    basis: list[dict[int, Fraction]] = []
    for f in range(ncols):
        local = col_of.get(f)
        if local is None:
            basis.append({f: one})
            continue
        if local in pivot_set:
            continue
        vec_local: dict[int, Fraction] = {local: one}
        for row, pc in zip(reversed(echelon), reversed(pivot_local)):
            # row is zero left of pc, and vec_local holds only f and the
            # pivots right of pc, so this is the sum over j > pc.
            s = sum((row[j] * v for j, v in vec_local.items() if row[j]), Fraction(0))
            if s:
                vec_local[pc] = -s / row[pc]
        basis.append({touched[j]: v for j, v in vec_local.items()})
    return rank, pivot_cols, basis
