"""Integer echelon form, kernel bases, and square solves.

The rank oracle below repeats elimination with plain Fraction pivoting,
and the dense Bareiss oracle in ``util`` eliminates fraction-free, both
deliberately different code paths from the sparse reduced echelon form.
A kernel basis is a ``NullBasis`` that keeps runs of untouched columns
as ranges; it must iterate and compare as the list of vectors the
per-column oracle builds, and count them in ``dimension``, however its
runs fall.
"""

import math
import random
from fractions import Fraction

import pytest

from divdiff.linalg import NullBasis, integer_echelon, kernel_basis

from util import (
    random_sparse_rows,
    reference_integer_echelon,
    reference_kernel_basis,
    solve_square,
    sparse_rows,
)


def fraction_rank(matrix):
    rows = [[Fraction(x) for x in row] for row in matrix]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                factor = rows[i][col] / lead
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def random_int_matrix(rng, nrows, ncols, density=0.6, span=5):
    return [
        [rng.randint(-span, span) if rng.random() < density else 0 for _ in range(ncols)]
        for _ in range(nrows)
    ]


def test_echelon_rank_matches_fraction_oracle():
    rng = random.Random(404)
    for _ in range(60):
        nrows = rng.randint(1, 6)
        ncols = rng.randint(1, 6)
        m = random_int_matrix(rng, nrows, ncols)
        echelon, pivots = integer_echelon(sparse_rows(m))
        assert len(echelon) == len(pivots) == fraction_rank(m)
        assert pivots == reference_integer_echelon(m)[1]
        # pivot columns strictly increase and each row starts at its pivot
        assert pivots == sorted(set(pivots))
        for row, c in zip(echelon, pivots):
            assert row[c] != 0
            assert min(row) == c


def test_echelon_keeps_integer_entries():
    rng = random.Random(405)
    for _ in range(30):
        m = random_int_matrix(rng, 5, 5, density=0.9)
        echelon, _ = integer_echelon(sparse_rows(m))
        for row in echelon:
            assert all(isinstance(v, int) for v in row.values())


def test_echelon_rows_are_reduced_with_a_positive_pivot():
    # Inputs hold empty rows and explicit zero entries.
    rng = random.Random(410)
    for _ in range(300):
        ncols = rng.randint(1, 10)
        rows = [
            {c: rng.choice((0, rng.randint(-6, 6), rng.randint(-60, 60))) for c in range(ncols)
             if rng.random() < 0.5}
            for _ in range(rng.randint(0, 7))
        ]
        echelon, pivots = integer_echelon(rows)
        assert len(echelon) == len(pivots)
        dense = [[row.get(c, 0) for c in range(ncols)] for row in rows]
        assert len(pivots) == fraction_rank(dense)
        for row, c in zip(echelon, pivots):
            assert row[c] > 0
            assert math.gcd(*row.values()) == 1
            assert all(row.values())
            assert not any(d in row for d in pivots if d != c)


def test_kernel_of_a_known_system():
    rows = [{0: 1, 1: 1}, {2: 1}]
    rank, pivots, basis = kernel_basis(rows, 3)
    assert rank == 2
    assert pivots == [0, 2]
    assert basis == [{0: Fraction(-1), 1: Fraction(1)}]


def test_kernel_of_empty_system_is_everything():
    rank, pivots, basis = kernel_basis([], 3)
    assert rank == 0
    assert pivots == []
    assert basis == [{0: Fraction(1)}, {1: Fraction(1)}, {2: Fraction(1)}]


def test_untouched_columns_become_singleton_vectors():
    rows = [{1: 2, 3: -1}]
    rank, _, basis = kernel_basis(rows, 5)
    assert rank == 1
    assert {0: Fraction(1)} in basis
    assert {2: Fraction(1)} in basis
    assert {4: Fraction(1)} in basis


def apply_row(row, vec):
    return sum(Fraction(coeff) * vec.get(col, Fraction(0)) for col, coeff in row.items())


def test_kernel_vectors_annihilate_rows_and_are_independent():
    rng = random.Random(406)
    for _ in range(40):
        ncols = rng.randint(1, 8)
        nrows = rng.randint(1, 5)
        rows = []
        for _ in range(nrows):
            row = {
                c: rng.randint(-4, 4)
                for c in range(ncols)
                if rng.random() < 0.5
            }
            rows.append({c: v for c, v in row.items() if v})
        rank, pivots, basis = kernel_basis(rows, ncols)
        assert rank + basis.dimension == ncols
        free = [c for c in range(ncols) if c not in set(pivots)]
        for vec, f in zip(basis, free):
            assert vec.get(f) == 1
            # holding a 1 where every other basis vector holds 0 makes the
            # family independent by inspection
            for other, g in zip(basis, free):
                if g != f:
                    assert vec.get(g, Fraction(0)) == 0
            for row in rows:
                assert apply_row(row, vec) == 0


def test_a_fraction_coefficient_raises_type_error():
    # The rows are integer rows, as build_constraint_system makes them.
    with pytest.raises(TypeError):
        kernel_basis([{0: 1, 1: Fraction(1, 3)}], 2)


def test_kernel_matches_the_per_column_oracle_on_sparse_systems():
    # equal lists: the same rank, pivots and vectors, in the same order
    rng = random.Random(408)
    untouched = 0
    for _ in range(300):
        ncols = rng.randint(1, 14)
        rows = random_sparse_rows(rng, ncols)
        assert kernel_basis(rows, ncols) == reference_kernel_basis(rows, ncols)
        untouched += ncols - len({c for row in rows for c in row})
    assert untouched > 300


@pytest.mark.parametrize(
    "rows, ncols",
    [
        ([{}, {1: 2, 3: -1}, {}], 5),
        ([{}], 3),
        ([], 4),
        ([{0: 1, 2: -1}, {1: 6, 2: 1}], 9),
    ],
    ids=["empty-rows", "only-empty-rows", "no-rows", "ncols-past-touched"],
)
def test_kernel_matches_the_per_column_oracle_on_edge_systems(rows, ncols):
    assert kernel_basis(rows, ncols) == reference_kernel_basis(rows, ncols)


def assert_behaves_as_list(basis, vectors):
    """basis, a NullBasis, against the list of vectors it stands for."""
    assert isinstance(basis, NullBasis)
    assert basis.dimension == len(vectors)
    assert list(basis) == vectors
    assert basis == vectors and vectors == basis
    assert basis == tuple(vectors) and tuple(vectors) == basis
    assert basis == NullBasis(vectors)
    longer = vectors + [{0: Fraction(1)}]
    assert basis != longer and longer != basis
    assert basis != tuple(longer) and tuple(longer) != basis
    if vectors:
        changed = vectors[:-1] + [{**vectors[-1], -1: Fraction(2)}]
        assert basis != changed and changed != basis
        assert basis != tuple(changed) and tuple(changed) != basis
    assert basis != {} and basis != "basis"


def test_kernel_basis_behaves_as_the_oracle_list_on_sparse_systems():
    rng = random.Random(409)
    runs = 0
    for _ in range(300):
        ncols = rng.randint(1, 14)
        rows = random_sparse_rows(rng, ncols)
        basis = kernel_basis(rows, ncols)[2]
        assert_behaves_as_list(basis, reference_kernel_basis(rows, ncols)[2])
        runs += sum(type(segment) is range for segment in basis.segments)
    assert runs > 300


# (rows, ncols, the kinds of the basis segments: a run, or "v" for the
# vector of a touched free column)
EDGES = {
    "no-untouched-column": ([{0: 1, 1: -1, 2: 1}], 3, ["v", "v"]),
    "all-untouched": ([], 5, [range(0, 5)]),
    "all-untouched-empty-rows": ([{}, {}], 3, [range(0, 3)]),
    "run-at-column-0": ([{2: 1, 3: 1}], 4, [range(0, 2), "v"]),
    "run-after-last-touched": ([{0: 1, 1: 2}], 6, ["v", range(2, 6)]),
    "runs-split-by-touched": ([{2: 1, 5: -1}], 8, [range(0, 2), range(3, 5), "v", range(6, 8)]),
    "runs-of-length-1": ([{1: 1, 3: 1}], 5, [range(0, 1), range(2, 3), "v", range(4, 5)]),
    "ncols-1-untouched": ([], 1, [range(0, 1)]),
    "ncols-1-pivot": ([{0: 3}], 1, []),
    "ncols-1-touched-free": ([{0: 0}], 1, ["v"]),
}


@pytest.mark.parametrize("name", list(EDGES))
def test_kernel_basis_runs_at_the_edges(name):
    rows, ncols, kinds = EDGES[name]
    basis = kernel_basis(rows, ncols)[2]
    assert [s if type(s) is range else "v" for s in basis.segments] == kinds
    assert_behaves_as_list(basis, reference_kernel_basis(rows, ncols)[2])


def test_solve_square_round_trip():
    rng = random.Random(407)
    solved = 0
    for _ in range(60):
        n = rng.randint(1, 5)
        a = [[Fraction(rng.randint(-5, 5)) for _ in range(n)] for _ in range(n)]
        x_true = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
        b = [sum(a[i][j] * x_true[j] for j in range(n)) for i in range(n)]
        x = solve_square(a, b)
        if x is None:
            assert fraction_rank(a) < n
            continue
        solved += 1
        assert x == x_true or [
            sum(a[i][j] * x[j] for j in range(n)) for i in range(n)
        ] == b
    assert solved > 30


def test_solve_square_detects_singular():
    a = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert solve_square(a, [Fraction(1), Fraction(2)]) is None
