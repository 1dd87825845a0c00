"""The shared-grid difference constraints and their null space."""

import math
import random
from fractions import Fraction

import pytest

from divdiff import (
    ConstraintSystem,
    GridFunction,
    build_constraint_system,
    constraints,
    finite_difference,
    nullspace,
)
from divdiff.linalg import integer_echelon

from util import (
    corrupting_kernel_basis,
    misreporting_kernel_basis,
    random_funcspec,
    random_sparse_rows,
    reference_forced_zeros,
    reference_kernel_basis,
)


def test_grid_size_is_the_lcm():
    for N in range(1, 9):
        system = build_constraint_system(N)
        assert system.L == math.lcm(*range(1, N + 1))
        assert system.ncols == system.L + 1
        assert len(system.rows) == N + 1


def test_rejects_nonpositive_n():
    with pytest.raises(ValueError):
        build_constraint_system(0)


def test_rows_for_two_differences():
    system = build_constraint_system(2)
    assert system.L == 2
    assert system.rows[0] == {0: 1}
    assert system.rows[1] == {0: -1, 2: 1}
    assert system.rows[2] == {0: 1, 1: -2, 2: 1}


def test_rows_for_four_differences():
    system = build_constraint_system(4)
    assert system.L == 12
    assert system.rows[0] == {0: 1}
    assert system.rows[1] == {0: -1, 12: 1}
    assert system.rows[2] == {0: 1, 6: -2, 12: 1}
    assert system.rows[3] == {0: -1, 4: 3, 8: -3, 12: 1}
    assert system.rows[4] == {0: 1, 3: -4, 6: 6, 9: -4, 12: 1}
    # the Farey fractions of order 4, scaled by L
    assert system.touched == (0, 3, 4, 6, 8, 9, 12)


def test_rows_apply_the_order_n_difference():
    # row n dotted with samples of f on the grid must equal the forward
    # difference of f at 0 with step 1/n
    rng = random.Random(71)
    for N in (1, 2, 3, 4, 5):
        system = build_constraint_system(N)
        f = random_funcspec(rng)
        g = GridFunction(
            system.L,
            {k: f.evaluate(Fraction(k, system.L)) for k in range(system.L + 1)},
        )
        res = system.residuals(g)
        assert res[0] == f.evaluate(0)
        for n in range(1, N + 1):
            assert res[n] == finite_difference(f, 0, Fraction(1, n), n)


def test_residuals_reject_wrong_grid():
    system = build_constraint_system(3)
    with pytest.raises(ValueError):
        system.residuals(GridFunction(5, {}))


def test_nullspace_is_trivial_for_one_and_two():
    for N in (1, 2):
        report = nullspace(build_constraint_system(N))
        assert report.dimension == 0
        assert report.basis == ()
        assert report.rank == N + 1
        assert report.forced_zero_points == tuple(range(report.L + 1))


def test_nullspace_for_three():
    report = nullspace(build_constraint_system(3))
    assert report.L == 6
    assert report.rank == 4
    assert report.dimension == 3
    assert report.forced_zero_points == (0, 3, 6)
    # every null vector satisfies f(1/3) = f(2/3)
    for vec in report.basis:
        assert vec.get(2, 0) == vec.get(4, 0)


def test_nullspace_for_four():
    report = nullspace(build_constraint_system(4))
    assert report.L == 12
    assert report.rank == 5
    assert report.dimension == 8
    assert report.forced_zero_points == (0, 6, 12)


def test_basis_vectors_satisfy_all_constraints():
    for N in range(1, 7):
        system = build_constraint_system(N)
        report = nullspace(system)
        assert report.rank + report.dimension == system.ncols
        for vec in report.basis:
            g = GridFunction(report.L, vec)
            assert all(r == 0 for r in system.residuals(g))
            for k in report.forced_zero_points:
                assert g.value(k) == 0


def test_endpoints_and_midpoint_always_forced():
    # f(0) is pinned directly; the order-1 row then pins f(1); the order-2
    # row pins f(1/2)
    for N in range(2, 9):
        report = nullspace(build_constraint_system(N))
        half = report.L // 2
        assert {0, half, report.L} <= set(report.forced_zero_points)


def test_wide_system_stays_fast():
    report = nullspace(build_constraint_system(12))
    assert report.L == 27720
    assert report.rank == 13
    assert report.dimension == 27708
    assert {0, 13860, 27720} <= set(report.forced_zero_points)
    # the untouched columns stay 46 runs; only the 34 touched free
    # columns have a vector built
    runs = [s for s in report.basis.segments if type(s) is range]
    assert (len(runs), sum(map(len, runs))) == (46, 27674)


def assert_matches_full_scan_oracle(system):
    rank, _, vectors = reference_kernel_basis(system.rows, system.ncols)
    report = nullspace(system)
    assert report.rank == rank
    assert report.dimension == len(vectors)
    assert report.basis == tuple(vectors)
    assert report.forced_zero_points == reference_forced_zeros(vectors, system.ncols)


@pytest.mark.parametrize("N", range(1, 11))
def test_nullspace_matches_the_full_scan_oracle(N):
    assert_matches_full_scan_oracle(build_constraint_system(N))


def test_nullspace_matches_the_full_scan_oracle_on_sparse_systems():
    rng = random.Random(72)
    for _ in range(300):
        L = rng.randint(1, 13)
        rows = tuple(random_sparse_rows(rng, L + 1))
        assert_matches_full_scan_oracle(ConstraintSystem(N=len(rows), L=L, rows=rows))


@pytest.mark.parametrize(
    "L, rows",
    [
        (3, ({},)),  # every column untouched
        (4, ({0: 1, 1: -1, 2: 1, 3: 1, 4: -1},)),  # no untouched column
        (5, ({2: 1, 4: -1},)),  # a run at 0, runs of length 1 on either side of 4
        (5, ({0: 1}, {0: 1, 1: 2})),  # one run, after the last touched column
    ],
    ids=["all-untouched", "all-touched", "run-at-0", "run-at-end"],
)
def test_nullspace_matches_the_full_scan_oracle_at_the_edges(L, rows):
    assert_matches_full_scan_oracle(ConstraintSystem(N=len(rows), L=L, rows=rows))


CORRUPTIONS = {
    "pivot entry off by one": (
        lambda v, free, pivot: v.update({pivot: v[pivot] + 1}), "fails constraint row"
    ),
    "free entry 2": (lambda v, free, pivot: v.update({free: Fraction(2)}), "is not 1 there"),
    "entry in another free column": (
        lambda v, free, pivot: v.update({1: Fraction(1, 3)}), "is not 1 there"
    ),
}


@pytest.mark.parametrize("name", list(CORRUPTIONS))
def test_nullspace_certificate_catches_a_corrupted_vector(monkeypatch, name):
    corrupt, message = CORRUPTIONS[name]
    monkeypatch.setattr(constraints, "kernel_basis", corrupting_kernel_basis(corrupt))
    with pytest.raises(ArithmeticError, match=message):
        nullspace(build_constraint_system(4))  # column 1 is untouched and free


# At N = 4 the 7 touched columns hold 5 pivots; column 8 is touched and free.
MISREPORTS = {
    "an extra pivot": (True, "the rows have rank below their 6 pivot columns"),
    "a missing vector": (False, "rank 5 with 5 pivots and 7 null vectors for 13 columns"),
}


@pytest.mark.parametrize("name", list(MISREPORTS))
def test_nullspace_certificate_catches_a_misreported_rank(monkeypatch, name):
    add_pivot, message = MISREPORTS[name]
    monkeypatch.setattr(constraints, "kernel_basis", misreporting_kernel_basis(add_pivot))
    with pytest.raises(ArithmeticError, match=message):
        nullspace(build_constraint_system(4))


def test_only_the_rank_check_sees_an_extra_pivot(monkeypatch):
    # Every remaining vector passes its own check, so without the rank
    # check the report would come out with the wrong forced zeros.
    monkeypatch.setattr(constraints, "kernel_basis", misreporting_kernel_basis(True))
    monkeypatch.setattr(constraints, "_check_rank", lambda *args: None)
    report = nullspace(build_constraint_system(4))
    assert report.forced_zero_points != (0, 6, 12)


def test_rank_modulo_a_prime_agrees_with_fraction_free_elimination():
    rng = random.Random(818)
    for _ in range(200):
        ncols = rng.randint(1, 6)
        matrix = [[rng.choice([0, 0, 1, -1, rng.randint(-9, 9)]) for _ in range(ncols)]
                  for _ in range(rng.randint(1, 6))]
        if rng.random() < 0.3:  # a dependent row
            matrix.append([a + 2 * b for a, b in zip(matrix[0], matrix[-1])])
        rows = [{c: v for c, v in enumerate(row) if v} for row in matrix]
        assert constraints._rank_modulo(rows, constraints._PRIME) == len(integer_echelon(matrix)[1])


def test_rank_check_falls_back_when_the_prime_divides_the_minor(monkeypatch):
    # Modulo 3 the pivot minor of N = 4 is singular, so the check must
    # fall back to fraction-free elimination, which proves the rank.
    expected = nullspace(build_constraint_system(4))
    monkeypatch.setattr(constraints, "_PRIME", 3)
    assert nullspace(build_constraint_system(4)) == expected
    monkeypatch.setattr(constraints, "kernel_basis", misreporting_kernel_basis(True))
    with pytest.raises(ArithmeticError, match="rank below"):
        nullspace(build_constraint_system(4))
