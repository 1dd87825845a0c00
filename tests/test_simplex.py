"""Exact simplex solver, checked against brute-force vertex enumeration.

The solver takes each row as a mapping of its nonzero entries; the
oracle works on the same rows written out dense, as lists.

Oracle idea: over a pointed feasible region (the tests always include the
sign constraints x >= 0 and box rows x_i <= 3, so the region is a
polytope), an optimal point exists at a vertex, and every vertex is the
solution of some square subsystem of active constraints.  Enumerating all
square subsystems is exponential but exact, which is all the tests need.
The same oracle checks a program re-solved by the dual simplex method
after its right-hand side changed.

The solver takes only programs whose equality rows are independent and
whose re-solves are feasible, as ``minlip`` builds them; the first two
tests show that its programs are such.  Where the oracles find that a
drawn program breaks either premise, the solve must raise
ArithmeticError.
"""

import itertools
import random
import time
from dataclasses import replace
from fractions import Fraction

import pytest

from divdiff import simplex
from divdiff.constraints import build_constraint_system
from divdiff.extremal import _GapPrograms
from divdiff.simplex import INFEASIBLE, OPTIMAL, LpResult, _Tableau, certify, solve_lp

from util import reference_integer_echelon, solve_square, sparse_rows


def test_the_constraint_rows_are_independent_by_a_triangular_minor():
    # The premise of the phase 1 refusal.  On the columns 0, L/1, .., L/N
    # row m holds L/n only when n divides m, and +-m at n = m, so the
    # minor is lower-triangular with diagonal 1, +-1, .., +-N: rank N + 1.
    for N in range(1, 61):
        system = build_constraint_system(N)
        cols = [0, *(system.L // n for n in range(1, N + 1))]
        minor = [[row.get(col, 0) for col in cols] for row in system.rows]
        assert not any(minor[m][k] for m in range(N + 1) for k in range(m + 1, N + 1))
        assert [abs(minor[m][m]) for m in range(N + 1)] == [1, *range(1, N + 1)]


def test_one_point_meets_every_row_of_each_relaxed_program():
    # The premise of the dual refusal.  u = 1 with t = 2 L / g, for the
    # width g of gap i, meets every row of the relaxed programs' one
    # tableau at gap i's rhs, so no re-solve of it, over any working set,
    # is infeasible.  In integers, as certify checks: g times the point.
    for N in range(3, 14):
        system = build_constraint_system(N)
        L, touched = system.L, list(system.touched)
        gaps = sum(2 * c <= L for c in touched) - 1
        programs = _GapPrograms(system, touched, gaps)
        tableau = programs.tableau
        for i in range(gaps):
            g = touched[i + 1] - touched[i]
            X = [g] * len(touched) + [2 * L]
            b_ub = list(programs.b_off)
            b_ub[i] = -4 * L
            for row, b in zip(tableau.a_ub, b_ub, strict=True):
                assert sum(a * X[j] for j, a in row.items()) <= b * g
            for row, b in zip(tableau.a_eq, programs.b_eq, strict=True):
                assert sum(a * X[j] for j, a in row.items()) == b * g


def test_one_variable_lower_bound():
    # minimize x subject to x >= 3
    res = solve_lp([1], a_ub=[{0: -1}], b_ub=[-3])
    assert res.status == OPTIMAL
    assert res.value == 3
    assert res.x == (3,)


def test_a_negative_cost_is_refused():
    # Every program minlip builds minimises t >= 0 over x >= 0, so the
    # solver takes only c >= 0, and no program it takes is unbounded.
    with pytest.raises(ValueError, match="no negative cost"):
        solve_lp([1, -1], a_ub=[{0: 1}], b_ub=[1])
    with pytest.raises(ValueError, match="no negative cost"):
        _Tableau([-1])


def test_infeasible_sign_conflict():
    res = solve_lp([1], a_ub=[{0: 1}], b_ub=[-1])
    assert res.status == INFEASIBLE


def test_equality_row():
    # minimize x with x + y = 1
    res = solve_lp([1, 0], a_eq=[{0: 1, 1: 1}], b_eq=[1])
    assert res.status == OPTIMAL
    assert res.value == 0
    assert res.x == (0, 1)


def test_redundant_equalities_are_refused():
    # Phase 1 meets x + y = 1 and its double; no real column is left to
    # pivot the second row's artificial out on.
    rows = [{0: 1, 1: 1}, {0: 2, 1: 2}]
    with pytest.raises(ArithmeticError, match="phase 1 left row 1 with no column to pivot on"):
        solve_lp([1, 1], a_eq=rows, b_eq=[1, 2])


def test_contradictory_equalities_are_infeasible():
    rows = [{0: 1, 1: 1}, {0: 2, 1: 2}]
    res = solve_lp([1, 1], a_eq=rows, b_eq=[1, 3])
    assert res.status == INFEASIBLE


def test_fractional_optimum_is_exact():
    # minimize y subject to x + y >= 1, 3x <= 2
    res = solve_lp(
        [0, 1],
        a_ub=[{0: -1, 1: -1}, {0: 3}],
        b_ub=[-1, 2],
    )
    assert res.status == OPTIMAL
    assert res.x == (Fraction(2, 3), Fraction(1, 3))
    assert res.value == Fraction(1, 3)


def test_an_optimum_carries_its_dual():
    # The dual of test_fractional_optimum: both rows are tight, and 3x <= 2
    # holds at x = 2/3 with equality, so it reads 3X = 6 = 2 * dx for X = 3x.
    program = ([0, 1], [{0: -1, 1: -1}, {0: 3}], [-1, 2])
    res = solve_lp(*program)
    assert res.dual == (-1, Fraction(-1, 3))
    certify(res, *program)
    # A^T y <= c holds for this y too, at b.y = 1/6.
    with pytest.raises(ArithmeticError, match="duality gap"):
        certify(replace(res, dual=(Fraction(-1, 2), Fraction(-1, 6))), *program)


def test_a_point_off_an_equality_row_is_not_certified():
    # minimize x + y with 3x + 2y = 6: the optimum is x = 2.  The point
    # (1, 1/3) keeps x >= 0 and falls short of the equality by 7/3.
    program = ([1, 1], [], [], [{0: 3, 1: 2}], [6])
    res = solve_lp(*program)
    assert (res.value, res.x) == (2, (2, 0))
    certify(res, *program)
    with pytest.raises(ArithmeticError, match="solution is not feasible"):
        certify(replace(res, x=(Fraction(1), Fraction(1, 3))), *program)


def test_a_negative_solution_entry_is_not_certified():
    # minimize 0 over x >= 0 with no rows: x = -1 breaks no row and no
    # dual condition, so only the sign check sees it.
    certify(LpResult(OPTIMAL, Fraction(0), (Fraction(0),), ()), [0])
    with pytest.raises(ArithmeticError, match="solution is not feasible"):
        certify(LpResult(OPTIMAL, Fraction(0), (Fraction(-1),), ()), [0])


def test_an_infeasible_program_carries_a_farkas_ray():
    program = ([1, 1], [], [], [{0: 1, 1: 1}, {0: 2, 1: 2}], [1, 3])
    res = solve_lp(*program)
    assert res.status == INFEASIBLE
    certify(res, *program)
    with pytest.raises(ArithmeticError, match="Farkas ray"):
        certify(replace(res, dual=tuple(-y for y in res.dual)), *program)


def test_an_rhs_change_to_an_infeasible_program_is_refused():
    # minimize x + y with x + y >= 1 and the box x, y <= 3; then x + y >= 7,
    # which the box rules out, so the dual method reaches a row with no
    # column to enter; then x + y >= 2 again, from the basis it stopped at.
    c = [1, 1]
    a_ub = [{0: -1, 1: -1}, {0: 1}, {1: 1}]
    tableau = _Tableau(c, a_ub)
    assert tableau.solve([-1, 3, 3]).value == 1
    assert tableau.warm
    with pytest.raises(ArithmeticError, match="dual simplex row 2 has no column to enter"):
        tableau.solve([-7, 3, 3])
    assert tableau.warm  # the basis is still dual feasible
    b_ub = [-2, 3, 3]
    res = tableau.solve(b_ub)
    assert (res.status, res.value) == (OPTIMAL, 2)
    certify(res, c, a_ub, b_ub)


def test_a_pivot_that_changes_nothing_stops_at_the_cap(monkeypatch):
    # A pivot that leaves the tableau as it is makes the same column enter
    # again on every pass, for ever, in the primal method (a cold solve)
    # and in the dual (a warm re-solve).  Past _MAX_PIVOTS pivots in one
    # solve either one is an ArithmeticError, well within a second.
    c = [1, 1]
    a_ub = [{0: -1, 1: -1}, {0: 1}, {1: 1}]
    warm = _Tableau(c, a_ub)
    assert warm.solve([-1, 3, 3]).value == 1
    monkeypatch.setattr(simplex._Tableau, "_pivot", lambda self, r, j: None)
    message = f"passed {simplex._MAX_PIVOTS} pivots in one solve"
    # x <= 0 cuts off the last optimum (1, 0): the dual method must pivot.
    for solve in (lambda: solve_lp(c, a_ub, [-1, 3, 3]),
                  lambda: warm.solve([-1, 0, 3])):
        start = time.perf_counter()
        with pytest.raises(ArithmeticError, match=message):
            solve()
        assert time.perf_counter() - start < 1


def test_warm_resolves_match_vertex_enumeration():
    # One tableau per program, re-solved for a run of right-hand sides;
    # each result must match the oracle and carry a valid certificate,
    # and each refusal is counted as the outcome the oracle finds.
    rng = random.Random(717)
    draw = rng.randint
    warm = statuses = 0
    for _ in range(40):
        nvars = rng.randint(1, 3)
        c = [draw(-4, 4) for _ in range(nvars)]
        a_ub = [[draw(-3, 3) for _ in range(nvars)] for _ in range(rng.randint(1, 3))]
        a_ub += [[int(i == j) for j in range(nvars)] for i in range(nvars)]
        a_eq = [[draw(-2, 2) for _ in range(nvars)]] if rng.random() < 0.4 else []
        c, a_ub, a_eq, moved = complemented(c, a_ub, a_eq)
        rows_ub, rows_eq = sparse_rows(a_ub), sparse_rows(a_eq)
        tableau = _Tableau(c, rows_ub, rows_eq)
        seen = set()
        for _ in range(4):
            b_ub = [draw(-2, 4) for _ in range(len(a_ub) - nvars)] + [3] * nvars
            b_eq = [draw(-2, 2) for _ in a_eq]  # a negative one negates its row
            b_ub, b_eq = moved(b_ub, b_eq)
            warm += tableau.warm
            res, expected = solved(tableau, c, a_ub, b_ub, a_eq, b_eq)
            if res is None:
                seen.add(OPTIMAL if expected is not None else INFEASIBLE)
                continue
            certify(res, c, rows_ub, b_ub, rows_eq, b_eq)
            assert res.value == expected
            seen.add(res.status)
        statuses += len(seen) == 2
    assert warm >= 70
    assert statuses >= 15  # programs that went from optimal to infeasible or back


def recording_pivots(monkeypatch):
    """("w" on a warm tableau, else "c", row, column) of every pivot any
    tableau makes from now on."""
    pivots = []
    pivot = simplex._Tableau._pivot

    def recording_pivot(self, r, j):
        pivots.append(("w" if self.warm else "c", r, j))
        pivot(self, r, j)

    monkeypatch.setattr(simplex._Tableau, "_pivot", recording_pivot)
    return pivots


def test_a_path_longer_than_two_sweeps_matches_vertex_enumeration(monkeypatch):
    # The Klee-Minty cube in dimension 6, 2 sum_{j<i} 2^(i-j) x_j + x_i
    # <= 5^i, each row times a seeded positive integer (which scales its
    # slack column and moves no pivot), with sum x_i >= 5^6 and
    # x_6 >= 5^5; minimize sum x_i.  Only the cube's vertex x_6 = 5^6
    # reaches the sum 5^6, and from x = 0, which both rows cut off,
    # Bland's rule takes 41 pivots to it, so the tableau reduces its rows
    # more than twice on the way.  Then sum x_i >= 5^4, which the dual
    # simplex method reaches in 15 pivots from the last basis, and then
    # sum x_i >= 2 * 5^6, which no x in the cube meets: after 17 more
    # pivots the dual method reaches a row with no column to enter.
    rng = random.Random(818)
    n = 6
    c = [1] * n
    a_ub, b_ub = [], []
    for i in range(1, n + 1):
        scale = rng.randint(1, 9)
        a_ub.append([scale * 2 ** (i - j + 1) for j in range(1, i)] + [scale] + [0] * (n - i))
        b_ub.append(scale * 5**i)
    a_ub += [[-1] * n, [0] * (n - 1) + [-1]]
    b_ub += [-(5**6), -(5**5)]
    pivots = recording_pivots(monkeypatch)

    def count(side):
        return sum(s == side for s, _, _ in pivots)

    rows = sparse_rows(a_ub)
    tableau = _Tableau(c, rows)
    res = tableau.solve(b_ub)
    assert count("c") == 41 > 2 * simplex._SWEEP
    certify(res, c, rows, b_ub)
    assert res.value == enumerate_optimum(c, a_ub, b_ub, [], [], n) == 5**n
    b_ub[-2] = -(5**4)
    res = tableau.solve(b_ub)
    assert count("w") == 15
    certify(res, c, rows, b_ub)
    assert res.value == enumerate_optimum(c, a_ub, b_ub, [], [], n) == 5**5
    b_ub[-2] = -2 * 5**n
    with pytest.raises(ArithmeticError, match="no column to enter"):
        tableau.solve(b_ub)
    assert count("w") == 32


def test_lazy_rows_match_vertex_enumeration():
    # Random boxed programs whose a_ub rows start out of the working set in
    # a random subset, each re-solved for a run of right-hand sides.  Every
    # result must match the oracle and certify against the full program,
    # whose omitted rows it must therefore meet; a refusal of an infeasible
    # program counts as infeasible.
    rng = random.Random(919)
    draw = rng.randint
    added = kept = infeasible = 0
    for _ in range(60):
        nvars = rng.randint(1, 3)
        c = [draw(-4, 4) for _ in range(nvars)]
        a_ub = [[draw(-3, 3) for _ in range(nvars)] for _ in range(rng.randint(1, 4))]
        a_ub += [[int(i == j) for j in range(nvars)] for i in range(nvars)]
        a_eq = [[draw(-2, 2) for _ in range(nvars)]] if rng.random() < 0.4 else []
        c, a_ub, a_eq, moved = complemented(c, a_ub, a_eq)
        rows_ub, rows_eq = sparse_rows(a_ub), sparse_rows(a_eq)
        lazy = [i for i in range(len(a_ub)) if rng.random() < 0.6]
        tableau = _Tableau(c, rows_ub, rows_eq, lazy)
        for _ in range(3):
            b_ub = [draw(-2, 4) for _ in range(len(a_ub) - nvars)] + [3] * nvars
            b_eq = [draw(-2, 2) for _ in a_eq]
            b_ub, b_eq = moved(b_ub, b_eq)
            res, expected = solved(tableau, c, a_ub, b_ub, a_eq, b_eq)
            infeasible += expected is None
            if res is not None:
                certify(res, c, rows_ub, b_ub, rows_eq, b_eq)
                assert res.value == expected
        added += len(lazy) - len(tableau.lazy)
        kept += len(tableau.lazy)
    assert added >= 40  # rows an optimum violated
    assert kept >= 20  # rows no optimum violated, never written in the tableau
    assert infeasible >= 20


def test_an_infeasible_working_set_has_a_ray_that_is_zero_on_the_omitted_rows():
    # x + y <= -1 is in the working set, and no x >= 0 meets it; the
    # omitted box rows are never written in the tableau.
    c = [1, 1]
    a_ub = [{0: 1}, {0: 1, 1: 1}, {1: 1}]
    b_ub = [3, -1, 3]
    tableau = _Tableau(c, a_ub, lazy=[0, 2])
    res = tableau.solve(b_ub)
    assert res.status == INFEASIBLE
    assert res.dual == (0, -1, 0)
    certify(res, c, a_ub, b_ub)
    assert set(tableau.lazy) == {0, 2} and len(tableau.rows) == 1


def test_a_violated_row_joins_the_working_set_in_the_current_basis():
    # minimize 2x + y with x + y >= 4: the working set's optimum (0, 4)
    # violates the omitted y <= 3, whose slack becomes basic at -1; one
    # dual pivot swaps it for x, at (1, 3).  Then y >= 5 joins against
    # y <= 3, and the dual method finds no column to enter.
    c = [2, 1]
    a_ub = [{0: -1, 1: -1}, {1: 1}, {1: -1}]
    tableau = _Tableau(c, a_ub, lazy=[1, 2])
    b_ub = [-4, 3, 0]
    res = tableau.solve(b_ub)
    assert (res.status, res.value, res.x) == (OPTIMAL, 5, (1, 3))
    assert res.dual == (-2, -1, 0)
    certify(res, c, a_ub, b_ub)
    assert list(tableau.lazy) == [2] and sorted(tableau.basis) == [0, 1]
    assert tableau.pivots == 3  # phase 1 takes x, phase 2 y; the dual pivot x
    with pytest.raises(ArithmeticError, match="dual simplex row 2 has no column to enter"):
        tableau.solve([-4, 3, -5])
    assert not tableau.lazy


def test_an_omitted_row_is_checked_against_x_over_its_denominator():
    # minimize 2x + y with 2x >= 3: the working set's optimum (3/2, 0) is
    # X / 2 for X = (3, 0).  The omitted x + y >= 2, as -x - y <= -2,
    # reads -3 > -2 * 2 there, so it joins, though -3 > -2 is false.
    c = [2, 1]
    a_ub = [{0: -2}, {0: -1, 1: -1}]
    b_ub = [-3, -2]
    tableau = _Tableau(c, a_ub, lazy=[1])
    res = tableau.solve(b_ub)
    assert (res.status, res.value) == (OPTIMAL, Fraction(7, 2))
    assert res.x == (Fraction(3, 2), Fraction(1, 2))
    certify(res, c, a_ub, b_ub)
    assert not tableau.lazy


def complemented(c, a_ub, a_eq):
    """A boxed program with x'_j = 3 - x_j for each column j of negative cost.

    The a_ub rows end in the box rows x_j <= 3, one per column.  Under the
    change x_j >= 0 becomes x'_j <= 3, which is j's box row as it stands,
    and x_j <= 3 becomes x'_j >= 0; every other row negates column j and
    takes 3 times its old entry off its rhs.  This maps feasible points
    one to one, so a program and its image are feasible together, and the
    vertex oracle holds for the image, whose costs are all >= 0.  Returns
    the new c, a_ub and a_eq, and the map from (b_ub, b_eq) to the new rhs.
    """
    flip = {j for j, cj in enumerate(c) if cj < 0}
    drawn = a_ub[: len(a_ub) - len(c)]

    def turned(row):
        return [-v if j in flip else v for j, v in enumerate(row)]

    def moved(rows, b):
        return [bi - 3 * sum(row[j] for j in flip) for row, bi in zip(rows, b)]

    def rhs(b_ub, b_eq):
        return moved(drawn, b_ub) + b_ub[len(drawn):], moved(a_eq, b_eq)

    new_ub = [*map(turned, drawn), *a_ub[len(drawn):]]
    return [abs(cj) for cj in c], new_ub, [*map(turned, a_eq)], rhs


def enumerate_optimum(c, a_ub, b_ub, a_eq, b_eq, nvars):
    rows = []
    rhs = []
    for row, b in zip(a_ub, b_ub):
        rows.append(list(row))
        rhs.append(b)
    for row, b in zip(a_eq, b_eq):
        rows.append(list(row))
        rhs.append(b)
    for i in range(nvars):
        rows.append([0] * i + [1] + [0] * (nvars - 1 - i))
        rhs.append(0)

    def feasible(x):
        for row, b in zip(a_ub, b_ub):
            if sum(r * v for r, v in zip(row, x)) > b:
                return False
        for row, b in zip(a_eq, b_eq):
            if sum(r * v for r, v in zip(row, x)) != b:
                return False
        return all(v >= 0 for v in x)

    best = None
    for picks in itertools.combinations(range(len(rows)), nvars):
        x = solve_square([rows[i] for i in picks], [rhs[i] for i in picks])
        if x is None or not feasible(x):
            continue
        value = sum(ci * xi for ci, xi in zip(c, x))
        if best is None or value < best:
            best = value
    return best


def solved(tableau, c, a_ub, b_ub, a_eq, b_eq):
    """(tableau.solve(b_ub, b_eq), the vertex oracle's optimum) for the
    tableau of the dense program, with None in place of the result when
    the solve must be refused, once it is checked to raise.

    A warm re-solve of an infeasible program is refused by the dual
    method.  A solve from scratch whose working set phase 1 finds
    feasible is refused when the equality rows are dependent, and else,
    by the dual method once an omitted row joins, when the program is
    infeasible.  Rank and feasibility are the oracles' own.
    """
    nvars = len(c)
    expected = enumerate_optimum(c, a_ub, b_ub, a_eq, b_eq, nvars)
    refusal = None
    if tableau.warm:
        phase_1_feasible = False
    elif tableau.lazy:
        kept = [i for i in range(len(a_ub)) if i not in tableau.lazy]
        working = ([a_ub[i] for i in kept], [b_ub[i] for i in kept])
        phase_1_feasible = enumerate_optimum(c, *working, a_eq, b_eq, nvars) is not None
    else:
        phase_1_feasible = expected is not None
    if phase_1_feasible and len(reference_integer_echelon(a_eq)[0]) < len(a_eq):
        refusal = "no column to pivot on"
    elif expected is None and (tableau.warm or phase_1_feasible):
        refusal = "no column to enter"
    if refusal is None:
        return tableau.solve(b_ub, b_eq), expected
    with pytest.raises(ArithmeticError, match=refusal):
        tableau.solve(b_ub, b_eq)
    return None, expected


def assert_matches_enumeration(c, a_ub, b_ub, a_eq, b_eq):
    """Check solve_lp against the vertex oracle; return the oracle's optimum.

    The rows are dense lists, handed to the solver as mappings.  The
    result's dual or Farkas ray must pass ``certify`` as well, and so
    must a re-solve of the program from the basis of the program with
    every rhs one larger, which must reach the same status and value.
    Where the solver must refuse a solve (see ``solved``), it is checked
    to; each solve it does not refuse is checked in full.
    """
    rows_ub, rows_eq = sparse_rows(a_ub), sparse_rows(a_eq)
    res, expected = solved(_Tableau(c, rows_ub, rows_eq), c, a_ub, b_ub, a_eq, b_eq)
    tableau = _Tableau(c, rows_ub, rows_eq)
    solved(tableau, c, a_ub, [b + 1 for b in b_ub], a_eq, [b + 1 for b in b_eq])
    warm, _ = solved(tableau, c, a_ub, b_ub, a_eq, b_eq)
    if warm is not None:
        certify(warm, c, rows_ub, b_ub, rows_eq, b_eq)
        assert (warm.status, warm.value) == (
            (INFEASIBLE, None) if expected is None else (OPTIMAL, expected)
        )
    if res is None:
        return expected
    certify(res, c, rows_ub, b_ub, rows_eq, b_eq)
    if expected is None:
        assert res.status == INFEASIBLE
        return None
    assert res.status == OPTIMAL
    assert res.value == expected
    # the reported point must itself be feasible and attain the value
    x = res.x
    for row, b in zip(a_ub, b_ub):
        assert sum(r * v for r, v in zip(row, x)) <= b
    for row, b in zip(a_eq, b_eq):
        assert sum(r * v for r, v in zip(row, x)) == b
    assert all(v >= 0 for v in x)
    assert sum(ci * xi for ci, xi in zip(c, x)) == expected
    return expected


def count_against_enumeration(rng, cases, factor=lambda: 1):
    """Solve random boxed LPs in integers; count optimal and infeasible.

    Each drawn row and its rhs are multiplied by ``factor()``.
    """
    optimal_seen = 0
    infeasible_seen = 0
    for _ in range(cases):
        nvars = rng.randint(1, 3)
        c = [rng.randint(-4, 4) for _ in range(nvars)]
        a_ub = []
        b_ub = []
        for _ in range(rng.randint(1, 4)):
            k = factor()
            a_ub.append([k * rng.randint(-3, 3) for _ in range(nvars)])
            b_ub.append(k * rng.randint(-2, 4))
        # box rows keep the region bounded, and complemented makes c >= 0
        for i in range(nvars):
            a_ub.append([0] * i + [1] + [0] * (nvars - 1 - i))
            b_ub.append(3)
        a_eq = []
        b_eq = []
        if rng.random() < 0.4:
            k = factor()
            a_eq.append([k * rng.randint(-2, 2) for _ in range(nvars)])
            b_eq.append(k * rng.randint(0, 2))
        c, a_ub, a_eq, moved = complemented(c, a_ub, a_eq)
        b_ub, b_eq = moved(b_ub, b_eq)

        if assert_matches_enumeration(c, a_ub, b_ub, a_eq, b_eq) is None:
            infeasible_seen += 1
        else:
            optimal_seen += 1
    return optimal_seen, infeasible_seen


def test_against_vertex_enumeration():
    rng = random.Random(515)
    optimal_seen, infeasible_seen = count_against_enumeration(rng, 50)
    assert optimal_seen >= 20
    assert infeasible_seen >= 3


def test_against_vertex_enumeration_with_row_factors():
    # Each row is 2 to 6 times a row of small integers, so its entries
    # have a gcd above 1 that nothing divides out before the pivots.
    rng = random.Random(616)
    optimal_seen, infeasible_seen = count_against_enumeration(
        rng, 80, lambda: rng.randint(2, 6)
    )
    assert optimal_seen >= 30
    assert infeasible_seen >= 20


BOX = ([[1, 0, 0], [0, 1, 0], [0, 0, 2]], [3, 3, 7])


def test_cleanup_pivots_an_artificial_out_on_a_negative_entry():
    # Phase 1 stops at once: pricing out -5x - 3y = 0 leaves reduced
    # costs 5 and 3, so the artificial stays basic at level 0 and the
    # cleanup pivots it out on the entry -5.
    c = [10, 12, 3]
    a_eq = [[-5, -3, 0]]
    assert assert_matches_enumeration(c, *BOX, a_eq, [0]) == 0


def test_cleanup_pivots_one_artificial_out_and_refuses_its_redundant_twin(monkeypatch):
    # The two rows are -3 times each other, so phase 1 again stops at
    # once with both artificials at level 0.  The first is pivoted out on
    # 3; that turns the second row into 0 = 0, which is refused.
    pivots = recording_pivots(monkeypatch)
    tableau = _Tableau([3, 4, 2], sparse_rows(BOX[0]), sparse_rows([[3, 2, 0], [-9, -6, 0]]))
    with pytest.raises(ArithmeticError, match="phase 1 left row 4 with no column to pivot on"):
        tableau.solve(BOX[1], [0, 0])
    assert (tableau.pivots, pivots) == (0, [("c", 3, 0)])


def test_redundant_equalities_with_row_factors_are_refused(monkeypatch):
    # Phase 1 pivots x in on a ratio tie; the second row, 3/2 times the
    # first, becomes 0 = 0 and is refused without a cleanup pivot.  The
    # rows are 2 and 3 times 15x + 10y + 6z = 6.
    pivots = recording_pivots(monkeypatch)
    tableau = _Tableau([6, 4, 3], sparse_rows(BOX[0]), sparse_rows([[30, 20, 12], [45, 30, 18]]))
    with pytest.raises(ArithmeticError, match="phase 1 left row 4 with no column to pivot on"):
        tableau.solve(BOX[1], [12, 18])
    assert (tableau.pivots, pivots) == (1, [("c", 3, 0)])
