"""Minimal Lipschitz constant among unit-sup-norm solutions.

The library solves a reduced problem whose variables live only on the
grid columns that appear in some constraint row, relying on two
reductions: straight-line fill between constrained columns (optimal for
both the sup norm and the slope), and pin positions limited to the left
half by reflection symmetry.  full_grid_minimum below re-solves the
problem with one variable per grid column, slope rows for every adjacent
pair, and pins over every non-forced column, so it validates both
reductions at small N.
"""

import hashlib
import json
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from divdiff import (
    build_constraint_system,
    extremal,
    min_lipschitz_unit_norm,
    nullspace,
    simplex,
)
from divdiff.extremal import _GapPrograms, _program, _search
from divdiff.simplex import INFEASIBLE, OPTIMAL, certify, solve_lp

from golden.check import golden_text, run
from util import (
    corrupting_solve_lp,
    corrupting_warm_tableau,
    reference_gap_program,
    reference_min_lipschitz,
)


def full_grid_minimum(N):
    system = build_constraint_system(N)
    report = nullspace(system)
    if report.dimension == 0:
        return None
    L = system.L
    nvars = L + 2  # u_0..u_L and the slope bound t
    t = L + 1

    # u_k is the unknown at index k, so a constraint row is an LP row as it is.
    eq_rows = list(system.rows)
    eq_rhs = [Fraction(sum(row.values())) for row in system.rows]

    ub_rows = []
    ub_rhs = []
    for k in range(L):
        for sign in (1, -1):
            ub_rows.append({k: Fraction(-sign * L), k + 1: Fraction(sign * L), t: Fraction(-1)})
            ub_rhs.append(Fraction(0))
    for k in range(L + 1):
        ub_rows.append({k: Fraction(1)})
        ub_rhs.append(Fraction(2))

    objective = [Fraction(0)] * nvars
    objective[t] = Fraction(1)

    forced = set(report.forced_zero_points)
    best = None
    for pin in range(L + 1):
        if pin in forced:
            continue
        res = solve_lp(
            objective,
            a_ub=ub_rows,
            b_ub=ub_rhs,
            a_eq=eq_rows + [{pin: Fraction(1)}],
            b_eq=eq_rhs + [Fraction(2)],
        )
        if res.status == INFEASIBLE:
            continue
        assert res.status == OPTIMAL
        if best is None or res.value < best:
            best = res.value
    return best


def test_one_and_two_are_infeasible():
    for N in (1, 2):
        result = min_lipschitz_unit_norm(N)
        assert result.status == "infeasible"
        assert result.value is None
        assert result.witness is None


def test_three_attains_six():
    result = min_lipschitz_unit_norm(3)
    assert result.status == "optimal"
    assert result.value == 6
    assert result.L == 6


def witness_is_valid(result):
    system = build_constraint_system(result.N)
    witness = result.witness
    assert witness is not None
    assert all(r == 0 for r in system.residuals(witness))
    assert witness.sup_norm() == 1
    assert witness.lipschitz_constant() == result.value
    assert witness.value(result.pin_index) in (1, -1)


def test_three_witness_is_valid():
    result = min_lipschitz_unit_norm(3)
    witness_is_valid(result)
    # hand check: height 1 at 1/6 forces slope 6 on [0, 1/6]
    assert result.witness.value(result.pin_index) == 1


def test_four_attains_six_with_valid_witness():
    result = min_lipschitz_unit_norm(4)
    assert result.status == "optimal"
    assert result.value == 6
    witness_is_valid(result)


@pytest.mark.parametrize("N", [3, 4])
def test_reduced_problem_matches_full_grid(N):
    assert min_lipschitz_unit_norm(N).value == full_grid_minimum(N)


def test_five_and_six_stay_at_six():
    for N in (5, 6):
        result = min_lipschitz_unit_norm(N)
        assert result.status == "optimal"
        assert result.value == 6
        witness_is_valid(result)


# LPs the gap search solves, relaxed and pinned, cold and warm; the
# per-pin loop solves 0, 0, 2, 5, 29, 29.
GAP_SEARCH_LPS = {1: 0, 2: 0, 3: 2, 4: 3, 5: 4, 6: 5}


@pytest.mark.parametrize("N", sorted(GAP_SEARCH_LPS))
def test_gap_search_matches_the_per_pin_loop(N, monkeypatch):
    calls = []
    solve = simplex._Tableau.solve

    def counting_solve(self, *args, **kwargs):
        calls.append(None)
        return solve(self, *args, **kwargs)

    monkeypatch.setattr(simplex._Tableau, "solve", counting_solve)
    expected = reference_min_lipschitz(N)
    loop_lps = len(calls)
    calls.clear()
    result = min_lipschitz_unit_norm(N)
    assert result.status == expected.status
    assert result.value == expected.value
    assert result.pin_index == expected.pin_index
    assert result.witness == expected.witness
    assert len(calls) == GAP_SEARCH_LPS[N]
    assert len(calls) <= loop_lps
    if N in (5, 6):
        assert len(calls) < loop_lps


class Bathtubs:
    """A random instance of the gap search with a known answer.

    On each gap [a, b] the value falls linearly from its value at a to a
    level m at l, stays at m up to r, and rises linearly to its value at
    b: quasiconvex, and flat over [l, r].  Levels and end values come
    from a few small numbers, so ties within and across gaps are common.
    A forced end is infeasible, and m stays above its virtual value there.
    """

    def __init__(self, rng):
        self.half = [0] + sorted(rng.sample(range(1, 40), rng.randint(1, 5)))
        self.forced = {0} | {e for e in self.half[1:] if rng.random() < 0.2}
        ends = {e: Fraction(rng.randint(2, 6), 2) for e in self.half}
        self.gaps = []
        for a, b in zip(self.half, self.half[1:]):
            top_a = Fraction(10) if a in self.forced else ends[a]
            top_b = Fraction(10) if b in self.forced else ends[b]
            m = min(top_a, top_b, Fraction(rng.randint(1, 6), 2))
            l = a if m == top_a else a + Fraction(rng.randint(1, 4 * (b - a) - 1), 4)
            if m == top_b:
                r = b
            else:
                r = l + Fraction(rng.randint(0, int(4 * (b - l)) - 1), 4)
            p_star = rng.choice([l, r, (l + r) / 2])
            self.gaps.append((a, b, top_a, top_b, m, l, r, p_star))
        self.calls = []

    def v(self, p):
        if p in self.forced:
            return None
        a, b, top_a, top_b, m, l, r, _ = next(g for g in self.gaps if g[0] <= p <= g[1])
        if p < l:
            return top_a + (m - top_a) * (p - a) / (l - a)
        if p <= r:
            return m
        return m + (top_b - m) * (p - r) / (b - r)

    def pinned(self, p):
        self.calls.append(p)
        return self.v(p)

    def relaxed(self, i):
        _, _, _, _, m, _, _, p_star = self.gaps[i]
        return m, p_star

    def answer(self):
        return min((v, p) for p in range(self.half[-1] + 1) if (v := self.v(p)) is not None)


@pytest.mark.parametrize("seed", range(300))
def test_gap_search_finds_the_smallest_pin_of_the_least_value(seed):
    rng = random.Random(seed)
    case = Bathtubs(rng)
    exact = rng.random() < 0.5

    def lower(a, b):
        if not exact:
            return Fraction(0)
        # The exact least value: the value at a pin, the level over a gap.
        return case.v(a) if a == b else next(g[4] for g in case.gaps if g[0] == a)

    assert _search(case.half, case.forced, case.pinned, case.relaxed, lower) == case.answer()
    assert len(case.calls) == len(set(case.calls))


def test_gap_search_skips_a_gap_whose_bound_ties_the_best():
    # Level 1 over [4, 6] in the first gap and over [14, 16] in the
    # second; the first gap holds the answer, so the second is never
    # entered, although p* = 31/2 there has two candidate pins.
    case = Bathtubs(random.Random(0))
    case.half, case.forced = [0, 10, 20], {0}
    case.gaps = [
        (0, 10, Fraction(10), Fraction(3), Fraction(1), 4, 6, Fraction(6)),
        (10, 20, Fraction(3), Fraction(3), Fraction(1), 14, 16, Fraction(31, 2)),
    ]
    best = _search(case.half, case.forced, case.pinned, case.relaxed, lambda a, b: 0)
    assert best == (1, 4)
    assert max(case.calls) <= 10


def _reported_infeasible(result):
    return replace(result, status=INFEASIBLE, value=None, x=None)


# How an LP result is spoiled, and the check that must catch it.
LP_CORRUPTIONS = {
    "a lower value": (lambda r: replace(r, value=r.value - 1), "duality gap is not zero"),
    "an optimum reported infeasible": (_reported_infeasible, "does not prove infeasibility"),
    "a positive multiplier": (
        lambda r: replace(r, dual=(Fraction(1),) + r.dual[1:]),
        "multiplier of an inequality row is positive",
    ),
    "a smaller slope bound": (
        lambda r: replace(r, x=r.x[:-1] + (r.x[-1] - 1,)), "solution is not feasible"
    ),
    "no certificate": (lambda r: replace(r, dual=None), "carries no certificate"),
}


# solve_lp solves the pinned LPs: the first LP of N = 3 (its gaps are
# enumerated), and at N = 5 the pin 10 after three relaxed LPs.
@pytest.mark.parametrize("N", [3, 5])
@pytest.mark.parametrize("name", list(LP_CORRUPTIONS))
def test_lp_certificate_catches_a_corrupted_result(monkeypatch, name, N):
    corrupt, message = LP_CORRUPTIONS[name]
    monkeypatch.setattr(extremal, "solve_lp", corrupting_solve_lp(corrupt))
    with pytest.raises(ArithmeticError, match=message):
        min_lipschitz_unit_norm(N)


# At N = 5 the relaxed LP of the gap (0, 12) is solved cold, and the
# next relaxed LP is the first one re-solved from its basis.
@pytest.mark.parametrize("name", list(LP_CORRUPTIONS))
def test_lp_certificate_catches_a_corrupted_warm_result(monkeypatch, name):
    corrupt, message = LP_CORRUPTIONS[name]
    monkeypatch.setattr(extremal, "_Tableau", corrupting_warm_tableau(corrupt))
    with pytest.raises(ArithmeticError, match=message):
        min_lipschitz_unit_norm(5)


@pytest.mark.parametrize("N", range(3, 11))
def test_warm_relaxed_programs_match_cold_solves(N):
    # Every gap in [0, L/2] once, in a seeded order, so a re-solve starts
    # from the basis of a gap to its left or to its right.
    system = build_constraint_system(N)
    cols = list(system.touched)
    gaps = sum(2 * c <= system.L for c in cols) - 1
    programs = _GapPrograms(system, cols, gaps)
    order = list(range(gaps))
    random.Random(N).shuffle(order)
    for i in order:
        bound = programs.bound(i)  # certified against the one program
        program = reference_gap_program(system, cols, i)
        cold = solve_lp(*program)
        certify(cold, *program)
        assert (bound is None) == (cold.status == INFEASIBLE)
        if bound is not None:
            value, p_star = bound
            assert value == cold.value
            # u_a, u_b <= 2 and u_a + u_b >= 4 - t g / L put p* in the gap.
            assert cols[i] <= p_star <= cols[i + 1]
    assert programs.tableau.warm


def test_a_relaxed_program_moves_only_its_merged_row(monkeypatch):
    # Each relaxed LP is the touched-column program plus its gap's merged
    # row: its rhs is the all-off rhs (every merged row at 0) with only
    # that row at -4 L.  Every LP of the call is handed integer a_ub rows.
    system = build_constraint_system(9)
    cols = list(system.touched)
    gaps = sum(2 * c <= system.L for c in cols) - 1
    off = [0] * gaps + _program(system, cols)[2]
    gap = []
    solves = []
    bound = _GapPrograms.bound
    solve = simplex._Tableau.solve

    def spying_bound(self, i):
        gap.append(i)
        try:
            return bound(self, i)
        finally:
            gap.pop()

    def spying_solve(self, b_ub=(), b_eq=()):
        solves.append((gap[-1] if gap else None, list(b_ub), self.a_ub))
        return solve(self, b_ub, b_eq)

    monkeypatch.setattr(_GapPrograms, "bound", spying_bound)
    monkeypatch.setattr(simplex._Tableau, "solve", spying_solve)
    min_lipschitz_unit_norm(9)
    relaxed = [(i, b_ub) for i, b_ub, _ in solves if i is not None]
    assert (len(solves), len(relaxed)) == (12, 10)
    for i, b_ub in relaxed:
        assert b_ub == off[:i] + [-4 * system.L] + off[i + 1 :]
        assert all(type(b) is int for b in b_ub)
    for _, _, a_ub in solves:
        assert all(type(a) is int for row in a_ub for a in row.values())


# The rows the relaxed programs' tableau holds at N = 9 after each gap, in
# order: the 10 equality rows and 14 merged rows, then each slope or box
# row that some optimum violated.  The full program has 109 rows.
WORKING_ROWS_9 = [69, 69, 75, 75, 75, 76, 76, 76, 79, 82, 82, 84, 84, 85]


def test_relaxed_programs_hold_only_the_rows_that_bind():
    system = build_constraint_system(9)
    cols = list(system.touched)
    gaps = sum(2 * c <= system.L for c in cols) - 1
    programs = _GapPrograms(system, cols, gaps)
    tableau = programs.tableau
    assert (len(tableau.a_eq), gaps, len(tableau.a_ub) + len(tableau.a_eq)) == (10, 14, 109)
    held = []
    for i in range(gaps):
        programs.bound(i)
        held.append(len(tableau.rows))
    assert held == WORKING_ROWS_9
    assert held[-1] < 109 and tableau.lazy


def test_a_misplaced_integer_p_star_is_caught(monkeypatch):
    # At N = 5 the gap (0, 12) has the integer p* = 10.  Moved one pin
    # left, it credits pin 9 with the bound 6, which pin 9 does not attain.
    gap_bound = _GapPrograms.bound

    def misplaced(self, i):
        bound = gap_bound(self, i)
        if bound is None or bound[1].denominator != 1 or bound[1] == self.cols[i]:
            return bound
        return bound[0], bound[1] - 1

    monkeypatch.setattr(_GapPrograms, "bound", misplaced)
    with pytest.raises(ArithmeticError, match="pin 9 has optimum 20/3, not its gap's bound 6"):
        min_lipschitz_unit_norm(5)


# N = 3 is the README example, whose report is kept whole in
# tests/golden/minlip.json; the reports at N = 4..12 are digests in PINS
# there.  The witness and pin come from the pivot path of Bland's rule,
# so a change to that path shows up here even when the value stays 6.
@pytest.mark.parametrize("N", [3])
def test_minlip_report_is_byte_identical(N):
    code, out = run(["minlip", "--N", str(N)])
    assert code == 0
    assert out == golden_text("minlip", "json")
    results = json.loads(out)["results"]
    assert (results["value"], results["pin_index"]) == ("6", 1)


# SHA-256 of the pivots of `min_lipschitz_unit_norm(N)`, in call order,
# each written "c r,j" for a cold solve (Bland's rule, both phases) or
# "w r,j" for a warm re-solve (the dual simplex method), pivoting on
# column j in tableau row r, and joined by ";"; with the number of
# pivots and of `_Tableau.solve` calls (LPs) in the same run.  Bland's
# rule reads only signs, ratios and column indices, so the input row
# format, or the scale an integer row is kept at, must leave every path
# as it is.
PIVOT_PATHS = {
    3: (22, 2, "838df5a1fa8146bd870c1c7c8b9740ae8542d8295edecac919064036d7ea8e52"),
    4: (27, 3, "eadd8c935c2fa03f9d0eb05817bfe373e797e5b60d653c7c3dd1dae20602bef2"),
    5: (49, 4, "aa1f1be86f5e27073efd0dfc335e57d54bfc8e58e66116b65684dbca0b3edee8"),
    6: (64, 5, "b378200e9b90881ca5b23d6ef2bdcb7242d3ae5ac7d6740e6c4d8f8de30e476f"),
    7: (264, 9, "b7f122079db6325dd1061b7a79143561d69abbbe0262bb450f696b14a37412da"),
    8: (428, 10, "7cbfccc35cded54953457b8702181f8824e292fb2acb0fa53c585d2acaf3bf8a"),
    9: (602, 12, "9d39d97339ac61292af998f567da691ca2d2d873e282b78b4b634be4f62937f6"),
}

# SHA-256 of the results of the same LPs, relaxed and pinned, each
# written "status value x_0,x_1,..." (x empty when there is none) and
# joined by ";".  The relaxed LPs' vertices reach no report, so only
# this pin sees them.  The duals are left out: a slope row may be
# written at any positive scale, which scales its multiplier by the
# inverse and leaves the vertex as it is.
LP_VERTICES = {
    3: "ac4f5842a8ae59b3c99b7d921ff12dd2247fafb86eadec398d8a371e0f0699c5",
    4: "144569b3455205b07ff9986a1beab8296a9267add278d383f86205a0c914b081",
    5: "5987b145e86d4d5624aab9e35f42eb6f36c104148c3c445bba274f0bb048c59f",
    6: "d15a18f24189603922df5fd01124f3d0963d36d5bd46480bb38287734174ff9f",
    7: "294f496cd37e03e8caa8749e8d9d570be0df9a6a6c432217517b89083b6280df",
    8: "599cc77d2dc65014a07f1c74fd55329647da3cf8c5c3e400c0e9e66a1d9760ae",
    9: "f42bb8ec36d0222be8e4edd4fc98108ecb8e92d2930ff97547c2b061a30306e0",
}


@pytest.mark.parametrize("N", sorted(PIVOT_PATHS))
def test_pivot_paths_are_pinned(N, monkeypatch):
    pivots = []
    lps = []
    pivot = simplex._Tableau._pivot
    solve = simplex._Tableau.solve

    def recording_pivot(self, r, c):
        pivots.append(f"{'w' if self.warm else 'c'} {r},{c}")
        pivot(self, r, c)

    def recording_solve(self, *args, **kwargs):
        res = solve(self, *args, **kwargs)
        x = "" if res.x is None else ",".join(map(str, res.x))
        lps.append(f"{res.status} {res.value} {x}")
        return res

    monkeypatch.setattr(simplex._Tableau, "_pivot", recording_pivot)
    monkeypatch.setattr(simplex._Tableau, "solve", recording_solve)
    min_lipschitz_unit_norm(N)
    count, lp_count, digest = PIVOT_PATHS[N]
    assert len(pivots) == count
    assert len(lps) == lp_count
    assert hashlib.sha256(";".join(pivots).encode("ascii")).hexdigest() == digest
    assert hashlib.sha256(";".join(lps).encode("ascii")).hexdigest() == LP_VERTICES[N]


def test_rejects_nonpositive_n():
    with pytest.raises(ValueError):
        min_lipschitz_unit_norm(0)
