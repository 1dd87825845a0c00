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
import math
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
from divdiff.extremal import _fill_witness, _GapPrograms, _program, _search
from divdiff.simplex import INFEASIBLE, OPTIMAL, certify, solve_lp

from golden.check import golden_text, run
from util import (
    corrupting_solve_lp,
    corrupting_tableau,
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
    eq_rhs = [sum(row.values()) for row in system.rows]

    ub_rows = []
    ub_rhs = []
    for k in range(L):
        for sign in (1, -1):
            ub_rows.append({k: -sign * L, k + 1: sign * L, t: -1})
            ub_rhs.append(0)
    for k in range(L + 1):
        ub_rows.append({k: 1})
        ub_rhs.append(2)

    objective = [0] * nvars
    objective[t] = 1

    forced = set(report.forced_zero_points)
    best = None
    for pin in range(L + 1):
        if pin in forced:
            continue
        res = solve_lp(
            objective,
            a_ub=ub_rows,
            b_ub=ub_rhs,
            a_eq=eq_rows + [{pin: 1}],
            b_eq=eq_rhs + [2],
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
# per-pin loop solves 0, 0, 2, 5, 29, 29.  At N = 4..6 they are all
# relaxed: the winner's value and witness come from gap 0's optimum.
GAP_SEARCH_LPS = {1: 0, 2: 0, 3: 1, 4: 2, 5: 3, 6: 4}


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

    *best, gap = _search(case.half, case.forced, case.pinned, case.relaxed, lower)
    assert tuple(best) == case.answer()
    assert len(case.calls) == len(set(case.calls))
    # A pin that was never solved took its value from the relaxed optimum
    # of a gap whose p* is that pin.
    assert (gap is None) == (best[1] in case.calls)
    assert gap is None or case.gaps[gap][7] == best[1]


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
    assert best == (1, 4, None)
    assert max(case.calls) <= 10


def test_gap_search_credits_a_shared_gap_end_to_the_first_gap():
    # p* = 10 in both gaps: the first credits pin 10 with its level 1, and
    # the second's bound ties it, so the pin keeps the first gap's optimum.
    case = Bathtubs(random.Random(0))
    case.half, case.forced = [0, 10, 20], {0}
    case.gaps = [
        (0, 10, Fraction(10), Fraction(1), Fraction(1), 10, 10, Fraction(10)),
        (10, 20, Fraction(1), Fraction(3), Fraction(1), 10, 10, Fraction(10)),
    ]
    relaxed = []

    def spying_relaxed(i):
        relaxed.append(i)
        return case.relaxed(i)

    best = _search(case.half, case.forced, case.pinned, spying_relaxed, lambda a, b: 0)
    assert best == (1, 10, 0)
    assert relaxed == [0, 1] and case.calls == [9]


# Seeds where a relaxed p* lies next to a forced pin after some pin was
# solved, so that a candidate the skip rule looks at is forced.
FORCED_CANDIDATE_SEEDS = {33, 36, 37}


@pytest.mark.parametrize("seed", range(300))
def test_gap_search_solves_no_pin_whose_bound_reaches_a_known_value(seed):
    # With the exact lower bound, v(p) itself at a pin, a solved pin must
    # beat every value already known at a smaller pin: any other cannot
    # win.  lower is None at a forced pin, so it must not be asked there.
    case = Bathtubs(random.Random(seed))
    solved = {}
    forced_candidates = []

    def pinned(p):
        known = [v for q, v in solved.items() if q < p and v is not None]
        assert not known or case.v(p) < min(known), (p, solved)
        solved[p] = case.pinned(p)
        return solved[p]

    def relaxed(i):
        m, p_star = case.relaxed(i)
        low = math.floor(p_star)
        if solved and low != p_star and {low, low + 1} & case.forced:
            forced_candidates.append(p_star)
        return m, p_star

    def lower(a, b):
        return case.v(a) if a == b else next(g[4] for g in case.gaps if g[0] == a)

    assert _search(case.half, case.forced, pinned, relaxed, lower)[:2] == case.answer()
    if seed in FORCED_CANDIDATE_SEEDS:
        assert forced_candidates


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
    "a doubled dual": (
        lambda r: replace(r, dual=tuple(2 * v for v in r.dual)), "dual is not feasible"
    ),
    # Past the last column, so no row sees it: only the sign and length check does.
    "an extra negative solution entry": (
        lambda r: replace(r, x=r.x + (Fraction(-1),)), "solution is not feasible"
    ),
}


# solve_lp solves the pinned LPs: the first LP of N = 3 (its gaps are
# enumerated), and at N = 7 the pin 66 after two relaxed LPs.
@pytest.mark.parametrize("N", [3, 7])
@pytest.mark.parametrize("name", list(LP_CORRUPTIONS))
def test_lp_certificate_catches_a_corrupted_result(monkeypatch, name, N):
    corrupt, message = LP_CORRUPTIONS[name]
    monkeypatch.setattr(extremal, "solve_lp", corrupting_solve_lp(corrupt))
    with pytest.raises(ArithmeticError, match=message):
        min_lipschitz_unit_norm(N)


def first_pinned_program():
    """The first LP of N = 3: the pinned program at pin 1, whose column is
    at index 1, with the pin row u_1 = 2 last."""
    system = build_constraint_system(3)
    c, a_ub, b_ub, a_eq, b_eq = _program(system, sorted({*system.touched, 1}))
    return c, a_ub, b_ub, [*a_eq, {1: 1}], [*b_eq, 2]


def scaled(program):
    """program with each a_ub row and its rhs times 2, 3 or 4 in turn and
    each equality row times 4, and the factor of each row, a_ub rows first.

    The equality rows start with an artificial, so they share one factor:
    phase 1 minimizes the sum of the artificials, which factors 2, 3 and 4
    there would weigh differently (13 pivots here, not 12).
    """
    c, a_ub, b_ub, a_eq, b_eq = program
    m = len(a_ub)
    factors = [i % 3 + 2 for i in range(m)] + [4] * len(a_eq)
    rows = [{j: k * v for j, v in row.items()} for row, k in zip([*a_ub, *a_eq], factors)]
    rhs = [k * b for b, k in zip([*b_ub, *b_eq], factors)]
    return (c, rows[:m], rhs[:m], rows[m:], rhs[m:]), factors


@pytest.mark.parametrize("name", list(LP_CORRUPTIONS))
def test_lp_certificate_catches_a_corrupted_result_on_scaled_rows(name):
    # Each row of the program times 2, 3 or 4 divides its multiplier by
    # that factor, so certify takes multipliers that are not all integers.
    program, _ = scaled(first_pinned_program())
    result = solve_lp(*program)
    certify(result, *program)
    assert result.value == 6
    corrupt, message = LP_CORRUPTIONS[name]
    with pytest.raises(ArithmeticError, match=message):
        certify(corrupt(result), *program)


def test_scaled_rows_keep_every_pivot_and_divide_their_multipliers(monkeypatch):
    pivots = []
    pivot = simplex._Tableau._pivot

    def recording_pivot(self, r, j):
        pivots.append((r, j))
        pivot(self, r, j)

    monkeypatch.setattr(simplex._Tableau, "_pivot", recording_pivot)
    program = first_pinned_program()
    plain = solve_lp(*program)
    plain_pivots = pivots[:]
    pivots.clear()
    program, factors = scaled(program)
    result = solve_lp(*program)
    assert pivots == plain_pivots and len(pivots) == PIVOT_PATHS[3][0]
    assert (result.status, result.value, result.x) == (plain.status, plain.value, plain.x)
    assert result.dual == tuple(y / k for y, k in zip(plain.dual, factors))
    assert any(y.denominator > 1 for y in result.dual)


# At N = 5 the relaxed LP of the gap (0, 12) is solved cold, and the
# next relaxed LP is the first one re-solved from its basis.
@pytest.mark.parametrize("name", list(LP_CORRUPTIONS))
def test_lp_certificate_catches_a_corrupted_warm_result(monkeypatch, name):
    corrupt, message = LP_CORRUPTIONS[name]
    monkeypatch.setattr(extremal, "_Tableau", corrupting_tableau(corrupt, warm=True))
    with pytest.raises(ArithmeticError, match=message):
        min_lipschitz_unit_norm(5)


# At N = 5 that cold solve's optimum, at the integer p* = 10, is also the
# winner's witness, so it is used twice: as a bound and as a vertex.
@pytest.mark.parametrize("name", list(LP_CORRUPTIONS))
def test_lp_certificate_catches_a_corrupted_cold_result(monkeypatch, name):
    corrupt, message = LP_CORRUPTIONS[name]
    monkeypatch.setattr(extremal, "_Tableau", corrupting_tableau(corrupt, warm=False))
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
    # that row at -4 L.  Every LP of the call, relaxed or pinned, is
    # solved and certified in ints: c, each row's entries, b_ub and b_eq.
    system = build_constraint_system(9)
    cols = list(system.touched)
    gaps = sum(2 * c <= system.L for c in cols) - 1
    off = [0] * gaps + _program(system, cols)[2]
    gap = []
    solves = []
    certified = []
    bound = _GapPrograms.bound
    solve = simplex._Tableau.solve
    check = extremal.certify

    def spying_bound(self, i):
        gap.append(i)
        try:
            return bound(self, i)
        finally:
            gap.pop()

    def spying_solve(self, b_ub=(), b_eq=()):
        solves.append((gap[-1] if gap else None, (self.c, self.a_ub, b_ub, self.a_eq, b_eq)))
        return solve(self, b_ub, b_eq)

    def spying_certify(result, *program):
        certified.append(program)
        check(result, *program)

    monkeypatch.setattr(_GapPrograms, "bound", spying_bound)
    monkeypatch.setattr(simplex._Tableau, "solve", spying_solve)
    monkeypatch.setattr(extremal, "certify", spying_certify)
    min_lipschitz_unit_norm(9)
    relaxed = [(i, list(program[2])) for i, program in solves if i is not None]
    assert (len(solves), len(relaxed), len(certified)) == (12, 10, 12)
    for i, b_ub in relaxed:
        assert b_ub == off[:i] + [-4 * system.L] + off[i + 1 :]
    for c, a_ub, b_ub, a_eq, b_eq in [program for _, program in solves] + certified:
        entries = [a for row in [*a_ub, *a_eq] for a in row.values()]
        assert all(type(v) is int for v in [*c, *entries, *b_ub, *b_eq])


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
    # At N = 5 the gap (0, 12) has the integer p* = 10 and u_0 = 1.  Moved
    # one pin left, it credits pin 9 with the bound 6, which pin 9 does
    # not attain: the witness climbs from 0 at 0 to 1 at 9, slope 60/9.
    gap_bound = _GapPrograms.bound

    def misplaced(self, i):
        bound = gap_bound(self, i)
        if bound is None or bound[1].denominator != 1 or bound[1] == self.cols[i]:
            return bound
        return bound[0], bound[1] - 1

    monkeypatch.setattr(_GapPrograms, "bound", misplaced)
    message = r"pin 9's witness has slope 20/3 over \[0, 9\], above its bound 6"
    with pytest.raises(ArithmeticError, match=message):
        min_lipschitz_unit_norm(5)


# At N = 6 pin 10, where gap 0's optimum has u = 2, is a touched column,
# so the witness is that optimum as it is; u_0 = 1 there.
WITNESS_SPOILS = {
    "a pin below 1": lambda x, j: x[:j] + (Fraction(3, 2),) + x[j + 1 :],
    "a value above 1": lambda x, j: (Fraction(3),) + x[1:],
}


@pytest.mark.parametrize("spoil", list(WITNESS_SPOILS))
def test_a_spoiled_relaxed_witness_is_caught(monkeypatch, spoil):
    gap_bound = _GapPrograms.bound

    def spoiling(self, i):
        bound = gap_bound(self, i)
        if i == 0:
            self.vertices[0] = WITNESS_SPOILS[spoil](self.vertices[0], self.cols.index(10))
        return bound

    monkeypatch.setattr(_GapPrograms, "bound", spoiling)
    with pytest.raises(ArithmeticError, match="pin 10's witness is not 1 there or leaves"):
        min_lipschitz_unit_norm(6)


@pytest.mark.parametrize("N", [4, 5, 6])
def test_a_relaxed_witness_is_the_pinned_programs_vertex(N, monkeypatch):
    # The winner's witness comes from a relaxed optimum, with no pinned
    # LP; it is the vertex Bland's rule reaches on the pinned program.
    pinned = []
    monkeypatch.setattr(extremal, "solve_lp", lambda *program: pinned.append(program))
    result = min_lipschitz_unit_norm(N)
    assert not pinned
    system = build_constraint_system(N)
    cols = sorted({*system.touched, result.pin_index})
    c, a_ub, b_ub, a_eq, b_eq = _program(system, cols)
    program = (c, a_ub, b_ub, [*a_eq, {cols.index(result.pin_index): 1}], [*b_eq, 2])
    bland = solve_lp(*program)
    certify(bland, *program)
    assert bland.value == result.value
    assert _fill_witness(system.L, cols, bland.x) == result.witness
    witness_is_valid(result)


def test_a_pin_at_a_shared_gap_end_takes_its_witness_from_the_gap_that_credited_it(
    monkeypatch,
):
    # At N = 6 the gaps (0, 10) and (10, 12) both have p* = 10, their
    # shared end.  Gap 0 credits pin 10 with 6; gap 1's bound ties it and
    # credits nothing, so only gap 0's optimum may give the witness.
    read = []
    kept = {}
    witness = _GapPrograms.witness

    def spying_witness(self, i, pin, t):
        read.append((i, pin))
        kept.update(self.vertices)
        return witness(self, i, pin, t)

    monkeypatch.setattr(_GapPrograms, "witness", spying_witness)
    result = min_lipschitz_unit_norm(6)
    assert (result.value, result.pin_index) == (6, 10)
    assert read == [(0, 10)]
    assert {0, 1} <= set(kept)


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
    3: (12, 1, "2dd99717028d9987f85af970b05371829d921358de77f9c3f2af53ea3dfd5264"),
    4: (11, 2, "7d55423b167c9ca1609bd099f39382c1f43a26139e01d9922c54448390241112"),
    5: (25, 3, "6781737e68026d31f2a9c9ee6dc9113768be028b5e7f79ddd66932ea69c6fc96"),
    6: (36, 4, "345fba1327119f2c4783f6b6c37591b920407c60d968381e57d42ff63ef44685"),
    7: (264, 9, "b7f122079db6325dd1061b7a79143561d69abbbe0262bb450f696b14a37412da"),
    8: (428, 10, "7cbfccc35cded54953457b8702181f8824e292fb2acb0fa53c585d2acaf3bf8a"),
    9: (602, 12, "9d39d97339ac61292af998f567da691ca2d2d873e282b78b4b634be4f62937f6"),
}

# SHA-256 of the results of the same LPs, relaxed and pinned, each
# written "status value x_0,x_1,..." (x empty when there is none) and
# joined by ";".  A relaxed LP's vertex reaches a report only as the
# witness of a winning pin at its integer p* (N = 4..6), so this pin is
# the one that sees the others.  The duals are left out: a slope row
# may be written at any positive scale, which scales its multiplier by
# the inverse and leaves the vertex as it is.
LP_VERTICES = {
    3: "573370ea317155ce7e59f579eaf90ee8ba54033123577efd21061e10651575b0",
    4: "6a0d4ebfff22f6c006ee8ee6c73b60a75c536f18260bf9da0568daac6b3ce396",
    5: "ff6e067413fbb05c5be98c0fd33909c0377ee97af8ce0c097456c5f213a6650d",
    6: "dd62f3d1b55e202fce7291e4a48b5030ec5d340f4269607909523b1eb9687076",
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


def test_minlip_three_solves_one_lp_through_solve_lp(monkeypatch):
    # Of the N = 1..5 that perfbench runs, only N = 3 still solves a
    # pinned LP, through extremal's solve_lp, the name that the simplex
    # layer of perfbench's tracer wraps; it is also the minlip op that
    # every perfbench workload carries.
    solved = []

    def counting_solve_lp(*program):
        solved.append(None)
        return solve_lp(*program)

    monkeypatch.setattr(extremal, "solve_lp", counting_solve_lp)
    code, _ = run(["minlip", "--N", "3"])
    assert code == 0 and len(solved) == 1


def test_rejects_nonpositive_n():
    with pytest.raises(ValueError):
        min_lipschitz_unit_norm(0)
