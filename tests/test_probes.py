"""Shift averaging, the telescoping identity, and the walkthrough report.

A polynomial's run of shifts is a few integer weights on its first
points; they are checked against term-by-term sums and Faulhaber's
closed forms, and spies check that the telescope reads them as lattice
pairs with no Polynomial.evaluate.  Other spies check that a grid
function reaches probe, walkthrough, identity and uniform as the integer
pairs of PiecewiseLinearFunc.pairs, with no evaluate.

The hat function (grid value 1 at 1/2, zero at the ends, zero-extended)
is small enough to check by hand and appears in several fixtures.
"""

import dataclasses
import math
import random
import re
from fractions import Fraction

import pytest

from divdiff import (
    FuncSpec,
    GridFunction,
    LimitTerm,
    PiecewiseLinearFunc,
    PoleError,
    Polynomial,
    PolynomialFunc,
    RationalFunc,
    averaging_probe,
    averaging_sweep,
    finite_difference,
    probes,
    proof_walkthrough,
    telescope_shift_identity,
)
from divdiff.cli import main
from divdiff.probes import _run_weights

from golden.check import GOLDEN_DIR
from util import (
    monomial,
    nonzero_polynomial,
    outcome,
    pole_free_rational,
    random_fraction,
    random_funcspec,
    random_polynomial,
    reference_evaluate,
    reference_fd,
    reference_probe,
    reference_telescope,
    reference_walkthrough_sums,
)

HAT = PiecewiseLinearFunc(GridFunction(2, {1: Fraction(1)}), extended_by_zero=True)


def test_hat_probe_fixture():
    expected = {
        1: (Fraction(1, 2), Fraction(1, 2), Fraction(4)),
        2: (Fraction(3, 4), Fraction(3, 4), Fraction(2)),
        4: (Fraction(1, 2), Fraction(1, 2), Fraction(1)),
        8: (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)),
        16: (Fraction(1, 8), Fraction(1, 8), Fraction(1, 4)),
    }
    for N, (avg, res, bound) in expected.items():
        r = averaging_probe(HAT, Fraction(0), Fraction(1, 4), 1, N)
        assert (r.average, r.residual, r.bound) == (avg, res, bound)
        assert r.cutoff == 4


def test_zero_function_probes_to_zero():
    z = PolynomialFunc(Polynomial(), extended_by_zero=True)
    r = averaging_probe(z, Fraction(1, 3), Fraction(1, 5), 2, 7)
    assert r.average == 0
    assert r.residual == 0
    assert r.bound == 0
    assert r.cutoff == 3


def test_constant_probe_residual_times_n_saturates():
    c1 = PolynomialFunc(Polynomial((1,)), extended_by_zero=True)
    rows = {}
    for N in (1, 2, 3, 4, 8):
        r = averaging_probe(c1, Fraction(0), Fraction(1, 2), 1, N)
        rows[N] = r
        assert abs(r.residual) <= r.bound
    assert rows[1].cutoff == 2
    # residual * N becomes exactly constant once N reaches the cutoff
    assert rows[1].residual * 1 == 1
    for N in (2, 3, 4, 8):
        assert rows[N].residual * N == 2


def test_probe_bound_holds_on_random_functions():
    rng = random.Random(909)
    for _ in range(15):
        f = random_funcspec(rng, extend_zero=True)
        n = rng.randint(1, 4)
        h = Fraction(1, rng.randint(4, 32))
        x = Fraction(rng.randint(0, 9), 10)
        saturated = []
        for N in (4, 8, 16, 32, 64):
            r = averaging_probe(f, x, h, n, N)
            assert abs(r.residual) <= r.bound
            if N >= r.cutoff:
                saturated.append(r.residual * N)
        assert len(set(saturated)) <= 1


def test_a_spoiled_average_fails_the_residual_recomputation(monkeypatch):
    # The residual is recomputed from the boundary sum alone, so one wrong
    # weight in the shift average raises instead of reaching a report.
    average_weights = probes._average_weights

    def spoiled(lattice, n, N):
        weights = average_weights(lattice, n, N)
        weights[0] = weights.get(0, 0) + 1  # one more f(x), and hat(1/4) = 1/2
        return weights

    monkeypatch.setattr(probes, "_average_weights", spoiled)
    with pytest.raises(ArithmeticError, match="residual recomputation mismatch"):
        averaging_probe(HAT, Fraction(1, 4), Fraction(1, 4), 1, 2)


def test_probe_requires_zero_extension():
    f = PolynomialFunc(Polynomial((1,)))
    with pytest.raises(ValueError):
        averaging_probe(f, Fraction(0), Fraction(1, 4), 1, 2)


def test_probe_argument_validation():
    with pytest.raises(ValueError):
        averaging_probe(HAT, Fraction(3, 2), Fraction(1, 4), 1, 2)
    with pytest.raises(ValueError):
        averaging_probe(HAT, Fraction(0), Fraction(0), 1, 2)
    with pytest.raises(ValueError):
        averaging_probe(HAT, Fraction(0), Fraction(1, 4), 0, 2)
    with pytest.raises(ValueError):
        averaging_probe(HAT, Fraction(0), Fraction(1, 4), 1, 0)


def test_probe_propagates_poles():
    f = RationalFunc(
        Polynomial((1,)),
        Polynomial((Fraction(-1, 2), Fraction(1))),
        extended_by_zero=True,
    )
    with pytest.raises(PoleError):
        averaging_probe(f, Fraction(0), Fraction(1, 4), 1, 2)


def test_telescope_on_constant():
    g = PolynomialFunc(Polynomial((Fraction(5, 3),)))
    t = telescope_shift_identity(g, Fraction(1, 7), 3, 2, Fraction(1, 9), 11)
    assert t.jprime == 3
    assert t.lhs == 0
    assert t.rhs == 0
    assert t.equal


def test_telescope_fixture_on_grid_function():
    g = PiecewiseLinearFunc(
        GridFunction(4, {1: Fraction(2, 3), 2: Fraction(-1, 5), 3: Fraction(1)}),
        extended_by_zero=True,
    )
    t = telescope_shift_identity(g, Fraction(1, 10), 4, 3, Fraction(1, 100), 20)
    assert t.jprime == 8
    assert t.y == t.x + 24 * t.h
    assert t.lhs == Fraction(-448, 375)
    assert t.rhs == Fraction(-448, 375)
    assert t.equal


def test_telescope_when_far_sums_leave_support():
    # with a zero-extended function and a large N, the right side reduces
    # to the first j' near terms
    g = HAT
    n, j, h, N = 2, 1, Fraction(1, 4), 40
    t = telescope_shift_identity(g, Fraction(0), n, j, h, N)
    jprime = 2
    near = sum(g.evaluate(Fraction(i, 4)) for i in range(1, jprime + 1))
    assert t.jprime == jprime
    assert t.equal
    assert t.rhs == near


def test_telescope_randomized():
    rng = random.Random(910)
    for _ in range(80):
        g = random_funcspec(rng, extend_zero=True)
        n = rng.randint(1, 6)
        j = rng.randint(1, n)
        h = Fraction(1, rng.randint(10, 400))
        N = rng.randint(1, 50)
        x = Fraction(rng.randint(0, 21), 20)
        t = telescope_shift_identity(g, x, n, j, h, N)
        assert t.equal, (g, x, n, j, h, N)


def test_telescope_validates_j():
    g = PolynomialFunc(Polynomial((1,)))
    with pytest.raises(ValueError):
        telescope_shift_identity(g, Fraction(0), 3, 0, Fraction(1, 9), 5)
    with pytest.raises(ValueError):
        telescope_shift_identity(g, Fraction(0), 3, 4, Fraction(1, 9), 5)


def test_arguments_are_checked_in_a_fixed_order():
    # Every argument starts bad; each call names the first in the order
    # and the next call mends it, until the last call runs.
    def checked_in(call, order, bad, good):
        args = dict(bad)
        for name, message in order:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                call(**args)
            args[name] = good[name]
        call(**args)

    h, n, N = (
        ("h", "step h must be positive"),
        ("n", "order n must be at least 1"),
        ("N", "shift count N must be at least 1"),
    )
    plain = PolynomialFunc(Polynomial((1,)))
    bad = dict(f=plain, x=Fraction(2), h=Fraction(0), n=0, N=0)
    good = dict(f=HAT, x=Fraction(0), h=Fraction(1, 4), n=1, N=2)
    order = [("f", "averaging requires a zero-extended function"), h, n, N,
             ("x", "base point x must lie in [0, 1]")]
    checked_in(averaging_probe, order, bad, good)
    checked_in(lambda N, **args: averaging_sweep(**args, counts=[N]), order, bad, good)
    # The telescope takes any f and x; j is checked last.
    bad = dict(g=plain, x=Fraction(2), h=Fraction(0), n=0, N=0, j=3)
    good = dict(h=Fraction(1, 4), n=2, N=2, j=1)
    checked_in(telescope_shift_identity, [h, n, N, ("j", "j must lie in 1..n")], bad, good)


def test_walkthrough_on_reduced_degree_polynomial():
    # f = x (zero-extended) is its own interpolant at any order >= 1, so
    # every defect quantity vanishes
    f = PolynomialFunc(monomial(1), extended_by_zero=True)
    w = proof_walkthrough(f, 2, Fraction(1, 16), 8, Fraction(1, 8))
    assert w.degree_reduced
    assert w.q_at_x == Fraction(1, 8)
    assert w.defect_at_x == 0
    assert w.avg_defect_x == 0
    assert w.residual == 0
    assert w.boundary_total == 0
    assert w.identity_equal


def test_walkthrough_residual_halves_once_saturated():
    expected = {
        8: Fraction(9, 160),
        16: Fraction(9, 320),
        32: Fraction(9, 640),
        64: Fraction(9, 1280),
    }
    for N, res in expected.items():
        w = proof_walkthrough(HAT, 1, Fraction(1, 8), N, Fraction(1, 10))
        assert w.identity_equal
        assert w.residual == res
        assert abs(w.residual) <= w.residual_envelope


def test_walkthrough_higher_order_fixture():
    expected = {
        8: Fraction(289, 6400),
        16: Fraction(289, 12800),
        32: Fraction(289, 25600),
    }
    for N, res in expected.items():
        w = proof_walkthrough(HAT, 3, Fraction(1, 8), N, Fraction(1, 10))
        assert w.residual == res
        assert w.identity_equal


def test_walkthrough_interpolant_terms_halve_with_n():
    f = PolynomialFunc(monomial(2), extended_by_zero=True)
    w16 = proof_walkthrough(f, 2, Fraction(1, 64), 16, Fraction(1, 8))
    w32 = proof_walkthrough(f, 2, Fraction(1, 64), 32, Fraction(1, 8))
    assert w16.interp_limit_terms == (
        LimitTerm(1, Fraction(1, 512)),
        LimitTerm(2, Fraction(1, 1024)),
    )
    assert w32.interp_limit_terms == (
        LimitTerm(1, Fraction(1, 1024)),
        LimitTerm(2, Fraction(1, 2048)),
    )
    assert w16.leading == 1
    assert w16.f_at_x == w16.q_at_x == Fraction(1, 64)
    assert w16.residual == 0


def test_walkthrough_identity_on_random_functions():
    rng = random.Random(911)
    for _ in range(25):
        f = random_funcspec(rng, extend_zero=True)
        n = rng.randint(1, 4)
        h = Fraction(1, rng.randint(8, 64))
        N = rng.randint(1, 24)
        x = Fraction(rng.randint(0, 9), 10)
        w = proof_walkthrough(f, n, h, N, x)
        assert w.identity_equal, (f, n, h, N, x)
        assert w.residual == w.boundary_total
        assert abs(w.residual) <= w.residual_envelope
        assert w.y == x + h * math.factorial(n)


def test_walkthrough_boundary_terms_are_consistent():
    w = proof_walkthrough(HAT, 2, Fraction(1, 8), 12, Fraction(1, 10))
    assert len(w.boundary) == 2
    total = 0
    for term in w.boundary:
        assert term.jprime * term.j == 2
        assert abs(term.weighted) <= term.envelope
        total += term.weighted
    assert total == w.boundary_total
    assert w.note


def test_walkthrough_requires_zero_extension():
    f = PolynomialFunc(monomial(1))
    with pytest.raises(ValueError):
        proof_walkthrough(f, 1, Fraction(1, 8), 4, Fraction(1, 2))


# --- the clipped and closed-form sums against the full loops --------------


def reference_telescope_check(g, x, n, j, h, N):
    jprime, y, lhs, rhs = reference_telescope(g, x, n, j, h, N)
    return (jprime, y, lhs, rhs, lhs == rhs)


def telescope_fields(g, x, n, j, h, N):
    t = telescope_shift_identity(g, x, n, j, h, N)
    assert (t.n, t.j, t.N, t.x, t.h) == (n, j, N, x, h)
    return (t.jprime, t.y, t.lhs, t.rhs, t.equal)


def walkthrough_fields(f, n, h, N, x):
    w = proof_walkthrough(f, n, h, N, x)
    return {
        field.name: getattr(w, field.name)
        for field in dataclasses.fields(w)
        if field.name != "note"
    }


# x = k/20 with h = 1/20 puts x + j*i*h exactly on 1 whenever j divides 20 - k.
EXACT_HITS = [Fraction(k, 20) for k in range(0, 20, 3)]
SHIFT_COUNTS = [1, 2, 3, 5, 17, 60]


def test_probe_matches_the_full_loop():
    rng = random.Random(1201)
    for trial in range(60):
        f = random_funcspec(rng, extend_zero=True)
        n = rng.randint(1, 4)
        if trial % 2:
            x, h = rng.choice(EXACT_HITS), Fraction(1, 20)
        else:
            x, h = Fraction(rng.randint(0, 19), 20), Fraction(1, rng.randint(3, 40))
        N = rng.choice(SHIFT_COUNTS)
        args = (f, x, h, n, N)
        assert outcome(averaging_probe, *args) == outcome(reference_probe, *args), args


def test_telescope_matches_the_full_loop():
    rng = random.Random(1202)
    for trial in range(160):
        extend = trial % 4 != 0
        g = random_funcspec(rng, extend_zero=extend)
        n = rng.randint(1, 5)
        j = rng.randint(1, n)
        if trial % 3 == 0:
            x, h = rng.choice(EXACT_HITS), Fraction(1, 20)
        else:
            # negative x, and x beyond 1
            x, h = Fraction(rng.randint(-40, 30), 20), Fraction(1, rng.randint(3, 60))
        N = rng.choice(SHIFT_COUNTS)
        args = (g, x, n, j, h, N)
        assert outcome(telescope_fields, *args) == outcome(
            reference_telescope_check, *args
        ), args


def test_finite_difference_matches_the_full_loop():
    # finite_difference is the shift average over the one shift i = 1.
    rng = random.Random(1206)
    raised = set()
    for trial in range(120):
        f = random_funcspec(rng, extend_zero=trial % 2 == 0)
        n = rng.randint(0, 5)
        x = Fraction(rng.randint(-30, 30), 20)  # inside [0, 1], and either side
        h = Fraction(rng.randint(1, 3), rng.randint(3, 40))
        args = (f, x, h, n)
        expected = outcome(reference_fd, *args)
        assert outcome(finite_difference, *args) == expected, args
        if isinstance(expected, tuple):
            raised.add(expected[0])
    # a pl function that is not zero-extended is not defined outside [0, 1]
    assert raised == {"DomainEvaluationError"}


def test_telescope_closed_form_on_unextended_polynomials_and_ratfuns():
    rng = random.Random(1203)
    for trial in range(80):
        if trial % 2:
            g = PolynomialFunc(random_polynomial(rng, max_degree=8))
        else:
            g = pole_free_rational(rng)
        n = rng.randint(1, 5)
        j = rng.randint(1, n)
        x = Fraction(rng.randint(-30, 30), rng.randint(1, 9))
        h = Fraction(rng.randint(1, 9), rng.randint(1, 30))
        N = rng.randint(1, 6)  # also below the degree
        args = (g, x, n, j, h, N)
        assert telescope_fields(*args) == reference_telescope_check(*args), args


def test_walkthrough_matches_the_full_loop():
    rng = random.Random(1204)
    for trial in range(50):
        f = random_funcspec(rng, extend_zero=True)
        n = rng.randint(1, 4)
        if trial % 2:
            x, h = rng.choice(EXACT_HITS), Fraction(1, 20)
        else:
            x, h = Fraction(rng.randint(0, 19), 20), Fraction(1, rng.randint(3, 40))
        N = rng.choice(SHIFT_COUNTS[:4])  # 1..5, at or below the degree of Q_n
        args = (f, n, h, N, x)
        assert outcome(walkthrough_fields, *args) == outcome(
            reference_walkthrough_sums, *args
        ), args


def test_telescope_reports_the_pole_the_full_loop_meets_first():
    # poles at 1/4 and 3/8; the loop reaches 3/8 first, as y + 1*h
    g = RationalFunc(
        Polynomial((1,)),
        Polynomial((Fraction(3, 32), Fraction(-5, 8), Fraction(1))),
        extended_by_zero=True,
    )
    args = (g, Fraction(0), 2, 1, Fraction(1, 8), 4)
    expected = outcome(reference_telescope_check, *args)
    assert expected == ("PoleError", "denominator vanishes at 3/8")
    assert outcome(telescope_fields, *args) == expected


# poles at 3/8 and 1/2; from x = 0 with h = 1/8 the full loops meet 1/2
# (j = 2, i = 2) before 3/8 (j = 3, i = 1), though 3/8 is the nearer point
TWO_POLES = RationalFunc(
    Polynomial((1,)),
    Polynomial((Fraction(3, 16), Fraction(-7, 8), Fraction(1))),
    extended_by_zero=True,
)


def test_probe_reports_the_pole_the_full_loop_meets_first():
    args = (TWO_POLES, Fraction(0), Fraction(1, 8), 3, 2)
    expected = outcome(reference_probe, *args)
    assert expected == ("PoleError", "denominator vanishes at 1/2")
    assert outcome(averaging_probe, *args) == expected


def test_finite_difference_reports_the_pole_the_full_loop_meets_first():
    # the points are 0, 1/8, ..., 1/2 in ascending j: 3/8 comes before 1/2
    args = (TWO_POLES, Fraction(0), Fraction(1, 8), 4)
    expected = outcome(reference_fd, *args)
    assert expected == ("PoleError", "denominator vanishes at 3/8")
    assert outcome(finite_difference, *args) == expected


def test_walkthrough_reports_the_pole_the_full_loop_meets_first():
    args = (TWO_POLES, 3, Fraction(1, 8), 2, Fraction(0))
    expected = outcome(reference_walkthrough_sums, *args)
    assert expected == ("PoleError", "denominator vanishes at 1/2")
    assert outcome(walkthrough_fields, *args) == expected


class Recording(FuncSpec):
    """Delegates to another spec and records every point it is asked for."""

    def __init__(self, inner):
        self.inner = inner
        self.extended_by_zero = inner.extended_by_zero
        self.points = []

    def evaluate(self, x):
        self.points.append(Fraction(x))
        return self.inner.evaluate(x)

    def pairs(self, D):
        return lambda t: self.evaluate(Fraction(t, D)).as_integer_ratio()


def test_zero_extended_sums_evaluate_only_inside_the_unit_interval():
    f = PolynomialFunc(
        Polynomial((Fraction(1), Fraction(-3), Fraction(2))), extended_by_zero=True
    )
    h = Fraction(1, 16)
    counts = []
    for N in (20, 10**6):
        spy = Recording(f)
        averaging_probe(spy, Fraction(1, 4), h, 3, N)
        assert all(0 <= p <= 1 for p in spy.points)
        counts.append(len(spy.points))
    assert counts[0] == counts[1]

    spy = Recording(f)
    telescope_shift_identity(spy, Fraction(-7, 3), 3, 2, h, 10**6)
    assert spy.points and all(0 <= p <= 1 for p in spy.points)

    spy = Recording(f)
    proof_walkthrough(spy, 5, h, 10**6, Fraction(1, 8))
    assert all(0 <= p <= 1 for p in spy.points)

    spy = Recording(f)
    finite_difference(spy, Fraction(-1, 4), h, 30)
    assert spy.points and all(0 <= p <= 1 for p in spy.points)


def test_each_point_is_asked_for_once():
    runge = RationalFunc(
        Polynomial((1,)),
        Polynomial((Fraction(1), Fraction(0), Fraction(25))),
        extended_by_zero=True,
    )
    h = Fraction(1, 64)
    # With x = 1/4 the knots k/4 of the walkthrough's sample lie on the
    # shifted points too; the sweep's runs touch nested sets of points.
    calls = {
        "probe": lambda g: averaging_probe(g, Fraction(1, 3), h, 4, 40),
        "walkthrough": lambda g: proof_walkthrough(g, 4, h, 40, Fraction(1, 4)),
        "telescope": lambda g: telescope_shift_identity(g, Fraction(-1, 3), 4, 2, h, 30),
        "sweep": lambda g: averaging_sweep(g, Fraction(1, 3), h, 4, [2**k for k in range(9)]),
        "fd": lambda g: finite_difference(g, Fraction(-1, 8), h, 20),
    }
    spies = {}
    for name, call in calls.items():
        spies[name] = spy = Recording(runge)
        call(spy)
        assert spy.points, name
        assert len(spy.points) == len(set(spy.points)), name
    assert {Fraction(k, 4) for k in range(5)} <= set(spies["walkthrough"].points)


def test_a_sweep_equals_its_single_runs():
    rng = random.Random(1205)
    for _ in range(20):
        f = random_funcspec(rng, extend_zero=True)
        n = rng.randint(1, 4)
        x, h = Fraction(rng.randint(0, 19), 20), Fraction(1, rng.randint(3, 40))
        counts = [2**k for k in range(rng.randint(1, 8))]
        args = (f, x, h, n)
        assert outcome(averaging_sweep, *args, counts) == outcome(
            lambda: [averaging_probe(*args, N) for N in counts]
        ), args
    with pytest.raises(ValueError):
        averaging_sweep(HAT, Fraction(0), Fraction(1, 4), 1, [4, 2])


def test_run_weights_match_the_term_by_term_sum():
    # Runs from lo = 0, empty runs (hi = lo - 1) and runs shorter than the
    # degree among them; the zero polynomial gets no weights.
    rng = random.Random(1206)
    assert _run_weights(0, 1, 10**6) == []
    for degree in range(9):
        for _ in range(12):
            lead = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
            p = Polynomial((*(random_fraction(rng) for _ in range(degree)), lead))
            x = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
            s = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            lo = rng.choice((0, 1, rng.randint(0, 40)))
            hi = lo - 1 + rng.choice((0, 1, rng.randint(0, degree + 1), rng.randint(0, 30)))
            count = len(p.coefficients)
            weights = _run_weights(count, lo, hi)
            assert len(weights) == count
            if hi < lo:
                assert weights == [0] * count
            points = [reference_evaluate(p, x + i * s) for i in range(count)]
            run = (reference_evaluate(p, x + i * s) for i in range(lo, hi + 1))
            expected = sum(run, Fraction(0))
            assert sum(c * v for c, v in zip(weights, points)) == expected, (p, x, s, lo, hi)


def test_run_weights_give_faulhaber_sums():
    # sum_{i=1}^{m} i**k for k = 0..4; a run from lo = 0 adds 0**0 = 1 at k = 0.
    faulhaber = (
        lambda m: m,
        lambda m: m * (m + 1) // 2,
        lambda m: m * (m + 1) * (2 * m + 1) // 6,
        lambda m: (m * (m + 1) // 2) ** 2,
        lambda m: m * (m + 1) * (2 * m + 1) * (3 * m * m + 3 * m - 1) // 30,
    )
    tops = (0, 1, 2, 3, 7, 10**6, math.factorial(20) - 1, math.factorial(20))
    for k, prefix in enumerate(faulhaber):
        for count in (k + 1, 5):
            for lo in (0, 1, 2, 10**6 + 1):
                for hi in tops:
                    if hi < lo - 1:
                        continue
                    weights = _run_weights(count, lo, hi)
                    total = sum(c * i**k for i, c in enumerate(weights))
                    expected = prefix(hi) - prefix(max(lo - 1, 0)) + (lo == 0 == k)
                    assert total == expected, (k, count, lo, hi)


def test_polynomial_runs_read_lattice_pairs_without_evaluate(monkeypatch):
    asked = []
    evaluated = []
    pairs, evaluate = PolynomialFunc.pairs, Polynomial.evaluate

    def counting_pairs(self, D):
        pair = pairs(self, D)
        return lambda t: asked.append(Fraction(t, D)) or pair(t)

    def counting_evaluate(self, x):
        evaluated.append((self, Fraction(x)))
        return evaluate(self, x)

    monkeypatch.setattr(PolynomialFunc, "pairs", counting_pairs)
    monkeypatch.setattr(Polynomial, "evaluate", counting_evaluate)
    rng = random.Random(1207)
    for _ in range(30):
        g = PolynomialFunc(nonzero_polynomial(rng, max_degree=8))
        n = rng.randint(1, 20)
        j = rng.randint(1, n)
        x = Fraction(rng.randint(-30, 30), rng.randint(1, 9))
        h = Fraction(rng.randint(1, 9), rng.randint(1, 30))
        N = rng.choice((1, 2, 10**9))
        asked.clear()
        check = telescope_shift_identity(g, x, n, j, h, N)
        assert check.equal
        assert 0 < len(asked) <= 4 * (g.poly.degree + 1), (g, n, j, N)
        assert evaluated == []

    f = pole_free_rational(random.Random(1208), extend_zero=True)
    report = proof_walkthrough(f, 6, Fraction(1, 64), 10**6, Fraction(1, 3))
    assert evaluated == [(report.interpolant, Fraction(1, 3))]


@pytest.mark.parametrize("argv", [
    ["probe", "--extend-zero", "--x", "1/7", "--h", "1/30", "--n", "2", "--Nmax", "40"],
    ["walkthrough", "--extend-zero", "--x", "1/10", "--h", "1/26", "--n", "3", "--N", "9"],
    ["identity", "--n", "30"],
    ["uniform", "--n", "25"],
], ids=lambda argv: argv[0])
def test_piecewise_linear_runs_read_grid_pairs_without_evaluate(argv, monkeypatch, capsys):
    # Every point of a grid function reaches these commands as an integer
    # pair of PiecewiseLinearFunc.pairs, with no evaluate.
    asked = []
    pairs = PiecewiseLinearFunc.pairs

    def counting_pairs(self, D):
        pair = pairs(self, D)
        return lambda t: asked.append(t) or pair(t)

    def refused(self, x):
        raise AssertionError(f"{type(self).__name__}.evaluate({x})")

    monkeypatch.setattr(PiecewiseLinearFunc, "pairs", counting_pairs)
    monkeypatch.setattr(FuncSpec, "evaluate", refused)
    monkeypatch.chdir(GOLDEN_DIR)
    code = main([argv[0], "--func", "pl:zigzag.csv", *argv[1:]])
    assert code == 0, capsys.readouterr().err
    assert asked
