"""The shift sums on integer pairs, against term-by-term f.evaluate loops.

Every lattice point t/D reaches a polynomial or a rational function as a
pair (a, b) of integers from FuncSpec.pairs, not as a Fraction.  Each
test here compares a shift sum with the reference of tests/util.py, which
asks f.evaluate for every term, on inputs that stress the pairs: the
zero polynomial, constants and degree 24, rational functions whose
denominator is negative, negative x, and steps h whose denominators run
to about a million, so that D and its powers are large.  f.evaluate
reads the same pairs, one point at a time, and gives a zero-extended f
0 outside [0, 1] with no pair, so these tests check how the points are
gathered and summed; test_funcs.py holds the values of the pairs to
reference_value, which reads no pair.  A kind's pairs give its own
values, never the zero extension, so every command's lattice must ask a
zero-extended f only for points inside [0, 1]; the last test runs each
command with pairs that refuse any other point.
"""

import dataclasses
import random
from fractions import Fraction

import pytest

from divdiff import (
    PiecewiseLinearFunc,
    PolynomialFunc,
    RationalFunc,
    averaging_probe,
    finite_difference,
    proof_walkthrough,
    telescope_shift_identity,
)
from divdiff.differences import _average_weights, _Lattice
from divdiff.poly import Polynomial

from golden.check import NEGATIVE_DENOMINATOR, ZIGZAG, run
from util import (
    add,
    outcome,
    random_fraction,
    random_polynomial,
    reference_fd,
    reference_probe,
    reference_telescope,
    reference_walkthrough_sums,
)


def _polynomial(rng, kind):
    if kind == "zero":
        return Polynomial(())
    if kind == "constant":
        return Polynomial((random_fraction(rng, max_num=99, max_den=99),))
    return Polynomial(tuple(random_fraction(rng, max_num=99, max_den=99) for _ in range(25)))


def _negative_denominator(rng):
    """num / -(q^2 + 1): the denominator is negative on the whole line.
    Every third one is ratfun:1,2,0,3;-2,1, negative on [0, 1] only."""
    if rng.random() < 1 / 3:
        return Polynomial((1, 2, 0, 3)), Polynomial((-2, 1))
    q = random_polynomial(rng, max_degree=2, max_num=4)
    denominator = tuple(-c for c in add((q * q).coefficients, (1,)))
    return random_polynomial(rng, max_degree=5), Polynomial(denominator)


def functions(rng, extend_zero):
    """Two each of the zero, a constant and a degree-24 polynomial, and six
    rational functions with a negative denominator."""
    specs = [
        PolynomialFunc(_polynomial(rng, kind), extended_by_zero=extend_zero)
        for kind in ("zero", "constant", "degree-24") * 2
    ]
    specs += [
        RationalFunc(*_negative_denominator(rng), extended_by_zero=extend_zero) for _ in range(6)
    ]
    return specs


def step(rng):
    """h = p/q with q near a million: a small run of points, a large D."""
    q = rng.randint(10**6, 2 * 10**6)
    return Fraction(rng.randint(q // 40, q // 4), q)


def test_finite_difference_matches_the_term_by_term_reference():
    rng = random.Random(2501)
    for trial in range(4):
        for f in functions(rng, extend_zero=trial % 2 == 1):
            n = rng.choice((0, 1, 3, 7, 24, 25, 30))
            x = Fraction(rng.randint(-40, 40), rng.randint(1, 13))  # negative x too
            h = step(rng)
            args = (f, x, h, n)
            assert outcome(finite_difference, *args) == outcome(reference_fd, *args), args


def test_probe_matches_the_term_by_term_reference():
    # average, residual and bound, and the bound's largest |f| read from the pairs
    rng = random.Random(2502)
    for _ in range(3):
        for f in functions(rng, extend_zero=True):
            n = rng.randint(1, 4)
            x = Fraction(rng.randint(0, 19), 20)
            N = rng.choice((1, 3, 8, 40))
            args = (f, x, step(rng), n, N)
            assert outcome(averaging_probe, *args) == outcome(reference_probe, *args), args


def test_telescope_matches_the_term_by_term_reference():
    rng = random.Random(2503)

    def fields(*args):
        t = telescope_shift_identity(*args)
        return t.jprime, t.y, t.lhs, t.rhs

    for trial in range(4):
        for g in functions(rng, extend_zero=trial % 2 == 0):
            n = rng.randint(1, 4)
            j = rng.randint(1, n)
            x = Fraction(rng.randint(-40, 20), 20)  # negative x, and x beyond 1
            N = rng.choice((1, 4, 25))
            args = (g, x, n, j, step(rng), N)
            assert outcome(fields, *args) == outcome(reference_telescope, *args), args


def test_walkthrough_matches_the_term_by_term_reference():
    rng = random.Random(2504)

    def fields(*args):
        w = proof_walkthrough(*args)
        return {f.name: getattr(w, f.name) for f in dataclasses.fields(w) if f.name != "note"}

    for _ in range(2):
        for f in functions(rng, extend_zero=True):
            n = rng.randint(1, 4)
            N = rng.choice((1, 2, 5))
            x = Fraction(rng.randint(0, 12), 12)
            # a step of 1/(12 n) puts every other point on a knot k/n
            h = step(rng) if rng.random() < 0.5 else Fraction(1, 12 * n)
            args = (f, n, h, N, x)
            assert outcome(fields, *args) == outcome(reference_walkthrough_sums, *args), args


def test_only_the_points_the_weights_name_become_pairs():
    # Poles at 3/8 and 5/8 lie on the lattice m/8 but outside the points
    # that the weights of a 2-shift average of order 1 from x = 0 name.
    f = RationalFunc(
        Polynomial((1,)),
        Polynomial((Fraction(15, 64), Fraction(-1), Fraction(1))),
        extended_by_zero=True,
    )
    asked = []

    def recording(D):
        pair = f.pairs(D)

        def record(t):
            asked.append(t)
            return pair(t)

        return record

    lattice = _Lattice(recording, Fraction(0), Fraction(1, 8), clip=True)
    weights = _average_weights(lattice, 1, 2)
    average = lattice.total(weights)
    assert set(weights) == {0, 1, 2}
    assert asked == [0, 1, 2] and set(lattice.memo) == {0, 1, 2}
    assert all(type(a) is int and type(b) is int and b > 0 for a, b in lattice.memo.values())
    assert average == f.evaluate(Fraction(1, 4)) + f.evaluate(Fraction(1, 8)) - 2 * f.evaluate(0)
    # and through the public probe: no pole raised
    assert averaging_probe(f, 0, Fraction(1, 8), 1, 2).average == average / 2

    rng = random.Random(2505)
    for _ in range(30):
        # -3 + x - x^2 < 0 on the whole line; weights of 0 name their points too
        f = RationalFunc(random_polynomial(rng), Polynomial((-3, 1, -1)))
        lattice = _Lattice(recording, Fraction(rng.randint(-9, 9), 7), step(rng), clip=False)
        weights = {rng.randint(-50, 50): rng.randint(-3, 3) for _ in range(rng.randint(0, 12))}
        asked.clear()
        lattice.total(weights)
        assert sorted(asked) == sorted(lattice.base + m * lattice.step for m in weights)
        assert set(lattice.memo) == set(weights)
        assert all(b > 0 for _, b in lattice.memo.values())


# Every command that reads --func but cascade, from points that leave
# [0, 1] on one side or both: fd and telescope start below 0, and the
# probe and walkthrough lattices run past 1.
ZERO_EXTENDED_RUNS = {
    "uniform": ["--n", "9"],
    "fd": ["--x", "-1/3", "--h", "1/7", "--n", "12"],
    "identity": ["--n", "9"],
    "interp": ["--n", "7"],
    "probe": ["--x", "1/5", "--h", "1/16", "--n", "3", "--Nmax", "16"],
    "telescope": ["--x", "-1/5", "--h", "1/48", "--n", "3", "--j", "2", "--N", "20"],
    "walkthrough": ["--x", "1/10", "--h", "1/40", "--n", "3", "--N", "12"],
}


@pytest.mark.parametrize("func", ["poly:1,-2,3", NEGATIVE_DENOMINATOR, ZIGZAG])
@pytest.mark.parametrize("command", list(ZERO_EXTENDED_RUNS))
def test_a_zero_extended_run_asks_pairs_only_inside_the_interval(command, func, monkeypatch):
    argv = [command, "--func", func, "--extend-zero", *ZERO_EXTENDED_RUNS[command]]
    expected = run(argv)
    outside = []
    for kind in (PolynomialFunc, RationalFunc, PiecewiseLinearFunc):
        def inside_only(self, D, pairs=kind.pairs):
            pair = pairs(self, D)

            def checked(t):
                if not 0 <= t <= D:
                    outside.append(Fraction(t, D))
                    raise AssertionError(f"{type(self).__name__} asked for {t}/{D}")
                return pair(t)

            return checked

        monkeypatch.setattr(kind, "pairs", inside_only)
    assert run(argv) == expected
    assert expected[0] == 0 and outside == []
