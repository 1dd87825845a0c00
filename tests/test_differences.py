"""Divided differences, forward differences, and the equispaced identity.

The direct weighted sum and the recursive table are implemented
independently, so each half of the module serves as an oracle for the
other.  Randomized cases lean on that cross-check.
"""

import argparse
import math
import random
from fractions import Fraction

import pytest

from divdiff import (
    DuplicateKnotError,
    EquispacedIdentityCheck,
    GridFunction,
    KnotValueList,
    PiecewiseLinearFunc,
    Polynomial,
    PolynomialFunc,
    RationalFunc,
    check_equispaced_identity,
    divided_difference_direct,
    divided_difference_recursive,
    finite_difference,
    newton_coefficients,
)
from divdiff import cli, differences
from divdiff.differences import difference_stencil

from util import (
    add,
    binomial,
    distinct_knots,
    finite_difference_via_integral,
    knot_values,
    monomial,
    pole_free_rational,
    random_fraction,
    random_funcspec,
    outcome,
    random_polynomial,
    reference_divided_difference,
    reference_equispaced,
    reference_fd,
)


def pairs(*items):
    knots, values = zip(*items)
    return KnotValueList(knots, values)


def test_order_zero_is_the_value():
    kv = pairs((Fraction(2, 3), Fraction(5, 7)))
    assert divided_difference_direct(kv) == Fraction(5, 7)
    assert divided_difference_recursive(kv) == Fraction(5, 7)


def test_two_knots_give_the_slope():
    kv = pairs((0, 0), (1, 0))
    assert divided_difference_direct(kv) == 0
    rng = random.Random(5)
    for _ in range(20):
        a, b = distinct_knots(rng, 2)
        fa, fb = random_fraction(rng), random_fraction(rng)
        kv = pairs((a, fa), (b, fb))
        assert divided_difference_direct(kv) == (fb - fa) / (b - a)


def test_square_on_three_equispaced_knots():
    f = PolynomialFunc(monomial(2))
    kv = knot_values(f, [0, Fraction(1, 2), 1])
    assert divided_difference_direct(kv) == 1
    assert divided_difference_recursive(kv) == 1


def test_cube_on_four_equispaced_knots():
    f = PolynomialFunc(monomial(3))
    kv = KnotValueList.equispaced(f, 3)
    assert kv.knots == (0, Fraction(1, 3), Fraction(2, 3), 1)
    assert divided_difference_recursive(kv) == 1


def test_duplicate_knots_rejected():
    with pytest.raises(DuplicateKnotError) as excinfo:
        pairs((0, 1), (Fraction(1, 2), 2), (Fraction(1, 2), 3))
    assert "1/2" in str(excinfo.value)


def test_a_repeat_written_differently_is_a_duplicate():
    # Knots are compared by value, however each was written.
    cases = [
        ((0, 1, Fraction(2, 2)), Fraction(1)),
        ((Fraction(0), 0), Fraction(0)),
        ((Fraction(-3, 6), Fraction(1, 3), -0.5), Fraction(-1, 2)),
        (("2/4", Fraction(1, 2), 1), Fraction(1, 2)),
        ((0, Fraction(4, 2), 1, Fraction(1, 1), 2), Fraction(1)),  # the first repeat in order
    ]
    for knots, repeated in cases:
        with pytest.raises(DuplicateKnotError) as excinfo:
            KnotValueList(knots, (0,) * len(knots))
        assert excinfo.value.knot == repeated
        assert type(excinfo.value.knot) is Fraction
        assert str(excinfo.value) == f"duplicate knot {repeated}"


def test_empty_knot_list_rejected():
    with pytest.raises(ValueError, match="need at least one knot"):
        KnotValueList((), ())


def test_knot_and_value_counts_must_match():
    # the count is checked first: before an empty list or a duplicate knot
    for knots, values in [((0, 1), (2,)), ((), (1,)), ((1, 1), (2, 3, 4))]:
        message = f"got {len(knots)} knots but {len(values)} values; they must match"
        with pytest.raises(ValueError) as excinfo:
            KnotValueList(knots, values)
        assert type(excinfo.value) is ValueError
        assert str(excinfo.value) == message


def test_entries_are_fractions():
    kv = KnotValueList([0, Fraction(1, 2)], (1, "3/4"))
    assert kv.knots == (Fraction(0), Fraction(1, 2))
    assert kv.values == (Fraction(1), Fraction(3, 4))
    assert all(type(e) is Fraction for e in kv.knots + kv.values)


def test_equispaced_requires_positive_order():
    f = PolynomialFunc(monomial(1))
    kv = KnotValueList.equispaced(f, 0)
    assert kv.knots == (Fraction(0),)
    with pytest.raises(ValueError):
        KnotValueList.equispaced(f, -1)


def test_direct_equals_recursive_on_random_inputs():
    rng = random.Random(20240101)
    for _ in range(300):
        order = rng.randint(0, 8)
        knots = distinct_knots(rng, order + 1)
        kv = KnotValueList(knots, tuple(random_fraction(rng) for _ in knots))
        assert divided_difference_direct(kv) == divided_difference_recursive(kv)


def test_symmetry_under_knot_permutation():
    rng = random.Random(77)
    for _ in range(50):
        order = rng.randint(1, 6)
        knots = distinct_knots(rng, order + 1)
        paired = [(x, random_fraction(rng)) for x in knots]
        base = divided_difference_direct(pairs(*paired))
        rng.shuffle(paired)
        assert divided_difference_direct(pairs(*paired)) == base


def test_monomial_annihilation_and_normalization():
    # order-n differences kill degrees below n and send x^n to 1,
    # whatever the knots are
    rng = random.Random(31)
    for n in range(1, 9):
        knots = distinct_knots(rng, n + 1)
        for k in range(n):
            f = PolynomialFunc(monomial(k))
            kv = knot_values(f, knots)
            assert divided_difference_direct(kv) == 0
        top = PolynomialFunc(monomial(n))
        kv = knot_values(top, knots)
        assert divided_difference_direct(kv) == 1


def test_newton_coefficients_are_prefix_differences():
    rng = random.Random(13)
    for _ in range(30):
        order = rng.randint(0, 6)
        knots = distinct_knots(rng, order + 1)
        kv = KnotValueList(knots, tuple(random_fraction(rng) for _ in knots))
        coeffs = newton_coefficients(kv)
        for m in range(order + 1):
            prefix = KnotValueList(kv.knots[: m + 1], kv.values[: m + 1])
            assert coeffs[m] == divided_difference_direct(prefix)


def test_weight_signs_alternate_from_the_top():
    # the j-th forward-difference weight carries sign (-1)^(n-j); since
    # (-1)^(n-j) == (-1)^(n+j), both spellings must agree
    for n in range(17):
        for j in range(n + 1):
            assert (-1) ** (n - j) == (-1) ** (n + j)


def test_forward_difference_fixtures():
    f = PolynomialFunc(monomial(2))
    half = Fraction(1, 2)
    assert finite_difference(f, 0, half, 1) == Fraction(1, 4)
    assert finite_difference(f, 0, half, 2) == Fraction(1, 2)
    assert finite_difference(f, 0, Fraction(1, 7), 3) == 0
    assert finite_difference(f, Fraction(2, 3), half, 0) == Fraction(4, 9)


def test_forward_difference_of_top_monomial():
    rng = random.Random(42)
    for n in range(1, 13):
        h = abs(random_fraction(rng)) + Fraction(1, 5)
        x = random_fraction(rng)
        f = PolynomialFunc(monomial(n))
        got = finite_difference(f, x, h, n)
        assert got == math.factorial(n) * h**n


def test_forward_difference_is_linear():
    rng = random.Random(8)
    for _ in range(25):
        p = random_polynomial(rng)
        q = random_polynomial(rng)
        c = random_fraction(rng)
        x = random_fraction(rng)
        h = abs(random_fraction(rng)) + Fraction(1, 3)
        n = rng.randint(0, 5)

        def fd(poly):
            return finite_difference(PolynomialFunc(poly), x, h, n)

        assert fd(Polynomial(add(p.coefficients, q.coefficients))) == fd(p) + fd(q)
        assert fd(p * c) == c * fd(p)


def _spied_polynomial(coefficients, extend, asked):
    """A PolynomialFunc that records each point asked of it, by either path."""
    return _spied(PolynomialFunc(Polynomial(coefficients), extended_by_zero=extend), asked)


def _spied(f, asked):
    """f as a spec of its own kind that records each point asked of it,
    by either path."""

    class Spy(type(f)):
        def evaluate(self, x):
            asked.append(Fraction(x))
            return super().evaluate(x)

        def pairs(self, D):
            pair = super().pairs(D)

            def spy(t):
                asked.append(Fraction(t, D))
                return pair(t)

            return spy

    return Spy(**vars(f))


def test_an_unextended_polynomial_above_its_degree_asks_for_no_point():
    # D_h^n p = 0 for n > deg p, after the h and n checks; at n <= deg p, and
    # for a zero-extended p, the lattice is kept and asked as the loop asks.
    x, h = Fraction(-7, 3), Fraction(1, 9)
    for coefficients in ((), (5,), (1, -2, 3), (0, 0, 0, 0, Fraction(1, 7))):
        degree = len(coefficients) - 1
        for n in range(0, degree + 4):
            for extend in (False, True):
                asked = []
                f = _spied_polynomial(coefficients, extend, asked)
                value = finite_difference(f, x, h, n)
                assert value == reference_fd(PolynomialFunc(f.poly, extend), x, h, n)
                if n > degree and not extend:
                    assert value == 0 and asked == []
                elif not extend:
                    assert asked == [x + j * h for j in range(n + 1)]
        asked = []
        f = _spied_polynomial(coefficients, False, asked)
        with pytest.raises(ValueError, match="step must be positive"):
            finite_difference(f, x, 0, degree + 2)
        with pytest.raises(ValueError, match="order must be nonnegative"):
            finite_difference(f, x, h, -1)
        assert asked == []
    asked = []
    finite_difference(_spied_polynomial((1, 1), True, asked), Fraction(1, 3), h, 3)
    assert asked == [Fraction(1, 3) + j * h for j in range(4)]


def test_difference_stencil_is_the_signed_binomial_row():
    for n in list(range(-3, 70)) + [255, 256, 1001]:
        expected = tuple((-1) ** (n - j) * binomial(n, j) for j in range(n + 1))
        assert difference_stencil(n) == expected
    assert difference_stencil(0) == (1,)
    assert difference_stencil(-1) == ()


def test_finite_difference_validation():
    f = PolynomialFunc(monomial(1))
    with pytest.raises(ValueError, match="step must be positive"):
        finite_difference(f, 0, 0, 1)
    with pytest.raises(ValueError, match="step must be positive"):
        finite_difference(f, 0, Fraction(-1, 2), 1)
    with pytest.raises(ValueError, match="order must be nonnegative"):
        finite_difference(f, 0, Fraction(1, 2), -1)


def test_via_integral_fixtures():
    cubic = monomial(3)
    assert finite_difference_via_integral(cubic, 0, Fraction(1, 2), 3) == Fraction(3, 4)
    quad = Polynomial((Fraction(2), Fraction(-1), Fraction(3)))
    assert finite_difference_via_integral(quad, Fraction(1, 5), Fraction(1, 2), 3) == 0


def test_via_integral_matches_binomial_sum():
    rng = random.Random(2024_02)
    for _ in range(60):
        p = random_polynomial(rng, max_degree=7)
        n = rng.randint(1, 6)
        x = random_fraction(rng)
        h = abs(random_fraction(rng)) + Fraction(1, 4)
        direct = finite_difference(PolynomialFunc(p), x, h, n)
        assert finite_difference_via_integral(p, x, h, n) == direct


def test_identity_fixture_square():
    check = check_equispaced_identity(PolynomialFunc(monomial(2)), 2)
    assert check == EquispacedIdentityCheck(2, Fraction(1), Fraction(1), True)


def test_identity_fixture_degree_below_order():
    p = Polynomial((Fraction(0), Fraction(-1), Fraction(1)))
    check = check_equispaced_identity(PolynomialFunc(p), 3)
    assert check.lhs == 0
    assert check.rhs == 0
    assert check.equal


def test_identity_for_a_rational_function():
    # 1/(1 + 25 x^2) sampled on sevenths produces a bulky exact value;
    # both sides must land on it independently
    f = RationalFunc(Polynomial((1,)), Polynomial((Fraction(1), Fraction(0), Fraction(25))))
    check = check_equispaced_identity(f, 6)
    assert check.equal
    assert check.lhs == Fraction(-691405875000, 28167484501)


def test_identity_on_random_functions():
    rng = random.Random(606)
    for _ in range(40):
        f = random_funcspec(rng)
        n = rng.randint(1, 8)
        check = check_equispaced_identity(f, n)
        assert check.equal, (f, n)


def test_identity_on_pole_free_rationals_high_order():
    rng = random.Random(607)
    for _ in range(5):
        f = pole_free_rational(rng)
        check = check_equispaced_identity(f, 12)
        assert check.equal


def test_identity_asks_for_each_knot_once():
    # The sample and the forward difference read the same pairs at k/n.
    runge = RationalFunc(Polynomial((1,)), Polynomial((1, 0, 25)))
    specs = [
        runge,
        RationalFunc(runge.numerator, runge.denominator, extended_by_zero=True),
        PolynomialFunc(Polynomial((1, -2, 0, Fraction(3, 7)))),
        PolynomialFunc(Polynomial((1, -2, 0, Fraction(3, 7))), extended_by_zero=True),
    ]
    for f in specs:
        for n in range(1, 10):
            asked = []
            check = check_equispaced_identity(_spied(f, asked), n)
            assert check == check_equispaced_identity(f, n)
            assert check.equal
            assert asked == [Fraction(k, n) for k in range(n + 1)], (f, n)


def test_identity_raises_the_pole_at_the_lowest_knot():
    # Poles at 3/8 and 1/2 are the knots k = 3 and 4 of n = 8, and 1/2
    # alone is the knot k = 1 of n = 2.
    for extend in (False, True):
        f = RationalFunc(
            Polynomial((1,)),
            Polynomial((Fraction(3, 16), Fraction(-7, 8), Fraction(1))),
            extended_by_zero=extend,
        )
        for n, pole in ((8, "3/8"), (2, "1/2"), (16, "3/8")):
            asked = []
            expected = ("PoleError", f"denominator vanishes at {pole}")
            assert outcome(reference_equispaced, f, n) == expected
            assert outcome(check_equispaced_identity, _spied(f, asked), n) == expected
            assert asked == [Fraction(k, n) for k in range(int(Fraction(pole) * n) + 1)]


def _uniform(f, n):
    """The uniform command's divided difference, read from f's pairs."""
    return cli.COMMANDS["uniform"].handler(argparse.Namespace(n=n), f)["divided_difference"]


def test_uniform_from_pairs_equals_the_direct_sum_of_the_sample():
    # The pairs are not reduced, and a negative denominator of the
    # rational function is turned positive in them.
    rng = random.Random(3737)
    zigzag = GridFunction(12, {0: Fraction(3, 4), 1: Fraction(-5, 6), 4: Fraction(7, 10),
                               7: Fraction(-1, 9), 12: Fraction(2, 7)})
    mixed = Polynomial(tuple(Fraction((-1) ** k * (3 * k + 1), k % 7 + 2) for k in range(9)))
    for extend in (False, True):
        specs = [
            RationalFunc(Polynomial((1, 2, 0, 3)), Polynomial((-2, 1)), extended_by_zero=extend),
            PolynomialFunc(mixed, extended_by_zero=extend),
            PiecewiseLinearFunc(zigzag, extended_by_zero=extend),
            random_funcspec(rng, extend_zero=extend),
        ]
        for f in specs:
            for n in range(41):
                expected = divided_difference_direct(KnotValueList.equispaced(f, n))
                assert _uniform(f, n) == expected, (f, n)
                if n % 8 == 0:  # and a kernel that shares no code with it
                    assert expected == reference_divided_difference(reference_equispaced(f, n))


def test_uniform_asks_for_each_knot_once_and_raises_the_pole_at_the_lowest_knot():
    runge = RationalFunc(Polynomial((1,)), Polynomial((1, 0, 25)))
    for n in range(0, 12):
        asked = []
        assert _uniform(_spied(runge, asked), n) == _uniform(runge, n)
        assert asked == [Fraction(k, max(n, 1)) for k in range(n + 1)]
    for extend in (False, True):
        f = RationalFunc(
            Polynomial((1,)),
            Polynomial((Fraction(3, 16), Fraction(-7, 8), Fraction(1))),
            extended_by_zero=extend,
        )
        for n, pole in ((8, "3/8"), (2, "1/2"), (16, "3/8")):
            asked = []
            expected = ("PoleError", f"denominator vanishes at {pole}")
            assert outcome(_uniform, _spied(f, asked), n) == expected
            assert asked == [Fraction(k, n) for k in range(int(Fraction(pole) * n) + 1)]
    asked = []
    with pytest.raises(ValueError):
        _uniform(_spied(runge, asked), -1)
    assert asked == []


def test_identity_sums_the_stencil_of_a_polynomial_below_the_order(monkeypatch):
    # With a wrong stencil the forward side of a quadratic is no longer 0,
    # so the check must tell the sides apart rather than assume that side.
    f = PolynomialFunc(Polynomial((1, -2, 3)))
    assert check_equispaced_identity(f, 5).equal
    monkeypatch.setattr(differences, "difference_stencil", lambda n: (1,) * (n + 1))
    check = check_equispaced_identity(f, 5)
    assert check.lhs == 0
    assert check.rhs != 0
    assert not check.equal


def test_identity_requires_positive_order():
    with pytest.raises(ValueError):
        check_equispaced_identity(PolynomialFunc(monomial(1)), 0)
