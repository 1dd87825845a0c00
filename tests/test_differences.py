"""Divided differences, forward differences, and the equispaced identity.

The direct weighted sum and the recursive table are implemented
independently, so each half of the module serves as an oracle for the
other.  Randomized cases lean on that cross-check.
"""

import math
import random
from fractions import Fraction

import pytest

from divdiff import (
    DuplicateKnotError,
    EquispacedIdentityCheck,
    KnotValueList,
    Polynomial,
    PolynomialFunc,
    RationalFunc,
    check_equispaced_identity,
    divided_difference_direct,
    divided_difference_recursive,
    finite_difference,
    newton_coefficients,
)

from util import (
    add,
    distinct_knots,
    finite_difference_via_integral,
    pole_free_rational,
    random_fraction,
    random_funcspec,
    random_polynomial,
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
    f = PolynomialFunc(Polynomial.monomial(2))
    kv = KnotValueList.from_function(f, [0, Fraction(1, 2), 1])
    assert divided_difference_direct(kv) == 1
    assert divided_difference_recursive(kv) == 1


def test_cube_on_four_equispaced_knots():
    f = PolynomialFunc(Polynomial.monomial(3))
    kv = KnotValueList.equispaced(f, 3)
    assert kv.knots == (0, Fraction(1, 3), Fraction(2, 3), 1)
    assert divided_difference_recursive(kv) == 1


def test_duplicate_knots_rejected():
    with pytest.raises(DuplicateKnotError) as excinfo:
        pairs((0, 1), (Fraction(1, 2), 2), (Fraction(1, 2), 3))
    assert "1/2" in str(excinfo.value)


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
    f = PolynomialFunc(Polynomial.monomial(1))
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
            f = PolynomialFunc(Polynomial.monomial(k))
            kv = KnotValueList.from_function(f, knots)
            assert divided_difference_direct(kv) == 0
        top = PolynomialFunc(Polynomial.monomial(n))
        kv = KnotValueList.from_function(top, knots)
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
    f = PolynomialFunc(Polynomial.monomial(2))
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
        f = PolynomialFunc(Polynomial.monomial(n))
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


def test_finite_difference_validation():
    f = PolynomialFunc(Polynomial.monomial(1))
    with pytest.raises(ValueError, match="step must be positive"):
        finite_difference(f, 0, 0, 1)
    with pytest.raises(ValueError, match="step must be positive"):
        finite_difference(f, 0, Fraction(-1, 2), 1)
    with pytest.raises(ValueError, match="order must be nonnegative"):
        finite_difference(f, 0, Fraction(1, 2), -1)


def test_via_integral_fixtures():
    cubic = Polynomial.monomial(3)
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
    check = check_equispaced_identity(PolynomialFunc(Polynomial.monomial(2)), 2)
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


def test_identity_requires_positive_order():
    with pytest.raises(ValueError):
        check_equispaced_identity(PolynomialFunc(Polynomial.monomial(1)), 0)
