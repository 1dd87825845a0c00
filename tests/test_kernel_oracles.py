"""The integer kernels against their plain Fraction references.

divided_difference_direct, newton_coefficients, lagrange_equispaced and
Polynomial.evaluate work on integers over one common denominator and
reduce once at the end; the ``reference_*`` functions in util.py are
the Fraction loops they replaced.  The inputs stress the scaling: knots
with mixed denominators, negative and unsorted, values with large
denominators, and the degenerate orders.
"""

import math
import random
from fractions import Fraction

from divdiff import (
    KnotValueList,
    Polynomial,
    divided_difference_direct,
    lagrange_equispaced,
    newton_coefficients,
)
from divdiff.differences import _difference_columns

from util import (
    distinct_knots,
    random_fraction,
    random_polynomial,
    reference_divided_difference,
    reference_evaluate,
    reference_lagrange,
    reference_newton_coefficients,
)


def large_denominator_value(rng):
    return Fraction(rng.randint(-(10**12), 10**12), rng.randint(1, 10**15))


def random_knot_values(rng, count, values=random_fraction):
    knots = distinct_knots(rng, count, max_num=40, max_den=12)
    return KnotValueList(knots, tuple(values(rng) for _ in knots))


def assert_kernels_match(kv):
    assert divided_difference_direct(kv) == reference_divided_difference(kv)
    assert newton_coefficients(kv) == reference_newton_coefficients(kv)


def test_mixed_negative_unsorted_knots():
    rng = random.Random(31)
    shapes = set()
    for _ in range(150):
        kv = random_knot_values(rng, rng.randint(2, 12))
        xs = kv.knots
        mixed = len({x.denominator for x in xs}) > 1
        shapes.add((mixed, min(xs) < 0, list(xs) != sorted(xs)))
        assert_kernels_match(kv)
    assert (True, True, True) in shapes


def test_values_with_large_denominators():
    rng = random.Random(32)
    for _ in range(60):
        kv = random_knot_values(rng, rng.randint(1, 10), large_denominator_value)
        assert_kernels_match(kv)


def test_single_knot():
    rng = random.Random(33)
    for _ in range(20):
        kv = random_knot_values(rng, 1, large_denominator_value)
        assert divided_difference_direct(kv) == kv.values[0]
        assert newton_coefficients(kv) == kv.values
        assert_kernels_match(kv)


def test_zero_values_give_zero_columns():
    kv = KnotValueList(tuple(Fraction(k, 3) for k in range(-2, 5)), (0,) * 7)
    assert divided_difference_direct(kv) == 0
    assert newton_coefficients(kv) == (0,) * 7


def test_difference_columns_are_in_lowest_terms():
    rng = random.Random(34)
    for _ in range(40):
        kv = random_knot_values(rng, rng.randint(1, 10), large_denominator_value)
        columns = list(_difference_columns(kv))
        assert len(columns) == kv.order + 1
        for depth, (numerators, den) in enumerate(columns):
            assert len(numerators) == kv.order + 1 - depth
            assert den > 0
            assert math.gcd(den, *numerators) == 1


def test_interpolant_matches_reference():
    rng = random.Random(35)
    for n in list(range(0, 9)) * 4:
        values = [random_fraction(rng, max_num=50, max_den=40) for _ in range(n + 1)]
        assert lagrange_equispaced(values) == reference_lagrange(values)


def test_order_zero_and_one_interpolants():
    rng = random.Random(36)
    for _ in range(20):
        a, b = large_denominator_value(rng), large_denominator_value(rng)
        assert lagrange_equispaced((a,)) == Polynomial((a,))
        line = lagrange_equispaced((a, b))
        assert line == Polynomial((a, b - a))
        assert line == reference_lagrange((a, b))


def test_zero_sample_gives_the_zero_polynomial():
    for n in range(4):
        assert lagrange_equispaced((0,) * (n + 1)).is_zero


def test_evaluate_matches_reference():
    rng = random.Random(37)
    points = [0, 1, -1, 7, -12, Fraction(-3, 4), Fraction(10**9 + 7, 10**12)]
    for _ in range(80):
        p = random_polynomial(rng, max_degree=9, max_num=30)
        for x in points + [random_fraction(rng, 40, 40), large_denominator_value(rng)]:
            assert p.evaluate(x) == reference_evaluate(p, x)


def test_zero_polynomial_evaluates_to_zero():
    zero = Polynomial.zero()
    for x in (0, -5, Fraction(2, 3)):
        assert zero.evaluate(x) == 0
        assert isinstance(zero.evaluate(x), Fraction)


def test_integer_form_stays_out_of_eq_repr_and_hash():
    p = Polynomial((Fraction(1, 6), Fraction(-2, 9), Fraction(5, 4)))
    fresh = Polynomial(p.coefficients)
    before = repr(p)
    assert p.evaluate(Fraction(3, 7)) == reference_evaluate(p, Fraction(3, 7))
    assert repr(p) == before
    assert p == fresh and hash(p) == hash(fresh)


def test_equispaced_order_256():
    rng = random.Random(38)
    n = 256
    values = tuple(random_fraction(rng, max_num=20, max_den=12) for _ in range(n + 1))
    knots = tuple(Fraction(k, n) for k in range(n + 1))
    kv = KnotValueList(knots, values)
    coeffs = newton_coefficients(kv)
    assert coeffs == reference_newton_coefficients(kv)
    assert divided_difference_direct(kv) == reference_divided_difference(kv)
    q = lagrange_equispaced(values)
    assert q == reference_lagrange(values)
    for x, v in zip(knots[::16], values[::16]):
        assert q.evaluate(x) == v
    x = Fraction(-1, 3)
    assert q.evaluate(x) == reference_evaluate(q, x)
