"""The integer kernels against their plain Fraction references.

divided_difference_direct, newton_coefficients, lagrange_equispaced and
Polynomial.evaluate work on integers over one common denominator and
reduce once at the end; the ``reference_*`` functions in util.py are
the Fraction loops they replaced.  The direct kernel takes its node
products by one ratio recurrence when the knots are in arithmetic
progression, and from n factors otherwise, and adds its terms in a
balanced tree.
The inputs stress the scaling: knots with mixed denominators, negative
and unsorted, values with large denominators, and the degenerate orders.
Polynomial values of degree d below the order stress the early exits of
the two difference tables, whose differences vanish past order d.
"""

import math
import random
from fractions import Fraction

import pytest

from divdiff import (
    KnotValueList,
    Polynomial,
    divided_difference_direct,
    divided_difference_recursive,
    lagrange_equispaced,
    newton_coefficients,
)
from divdiff.differences import _difference_columns, _direct_sum, _node_products

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


def polynomial_of_degree(rng, degree):
    """A polynomial of exactly the given degree; the zero polynomial at -1."""
    coefficients = [random_fraction(rng, max_num=20, max_den=12) for _ in range(degree)]
    if degree >= 0:
        coefficients.append(rng.choice([-3, -1, 1, Fraction(5, 7)]))
    return Polynomial(tuple(coefficients))


def test_newton_table_vanishes_past_the_degree_of_its_values():
    rng = random.Random(42)
    shapes = set()
    for _ in range(120):
        n = rng.randint(1, 16)
        d = rng.randint(-1, n - 1)
        p = polynomial_of_degree(rng, d)
        knots = distinct_knots(rng, n + 1, max_num=40, max_den=12)
        kv = KnotValueList(knots, tuple(reference_evaluate(p, x) for x in knots))
        shapes.add((len({x.denominator for x in knots}) > 1, min(knots) < 0))
        coefficients = newton_coefficients(kv)
        assert coefficients == reference_newton_coefficients(kv)
        assert coefficients[d + 1:] == (0,) * (n - d)
        if d >= 0:
            assert coefficients[d] == p.coefficients[-1]
        columns = list(_difference_columns(kv))
        assert len(columns) == n + 1
        for depth, (numerators, den) in enumerate(columns):
            assert len(numerators) == n + 1 - depth
            assert den > 0 and math.gcd(den, *numerators) == 1
            if depth > d:
                assert (numerators, den) == ([0] * (n + 1 - depth), 1)
            elif depth == d:
                assert {Fraction(c, den) for c in numerators} == {p.coefficients[-1]}
        assert divided_difference_direct(kv) == coefficients[-1]
    assert (True, True) in shapes


def test_interpolant_stops_at_the_degree_of_its_values():
    rng = random.Random(43)
    for n in range(0, 25):
        constant = random_fraction(rng, max_num=50, max_den=40)
        samples = [(0,) * (n + 1), (constant,) * (n + 1)]
        # Degree d < n; d = n - 1 vanishes only at order n; d = n never.
        for d in {rng.randint(0, max(n - 1, 0)), n - 1, n} - {-1}:
            p = polynomial_of_degree(rng, d)
            values = tuple(reference_evaluate(p, Fraction(k, max(n, 1))) for k in range(n + 1))
            assert lagrange_equispaced(values) == p
            samples.append(values)
        for values in samples:
            assert lagrange_equispaced(values) == reference_lagrange(values)


def test_direct_sum_on_many_distinct_denominators():
    # Prime and prime-power value denominators make every leaf of the tree
    # a different denominator, at every order and on both sides of 0.
    rng = random.Random(44)
    primes = [q for q in range(2, 400) if all(q % r for r in range(2, q))]
    for n in list(range(0, 12)) + [31, 32, 33, 63, 64]:
        for knots in (
            tuple(Fraction(k, max(n, 1)) for k in range(n + 1)),
            distinct_knots(rng, n + 1, max_num=60, max_den=16),
        ):
            values = tuple(
                Fraction(rng.randint(-99, 99), primes[k] ** rng.randint(1, 3))
                for k in range(n + 1)
            )
            kv = KnotValueList(knots, values)
            assert divided_difference_direct(kv) == reference_divided_difference(kv)


def test_direct_sum_on_descending_knots():
    # Descending knots make the node products' signs (-1)^k, so the tree
    # adds negative denominators; the order-0 and order-1 cases are one
    # leaf and one add.
    rng = random.Random(45)
    for n in range(0, 20):
        progression_knots = tuple(Fraction(n - k, max(n, 1)) for k in range(n + 1))
        spread = tuple(sorted(distinct_knots(rng, n + 1, max_num=40, max_den=9), reverse=True))
        for knots in (progression_knots, spread):
            for values in (random_fraction, large_denominator_value):
                kv = KnotValueList(knots, tuple(values(rng) for _ in knots))
                value = divided_difference_direct(kv)
                assert value == reference_divided_difference(kv)
                assert value == divided_difference_recursive(kv)
                if n == 0:
                    assert value == kv.values[0]
                if n == 1:
                    assert value == (kv.values[1] - kv.values[0]) / (knots[1] - knots[0])


@pytest.mark.parametrize("n", [128, 256])
def test_direct_sum_off_a_progression_with_shared_small_gaps(n):
    # Gaps of 1, 2 and 3 over the scale 6 make the node products share
    # their small factors, so the tree's denominators share factors at
    # every add.  Reversed, the knots descend and the products' signs
    # alternate.  The pairs are not reduced.  The values of a polynomial
    # of degree below n sum to exactly 0.
    rng = random.Random(46)
    points = [0]
    while len(points) <= n:
        points.append(points[-1] + rng.choice((1, 1, 2, 3)))
    assert len({b - a for a, b in zip(points, points[1:])}) > 1
    p = random_polynomial(rng, max_degree=9)
    for points in (points, points[::-1]):
        knots = tuple(Fraction(a, 6) for a in points)
        for values in (
            tuple(random_fraction(rng, max_num=50, max_den=40) for _ in knots),
            tuple(p.evaluate(x) for x in knots),
        ):
            pairs = [(m * v.numerator, m * v.denominator)
                     for m, v in zip((rng.randint(1, 6) for _ in knots), values)]
            value = _direct_sum(points, pairs, 6)
            assert value == reference_divided_difference(KnotValueList(knots, values))
        assert value == 0


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
    zero = Polynomial()
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


def progression(start, step, count):
    return tuple(start + k * step for k in range(count))


@pytest.fixture
def prod_calls(monkeypatch):
    """The math.prod calls made during the test: one per n-factor node
    product of divided_difference_direct, none on the progression path."""
    calls = []
    prod = math.prod

    def counting_prod(*args, **kwargs):
        calls.append(1)
        return prod(*args, **kwargs)

    monkeypatch.setattr(math, "prod", counting_prod)
    return calls


def test_progression_knots_take_the_closed_form(prod_calls):
    rng = random.Random(39)
    shapes = [
        progression(Fraction(0), Fraction(1, 7), 9),        # ascending from 0
        progression(Fraction(1), Fraction(-1, 7), 9),       # descending
        progression(Fraction(5, 3), Fraction(-2, 3), 11),   # negative step, offset, negatives
        progression(Fraction(-9, 4), Fraction(3, 4), 8),    # offset a_0 != 0
        (Fraction(1, 6), Fraction(1, 2), Fraction(5, 6)),   # scaled points 1, 3, 5: d = 2
        progression(Fraction(7, 10), Fraction(4, 15), 6),   # scaled d = 8, a_0 = 21
        progression(Fraction(-2, 5), Fraction(-3), 5),      # integer step, scaled d = -15
        progression(Fraction(13, 5), Fraction(-1, 35), 101),  # 101 knots, d = -1, a_0 = 91
    ]
    for order in range(3):  # orders 0, 1 and 2
        shapes.append(progression(Fraction(-1, 3), Fraction(5, 2), order + 1))
    for knots in shapes:
        for values in (random_fraction, large_denominator_value):
            kv = KnotValueList(knots, tuple(values(rng) for _ in knots))
            value = divided_difference_direct(kv)
            assert not prod_calls
            assert value == reference_divided_difference(kv)
            assert value == divided_difference_recursive(kv)


def test_progression_node_products_match_the_factor_products():
    # Each product after the first is the previous one times -(k+1)/(n-k),
    # so a division that was not exact would show here.
    for count in (1, 2, 3, 18, 300):
        for start, step in ((0, 1), (7, -3), (-11, 5), (40, -1)):
            points = [start + k * step for k in range(count)]
            expected = [
                math.prod(points[k] - points[i] for i in range(count) if i != k)
                for k in range(count)
            ]
            assert _node_products(points) == expected


def test_knots_off_a_progression_take_the_general_products(prod_calls):
    rng = random.Random(40)
    knots = progression(Fraction(-1, 2), Fraction(1, 6), 8)
    permuted = list(knots)
    permuted[2], permuted[5] = permuted[5], permuted[2]
    moved = list(knots)
    moved[4] += Fraction(1, 24)
    descending_swapped = list(reversed(knots))
    descending_swapped[0], descending_swapped[1] = descending_swapped[1], descending_swapped[0]
    for shape in (permuted, moved, descending_swapped):
        kv = KnotValueList(tuple(shape), tuple(random_fraction(rng) for _ in shape))
        prod_calls.clear()
        assert divided_difference_direct(kv) == reference_divided_difference(kv)
        assert len(prod_calls) == len(shape)


def test_forward_difference_interpolant_matches_reference():
    rng = random.Random(41)
    for n in range(41):
        # Denominators 1..60 in every mix, and int values.
        values = [
            Fraction(rng.randint(-500, 500), rng.randint(1, 60)) if rng.random() < 0.8
            else rng.randint(-9, 9)
            for _ in range(n + 1)
        ]
        q = lagrange_equispaced(values)
        assert q == reference_lagrange(values)
        ints = [rng.randint(-9, 9) for _ in range(n + 1)]
        assert lagrange_equispaced(ints) == reference_lagrange(ints)


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
