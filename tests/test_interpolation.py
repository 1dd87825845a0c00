"""Equispaced interpolation and its ties to divided differences."""

import random
from fractions import Fraction

import pytest

from divdiff import (
    KnotValueList,
    Polynomial,
    PolynomialFunc,
    divided_difference_direct,
    degree_reduced,
    lagrange_equispaced,
    leading_coefficient,
)

from util import random_fraction, random_polynomial


def test_sample_validation():
    # The order is len(values) - 1: no values is order -1.
    with pytest.raises(ValueError):
        lagrange_equispaced(())
    with pytest.raises(ValueError):
        degree_reduced(())
    with pytest.raises(ValueError):
        degree_reduced((Fraction(1),))
    # 0, 1 and 4 at the knots 0, 1/2, 1 are 4x^2; ints are taken as values.
    assert lagrange_equispaced((0, 1, 4)) == Polynomial((0, 0, 4))


def test_order_zero_interpolant_is_constant():
    q = lagrange_equispaced((Fraction(5, 3),))
    assert q == Polynomial((Fraction(5, 3),))


def test_line_through_endpoint_values():
    q = lagrange_equispaced((0, 1))
    assert q == Polynomial.monomial(1)


def test_interpolant_matches_given_values():
    rng = random.Random(314)
    for _ in range(30):
        n = rng.randint(0, 8)
        values = tuple(random_fraction(rng) for _ in range(n + 1))
        q = lagrange_equispaced(values)
        assert q.degree <= n
        for k, v in enumerate(values):
            assert q.evaluate(Fraction(k, max(n, 1))) == v


def test_polynomials_of_matching_degree_are_reproduced():
    rng = random.Random(315)
    for _ in range(30):
        n = rng.randint(0, 10)
        p = random_polynomial(rng, max_degree=n)
        values = KnotValueList.equispaced(PolynomialFunc(p), n).values
        assert lagrange_equispaced(values) == p


def test_reproduction_fixture():
    p = Polynomial((Fraction(0), Fraction(-1), Fraction(0), Fraction(1)))
    values = KnotValueList.equispaced(PolynomialFunc(p), 3).values
    assert lagrange_equispaced(values) == p


def test_leading_coefficient_reads_the_requested_degree():
    x = Polynomial.monomial(1)
    assert leading_coefficient(x, 1) == 1
    assert leading_coefficient(x, 2) == 0
    assert leading_coefficient(Polynomial.zero(), 3) == 0
    with pytest.raises(ValueError):
        leading_coefficient(Polynomial.monomial(3), 2)


def test_leading_coefficient_is_the_divided_difference():
    # the x^n coefficient of the order-n interpolant equals the order-n
    # divided difference at the same knots
    rng = random.Random(316)
    for _ in range(40):
        n = rng.randint(1, 8)
        values = tuple(random_fraction(rng) for _ in range(n + 1))
        q = lagrange_equispaced(values)
        kv = KnotValueList(tuple(Fraction(k, n) for k in range(n + 1)), values)
        assert leading_coefficient(q, n) == divided_difference_direct(kv)


def test_degree_reduced_fixtures():
    # x(x-1)(x-1/2) vanishes at all three knots of order 2, so the
    # interpolant collapses to the zero polynomial
    p = Polynomial((Fraction(0), Fraction(1, 2), Fraction(-3, 2), Fraction(1)))
    values = KnotValueList.equispaced(PolynomialFunc(p), 2).values
    assert degree_reduced(values)
    assert lagrange_equispaced(values).is_zero

    square = KnotValueList.equispaced(PolynomialFunc(Polynomial.monomial(2)), 2).values
    assert not degree_reduced(square)

    parabola = Polynomial((Fraction(0), Fraction(-1), Fraction(1)))
    low = KnotValueList.equispaced(PolynomialFunc(parabola), 3).values
    assert degree_reduced(low)


def test_degree_reduced_agrees_with_interpolant_degree():
    rng = random.Random(317)
    for _ in range(40):
        n = rng.randint(1, 7)
        values = tuple(random_fraction(rng, max_num=3) for _ in range(n + 1))
        q = lagrange_equispaced(values)
        assert degree_reduced(values) == (q.degree < n)
