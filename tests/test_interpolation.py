"""Equispaced interpolation and its ties to divided differences."""

import dataclasses
import random
from fractions import Fraction

import pytest

from divdiff import (
    KnotValueList,
    PiecewiseLinearFunc,
    PoleError,
    Polynomial,
    PolynomialFunc,
    divided_difference_direct,
    lagrange_equispaced,
    leading_coefficient,
    parse_funcspec,
)
from divdiff.differences import _equispaced_pairs
from divdiff.interpolation import _equispaced_interpolant

from util import (
    monomial,
    pole_free_rational,
    random_fraction,
    random_grid_function,
    random_polynomial,
)


def test_sample_validation():
    # The order is len(values) - 1: no values is order -1.
    with pytest.raises(ValueError):
        lagrange_equispaced(())
    # 0, 1 and 4 at the knots 0, 1/2, 1 are 4x^2; ints are taken as values.
    assert lagrange_equispaced((0, 1, 4)) == Polynomial((0, 0, 4))


def test_order_zero_interpolant_is_constant():
    q = lagrange_equispaced((Fraction(5, 3),))
    assert q == Polynomial((Fraction(5, 3),))


def test_line_through_endpoint_values():
    q = lagrange_equispaced((0, 1))
    assert q == monomial(1)


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
    x = monomial(1)
    assert leading_coefficient(x, 1) == 1
    assert leading_coefficient(x, 2) == 0
    assert leading_coefficient(Polynomial(), 3) == 0
    with pytest.raises(ValueError):
        leading_coefficient(monomial(3), 2)


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
    assert leading_coefficient(lagrange_equispaced(values), 2) == 0
    assert lagrange_equispaced(values).is_zero

    square = KnotValueList.equispaced(PolynomialFunc(monomial(2)), 2).values
    assert leading_coefficient(lagrange_equispaced(square), 2) != 0

    parabola = Polynomial((Fraction(0), Fraction(-1), Fraction(1)))
    low = KnotValueList.equispaced(PolynomialFunc(parabola), 3).values
    assert leading_coefficient(lagrange_equispaced(low), 3) == 0


def test_degree_reduced_agrees_with_interpolant_degree():
    rng = random.Random(317)
    for _ in range(40):
        n = rng.randint(1, 7)
        values = tuple(random_fraction(rng, max_num=3) for _ in range(n + 1))
        q = lagrange_equispaced(values)
        assert (leading_coefficient(q, n) == 0) == (q.degree < n)


@pytest.mark.parametrize("n", [*range(41), 256])
def test_interpolant_of_f_from_its_pairs_matches_the_sample(n):
    # Q_n from f's pairs over their common denominator equals the
    # interpolant of the Fraction sample, for each kind of function, plain
    # and zero-extended; the pairs are those of the sampler.
    rng = random.Random(318 + n)
    kinds = (PolynomialFunc(random_polynomial(rng)), pole_free_rational(rng),
             PiecewiseLinearFunc(random_grid_function(rng)))
    for extend in (False, True):
        for f in (dataclasses.replace(f, extended_by_zero=extend) for f in kinds):
            pairs, q = _equispaced_interpolant(f, n)
            assert pairs == _equispaced_pairs(f, n)
            assert q == lagrange_equispaced(KnotValueList.equispaced(f, n).values)


def test_a_pole_at_a_knot_stops_the_interpolant_at_the_lowest_knot():
    # Poles at 1/3 and 2/3, both knots at n = 6: the error names 1/3, as
    # the Fraction sample's does.
    f = parse_funcspec("ratfun:1;2,-9,9")
    with pytest.raises(PoleError) as sample:
        KnotValueList.equispaced(f, 6)
    with pytest.raises(PoleError) as interpolant:
        _equispaced_interpolant(f, 6)
    assert str(interpolant.value) == str(sample.value) == "denominator vanishes at 1/3"
