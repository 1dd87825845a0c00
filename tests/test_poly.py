"""Polynomial evaluation, binomial coefficients, and the test-side
coefficient helpers: sums, the calculus steps and the sliding-window integral."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from divdiff import Polynomial, binomial

from util import (
    add,
    antiderivative,
    derivative,
    random_fraction,
    random_polynomial,
    shifted,
    window_integral,
)

fractions = st.fractions(min_value=-10, max_value=10, max_denominator=12)
polynomials = st.lists(fractions, max_size=7).map(lambda cs: Polynomial(tuple(cs)))


def test_trailing_zero_coefficients_are_trimmed():
    p = Polynomial((Fraction(1), Fraction(2), Fraction(0), Fraction(0)))
    assert p.degree == 1
    assert p.coefficients == (Fraction(1), Fraction(2))


def test_zero_polynomial_degree():
    z = Polynomial.zero()
    assert z.is_zero
    assert z.degree == float("-inf")
    assert z.evaluate(Fraction(3, 7)) == 0


def test_monomial_and_leading():
    p = Polynomial.monomial(3, Fraction(5, 2))
    assert p.degree == 3
    assert p.coefficients[-1] == Fraction(5, 2)
    assert p.coefficient(0) == 0
    assert p.coefficient(17) == 0


def test_evaluate_fixtures():
    x_sq = Polynomial.monomial(2)
    assert x_sq.evaluate(Fraction(1, 2)) == Fraction(1, 4)
    x_x_minus_1 = Polynomial((Fraction(0), Fraction(-1), Fraction(1)))
    assert x_x_minus_1.evaluate(Fraction(1, 2)) == Fraction(-1, 4)


@given(polynomials, polynomials, fractions)
def test_ring_operations_agree_with_evaluation(p, q, x):
    total = Polynomial(add(p.coefficients, q.coefficients))
    assert total.evaluate(x) == p.evaluate(x) + q.evaluate(x)
    difference = Polynomial(add(p.coefficients, (q * -1).coefficients))
    assert difference.evaluate(x) == p.evaluate(x) - q.evaluate(x)
    assert (p * q).evaluate(x) == p.evaluate(x) * q.evaluate(x)
    assert (p * -1).evaluate(x) == -p.evaluate(x)


@given(polynomials, fractions, fractions)
def test_scalar_multiplication(p, c, x):
    assert (p * c).evaluate(x) == c * p.evaluate(x)


@given(polynomials, fractions, fractions)
def test_shifted_is_composition_with_translation(p, h, x):
    assert Polynomial(shifted(p.coefficients, h)).evaluate(x) == p.evaluate(x + h)


def test_derivative_fixtures():
    cubic = Polynomial.monomial(3).coefficients
    assert derivative(cubic, 3) == (6,)
    assert derivative(cubic, 4) == ()
    assert derivative((0, -1, 1)) == (-1, 2)


@given(polynomials)
def test_derivative_of_antiderivative_recovers(p):
    assert Polynomial(derivative(antiderivative(p.coefficients))) == p


def test_pascal_triangle_oracle():
    # Rebuild rows of Pascal's triangle by the addition recurrence and
    # compare against the closed form, up to n = 64.
    row = [1]
    for n in range(65):
        for j, expected in enumerate(row):
            assert binomial(n, j) == expected
        row = [1] + [row[j] + row[j + 1] for j in range(len(row) - 1)] + [1]


def test_binomial_rejects_out_of_range():
    with pytest.raises(ValueError):
        binomial(3, 4)
    with pytest.raises(ValueError):
        binomial(3, -1)
    with pytest.raises(ValueError):
        binomial(-1, 0)


def test_window_integral_of_constant():
    # integral of 1 over a window of width 1/2
    assert window_integral((1,), Fraction(1, 2)) == (Fraction(1, 2),)


def test_window_integral_of_identity():
    # integral of t over [x, x+1] is x + 1/2
    assert window_integral((0, 1), 1) == (Fraction(1, 2), 1)


def test_window_integral_scales():
    # integral of 6t over [x, x+1/3] is 2x + 1/3
    assert window_integral((0, 6), Fraction(1, 3)) == (Fraction(1, 3), 2)


def test_window_integral_matches_quadrature():
    # integral of p over [x, x+h], computed via the antiderivative
    rng = random.Random(2024_07)
    for _ in range(25):
        p = random_polynomial(rng)
        h = abs(random_fraction(rng)) + Fraction(1, 3)
        x = random_fraction(rng)
        big_p = Polynomial(antiderivative(p.coefficients))
        direct = big_p.evaluate(x + h) - big_p.evaluate(x)
        assert Polynomial(window_integral(p.coefficients, h)).evaluate(x) == direct


def test_window_integral_keeps_degree_and_scales_leading():
    # the top coefficients of P(x+h) - P(x) telescope down to lead * h * x^d
    rng = random.Random(99)
    h = Fraction(1, 4)
    for _ in range(10):
        p = random_polynomial(rng)
        q = Polynomial(window_integral(p.coefficients, h))
        assert q.degree == p.degree
        if not p.is_zero:
            assert q.coefficients[-1] == p.coefficients[-1] * h
