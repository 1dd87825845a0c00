"""Descending-order difference checks on polynomials."""

import math
import random
from fractions import Fraction

from divdiff import Polynomial, polynomial_cascade

from util import add, nonzero_polynomial


def test_zero_polynomial_verdict():
    result = polynomial_cascade(Polynomial.zero())
    assert (result.verdict, result.order) == ("ZeroPolynomial", None)
    assert result.rows == ()


def test_cancellation_still_counts_as_zero():
    p = Polynomial(add((0, 1), (0, -1)))
    result = polynomial_cascade(p)
    assert (result.verdict, result.order) == ("ZeroPolynomial", None)


def test_constant_polynomial():
    result = polynomial_cascade(Polynomial((Fraction(-3, 7),)))
    assert (result.verdict, result.order) == ("NonzeroAtOrder", 0)
    assert len(result.rows) == 1
    check = result.rows[0]
    assert check.order == 0
    assert check.step is None
    assert check.value == Fraction(-3, 7)


def test_quadratic_with_zero_constant_term():
    # x(x-1) vanishes at 0 and 1 but its second difference does not
    p = Polynomial((Fraction(0), Fraction(-1), Fraction(1)))
    result = polynomial_cascade(p)
    assert (result.verdict, result.order) == ("NonzeroAtOrder", 2)
    top = result.rows[0]
    assert top.order == 2
    assert top.step == Fraction(1, 2)
    assert top.value == Fraction(1, 2)
    assert top.nonzero


def test_checks_run_from_degree_down_to_constant():
    p = Polynomial((Fraction(1), Fraction(0), Fraction(0), Fraction(2)))
    result = polynomial_cascade(p)
    assert [c.order for c in result.rows] == [3, 2, 1, 0]
    assert [c.step for c in result.rows] == [
        Fraction(1, 3),
        Fraction(1, 2),
        Fraction(1),
        None,
    ]


def test_top_check_value_is_scaled_leading_coefficient():
    # the order-d difference of a degree-d polynomial with step 1/d is
    # leading * d! / d^d
    rng = random.Random(808)
    for _ in range(40):
        p = nonzero_polynomial(rng, max_degree=9)
        d = p.degree
        result = polynomial_cascade(p)
        if d == 0:
            assert result.rows[0].value == p.coefficients[-1]
            continue
        top = result.rows[0]
        assert top.order == d
        assert top.value == p.coefficients[-1] * math.factorial(d) * Fraction(1, d) ** d
        assert top.nonzero


def test_first_nonzero_order_is_the_degree():
    # a nonzero polynomial can never slip through every check
    rng = random.Random(809)
    for _ in range(200):
        p = nonzero_polynomial(rng, max_degree=10)
        result = polynomial_cascade(p)
        assert (result.verdict, result.order) == ("NonzeroAtOrder", p.degree)
