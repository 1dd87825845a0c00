"""Equispaced polynomial interpolation and the degree-reduction test.

The interpolant of order n takes n + 1 values, such as those of
KnotValueList.equispaced, at the knots 0, 1/n, ..., 1 (n = 0: the single
knot 0) and is built in Newton form, so its x^n coefficient is exactly
the order-n divided difference at those knots.  The interpolant drops to
degree n-1 or lower precisely when that divided difference vanishes.

The Newton form is assembled on integers: in t = n x the Newton basis is
the falling factorial t (t - 1) ... (t - k + 1), the weights are put over
one common denominator, and each x^j coefficient is reduced to a Fraction
once at the end.
"""

import math
from fractions import Fraction
from typing import Sequence

from .differences import KnotValueList, _equispaced_knots, newton_coefficients
from .poly import Polynomial, Scalar


def lagrange_equispaced(values: Sequence[Scalar]) -> Polynomial:
    """Interpolant through the values at k/n, n = len(values) - 1, in Newton form.

    In t = n x the knots are t = 0..n and the Newton basis is the falling
    factorial prod_{i<k} (t - i), so q(x) = sum_k (c_k / n^k) prod_{i<k} (t - i).
    The weights c_k / n^k are put over one common denominator B, the
    integer polynomial in t is built by nested multiplication, and the x^j
    coefficient is its t^j coefficient times n^j / B."""
    n = len(values) - 1
    coeffs = newton_coefficients(KnotValueList(_equispaced_knots(n), values))
    dens = [c.denominator * n**k for k, c in enumerate(coeffs)]
    common = math.lcm(*dens)
    weights = [c.numerator * (common // d) for c, d in zip(coeffs, dens)]
    # acc <- acc * (t - k) + w_k for k = n-1 down to 0, on ascending coefficients.
    acc = [weights[n]]
    for k in range(n - 1, -1, -1):
        middle = [lo - k * hi for lo, hi in zip(acc, acc[1:])]
        acc = [weights[k] - k * acc[0]] + middle + [acc[-1]]
    return Polynomial(tuple(Fraction(c * n**j, common) for j, c in enumerate(acc)))


def leading_coefficient(q: Polynomial, n: int) -> Fraction:
    """Coefficient of x^n in q, treating q as a polynomial of formal order n.

    Returns 0 when deg(q) < n; a q of genuinely larger degree is an error.
    """
    if q.degree > n:
        raise ValueError(f"degree {q.degree} exceeds formal order {n}")
    return q.coefficient(n)


def degree_reduced(values: Sequence[Scalar]) -> bool:
    """True when the interpolant of the values has degree below n = len(values) - 1."""
    n = len(values) - 1
    if n < 1:
        raise ValueError("order must be at least 1")
    return leading_coefficient(lagrange_equispaced(values), n) == 0
