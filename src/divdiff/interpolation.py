"""Equispaced polynomial interpolation and its leading coefficient.

The interpolant of order n takes n + 1 values at the knots 0, 1/n, ...,
1 (n = 0: the single knot 0) and is built in Newton form, so its x^n
coefficient is exactly the order-n divided difference at those knots.
The interpolant drops to degree n-1 or lower precisely when that divided
difference vanishes.  Q_n, the interpolant of a function f, is built
from f's integer pairs at the knots, with no Fraction per knot
(_equispaced_interpolant).

The Newton form is assembled on integers: in t = n x the knots are
t = 0..n, the Newton basis is the falling factorial t (t - 1) ... (t - k + 1),
and its weights are the forward differences of the values over k!
(Gregory-Newton).  With the values put over one common denominator as
integers, the differences are integer subtractions, the weights share
one denominator, and each x^j coefficient is reduced to a Fraction once
at the end.
"""

import math
from fractions import Fraction
from typing import Sequence

from .differences import _equispaced_pairs
from .funcs import FuncSpec, Pair
from .poly import Polynomial, Scalar


def lagrange_equispaced(values: Sequence[Scalar]) -> Polynomial:
    """Interpolant through the values at k/n, n = len(values) - 1, in Newton form.

    In t = n x the knots are t = 0..n and the Newton basis is the falling
    factorial prod_{i<k} (t - i), so q(x) = sum_k (Delta^k y_0 / k!) prod_{i<k} (t - i).
    With Y_k = y_k D integers over the lcm D of the denominators, the
    weights are Delta^k Y_0 n!/k! over B = D n!; the integer polynomial in
    t is built by nested multiplication, and the x^j coefficient is its
    t^j coefficient times n^j / B.  The difference passes stop at the
    first all-zero row and the multiplication starts at the last nonzero
    weight, so values of degree d cost O(d n) steps, not O(n^2)."""
    # An int is its own numerator over 1: only other values become Fractions.
    ys = [y if type(y) in (int, Fraction) else Fraction(y) for y in values]
    n = len(ys) - 1
    if n < 0:
        raise ValueError("order must be nonnegative")
    den = math.lcm(*(y.denominator for y in ys))
    weights = [y.numerator * (den // y.denominator) for y in ys]
    # In place, so one row of differences is alive: pass k leaves
    # Delta^k Y_{i-k} at each i >= k, and Delta^k Y_0 at k for good.  Once
    # that row is all zero, so is every later one, and the top weight is
    # Delta^(k-1) Y_0.
    top = n
    for k in range(1, n + 1):
        for i in range(n, k - 1, -1):
            weights[i] -= weights[i - 1]
        if not any(weights[k:]):
            top = k - 1
            break
    # weights[k] *= n!/k!, the falling product n (n - 1) ... (k + 1), for
    # the weights 0..top the multiplication reads.
    ratio = math.perm(n, n - top)
    for k in range(top, 0, -1):
        weights[k] *= ratio
        ratio *= k
    weights[0] *= ratio
    common = den * ratio
    # acc <- acc * (t - k) + w_k for k = top-1 down to 0, on ascending coefficients.
    acc = [weights[top]]
    for k in range(top - 1, -1, -1):
        middle = [lo - k * hi for lo, hi in zip(acc, acc[1:])]
        acc = [weights[k] - k * acc[0]] + middle + [acc[-1]]
    return Polynomial(tuple(Fraction(c * n**j, common) for j, c in enumerate(acc)))


def _equispaced_interpolant(f: FuncSpec, n: int) -> tuple[list[Pair], Polynomial]:
    """f's pairs at the knots k/n, asked for in ascending k, so the first
    pole raised is at the lowest k, and Q_n, the interpolant through them.

    The pairs a/b become the integers a (D/b) over their common
    denominator D, and the interpolant of those is divided by D once."""
    pairs = _equispaced_pairs(f, n)
    den = math.lcm(*(b for _, b in pairs))
    q = lagrange_equispaced([a * (den // b) for a, b in pairs])
    return pairs, Polynomial(tuple(c / den for c in q.coefficients))


def leading_coefficient(q: Polynomial, n: int) -> Fraction:
    """Coefficient of x^n in q, treating q as a polynomial of formal order n.

    Returns 0 when deg(q) < n; a q of genuinely larger degree is an error.
    """
    if q.degree > n:
        raise ValueError(f"degree {q.degree} exceeds formal order {n}")
    return q.coefficient(n)

