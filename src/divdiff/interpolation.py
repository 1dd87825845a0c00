"""Equispaced polynomial interpolation and the degree-reduction test.

The interpolant of order n matches a function at the knots 0, 1/n, ..., 1
and is built in Newton form, so its x^n coefficient is exactly the order-n
divided difference at those knots.  The interpolant drops to degree n-1 or
lower precisely when that divided difference vanishes.

The Newton form is assembled on integers: in t = n x the Newton basis is
the falling factorial t (t - 1) ... (t - k + 1), the weights are put over
one common denominator, and each x^j coefficient is reduced to a Fraction
once at the end.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .differences import KnotValueList, _equispaced_knots, newton_coefficients
from .funcs import FuncSpec
from .poly import Polynomial


@dataclass(frozen=True)
class EquispacedSample:
    """Values of a function at the knots k/n; n = 0 means the single knot 0."""

    n: int
    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("order must be nonnegative")
        values = tuple(Fraction(v) for v in self.values)
        if len(values) != self.n + 1:
            raise ValueError(f"expected {self.n + 1} values, got {len(values)}")
        object.__setattr__(self, "values", values)

    @property
    def knots(self) -> tuple[Fraction, ...]:
        return _equispaced_knots(self.n)

    @classmethod
    def from_function(cls, f: FuncSpec, n: int) -> "EquispacedSample":
        return cls(n, KnotValueList.equispaced(f, n).values)


def lagrange_equispaced(sample: EquispacedSample) -> Polynomial:
    """Interpolating polynomial through the sample, assembled in Newton form.

    In t = n x the knots are t = 0..n and the Newton basis is the falling
    factorial prod_{i<k} (t - i), so q(x) = sum_k (c_k / n^k) prod_{i<k} (t - i).
    The weights c_k / n^k are put over one common denominator B, the
    integer polynomial in t is built by nested multiplication, and the x^j
    coefficient is its t^j coefficient times n^j / B."""
    n = sample.n
    kv = KnotValueList(tuple(zip(sample.knots, sample.values)))
    coeffs = newton_coefficients(kv)
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


def degree_reduced(sample: EquispacedSample) -> bool:
    """True when the order-n interpolant has degree strictly below n."""
    if sample.n < 1:
        raise ValueError("order must be at least 1")
    return leading_coefficient(lagrange_equispaced(sample), sample.n) == 0
