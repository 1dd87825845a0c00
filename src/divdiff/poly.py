"""Univariate polynomials over exact rationals, evaluated exactly.

A polynomial is a tuple of Fraction coefficients in ascending degree with
trailing zeros trimmed, so structural equality is value equality.  The
zero polynomial is the empty tuple and reports degree -inf instead of
pretending to have degree 0.

Evaluation runs on integers.  The coefficients are written once, and
cached, as integers C_k over their common denominator; the cache is not
a field, so it takes no part in equality, hashing or repr.
integer_sum(D) scales them by the powers of D once, so that
p(t/D) = P(t)/E at every integer t, for one denominator E and an
integer Horner sum P(t): along the lattice of a shift sum a point costs
d integer multiply-adds and no Fraction at all.  evaluate(a/b) is the
same sum with D = b, reduced to a Fraction once, so the one Horner loop
is the one in integer_sum.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Callable, Iterable, Union

Scalar = Union[int, Fraction]


def _fractions(items: Iterable[Scalar]) -> tuple[Fraction, ...]:
    """The items as Fractions; a Fraction is kept as it is."""
    return tuple(x if type(x) is Fraction else Fraction(x) for x in items)


@dataclass(frozen=True)
class Polynomial:
    coefficients: tuple[Fraction, ...] = ()

    def __post_init__(self) -> None:
        coeffs = list(_fractions(self.coefficients))
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coefficients", tuple(coeffs))

    @property
    def is_zero(self) -> bool:
        return not self.coefficients

    @property
    def degree(self) -> Union[int, float]:
        """Degree, or -inf for the zero polynomial."""
        if not self.coefficients:
            return float("-inf")
        return len(self.coefficients) - 1

    def coefficient(self, k: int) -> Fraction:
        if 0 <= k < len(self.coefficients):
            return self.coefficients[k]
        return Fraction(0)

    @cached_property
    def _integer_form(self) -> tuple[int, tuple[int, ...]]:
        """(D, (C_0, ..., C_d)) with coefficient k equal to C_k / D."""
        den = math.lcm(*(c.denominator for c in self.coefficients))
        nums = tuple(c.numerator * (den // c.denominator) for c in self.coefficients)
        return den, nums

    def evaluate(self, x: Scalar) -> Fraction:
        """p(x), exact: at x = a/b, the integer sum P(a) over E for D = b."""
        x = Fraction(x)
        P, E = self.integer_sum(x.denominator)
        return Fraction(P(x.numerator), E)

    def integer_sum(self, D: int) -> tuple[Callable[[int], int], int]:
        """(P, E) with p(t/D) = P(t)/E at every integer t, for D >= 1.

        P(t) = sum_k C_k D^(d-k) t^k, its coefficients scaled once here,
        and E = den D^d with den the common denominator of the integer
        form; E > 0.  The zero polynomial gives P = 0 and E = 1."""
        den, nums = self._integer_form
        d = len(nums) - 1
        scaled = [c * D ** (d - k) for k, c in enumerate(nums)]
        scaled.reverse()

        def P(t: int) -> int:
            acc = 0
            for c in scaled:
                acc = acc * t + c
            return acc

        return P, den * D ** max(d, 0)

    # Kept with no caller in the package: perfbench times it as its poly.mul layer.
    def __mul__(self, other: Union["Polynomial", Scalar]) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return Polynomial(tuple(c * other for c in self.coefficients))
        a, b = self.coefficients, other.coefficients
        if not a or not b:
            return Polynomial()
        prod = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                prod[i + j] += ca * cb
        return Polynomial(prod)
