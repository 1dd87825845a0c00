"""Dense univariate polynomial arithmetic over exact rationals.

A polynomial is a tuple of Fraction coefficients in ascending degree with
trailing zeros trimmed, so structural equality is value equality.  The
zero polynomial is the empty tuple and reports degree -inf instead of
pretending to have degree 0.

Evaluation runs on integers: the coefficients are written once, and
cached, as integers C_k over their common denominator D, Horner's rule
runs on the integer numerator and denominator of x, and the value is
reduced to a Fraction once.  The cache is not a field, so it takes no
part in equality, hashing or repr.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Union

Scalar = Union[int, Fraction]


def binomial(n: int, j: int) -> int:
    """Exact C(n, j); j outside 0..n is an error, not a zero."""
    if not 0 <= j <= n:
        raise ValueError(f"binomial index out of range: C({n}, {j})")
    return math.comb(n, j)


@dataclass(frozen=True)
class Polynomial:
    coefficients: tuple[Fraction, ...] = ()

    def __post_init__(self) -> None:
        coeffs = tuple(Fraction(c) for c in self.coefficients)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coefficients", coeffs)

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls(())

    @classmethod
    def constant(cls, c: Scalar) -> "Polynomial":
        return cls((Fraction(c),))

    @classmethod
    def monomial(cls, degree: int, coefficient: Scalar = 1) -> "Polynomial":
        if degree < 0:
            raise ValueError("monomial degree must be nonnegative")
        return cls((Fraction(0),) * degree + (Fraction(coefficient),))

    @property
    def is_zero(self) -> bool:
        return not self.coefficients

    @property
    def degree(self) -> Union[int, float]:
        """Degree, or -inf for the zero polynomial."""
        if not self.coefficients:
            return float("-inf")
        return len(self.coefficients) - 1

    @property
    def leading(self) -> Fraction:
        """Top coefficient; 0 for the zero polynomial."""
        return self.coefficients[-1] if self.coefficients else Fraction(0)

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
        """Horner evaluation, exact: at x = a/b the integer Horner sum
        sum_i C_i a^i b^(d-i) is divided by D b^d once."""
        x = Fraction(x)
        den, nums = self._integer_form
        if not nums:
            return Fraction(0)
        a, b = x.numerator, x.denominator
        acc = nums[-1]
        power = 1
        for c in reversed(nums[:-1]):
            power *= b
            acc = acc * a + c * power
        return Fraction(acc, den * power)

    def derivative(self, order: int = 1) -> "Polynomial":
        if order < 0:
            raise ValueError("derivative order must be nonnegative")
        coeffs = self.coefficients
        for _ in range(order):
            coeffs = tuple(Fraction(k) * coeffs[k] for k in range(1, len(coeffs)))
        return Polynomial(coeffs)

    def antiderivative(self) -> "Polynomial":
        """Antiderivative with constant term 0."""
        lifted = tuple(c / (k + 1) for k, c in enumerate(self.coefficients))
        return Polynomial((Fraction(0),) + lifted)

    def shifted(self, h: Scalar) -> "Polynomial":
        """The polynomial x -> p(x + h)."""
        base = Polynomial((Fraction(h), Fraction(1)))
        acc = Polynomial.zero()
        for c in reversed(self.coefficients):
            acc = acc * base + Polynomial.constant(c)
        return acc

    def window_integral(self, h: Scalar) -> "Polynomial":
        """q with q(x) equal to the integral of p over [x, x + h], h > 0."""
        h = Fraction(h)
        if h <= 0:
            raise ValueError("window width must be positive")
        anti = self.antiderivative()
        return anti.shifted(h) - anti

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        summed = list(a)
        for k, c in enumerate(b):
            summed[k] += c
        return Polynomial(summed)

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.coefficients))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: Union["Polynomial", Scalar]) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return Polynomial(tuple(c * other for c in self.coefficients))
        a, b = self.coefficients, other.coefficients
        if not a or not b:
            return Polynomial.zero()
        prod = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                prod[i + j] += ca * cb
        return Polynomial(prod)

    def __rmul__(self, other: Scalar) -> "Polynomial":
        return self * other

    def __str__(self) -> str:
        if not self.coefficients:
            return "0"
        parts = []
        for k, c in enumerate(self.coefficients):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append(f"{c}*x" if c != 1 else "x")
            else:
                parts.append(f"{c}*x^{k}" if c != 1 else f"x^{k}")
        return " + ".join(parts)
