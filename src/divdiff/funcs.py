"""Exactly evaluable function descriptions and uniform grid functions.

Three kinds of functions evaluate exactly at any rational point:
polynomials, ratios of polynomials, and piecewise-linear interpolants of
values on the uniform grid {k/L}.  Each description optionally carries a
zero extension: evaluation outside [0, 1] then returns exactly 0.  The
shift-averaging machinery relies on that extension, so it is an explicit
flag rather than a convention.

Text syntax accepted by parse_funcspec:

    poly:a0,a1,...          coefficients in ascending degree
    ratfun:a0,...;b0,...    numerator then denominator coefficients
    pl:<path>               grid file, header "L=<int>", lines "k,<p/q>"

with every scalar written as "p/q" or a bare integer.
"""

import abc
import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainEvaluationError, ParseError, PoleError
from .poly import Polynomial, Scalar
from .rational import parse_integer, parse_rational, parse_rationals

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class GridFunction:
    """Values on the uniform grid {k/denominator : 0 <= k <= denominator}.

    Only nonzero entries are stored; absent grid indices hold 0.  Between
    grid points the function is the linear interpolant of the neighbouring
    values, so a GridFunction is also a piecewise-linear function on [0, 1].
    """

    denominator: int
    entries: dict[int, Fraction]

    def __post_init__(self) -> None:
        # operator.index refuses a float, Fraction or str; int() truncates.
        if operator.index(self.denominator) < 1:
            raise ValueError("grid denominator must be at least 1")
        cleaned: dict[int, Fraction] = {}
        for k, v in self.entries.items():
            k = operator.index(k)
            if not 0 <= k <= self.denominator:
                raise ValueError(f"grid index {k} outside 0..{self.denominator}")
            v = Fraction(v)
            if v != 0:
                cleaned[k] = v
        object.__setattr__(self, "entries", cleaned)

    def value(self, k: int) -> Fraction:
        k = operator.index(k)
        if not 0 <= k <= self.denominator:
            raise ValueError(f"grid index {k} outside 0..{self.denominator}")
        return self.entries.get(k, ZERO)

    def dense(self) -> tuple[Fraction, ...]:
        return tuple(self.value(k) for k in range(self.denominator + 1))

    def evaluate(self, x: Scalar) -> Fraction:
        x = Fraction(x)
        if not 0 <= x <= 1:
            raise DomainEvaluationError(f"{x} is outside [0, 1]")
        scaled = x * self.denominator
        k = scaled.numerator // scaled.denominator
        if k == self.denominator:
            return self.value(k)
        t = scaled - k
        lo = self.value(k)
        hi = self.value(k + 1)
        return lo + (hi - lo) * t

    def sup_norm(self) -> Fraction:
        """Max of |value| over the grid; extrema of the interpolant sit on knots."""
        if not self.entries:
            return ZERO
        return max(abs(v) for v in self.entries.values())

    def lipschitz_constant(self) -> Fraction:
        """Largest slope magnitude of the piecewise-linear interpolant."""
        L = self.denominator
        return max(L * abs(self.value(k + 1) - self.value(k)) for k in range(L))


class FuncSpec(abc.ABC):
    """A function on the rationals that evaluates exactly."""

    extended_by_zero: bool

    def evaluate(self, x: Scalar) -> Fraction:
        if type(x) is not Fraction:
            x = Fraction(x)
        # 0 <= x <= 1 on the integers, as the denominator is positive.
        if self.extended_by_zero and not 0 <= x.numerator <= x.denominator:
            return ZERO
        return self._evaluate(x)

    @abc.abstractmethod
    def _evaluate(self, x: Fraction) -> Fraction: ...

@dataclass(frozen=True)
class PolynomialFunc(FuncSpec):
    poly: Polynomial
    extended_by_zero: bool = False

    def _evaluate(self, x: Fraction) -> Fraction:
        return self.poly.evaluate(x)


@dataclass(frozen=True)
class RationalFunc(FuncSpec):
    numerator: Polynomial
    denominator: Polynomial
    extended_by_zero: bool = False

    def __post_init__(self) -> None:
        if self.denominator.is_zero:
            raise ParseError("denominator is the zero polynomial")

    def _evaluate(self, x: Fraction) -> Fraction:
        den = self.denominator.evaluate(x)
        if den == 0:
            raise PoleError(x)
        return self.numerator.evaluate(x) / den


@dataclass(frozen=True)
class PiecewiseLinearFunc(FuncSpec):
    grid: GridFunction
    extended_by_zero: bool = False

    def _evaluate(self, x: Fraction) -> Fraction:
        return self.grid.evaluate(x)


def parse_funcspec(text: str, extend_zero: bool = False) -> FuncSpec:
    """Parse the poly:/ratfun:/pl: text syntax into a FuncSpec."""
    if text.startswith("poly:"):
        coeffs = parse_rationals(text[len("poly:"):])
        return PolynomialFunc(Polynomial(coeffs), extended_by_zero=extend_zero)
    if text.startswith("ratfun:"):
        body = text[len("ratfun:"):]
        parts = body.split(";")
        if len(parts) != 2:
            raise ParseError("ratfun needs numerator and denominator separated by ';'")
        num, den = (Polynomial(parse_rationals(part)) for part in parts)
        return RationalFunc(num, den, extended_by_zero=extend_zero)
    if text.startswith("pl:"):
        grid = load_grid_function(text[len("pl:"):])
        return PiecewiseLinearFunc(grid, extended_by_zero=extend_zero)
    raise ParseError(f"unknown function kind: {text!r}")


def load_grid_function(path: str) -> GridFunction:
    """Read a grid file: header "L=<int>", then lines "k,<p/q>".

    Grid indices not listed default to 0; an index listed twice is an error.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh]
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read grid file {path!r}: {exc}") from exc
    lines = [ln for ln in lines if ln]
    if not lines or not lines[0].startswith("L="):
        raise ParseError(f"grid file {path!r} must start with an L=<integer> header")
    try:
        L = parse_integer(lines[0][2:])
    except ParseError:
        raise ParseError(f"bad grid header {lines[0]!r}") from None
    if L < 1:
        raise ParseError("grid denominator must be at least 1")
    entries: dict[int, Fraction] = {}
    for ln in lines[1:]:
        fields = ln.split(",")
        if len(fields) != 2:
            raise ParseError(f"bad grid line {ln!r}")
        try:
            k = parse_integer(fields[0])
        except ParseError:
            raise ParseError(f"bad grid index in line {ln!r}") from None
        if not 0 <= k <= L:
            raise ParseError(f"grid index {k} outside 0..{L}")
        if k in entries:
            raise ParseError(f"grid index {k} listed twice")
        entries[k] = parse_rational(fields[1])
    return GridFunction(L, entries)
