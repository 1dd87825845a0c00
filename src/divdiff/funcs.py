"""Exactly evaluable function descriptions and uniform grid functions.

Three kinds of functions evaluate exactly at any rational point of their
domain: polynomials, ratios of polynomials, and piecewise-linear
interpolants of values on the uniform grid {k/L} of [0, 1].  Each
description optionally carries a zero extension, f = 0 outside [0, 1],
which the shift-averaging machinery relies on.

Sums and samples ask for f at points t/D, t an integer, through
FuncSpec.pairs(D): the map t -> (a, b), b > 0, with f(t/D) = a/b, not
reduced.  A kind's pairs give its own values, never the extension, which
is applied where points are chosen: FuncSpec.evaluate returns 0 outside
[0, 1], and a sum's lattice asks a zero-extended f only for the points
inside.  No kind makes a Fraction per point.  A polynomial or a rational
function computes its pairs as integer Horner sums
(Polynomial.integer_sum); PiecewiseLinearFunc interpolates its grid's
values, cached as integers over their common denominator M, so every
point of a lattice shares the one denominator M D.

Text syntax accepted by parse_funcspec:

    poly:a0,a1,...          coefficients in ascending degree
    ratfun:a0,...;b0,...    numerator then denominator coefficients
    pl:<path>               grid file, header "L=<int>", lines "k,<p/q>"

with every scalar written as "p/q" or a bare integer.
"""

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Callable

from .errors import DomainEvaluationError, ParseError, PoleError
from .poly import Polynomial, Scalar
from .rational import parse_integer, parse_rational, parse_rationals

ZERO = Fraction(0)

Pair = tuple[int, int]  # (a, b), b > 0: the value a/b, not reduced


@dataclass(frozen=True)
class GridFunction:
    """Values on the uniform grid {k/denominator : 0 <= k <= denominator}.

    Only nonzero entries are stored; absent grid indices hold 0.  A grid
    holds values only; PiecewiseLinearFunc interpolates them, reading
    their cached integer form, which is not a field.
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

    @cached_property
    def _integer_form(self) -> tuple[int, dict[int, int]]:
        """(M, V) with the value at grid index k equal to V.get(k, 0) / M."""
        M = math.lcm(*(v.denominator for v in self.entries.values()))
        return M, {k: v.numerator * (M // v.denominator) for k, v in self.entries.items()}

    def sup_norm(self) -> Fraction:
        """Max of |value| over the grid; extrema of the interpolant sit on
        knots.  It is max |V_k| / M from the integer form, one Fraction."""
        M, V = self._integer_form
        return Fraction(max(map(abs, V.values()), default=0), M)

    def lipschitz_constant(self) -> Fraction:
        """Largest slope magnitude of the piecewise-linear interpolant."""
        L = self.denominator
        return max(L * abs(self.value(k + 1) - self.value(k)) for k in range(L))


class FuncSpec:
    """A function on the rationals that evaluates exactly.  Every kind
    gives pairs of its own values; evaluate applies the zero extension
    and otherwise reads the pair of its point."""

    extended_by_zero: bool

    def evaluate(self, x: Scalar) -> Fraction:
        if type(x) is not Fraction:
            x = Fraction(x)
        if self.extended_by_zero and not 0 <= x <= 1:
            return ZERO
        return Fraction(*self.pairs(x.denominator)(x.numerator))

    def pairs(self, D: int) -> Callable[[int], Pair]:
        """The map t -> (a, b), b > 0, with f(t/D) = a/b, for D >= 1, the
        zero extension not applied."""
        raise NotImplementedError(f"{type(self).__name__} gives no pairs")


@dataclass(frozen=True)
class PolynomialFunc(FuncSpec):
    poly: Polynomial
    extended_by_zero: bool = False

    def pairs(self, D: int) -> Callable[[int], Pair]:
        """t -> (P(t), E) from the polynomial's integer sum."""
        P, E = self.poly.integer_sum(D)
        return lambda t: (P(t), E)


@dataclass(frozen=True)
class RationalFunc(FuncSpec):
    numerator: Polynomial
    denominator: Polynomial
    extended_by_zero: bool = False

    def __post_init__(self) -> None:
        if self.denominator.is_zero:
            raise ParseError("denominator is the zero polynomial")

    def pairs(self, D: int) -> Callable[[int], Pair]:
        """t -> (P(t) F, Q(t) E) for the integer sums P/E of the numerator
        and Q/F of the denominator, signs turned so that b > 0."""
        P, E = self.numerator.integer_sum(D)
        Q, F = self.denominator.integer_sum(D)

        def pair(t: int) -> Pair:
            b = Q(t) * E
            if b == 0:
                raise PoleError(Fraction(t, D))
            a = P(t) * F
            return (a, b) if b > 0 else (-a, -b)

        return pair


@dataclass(frozen=True)
class PiecewiseLinearFunc(FuncSpec):
    grid: GridFunction
    extended_by_zero: bool = False

    def pairs(self, D: int) -> Callable[[int], Pair]:
        """t -> (V_k (D - r) + V_(k+1) r, M D) for t L = k D + r, 0 <= r < D,
        the grid's interpolant at t/D; a point outside [0, 1], which a sum
        asks for only when f is not zero-extended, raises
        DomainEvaluationError."""
        M, V = self.grid._integer_form
        L, b, get = self.grid.denominator, M * D, V.get

        def pair(t: int) -> Pair:
            if not 0 <= t <= D:
                raise DomainEvaluationError(f"{Fraction(t, D)} is outside [0, 1]")
            s = t * L
            k = s // D
            r = s - k * D
            # At t = D, k = L and r = 0, so the absent V_(L+1) weighs 0.
            return get(k, 0) * (D - r) + get(k + 1, 0) * r, b

        return pair


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
