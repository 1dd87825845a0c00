"""Exactly evaluable function descriptions and uniform grid functions.

Three kinds of functions evaluate exactly at any rational point:
polynomials, ratios of polynomials, and piecewise-linear interpolants of
values on the uniform grid {k/L}.  Each description optionally carries a
zero extension: evaluation outside [0, 1] then returns exactly 0.  The
shift-averaging machinery relies on that extension, so it is an explicit
flag rather than a convention.

Shift sums and equispaced samples ask for f at lattice points t/D, t an
integer, through FuncSpec.pairs(D): the map t -> (a, b), b > 0, with
f(t/D) = a/b, not reduced.  Every kind gives pairs, and evaluate(x)
reads the pair of x.  No kind makes a Fraction per point.  A polynomial
or a rational function computes its pairs as integer Horner sums
(Polynomial.integer_sum).  A grid interpolates its values, cached as
integers over their common denominator M, so that every point of a
lattice shares the one denominator M D (GridFunction.pairs).

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

    Only nonzero entries are stored; absent grid indices hold 0.  Between
    grid points the function is the linear interpolant of the neighbouring
    values, so a GridFunction is also a piecewise-linear function on [0, 1].
    Its pairs read the values' cached integer form, which is not a field.
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

    def pairs(self, D: int, clip: bool = False) -> Callable[[int], Pair]:
        """t -> (V_k (D - r) + V_(k+1) r, M D) for t L = k D + r, 0 <= r < D,
        the interpolant at t/D, for D >= 1.  A point outside [0, 1] gives
        (0, 1) when clip is set and raises DomainEvaluationError otherwise."""
        M, V = self._integer_form
        L, b, get = self.denominator, M * D, V.get

        def pair(t: int) -> Pair:
            if not 0 <= t <= D:
                if clip:
                    return 0, 1
                raise DomainEvaluationError(f"{Fraction(t, D)} is outside [0, 1]")
            s = t * L
            k = s // D
            r = s - k * D
            # At t = D, k = L and r = 0, so the absent V_(L+1) weighs 0.
            return get(k, 0) * (D - r) + get(k + 1, 0) * r, b

        return pair

    def evaluate(self, x: Scalar) -> Fraction:
        x = Fraction(x)
        return Fraction(*self.pairs(x.denominator)(x.numerator))

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
    gives pairs, with the zero extension applied, and evaluate reads
    the pair of its point."""

    extended_by_zero: bool

    def evaluate(self, x: Scalar) -> Fraction:
        if type(x) is not Fraction:
            x = Fraction(x)
        return Fraction(*self.pairs(x.denominator)(x.numerator))

    def pairs(self, D: int) -> Callable[[int], Pair]:
        """The map t -> (a, b), b > 0, with f(t/D) = a/b, for D >= 1."""
        raise NotImplementedError(f"{type(self).__name__} gives no pairs")


@dataclass(frozen=True)
class PolynomialFunc(FuncSpec):
    poly: Polynomial
    extended_by_zero: bool = False

    def pairs(self, D: int) -> Callable[[int], Pair]:
        """t -> (P(t), E) from the polynomial's integer sum."""
        P, E = self.poly.integer_sum(D)
        clip = self.extended_by_zero
        return lambda t: (0, 1) if clip and not 0 <= t <= D else (P(t), E)


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
        clip = self.extended_by_zero

        def pair(t: int) -> Pair:
            if clip and not 0 <= t <= D:
                return 0, 1
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
        """The grid's integer pairs, each over the one denominator M D."""
        return self.grid.pairs(D, clip=self.extended_by_zero)


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
