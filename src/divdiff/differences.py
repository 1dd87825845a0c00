"""Divided and finite differences over exact rationals.

The divided difference of order n at distinct knots x_0..x_n is

    sum_k f(x_k) / W'(x_k),    W(x) = (x - x_0) ... (x - x_n),

and the forward finite difference with step h is

    D_h^n f(x) = sum_{j=0..n} (-1)^(n-j) C(n, j) f(x + j h).

Note (-1)^(n-j) and (-1)^(n+j) agree for all integers, so either parity
convention yields the same operator.  At the equispaced knots k/n the two
notions are connected exactly:

    f[0, 1/n, ..., 1] = D_{1/n}^n f(0) / (n! (1/n)^n),

which check_equispaced_identity verifies as an exact comparison.  Order 0
is defined as f(x_0) for divided differences and f(x) for finite ones.
finite_difference is the shift average of probes over the one shift
i = 1, summed with integer weights on the same lattice of points x + m h.

The two divided-difference kernels work on integers: each scales the
knots by the lcm D of their denominators to integers a_k = x_k D.  The
direct sum forms W'(x_k) D^n as the integer product
prod_{i != k} (a_k - a_i) and adds the terms over one common denominator.
The recursive table keeps each column as integer numerators over one
denominator, reduced by one gcd per column.  Each kernel reduces to a
Fraction once, at the end.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator

from .errors import DuplicateKnotError
from .funcs import FuncSpec
from .poly import Scalar, binomial


@dataclass(frozen=True)
class KnotValueList:
    """Distinct knots and the function values at them, entry by entry."""

    knots: tuple[Fraction, ...]
    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        knots = tuple(Fraction(x) for x in self.knots)
        values = tuple(Fraction(v) for v in self.values)
        if len(knots) != len(values):
            raise ValueError(f"got {len(knots)} knots but {len(values)} values; they must match")
        if not knots:
            raise ValueError("need at least one knot")
        seen: set[Fraction] = set()
        for x in knots:
            if x in seen:
                raise DuplicateKnotError(x)
            seen.add(x)
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "values", values)

    @property
    def order(self) -> int:
        return len(self.knots) - 1

    @classmethod
    def from_function(cls, f: FuncSpec, knots: Iterable[Scalar]) -> "KnotValueList":
        knots = tuple(Fraction(x) for x in knots)
        return cls(knots, tuple(f.evaluate(x) for x in knots))

    @classmethod
    def equispaced(cls, f: FuncSpec, n: int) -> "KnotValueList":
        """Knots k/n for k = 0..n; n = 0 degenerates to the single knot 0."""
        return cls.from_function(f, _equispaced_knots(n))


def _equispaced_knots(n: int) -> tuple[Fraction, ...]:
    if n < 0:
        raise ValueError("order must be nonnegative")
    if n == 0:
        return (Fraction(0),)
    return tuple(Fraction(k, n) for k in range(n + 1))


def divided_difference_direct(kv: KnotValueList) -> Fraction:
    """Sum of f(x_k) / W'(x_k) over the knots.

    With a_k = x_k D integers, W'(x_k) = P_k / D^n for the integer
    P_k = prod_{i != k} (a_k - a_i); the terms f(x_k) / P_k are summed
    over the lcm of their denominators and rescaled by D^n once."""
    # The knots are scaled here and in _difference_columns separately, so
    # the two kernels share no code and stay independent oracles.
    scale = math.lcm(*(x.denominator for x in kv.knots))
    points = [x.numerator * (scale // x.denominator) for x in kv.knots]
    dens = [
        v.denominator * math.prod(ak - ai for ai in points if ai != ak)
        for ak, v in zip(points, kv.values)
    ]
    common = math.lcm(*dens)
    total = sum(v.numerator * (common // d) for v, d in zip(kv.values, dens))
    return Fraction(total * scale**kv.order, common)


def _difference_columns(kv: KnotValueList) -> Iterator[tuple[list[int], int]]:
    """Columns of the recursive difference table, fraction-free.

    Column d is yielded as (numerators, denominator): its entry for
    i = d..n is the order-d divided difference at knots i-d..i, equal to
    numerators[i - d] / denominator.  The knots enter as a_i = x_i D with
    integer a_i, so a step is (t_i - t_{i-1}) D / (a_i - a_{i-d}); each
    column takes the lcm of its knot gaps into its denominator and is
    reduced by one gcd, so it is in lowest terms as a whole."""
    scale = math.lcm(*(x.denominator for x in kv.knots))
    points = [x.numerator * (scale // x.denominator) for x in kv.knots]
    den = math.lcm(*(v.denominator for v in kv.values))
    column = [v.numerator * (den // v.denominator) for v in kv.values]
    yield column, den
    for depth in range(1, len(points)):
        gaps = [points[i] - points[i - depth] for i in range(depth, len(points))]
        lcm = math.lcm(*gaps)
        column = [
            (hi - lo) * scale * (lcm // gap)
            for hi, lo, gap in zip(column[1:], column, gaps)
        ]
        den *= lcm
        # Entries depth + 1 apart, and the last one, have windows covering
        # every knot, so their gcd with den is already small and the pass
        # over the whole column runs on small numbers.
        g = math.gcd(den, *column[:: depth + 1], column[-1], *column)
        if g > 1:
            den //= g
            column = [c // g for c in column]
        yield column, den


def newton_coefficients(kv: KnotValueList) -> tuple[Fraction, ...]:
    """Entry k is the order-k divided difference at the first k+1 knots,
    computed by the recursive difference table."""
    return tuple(Fraction(column[0], den) for column, den in _difference_columns(kv))


def divided_difference_recursive(kv: KnotValueList) -> Fraction:
    """Top entry of the recursive difference table; oracle for the direct sum."""
    return newton_coefficients(kv)[-1]


def difference_stencil(n: int) -> tuple[int, ...]:
    """The weights (-1)^(n-j) C(n, j), j = 0..n, of the order-n forward
    difference: D_h^n f(x) = sum_j w_j f(x + j h)."""
    return tuple((-1) ** (n - j) * binomial(n, j) for j in range(n + 1))


class _Lattice:
    """The points x + m*h, m an integer, each evaluated at most once.

    With D = lcm(den x, den h), point m is (base + m*step) / D for the
    integers base = x*D and step = h*D.  values maps m to the value at
    point m.  When clip is set the function vanishes outside [0, 1], so
    only the m in lo..hi, the points inside, are ever evaluated.
    """

    def __init__(
        self, evaluate: Callable[[Fraction], Fraction], x: Fraction, h: Fraction, clip: bool
    ):
        self.evaluate = evaluate
        self.D = D = math.lcm(x.denominator, h.denominator)
        self.base = base = x.numerator * (D // x.denominator)
        self.step = step = h.numerator * (D // h.denominator)
        self.clip = clip
        if clip:
            self.lo, self.hi = -(base // step), (D - base) // step
        self.values: dict[int, Fraction] = {}

    def shifts(self, j: int, lo: int, hi: int, offset: int = 0) -> range:
        """The i in lo..hi whose point offset + i*j is inside, for j > 0."""
        if self.clip:
            lo = max(lo, -((offset - self.lo) // j))
            hi = min(hi, (self.hi - offset) // j)
        return range(lo, hi + 1)

    def add(
        self, weights: dict[int, int], w: int, j: int, lo: int, hi: int, offset: int = 0
    ) -> None:
        """weights[offset + i*j] += w for each i in lo..hi whose point is
        inside, in ascending i."""
        if j == 0:  # every i gives the point offset itself
            if not self.clip or self.lo <= offset <= self.hi:
                weights[offset] = weights.get(offset, 0) + w * (hi - lo + 1)
            return
        i = self.shifts(j, lo, hi, offset)
        get = weights.get
        for m in range(offset + i.start * j, offset + i.stop * j, j):
            weights[m] = get(m, 0) + w

    def value(self, m: int) -> Fraction:
        if self.clip and not self.lo <= m <= self.hi:
            return Fraction(0)
        return self.total({m: 1})

    def total(self, weights: dict[int, int]) -> Fraction:
        """sum of c * (value at point m) over the (m, c) of weights.

        The points are evaluated in the order of weights, those of weight
        0 too, so the first pole raised is the one a term-by-term loop
        meets first.  Numerators are added per distinct denominator, and
        the groups are summed by _pairwise_sum.
        """
        values, evaluate, base, step, D = self.values, self.evaluate, self.base, self.step, self.D
        groups: dict[int, int] = {}
        for m, c in weights.items():
            v = values.get(m)
            if v is None:
                v = values[m] = evaluate(Fraction(base + m * step, D))
            d = v.denominator
            groups[d] = groups.get(d, 0) + c * v.numerator
        return _pairwise_sum(groups)


def _pairwise_sum(groups: dict[int, int]) -> Fraction:
    """sum of num/den over the (den, num) of groups, in a balanced tree.

    The lowest four levels add (den, num) pairs unreduced, so a block of
    up to 16 groups costs one gcd.  Above them every add is a reducing
    Fraction add, which keeps the operands small when the denominators
    share factors; left to right, the sum would grow quadratically.
    """
    terms = list(groups.items())
    for _ in range(4):
        pairs = [(b * d, a * d + c * b) for (b, a), (d, c) in zip(terms[::2], terms[1::2])]
        terms = pairs + terms[len(pairs) * 2:]
    sums = [Fraction(a, b) for b, a in terms]
    while len(sums) > 1:
        pairs = [p + q for p, q in zip(sums[::2], sums[1::2])]
        sums = pairs + sums[len(pairs) * 2:]
    return sums[0] if sums else Fraction(0)


def _average_weights(lattice: _Lattice, n: int, N: int, offset: int = 0) -> dict[int, int]:
    """Weights c_m with N * average = sum_m c_m g(point m) for the shift
    average of D_{ih}^n g at point offset, in the full loop's (j, i) order."""
    weights: dict[int, int] = {}
    for j, w in enumerate(difference_stencil(n)):
        lattice.add(weights, w, j, 1, N, offset)
    return weights


def finite_difference(f: FuncSpec, x: Scalar, h: Scalar, n: int) -> Fraction:
    """D_h^n f(x) on the lattice, for h > 0 and n >= 0: each point x + j*h
    is asked for once, in ascending j, and a zero-extended f only at the
    points inside [0, 1]."""
    x, h = Fraction(x), Fraction(h)
    if h <= 0:
        raise ValueError("step must be positive")
    if n < 0:
        raise ValueError("order must be nonnegative")
    lattice = _Lattice(f.evaluate, x, h, clip=f.extended_by_zero)
    return lattice.total(_average_weights(lattice, n, 1))


@dataclass(frozen=True)
class EquispacedIdentityCheck:
    n: int
    lhs: Fraction
    rhs: Fraction
    equal: bool


def check_equispaced_identity(f: FuncSpec, n: int) -> EquispacedIdentityCheck:
    """Compare the order-n divided difference at the knots k/n against the
    scaled forward difference D_{1/n}^n f(0) / (n! (1/n)^n)."""
    if n < 1:
        raise ValueError("order must be at least 1")
    h = Fraction(1, n)
    kv = KnotValueList.equispaced(f, n)
    lhs = divided_difference_direct(kv)
    scale = math.factorial(n) * h**n
    rhs = finite_difference(f, 0, h, n) / scale
    return EquispacedIdentityCheck(n, lhs, rhs, lhs == rhs)
