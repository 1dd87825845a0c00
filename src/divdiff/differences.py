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
Each lattice point is t/D for an integer t and reaches the sum as the
integer pair (a, b) with f(t/D) = a/b (FuncSpec.pairs), as do the
equispaced sample's knots k/n, with D = n.  check_equispaced_identity
sums its stencil on the lattice of the knots, so each knot is asked for
once, and takes the direct sum's values from that lattice's pairs; both
sides are computed for every f.  finite_difference alone gives D_h^n p = 0
for an unextended polynomial of degree below n, with no point evaluated.

The two divided-difference kernels work on integers: each scales the
knots by the lcm D of their denominators to integers a_k = x_k D.  The
direct sum's core, _direct_sum, takes the points a_k, the scale D and
the values as integer pairs (a, b), reduced or not.  It forms W'(x_k) D^n
as the integer product P_k = prod_{i != k} (a_k - a_i) and adds the
terms a / (b P_k) as integer pairs in a balanced tree, each add putting
the two terms over the lcm of their denominators by one gcd, the first
of Henrici's two (J. ACM 3(1), 1956); the sum is reduced once, at the end.
divided_difference_direct feeds it a KnotValueList.  The equispaced
callers feed it the points 0..n over D = max(n, 1) and f's pairs as they
come, with no Fraction per knot: the uniform command from the sampler
that KnotValueList.equispaced and the interpolant of f also read,
check_equispaced_identity from its lattice's memo.  When the a_k form an
arithmetic progression a_0 + k d in the order given, as the equispaced
knots k/n do, the products follow from P_0 = (-d)^n n! by the ratio
P_(k+1) = -P_k (k+1) / (n-k), one exact division by a small integer
each; any other knots form each product from its n factors.  The
recursive table keeps each column as integer numerators over one
denominator, reduced by one gcd per column, and once a column is all
zero every later one is zero too, with no arithmetic.  Each kernel
reduces to a Fraction once, at the end.
"""

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from typing import Callable, Iterable, Iterator

from .errors import DuplicateKnotError
from .funcs import FuncSpec, Pair, PolynomialFunc
from .poly import Scalar, _fractions


@dataclass(frozen=True)
class KnotValueList:
    """Distinct knots and the function values at them, entry by entry."""

    knots: tuple[Fraction, ...]
    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        knots = _fractions(self.knots)
        values = _fractions(self.values)
        if len(knots) != len(values):
            raise ValueError(f"got {len(knots)} knots but {len(values)} values; they must match")
        if not knots:
            raise ValueError("need at least one knot")
        # A reduced Fraction has one (numerator, denominator) pair, so the
        # pairs compare as the knots do, and hashing them is cheaper than
        # Fraction.__hash__.
        seen: set[tuple[int, int]] = set()
        for x in knots:
            key = (x.numerator, x.denominator)
            if key in seen:
                raise DuplicateKnotError(x)
            seen.add(key)
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "values", values)

    @property
    def order(self) -> int:
        return len(self.knots) - 1

    @classmethod
    def equispaced(cls, f: FuncSpec, n: int) -> "KnotValueList":
        """Knots k/n for k = 0..n; n = 0 degenerates to the single knot 0.

        f is read through its pairs at t/D with D = max(n, 1), in
        ascending k, so the first pole raised is at the lowest k."""
        values = tuple(Fraction(*pair) for pair in _equispaced_pairs(f, n))
        return cls(tuple(Fraction(k, max(n, 1)) for k in range(n + 1)), values)


def _equispaced_pairs(f: FuncSpec, n: int) -> list[Pair]:
    """The pairs of f at k/max(n, 1), k = 0..n, asked for in ascending k;
    n < 0 is refused before f is asked for anything."""
    if n < 0:
        raise ValueError("order must be nonnegative")
    pair = f.pairs(max(n, 1))
    return [pair(k) for k in range(n + 1)]


def divided_difference_direct(kv: KnotValueList) -> Fraction:
    """Sum of f(x_k) / W'(x_k) over the knots, by _direct_sum on the
    knots scaled by the lcm D of their denominators."""
    # The knots are scaled here and in _difference_columns separately, and
    # the tree is not _pairwise_sum, so no oracle of this kernel shares its code.
    scale = math.lcm(*(x.denominator for x in kv.knots))
    points = [x.numerator * (scale // x.denominator) for x in kv.knots]
    return _direct_sum(points, [(v.numerator, v.denominator) for v in kv.values], scale)


def _direct_sum(points: list[int], pairs: Iterable[Pair], scale: int) -> Fraction:
    """Sum of f(x_k) / W'(x_k) over the knots x_k = a_k / D, from the
    distinct integers a_k (points), the pairs (a, b), b > 0, of the
    values f(x_k) = a/b, in lowest terms or not, and the scale D.

    W'(x_k) = P_k / D^n for the integer P_k = prod_{i != k} (a_k - a_i).
    The terms f(x_k) / P_k are added as integer pairs (numerator,
    denominator) in a balanced tree: an add of a/b and c/d, with
    g = gcd(b, d), gives (a (d/g) + c (b/g), (b/g) d), so each node's
    denominator is the lcm of its leaves' b P_k and no common denominator
    of all n + 1 terms is formed unless the terms need it.  The sum is
    rescaled by D^n and reduced once, by the closing Fraction."""
    terms = [(a, b * p) for p, (a, b) in zip(_node_products(points), pairs)]
    while len(terms) > 1:
        sums = []
        for (a, b), (c, d) in zip(terms[::2], terms[1::2]):
            g = math.gcd(b, d)
            sums.append((a * (d // g) + c * (b // g), b // g * d))
        terms = sums + terms[len(sums) * 2:]
    total, common = terms[0]
    return Fraction(total * scale ** (len(points) - 1), common)


def _node_products(points: list[int]) -> list[int]:
    """P_k = prod_{i != k} (a_k - a_i) for each point a_k.

    If a_k = a_0 + k d in the order given, then a_k - a_i = (k - i) d, so
    P_0 = (-d)^n n! and P_(k+1) = -P_k (k+1) / (n-k), a division that is
    exact; other points take the n-factor product."""
    n = len(points) - 1
    step = points[1] - points[0] if n else 0
    if any(b - a != step for a, b in zip(points, points[1:])):
        return [math.prod(map(operator.sub, repeat(ak, n), points[:k] + points[k + 1:]))
                for k, ak in enumerate(points)]
    products = [(-step) ** n * math.factorial(n)]
    for k in range(n):
        products.append(-products[-1] * (k + 1) // (n - k))
    return products


def _difference_columns(kv: KnotValueList) -> Iterator[tuple[list[int], int]]:
    """Columns of the recursive difference table, fraction-free.

    Column d is yielded as (numerators, denominator): its entry for
    i = d..n is the order-d divided difference at knots i-d..i, equal to
    numerators[i - d] / denominator.  The knots enter as a_i = x_i D with
    integer a_i, so a step is (t_i - t_{i-1}) D / (a_i - a_{i-d}); each
    column takes the lcm of its knot gaps into its denominator and is
    reduced by one gcd, so it is in lowest terms as a whole.  Every column
    after an all-zero one is zero over 1, and is yielded with no
    arithmetic: degree-d values cost O(d n) steps, not O(n^2)."""
    scale = math.lcm(*(x.denominator for x in kv.knots))
    points = [x.numerator * (scale // x.denominator) for x in kv.knots]
    den = math.lcm(*(v.denominator for v in kv.values))
    column = [v.numerator * (den // v.denominator) for v in kv.values]
    yield column, den
    for depth in range(1, len(points)):
        if not any(column):  # and so is every later column
            yield from (([0] * (len(points) - d), 1) for d in range(depth, len(points)))
            return
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
    difference: D_h^n f(x) = sum_j w_j f(x + j h); empty for n < 0.

    The first half of the row comes from C(n, j+1) = C(n, j) (n-j) / (j+1),
    one exact division each, and the rest by C(n, j) = C(n, n-j)."""
    if n < 0:
        return ()
    row = [1]
    for j in range(n // 2):
        row.append(row[-1] * (n - j) // (j + 1))
    row += reversed(row[: n + 1 - len(row)])
    return tuple(-c if (n - j) % 2 else c for j, c in enumerate(row))


class _Lattice:
    """The points x + m*h, m an integer, each evaluated at most once.

    With D = lcm(den x, den h), point m is (base + m*step) / D for the
    integers base = x*D and step = h*D.  pairs(D) gives the map from t to
    the pair (a, b), b > 0, of the value a/b at t/D, and memo maps m to
    the pair at point m, so no point becomes a Fraction.  clip is where a
    sum applies the zero extension: f vanishes outside [0, 1], so only the
    m in lo..hi, the points inside, are ever asked of pairs(D), which give
    f's own values.
    """

    def __init__(
        self, pairs: Callable[[int], Callable[[int], Pair]], x: Fraction, h: Fraction, clip: bool
    ):
        D = math.lcm(x.denominator, h.denominator)
        self.pair = pairs(D)
        self.base = base = x.numerator * (D // x.denominator)
        self.step = step = h.numerator * (D // h.denominator)
        self.clip = clip
        if clip:
            self.lo, self.hi = -(base // step), (D - base) // step
        self.memo: dict[int, Pair] = {}

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

    def largest(self, points: Iterable[int]) -> Fraction:
        """max |value at point m| over the given evaluated m, from the memo;
        0 for no points.  |a|/b is compared by cross-multiplication."""
        top, den = 0, 1
        memo = self.memo
        for m in points:
            a, b = memo[m]
            if abs(a) * den > top * b:
                top, den = abs(a), b
        return Fraction(top, den)

    def total(self, weights: dict[int, int]) -> Fraction:
        """sum of c * (value at point m) over the (m, c) of weights.

        The points are evaluated in the order of weights, those of weight
        0 too, so the first pole raised is the one a term-by-term loop
        meets first.  The terms c*a are added per distinct denominator b,
        so a polynomial's whole sum is one integer over E, and the groups
        are summed by _pairwise_sum.
        """
        memo, pair, base, step = self.memo, self.pair, self.base, self.step
        groups: dict[int, int] = {}
        for m, c in weights.items():
            p = memo.get(m)
            if p is None:
                p = memo[m] = pair(base + m * step)
            a, b = p
            groups[b] = groups.get(b, 0) + c * a
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
    points inside [0, 1].  An unextended polynomial of degree below n
    gives 0 with no point asked for."""
    x, h = Fraction(x), Fraction(h)
    if h <= 0:
        raise ValueError("step must be positive")
    if n < 0:
        raise ValueError("order must be nonnegative")
    if isinstance(f, PolynomialFunc) and not f.extended_by_zero and n > f.poly.degree:
        return Fraction(0)
    lattice = _Lattice(f.pairs, x, h, clip=f.extended_by_zero)
    return lattice.total(_average_weights(lattice, n, 1))


@dataclass(frozen=True)
class EquispacedIdentityCheck:
    n: int
    lhs: Fraction
    rhs: Fraction
    equal: bool


def check_equispaced_identity(f: FuncSpec, n: int) -> EquispacedIdentityCheck:
    """Compare the order-n divided difference at the knots k/n against the
    scaled forward difference D_{1/n}^n f(0) / (n! (1/n)^n).

    The stencil is summed first, on the lattice of the points m/n, which
    are the knots: it asks for each knot once, in ascending order, so the
    first pole raised is at the lowest knot.  The direct sum takes its
    values from that lattice's memo, and both sides are summed for every
    f, an unextended polynomial of degree below n too."""
    if n < 1:
        raise ValueError("order must be at least 1")
    h = Fraction(1, n)
    lattice = _Lattice(f.pairs, Fraction(0), h, clip=f.extended_by_zero)
    rhs = lattice.total(_average_weights(lattice, n, 1)) / (math.factorial(n) * h**n)
    lhs = _direct_sum(list(range(n + 1)), [lattice.memo[k] for k in range(n + 1)], n)
    return EquispacedIdentityCheck(n, lhs, rhs, lhs == rhs)
