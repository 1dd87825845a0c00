"""Averaged forward differences of zero-extended functions.

When a function on [0, 1] is extended by zero to the whole line, the
order-n forward difference D_{ih}^n f(x) keeps only finitely many
nonzero terms as the shift i grows, because the points x + j*i*h leave
the unit interval.  Averaging the differences over i = 1..N therefore
recovers (-1)**n * f(x) up to a residual that decays like 1/N:

    (1/N) * sum_{i=1}^{N} D_{ih}^n f(x)  =  (-1)**n f(x) + residual.

This module computes the average, the residual, and an explicit
envelope for it (:func:`averaging_probe`, and over ascending N with
every point evaluated once, :func:`averaging_sweep`); verifies the exact
reindexing identity behind that decay (:func:`telescope_shift_identity`);
and assembles the full chain of intermediate quantities for the
interpolation defect f - Q_n (:func:`proof_walkthrough`), where Q_n is
the equispaced interpolating polynomial of f.

Every such quantity is a sum of f(x + i*s) over a run of shifts
i = lo..hi along one step s = j*h, and the work is not the length of
the run:

- Every point touched is x + m*h for an integer m (m = i*j along the
  step j*h; y = x + n!*h is m = n!).  The lattice of ``differences``
  evaluates f once per distinct m and, for a zero-extended f, only at
  the m inside [0, 1], found by integer floor division: the work is the
  number of points inside, not N or n!.
- A stencil-weighted double sum sum_j w_j sum_i f(x + i*j*h) becomes
  integer weights c_m, built and evaluated in the full loop's (j, i)
  order, so a pole is reported where that loop meets one first.  The
  terms c_m f(point m) are added as integer numerators per denominator,
  the groups in a balanced pairwise sum.
- For a polynomial p (an unextended polynomial in the telescope check,
  or i**n for the interpolant's averages in the walkthrough) the sum is
  a difference of two prefix sums, each given by the hockey-stick
  identity (Graham, Knuth & Patashnik, Concrete Mathematics, 2.6):

      sum_{i=0}^{m} p(x + i*s) = sum_k C(m+1, k+1) * Delta_s^k p(x),

  where the forward differences Delta_s^k p(x), k = 0..deg p, come from
  the deg p + 1 values p(x), p(x+s), ..., p(x + deg(p)*s).

Only the telescope check on a rational or piecewise-linear function
that is not zero-extended still sums every term (each point once).
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .differences import KnotValueList, _average_weights, _Lattice, difference_stencil
from .funcs import FuncSpec, PiecewiseLinearFunc, PolynomialFunc
from .interpolation import lagrange_equispaced, leading_coefficient
from .poly import Polynomial
from .rational import Rational


def _polynomial_sum(p: Polynomial, x: Fraction, s: Fraction, lo: int, hi: int) -> Fraction:
    """sum_{i=lo}^{hi} p(x + i*s) for 0 <= lo, by the hockey-stick identity.

    The sum is the prefix sum up to hi minus the prefix sum up to lo - 1,
    so the k-th forward difference enters with C(hi+1, k+1) - C(lo, k+1).
    math.comb is 0 when k + 1 exceeds its top, as it must be when the run
    is shorter than the degree.
    """
    if p.is_zero:
        return Fraction(0)
    column = [p.evaluate(x + i * s) for i in range(len(p.coefficients))]
    total = Fraction(0)
    for k in range(len(column)):
        total += (math.comb(hi + 1, k + 1) - math.comb(lo, k + 1)) * column[0]
        column = [b - a for a, b in zip(column, column[1:])]
    return total


def _validate_probe_args(f: FuncSpec, x: Fraction, h: Fraction, n: int, N: int) -> None:
    if not f.extended_by_zero:
        raise ValueError("averaging requires a zero-extended function")
    if h <= 0:
        raise ValueError("step h must be positive")
    if n < 1:
        raise ValueError("order n must be at least 1")
    if N < 1:
        raise ValueError("shift count N must be at least 1")
    if not 0 <= x <= 1:
        raise ValueError("base point x must lie in [0, 1]")


@dataclass(frozen=True)
class AveragingProbeResult:
    n: int
    h: Fraction
    x: Fraction
    N: int
    average: Fraction
    residual: Fraction  # average - (-1)**n f(x)
    bound: Fraction  # explicit envelope with |residual| <= bound
    cutoff: int  # floor((1-x)/h); residual*N is constant for N >= cutoff


def averaging_probe(
    f: FuncSpec, x: Rational, h: Rational, n: int, N: int, *, _lattice: _Lattice | None = None
) -> AveragingProbeResult:
    """Average D_{ih}^n f(x) over i = 1..N for a zero-extended f.

    The residual is average - (-1)**n f(x).  It equals the boundary sum

        (1/N) * sum_{j=1}^{n} (-1)**(n-j) C(n,j) * sum_{i: x+jih <= 1} f(x+jih)

    (i also capped at N), which is recomputed independently as a
    consistency check.  The bound multiplies each |stencil weight| by
    the uncapped count of surviving shifts and by a bound M on |f| over
    [0, 1]: exact for piecewise-linear f, the maximum over the touched
    evaluation points otherwise.

    f is evaluated only at the survivors x + j*i*h <= 1 (i <= N), once
    each, so the cost does not depend on N once N exceeds floor((1-x)/h).
    """
    x, h = Fraction(x), Fraction(h)
    _validate_probe_args(f, x, h, n, N)
    lattice = _Lattice(f.evaluate, x, h, clip=True) if _lattice is None else _lattice
    average = lattice.total(_average_weights(lattice, n, N)) / N
    residual = average - (-1) ** n * lattice.value(0)

    # The check builds its own weights from each j's survivor count, which is
    # floor((1-x)/(j*h)) = lattice.hi // j; the bound weighs each |stencil weight| by it.
    boundary: dict[int, int] = {}
    weight = 0
    for j, w in enumerate(difference_stencil(n)[1:], 1):
        survivors = lattice.hi // j
        weight += abs(w) * survivors
        for i in range(1, min(N, survivors) + 1):
            boundary[i * j] = boundary.get(i * j, 0) + w
    if lattice.total(boundary) / N != residual:
        raise ArithmeticError("residual recomputation mismatch")

    if isinstance(f, PiecewiseLinearFunc):
        m_bound = f.grid.sup_norm()
    else:
        # Every point the lattice evaluated lies inside [0, 1]; x is one.
        values = lattice.values.values()
        m_bound = max(max(values), -min(values))
    bound = Fraction(weight) * m_bound / N

    return AveragingProbeResult(
        n=n, h=h, x=x, N=N, average=average, residual=residual, bound=bound, cutoff=lattice.hi
    )


def averaging_sweep(
    f: FuncSpec, x: Rational, h: Rational, n: int, counts: Sequence[int]
) -> list[AveragingProbeResult]:
    """averaging_probe at each N of counts, which must ascend.

    The runs share their evaluations: the points touched for one N are
    among those touched for a larger N, so each is evaluated once in the
    sweep, and the touched maximum behind each bound is that run's own.
    """
    x, h = Fraction(x), Fraction(h)
    if list(counts) != sorted(counts):
        raise ValueError("shift counts must ascend")
    _validate_probe_args(f, x, h, n, min(counts, default=1))
    lattice = _Lattice(f.evaluate, x, h, clip=True)
    return [averaging_probe(f, x, h, n, N, _lattice=lattice) for N in counts]


@dataclass(frozen=True)
class TelescopeCheck:
    n: int
    j: int
    jprime: int
    N: int
    x: Fraction
    h: Fraction
    y: Fraction
    lhs: Fraction
    rhs: Fraction
    equal: bool


def telescope_shift_identity(
    g: FuncSpec, x: Rational, n: int, j: int, h: Rational, N: int
) -> TelescopeCheck:
    """Check the reindexing identity behind the averaging decay.

    With y = x + n!*h and j' = n!/j, shifting i by j' turns x + j*i*h
    into y + j*(i-j')*h, so the two length-N sums below overlap except
    for j' leading and j' trailing terms:

        sum_{i=1}^{N} g(x+jih) - sum_{i=1}^{N} g(y+jih)
            = sum_{i=1}^{j'} g(x+jih) - sum_{i=N+1}^{N+j'} g(x+jih).

    This is pure bookkeeping, valid for any g, so equal must come back
    true; the check evaluates both sides independently and exactly.

    For a zero-extended g each sum runs over its survivors only, the i
    with 0 <= x + j*i*h <= 1 (x may be negative, and y may lie beyond 1);
    for a polynomial g that is not zero-extended each sum is taken in
    closed form by the hockey-stick identity.  Either way the cost does
    not grow with N or j'.  Any other g is summed over every term, each
    distinct point evaluated once.
    """
    x, h = Fraction(x), Fraction(h)
    if n < 1:
        raise ValueError("order n must be at least 1")
    if not 1 <= j <= n:
        raise ValueError("j must lie in 1..n")
    if h <= 0:
        raise ValueError("step h must be positive")
    if N < 1:
        raise ValueError("shift count N must be at least 1")
    nfact = math.factorial(n)
    jprime = nfact // j
    y = x + nfact * h
    if isinstance(g, PolynomialFunc) and not g.extended_by_zero:
        p, step = g.poly, j * h
        lhs = _polynomial_sum(p, x, step, 1, N) - _polynomial_sum(p, y, step, 1, N)
        rhs = _polynomial_sum(p, x, step, 1, jprime) - _polynomial_sum(
            p, x, step, N + 1, N + jprime
        )
    else:
        # x + j*i*h is lattice point i*j, and y + j*i*h is point n! + i*j.
        lattice = _Lattice(g.evaluate, x, h, clip=g.extended_by_zero)
        xs, ys = lattice.shifts(j, 1, N), lattice.shifts(j, 1, N, nfact)
        # Ascending i, the x point before the y point, as the term-by-term
        # loop visits them, so a pole is reported at the same point.
        sides: dict[int, int] = {}
        for i in sorted({*xs, *ys}):
            if i in xs:
                sides[i * j] = sides.get(i * j, 0) + 1
            if i in ys:
                sides[nfact + i * j] = sides.get(nfact + i * j, 0) - 1
        lhs = lattice.total(sides)
        ends: dict[int, int] = {}
        lattice.add(ends, 1, j, 1, jprime)
        lattice.add(ends, -1, j, N + 1, N + jprime)
        rhs = lattice.total(ends)
    return TelescopeCheck(
        n=n, j=j, jprime=jprime, N=N, x=x, h=h, y=y, lhs=lhs, rhs=rhs, equal=lhs == rhs
    )


@dataclass(frozen=True)
class BoundaryTerm:
    j: int
    jprime: int
    near_sum: Fraction  # sum_{i=1..j'} of the defect at x + j*i*h
    far_sum: Fraction  # sum_{i=N+1..N+j'} of the defect at x + j*i*h
    weighted: Fraction  # (-1)**(n-j) C(n,j) (near_sum - far_sum) / N
    envelope: Fraction  # C(n,j) * (points inside [0,1]) * max|defect| / N


@dataclass(frozen=True)
class LimitTerm:
    j: int
    term: Fraction  # (-1)**n * (j'/N) * Q(x), with j' = n!/j


@dataclass(frozen=True)
class WalkthroughReport:
    n: int
    h: Fraction
    N: int
    x: Fraction
    y: Fraction
    interpolant: Polynomial
    leading: Fraction
    degree_reduced: bool
    f_at_x: Fraction
    q_at_x: Fraction
    defect_at_x: Fraction
    defect_at_y: Fraction
    avg_defect_x: Fraction
    avg_defect_y: Fraction
    avg_interp_x: Fraction
    avg_interp_y: Fraction
    boundary: tuple[BoundaryTerm, ...]
    boundary_total: Fraction
    identity_lhs: Fraction
    identity_rhs: Fraction
    identity_equal: bool
    residual: Fraction
    residual_envelope: Fraction
    interp_limit_terms: tuple[LimitTerm, ...]
    note: str


_WALKTHROUGH_NOTE = (
    "shifted-argument reading: every inner sum evaluates the defect at the "
    "shifted points x + j*i*h and y + j*i*h with y = x + n!*h and per-j "
    "offset j' = n!/j; the identity check confirms this reading exactly. "
    "The interpolant contributes through its plain polynomial values, "
    "while the defect f - Q is extended by zero outside [0, 1]."
)


def proof_walkthrough(
    f: FuncSpec, n: int, h: Rational, N: int, x: Rational
) -> WalkthroughReport:
    """Trace the averaging argument for the defect g = f - Q_n, exactly.

    Q_n interpolates f at 0, 1/n, ..., 1 and g is extended by zero
    outside [0, 1].  With y = x + n!*h, the report contains the shift
    averages of D_{ih}^n g at x and y, the per-j boundary sums produced
    by the telescoping reindex, and the exact identity

        avg_defect_x - avg_defect_y - boundary_total = (-1)**n (g(x) - g(y)),

    which holds for every f and every N.  The residual
    (avg_defect_x - avg_defect_y) - (-1)**n (g(x) - g(y)) therefore
    equals boundary_total: it vanishes when Q_n reproduces f and decays
    like 1/N otherwise, as witnessed by residual_envelope and by the
    (j'/N)-weighted interpolant terms.  Nothing here asserts a limit;
    every reported quantity is a finite, exact rational.

    The defect is evaluated at its survivors inside [0, 1] only, once per
    distinct point, and the interpolant's averages come from its x^n
    coefficient and one closed-form power sum, so neither N nor n! sets
    the cost.  f is asked for each point once: at a knot k/n the
    sample's value serves.
    """
    x, h = Fraction(x), Fraction(h)
    _validate_probe_args(f, x, h, n, N)
    values = KnotValueList.equispaced(f, n).values
    q = lagrange_equispaced(values)
    lead = leading_coefficient(q, n)
    nfact = math.factorial(n)
    y = x + nfact * h

    def f_value(point: Fraction) -> Fraction:
        # At a knot k/n the sample already holds f's value.
        k, r = divmod(point.numerator * n, point.denominator)
        return f.evaluate(point) if r else values[k]

    def defect(point: Fraction) -> Fraction:
        return f_value(point) - q.evaluate(point)

    # Lattice point m is x + m*h; y is point n!.  x, inside [0, 1], is the
    # first point the term-by-term loops meet.
    lattice = _Lattice(defect, x, h, clip=True)
    f_at_x, q_at_x = f_value(x), q.evaluate(x)
    lattice.values[0] = f_at_x - q_at_x
    avg_defect_x = lattice.total(_average_weights(lattice, n, N)) / N
    avg_defect_y = lattice.total(_average_weights(lattice, n, N, nfact)) / N
    # D_s^n q = n! * lead * s^n at every point, as q has degree <= n, so
    # both interpolant averages are (n! lead h^n / N) * sum_{i=1}^{N} i^n.
    powers = _polynomial_sum(Polynomial.monomial(n), Fraction(0), Fraction(1), 1, N)
    avg_interp_x = avg_interp_y = nfact * lead * h**n * powers / N

    blocks: list[tuple[int, int, Fraction, Fraction, list[int]]] = []
    for j in range(1, n + 1):
        jprime = nfact // j
        near: dict[int, int] = {}
        far: dict[int, int] = {}
        lattice.add(near, 1, j, 1, jprime)
        lattice.add(far, 1, j, N + 1, N + jprime)
        blocks.append((j, jprime, lattice.total(near), lattice.total(far), [*near, *far]))
    max_defect = max(
        (abs(lattice.values[m]) for *_, inside in blocks for m in inside), default=Fraction(0)
    )

    stencil = difference_stencil(n)
    boundary = []
    for j, jprime, near, far, inside in blocks:
        weight = stencil[j]
        boundary.append(
            BoundaryTerm(
                j=j,
                jprime=jprime,
                near_sum=near,
                far_sum=far,
                weighted=Fraction(weight, N) * (near - far),
                envelope=Fraction(abs(weight) * len(inside), N) * max_defect,
            )
        )
    boundary_total = sum((term.weighted for term in boundary), Fraction(0))
    residual_envelope = sum((term.envelope for term in boundary), Fraction(0))

    defect_at_x = lattice.value(0)
    defect_at_y = lattice.value(nfact)
    identity_rhs = (-1) ** n * (defect_at_x - defect_at_y)
    identity_lhs = avg_defect_x - avg_defect_y - boundary_total
    residual = (avg_defect_x - avg_defect_y) - identity_rhs

    interp_limit_terms = tuple(
        LimitTerm(j, (-1) ** n * Fraction(nfact // j, N) * q_at_x) for j in range(1, n + 1)
    )
    return WalkthroughReport(
        n=n,
        h=h,
        N=N,
        x=x,
        y=y,
        interpolant=q,
        leading=lead,
        degree_reduced=lead == 0,
        f_at_x=f_at_x,
        q_at_x=q_at_x,
        defect_at_x=defect_at_x,
        defect_at_y=defect_at_y,
        avg_defect_x=avg_defect_x,
        avg_defect_y=avg_defect_y,
        avg_interp_x=avg_interp_x,
        avg_interp_y=avg_interp_y,
        boundary=tuple(boundary),
        boundary_total=boundary_total,
        identity_lhs=identity_lhs,
        identity_rhs=identity_rhs,
        identity_equal=identity_lhs == identity_rhs,
        residual=residual,
        residual_envelope=residual_envelope,
        interp_limit_terms=interp_limit_terms,
        note=_WALKTHROUGH_NOTE,
    )
