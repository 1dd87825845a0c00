"""Averaged forward differences of zero-extended functions.

When a function on [0, 1] is extended by zero to the whole line, the
order-n forward difference D_{ih}^n f(x) keeps only finitely many
nonzero terms as the shift i grows, because the points x + j*i*h leave
the unit interval.  Averaging the differences over i = 1..N therefore
recovers (-1)**n * f(x) up to a residual that decays like 1/N:

    (1/N) * sum_{i=1}^{N} D_{ih}^n f(x)  =  (-1)**n f(x) + residual.

This module computes the average, the residual, and an explicit
envelope for it (:func:`averaging_probe`); verifies the exact
reindexing identity behind that decay (:func:`telescope_shift_identity`);
and assembles the full chain of intermediate quantities for the
interpolation defect f - Q_n (:func:`proof_walkthrough`), where Q_n is
the equispaced interpolating polynomial of f.

Every such quantity is a sum of f(x + i*s) over a run of shifts
i = lo..hi along one step s = j*h, and the work is not the length of
the run:

- For a zero-extended function only the survivors, the i with
  0 <= x + i*s <= 1, contribute.  They form the clipped range
  max(lo, ceil(-x/s)) .. min(hi, floor((1-x)/s)), so the work is the
  number of points inside [0, 1], not N or n!.  Survivors are evaluated
  in ascending i, the order of the full loop, so a pole is reported at
  the same point.
- For a polynomial p (the interpolant Q_n, or an unextended polynomial
  in the telescope check) the sum is a difference of two prefix sums,
  each given by the hockey-stick identity
  (Graham, Knuth & Patashnik, Concrete Mathematics, section 2.6):

      sum_{i=0}^{m} p(x + i*s) = sum_k C(m+1, k+1) * Delta_s^k p(x),

  where the forward differences Delta_s^k p(x), k = 0..deg p, come from
  the deg p + 1 values p(x), p(x+s), ..., p(x + deg(p)*s).

Only the telescope check on a rational or piecewise-linear function
that is not zero-extended still sums term by term.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable

from .differences import difference_stencil
from .funcs import FuncSpec, PiecewiseLinearFunc, PolynomialFunc
from .interpolation import EquispacedSample, lagrange_equispaced, leading_coefficient
from .poly import Polynomial
from .rational import Rational

Point = Fraction


class _Memo:
    """Evaluation cache; keeps every point ever requested."""

    def __init__(self, evaluate: Callable[[Fraction], Fraction]):
        self._evaluate = evaluate
        self.values: dict[Fraction, Fraction] = {}

    def __call__(self, point: Fraction) -> Fraction:
        value = self.values.get(point)
        if value is None:
            value = self._evaluate(point)
            self.values[point] = value
        return value


def _survivors(x: Fraction, s: Fraction, lo: int, hi: int) -> range:
    """The i in lo..hi with 0 <= x + i*s <= 1, for a step s > 0."""
    return range(max(lo, math.ceil(-x / s)), min(hi, math.floor((1 - x) / s)) + 1)


def _clipped_sum(
    ev: Callable[[Fraction], Fraction], x: Fraction, s: Fraction, lo: int, hi: int
) -> Fraction:
    """sum_{i=lo}^{hi} ev(x + i*s) for an ev that vanishes outside [0, 1]."""
    if s == 0:
        return (hi - lo + 1) * ev(x)
    return sum((ev(x + i * s) for i in _survivors(x, s, lo, hi)), Fraction(0))


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


def _looped_sum(
    ev: Callable[[Fraction], Fraction], x: Fraction, s: Fraction, lo: int, hi: int
) -> Fraction:
    """sum_{i=lo}^{hi} ev(x + i*s), term by term."""
    return sum((ev(x + i * s) for i in range(lo, hi + 1)), Fraction(0))


ShiftSum = Callable[[Fraction, Fraction, int, int], Fraction]


def _shift_average(
    shift_sum: ShiftSum, x: Fraction, h: Fraction, n: int, N: int
) -> Fraction:
    """(1/N) * sum_{i=1..N} D_{ih}^n f(x), given shift_sum(x, s, lo, hi)
    = sum_{i=lo}^{hi} f(x + i*s)."""
    total = Fraction(0)
    for j, w in enumerate(difference_stencil(n)):
        total += w * shift_sum(x, j * h, 1, N)
    return total / N


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
    f: FuncSpec, x: Rational, h: Rational, n: int, N: int
) -> AveragingProbeResult:
    """Average D_{ih}^n f(x) over i = 1..N for a zero-extended f.

    The residual is average - (-1)**n f(x).  It equals the boundary sum

        (1/N) * sum_{j=1}^{n} (-1)**(n-j) C(n,j) * sum_{i: x+jih <= 1} f(x+jih)

    (i also capped at N), which is recomputed independently as a
    consistency check.  The bound multiplies each |stencil weight| by
    the uncapped count of surviving shifts and by a bound M on |f| over
    [0, 1]: exact for piecewise-linear f, the maximum over the touched
    evaluation points otherwise.

    f is evaluated only at the survivors x + j*i*h <= 1 (i <= N), so the
    cost does not depend on N once N exceeds floor((1-x)/h).
    """
    x, h = Fraction(x), Fraction(h)
    _validate_probe_args(f, x, h, n, N)
    ev = _Memo(f.evaluate)
    average = _shift_average(partial(_clipped_sum, ev), x, h, n, N)
    residual = average - (-1) ** n * ev(x)

    stencil = difference_stencil(n)
    boundary = Fraction(0)
    for j, w in enumerate(stencil[1:], 1):
        step = j * h
        last = min(N, math.floor((1 - x) / step))
        boundary += w * sum((ev(x + i * step) for i in range(1, last + 1)), Fraction(0))
    boundary /= N
    if boundary != residual:
        raise ArithmeticError("residual recomputation mismatch")

    if isinstance(f, PiecewiseLinearFunc):
        m_bound = f.grid.sup_norm()
    else:
        m_bound = max(
            (abs(v) for p, v in ev.values.items() if 0 <= p <= 1), default=Fraction(0)
        )
    bound = Fraction(0)
    for j, w in enumerate(stencil[1:], 1):
        survivors = max(0, math.floor((1 - x) / (j * h)))
        bound += abs(w) * survivors * m_bound
    bound /= N

    cutoff = math.floor((1 - x) / h)
    return AveragingProbeResult(
        n=n, h=h, x=x, N=N, average=average, residual=residual, bound=bound, cutoff=cutoff
    )


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
    not grow with N or j'.  Any other g is summed term by term.
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
    jprime, rem = divmod(nfact, j)
    if rem:
        raise ValueError(f"{j} does not divide {n}!")
    y = x + nfact * h
    ev = _Memo(g.evaluate)
    step = j * h
    shift_sum: ShiftSum
    if g.extended_by_zero:
        shift_sum = partial(_clipped_sum, ev)
        # Ascending i, the x point before the y point, as the term-by-term
        # loop visits them, so a pole is reported at the same point.
        xs = _survivors(x, step, 1, N)
        ys = _survivors(y, step, 1, N)
        lhs = Fraction(0)
        for i in sorted(set(xs).union(ys)):
            if i in xs:
                lhs += ev(x + i * step)
            if i in ys:
                lhs -= ev(y + i * step)
    elif isinstance(g, PolynomialFunc):
        shift_sum = partial(_polynomial_sum, g.poly)
        lhs = shift_sum(x, step, 1, N) - shift_sum(y, step, 1, N)
    else:
        shift_sum = partial(_looped_sum, ev)
        lhs = sum(
            (ev(x + i * step) - ev(y + i * step) for i in range(1, N + 1)), Fraction(0)
        )
    rhs = shift_sum(x, step, 1, jprime) - shift_sum(x, step, N + 1, N + jprime)
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
    interp_limit_terms: tuple[tuple[int, Fraction], ...]
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

    The defect is evaluated at its survivors inside [0, 1] only, and the
    interpolant sums are taken in closed form by the hockey-stick
    identity, so neither N nor n! sets the cost.
    """
    x, h = Fraction(x), Fraction(h)
    _validate_probe_args(f, x, h, n, N)
    sample = EquispacedSample.from_function(f, n)
    q = lagrange_equispaced(sample)
    lead = leading_coefficient(q, n)
    nfact = math.factorial(n)
    y = x + nfact * h

    q_memo = _Memo(q.evaluate)

    def defect(point: Fraction) -> Fraction:
        if point < 0 or point > 1:
            return Fraction(0)
        return f.evaluate(point) - q_memo(point)

    g_memo = _Memo(defect)
    defect_sum = partial(_clipped_sum, g_memo)
    interp_sum = partial(_polynomial_sum, q)
    avg_defect_x = _shift_average(defect_sum, x, h, n, N)
    avg_defect_y = _shift_average(defect_sum, y, h, n, N)
    avg_interp_x = _shift_average(interp_sum, x, h, n, N)
    avg_interp_y = _shift_average(interp_sum, y, h, n, N)

    blocks: list[tuple[int, int, Fraction, Fraction, list[Fraction]]] = []
    touched_defects: list[Fraction] = []
    for j in range(1, n + 1):
        jprime = nfact // j
        step = j * h
        near_points = [x + i * step for i in _survivors(x, step, 1, jprime)]
        far_points = [x + i * step for i in _survivors(x, step, N + 1, N + jprime)]
        near = sum((g_memo(p) for p in near_points), Fraction(0))
        far = sum((g_memo(p) for p in far_points), Fraction(0))
        inside = near_points + far_points
        touched_defects.extend(g_memo(p) for p in inside)
        blocks.append((j, jprime, near, far, inside))
    max_defect = max((abs(v) for v in touched_defects), default=Fraction(0))

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

    defect_at_x = g_memo(x)
    defect_at_y = g_memo(y)
    identity_rhs = (-1) ** n * (defect_at_x - defect_at_y)
    identity_lhs = avg_defect_x - avg_defect_y - boundary_total
    residual = (avg_defect_x - avg_defect_y) - identity_rhs

    interp_limit_terms = tuple(
        (j, (-1) ** n * Fraction(nfact // j, N) * q_memo(x)) for j in range(1, n + 1)
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
        f_at_x=f.evaluate(x),
        q_at_x=q_memo(x),
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
