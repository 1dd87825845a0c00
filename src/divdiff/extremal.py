"""Flattest unit-size solutions of the difference constraint system.

Among grid functions that satisfy every constraint of
:func:`divdiff.constraints.build_constraint_system` and have sup norm
exactly 1, we look for one whose Lipschitz constant (largest slope
between neighbouring grid points, scaled by the grid density L) is as
small as possible.

A solution with sup norm 1 attains the value +1 or -1 at some grid
index p; after a sign flip and a reflection k -> L - k (both leave the
constraints and the objective unchanged) we may assume the value +1 is
attained at some p <= L/2.  For each such pin the program

    minimize  t
    subject to constraint rows,  f(p/L) = 1,  |f(k/L)| <= 1,
               |f((k+1)/L) - f(k/L)| * L <= t

has an exact optimum v(p), and the answer is the smallest v(p) over the
pins, reported at the smallest pin that attains it.  Only columns that
occur in some constraint row (the touched columns) or the pin itself
need to be variables: between two consecutive such columns the
straight-line fill is optimal, because the largest slope over a gap is
at least the average slope, the line stays inside the sup-norm box, and
the skipped columns appear in no constraint.  The slope bound across a
gap of width g therefore reads |f(c')-f(c)| * L / g.  Variables are
shifted by u = f + 1 so they live in [0, 2] and fit the nonnegative LP
format.

The pins are not tried one by one.  The touched columns in [0, L/2],
which include 0 and L/2 for N >= 2, cut it into gaps [a, b].  For a pin
p in a gap, u_p = 2 and the rows that involve it read

    (2 - u_a) L <= t (p - a),    (2 - u_b) L <= t (b - p),

so the pinned program is the touched-column program with the a-b slope
rows replaced by these two.  For a fixed t they are linear in (u, p),
so {p : v(p) <= t} is an interval: v is quasiconvex on the gap.  Adding
the two rows gives the relaxed program of the gap, with the single row
L (4 - u_a - u_b) <= t (b - a).  Its optimum is the least v(p) over real
p in [a, b], attained at p* = a + (2 - u_a) L / t, so it bounds every
pin of the gap from below, and by quasiconvexity the best integer pin is
floor(p*) or ceil(p*); when p* is an integer, v(p*) is the bound itself.
A cheaper bound needs no program: a solution that is 1 at p and 0 at a
forced zero z has slope at least L / |p - z|.

The search visits the gaps in order.  It skips a gap whose distance
bound, or else whose relaxed bound, is no better than the best value
found so far; in a gap that improves on it, it solves floor(p*) and
ceil(p*).  The pins of the gap that attain its minimum m form an
interval, {p : v(p) <= m}; its left end, the smallest such pin, is
found by testing the pin left of the best candidate and, when that one
attains m too, by bisection.  A gap with at most two unsolved pins (one,
once a value is known) is cheaper to enumerate than to bound.  Because
every skip is strict on the value and the gaps come in order, the
result is the smallest v(p) at the smallest pin attaining it.  Each pin
is solved by the same program the one-pin-at-a-time loop solved (the
best pin at the end if its value came from a bound, and its optimum
must equal that bound), so the value, the pin and the witness (the
vertex Bland's rule reaches for that pin) are the loop's.

The gap's slope rows may stay beside its merged row, which implies
both: 4 - u_a - u_b >= |u_b - u_a| when u_a, u_b <= 2.  A relaxed
program is therefore the touched-column program plus its gap's merged
row, rearranged as -L u_a - L u_b - g t <= -4 L, and the relaxed
programs of one call differ only in their right-hand sides.  So they
are solved as one program: one merged row per gap in [0, L/2], then
every row of the touched-column program.  A gap is switched on by
moving its merged row's rhs from 0, where u, t >= 0 never violate it,
to -4 L.  The first relaxed program is solved from scratch, and each
later one from the last optimal basis by the dual simplex method
(:mod:`divdiff.simplex`), so the tableau is built once per call.  Its
working set starts as the equality rows and the merged rows; a slope or
box row joins it only when an optimum violates it, and then stays (at
N = 12 it holds 116 of the 175 rows after the first relaxed program and
143 after the last).  An omitted row has multiplier 0, so each result
is still certified against the full relaxed program.  Only a relaxed
program's value and p* are read, so the vertex it reaches does not
matter; the pinned programs are solved from scratch by Bland's rule, so
each pin's vertex is a function of its program alone.

A wrong bound would prune the optimum silently, so every program the
search solves, relaxed or pinned, is checked in exact arithmetic before
it is used: an optimum must come with a feasible dual solution of the
same value, and an infeasible program with a Farkas ray
(:func:`divdiff.simplex.certify`).  A failed check raises
ArithmeticError.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .constraints import ConstraintSystem, build_constraint_system, nullspace
from .funcs import GridFunction
from .simplex import INFEASIBLE, _Tableau, certify, solve_lp


@dataclass(frozen=True)
class MinLipschitzResult:
    N: int
    L: int
    status: str  # "optimal" or "infeasible"
    value: Optional[Fraction]
    pin_index: Optional[int]
    witness: Optional[GridFunction]


def _program(
    system: ConstraintSystem, cols: list[int], pin: Optional[int] = None
) -> tuple[list, list, list, list, list]:
    """The program over cols as (objective, a_ub, b_ub, a_eq, b_eq).

    The unknowns are u_k = f(k/L) + 1 for k in cols, at the index of k
    in cols, then t.  Each row maps an unknown's index to its nonzero
    coefficient.  The a_eq rows are the constraint rows, then with pin
    the row u_pin = 2.  The a_ub rows are the two slope rows
    +-L (u_{i+1} - u_i) - g t <= 0 of each gap cols[i]..cols[i + 1] of
    width g, at 2i and 2i + 1, then the box rows u_k <= 2.

    A slope row is +-w (u_{i+1} - u_i) <= t, w = L / g, times g, so it
    is in integers.  That scales only its slack column, which no sign or
    ratio of Bland's rule sees: every pivot and vertex stays, and only
    its multiplier is divided by g.
    """
    index = {k: i for i, k in enumerate(cols)}
    t = len(cols)  # the index of the slope bound

    a_eq = [{index[col]: coeff for col, coeff in row.items()} for row in system.rows]
    b_eq = [sum(row.values()) for row in system.rows]
    if pin is not None:
        a_eq.append({index[pin]: 1})
        b_eq.append(2)

    a_ub: list[dict] = []
    b_ub: list = []
    L = system.L
    for i in range(t - 1):
        g = cols[i + 1] - cols[i]
        a_ub += [{i: -s * L, i + 1: s * L, t: -g} for s in (1, -1)]
        b_ub += [0, 0]
    a_ub += [{i: 1} for i in range(t)]
    b_ub += [2] * t

    objective = [0] * (t + 1)
    objective[t] = 1
    return objective, a_ub, b_ub, a_eq, b_eq


def _solve_pinned(
    system: ConstraintSystem, cols: list[int], pin: int
) -> tuple[Optional[Fraction], Optional[tuple[Fraction, ...]]]:
    """v(pin) and its Bland vertex over cols, or (None, None) if infeasible.

    The LP's certificate is checked, so it was optimal or infeasible.
    """
    program = _program(system, cols, pin=pin)
    result = solve_lp(*program)
    certify(result, *program)
    return result.value, result.x


class _GapPrograms:
    """The relaxed programs of the first ``gaps`` gaps of cols as one program.

    Its a_ub rows are the merged row -L u_a - L u_b - g t <= 0 of each
    gap [a, b] of width g, then the rows of the touched-column program.
    ``bound(i)`` moves the rhs of gap i's merged row alone, to -4 L,
    which makes the program the touched-column program plus that row,
    gap i's relaxed program, and solves it on the one tableau.  With the
    merged rows first, their slacks come first among the slacks in the
    order the dual simplex method breaks ties by, which at N = 12 saves
    two thirds of its pivots (1,207 against 4,005 with them last).  The
    slope and box rows start out of the tableau's working set.
    """

    def __init__(self, system: ConstraintSystem, cols: list[int], gaps: int) -> None:
        self.L = L = system.L
        self.cols = cols
        objective, a_ub, b_ub, a_eq, self.b_eq = _program(system, cols)
        t = len(cols)
        merged = [{i: -L, i + 1: -L, t: cols[i] - cols[i + 1]} for i in range(gaps)]
        self.b_off = [0] * gaps + b_ub
        self.tableau = _Tableau(objective, merged + a_ub, a_eq, range(gaps, len(self.b_off)))

    def bound(self, i: int) -> Optional[tuple[Fraction, Fraction]]:
        """The relaxed optimum over the gap cols[i]..cols[i + 1] and a real pin
        p* attaining it, or None when no pin of the gap is feasible; the LP's
        certificate is checked against gap i's own rhs."""
        b_ub = list(self.b_off)
        b_ub[i] = -4 * self.L
        tableau = self.tableau
        result = tableau.solve(b_ub, self.b_eq)
        certify(result, tableau.c, tableau.a_ub, b_ub, tableau.a_eq, self.b_eq)
        if result.status == INFEASIBLE:
            return None
        u_a, t = result.x[i], result.x[-1]
        a = self.cols[i]
        return result.value, (a + (2 - u_a) * self.L / t if t else Fraction(a))


def _fill_witness(L: int, cols: list[int], shifted: tuple[Fraction, ...]) -> GridFunction:
    entries = {k: shifted[i] - 1 for i, k in enumerate(cols)}
    for a, b in zip(cols, cols[1:]):
        va, vb = entries[a], entries[b]
        for k in range(a + 1, b):
            entries[k] = va + (vb - va) * Fraction(k - a, b - a)
    return GridFunction(denominator=L, entries=entries)


def _distance_bound(L: int, forced: set[int], a: int, b: int) -> Fraction:
    """L over the largest distance from a pin in [a, b] to a forced zero.

    A solution that is 1 at p and 0 at a forced zero z climbs by 1 over
    |p - z| / L, so v(p) >= L / |p - z|.  No forced zero lies inside a
    gap, so the nearest ones to [a, b] are the last at or before a and
    the first at or after b (0 and L are always forced).
    """
    left = max(z for z in forced if z <= a)
    right = min(z for z in forced if z >= b)
    twice_p = min(max(left + right, 2 * a), 2 * b)  # the midpoint, clamped
    return Fraction(2 * L, min(twice_p - 2 * left, 2 * right - twice_p))


def _search(
    half: list[int],
    forced: set[int],
    pinned: Callable[[int], Optional[Fraction]],
    relaxed: Callable[[int], Optional[tuple[Fraction, Fraction]]],
    lower: Callable[[int, int], Fraction],
) -> Optional[tuple[Fraction, int]]:
    """The least v(p) over the pins half[0]..half[-1], at the smallest pin attaining it.

    half holds the gap ends in increasing order, and forced the pins
    known to be infeasible.  pinned(p) is v(p), or None when the pin is
    infeasible; it is called at most once per pin.  relaxed(i) is the
    least v over real p in [half[i], half[i + 1]] and a real p* attaining
    it, or None when no p there is feasible; lower(a, b) is a lower bound
    on v over [a, b] that costs no LP.  None when no pin is feasible.
    """
    values: dict[int, Optional[Fraction]] = {}

    def value(pin: int) -> Optional[Fraction]:
        if pin in forced:
            return None
        if pin not in values:
            values[pin] = pinned(pin)
        return values[pin]

    def above(pin: int, m: Fraction) -> bool:
        """Whether v(pin) > m, without an LP when the cheap bound settles it."""
        if pin in forced or lower(pin, pin) > m:
            return True
        v = value(pin)
        return v is None or v > m

    best: Optional[tuple[Fraction, int]] = None
    for i, (a, b) in enumerate(zip(half, half[1:])):
        if best is not None and lower(a, b) >= best[0]:
            continue
        pins = [p for p in range(a, b + 1) if p not in forced]
        if sum(p not in values for p in pins) <= (2 if best is None else 1):
            candidates = pins
        else:
            bound = relaxed(i)
            if bound is None or (best is not None and bound[0] >= best[0]):
                continue
            m, p_star = bound
            low = math.floor(p_star)
            if low == p_star:
                # The relaxed optimum is feasible for this pin, so v = m there.
                values.setdefault(low, m)
                candidates = [low]
            else:
                candidates = [low, low + 1]
        found = [(v, p) for p in candidates if (v := value(p)) is not None]
        if not found:
            continue
        m, q = min(found)
        if q > a and not above(q - 1, m):
            # {p : v(p) <= m} is an interval of pins ending at or after
            # q - 1; bisect [a, q - 1] for its left end.
            lo, q = a, q - 1
            while lo < q:
                mid = (lo + q) // 2
                if above(mid, m):
                    lo = mid + 1
                else:
                    q = mid
        if best is None or (m, q) < best:
            best = (m, q)
    return best


def min_lipschitz_unit_norm(N: int) -> MinLipschitzResult:
    """Smallest Lipschitz constant among sup-norm-1 solutions, or infeasible."""
    system = build_constraint_system(N)
    report = nullspace(system)
    L = system.L
    infeasible = MinLipschitzResult(
        N=N, L=L, status="infeasible", value=None, pin_index=None, witness=None
    )
    if report.dimension == 0:
        return infeasible

    touched = list(system.touched)
    half = [c for c in touched if 2 * c <= L]
    forced = set(report.forced_zero_points)
    vertices: dict[int, Optional[tuple[Fraction, ...]]] = {}

    def pinned(pin: int) -> Optional[Fraction]:
        value, vertices[pin] = _solve_pinned(system, sorted({*touched, pin}), pin)
        return value

    best = _search(
        half,
        forced,
        pinned,
        _GapPrograms(system, touched, len(half) - 1).bound,
        lambda a, b: _distance_bound(L, forced, a, b),
    )
    if best is None:
        return infeasible
    value, pin = best
    if pin not in vertices:
        # The value came from the gap's bound at an integer p*: the pin
        # that wins is solved, and must attain that bound.  A losing such
        # pin cannot change the answer, since its value only ever bounds
        # it from below.
        solved = pinned(pin)
        if solved != value:
            raise ArithmeticError(
                f"pin {pin} has optimum {solved}, not its gap's bound {value}"
            )
    cols = sorted({*touched, pin})
    return MinLipschitzResult(
        N=N,
        L=L,
        status="optimal",
        value=value,
        pin_index=pin,
        witness=_fill_witness(L, cols, vertices[pin][: len(cols)]),
    )
