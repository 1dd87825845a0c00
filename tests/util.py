"""Shared helpers for randomized tests.

The generators take an explicit ``random.Random`` so individual tests
stay reproducible under a fixed seed.  ``solve_square`` is a plain
Fraction Gaussian elimination, kept here as an oracle for the solvers.
The ``reference_*`` functions are plain Fraction versions of the
integer kernels (the weighted sum, the recursive table, the Newton form
through the values at k/n assembled from ``Polynomial`` products, and
Horner's rule), and the term-by-term loops over every shift i = 1..N
and every near and far index behind the lattice and closed-form shift
sums in ``probes``, kept as oracles for them; ``reference_shift_average``
at N = 1 (``reference_fd``) is also the oracle for ``finite_difference``
on that lattice.  Every such reference asks ``f.evaluate`` for each term,
and ``reference_equispaced`` samples the knots k/n the same way: one
point at a time, so they check how the package gathers and sums its
points.  ``f.evaluate`` reads the integer pairs of ``FuncSpec.pairs`` as
the sums do, so the values themselves are held to ``reference_value``,
which computes f(x) from ``reference_evaluate`` and the grid values and
reads neither.  ``binomial`` is the checked C(n, j), kept as the oracle
for the stencil, and ``monomial`` builds c*x**k for the fixtures.
``outcome`` turns what a call raised into a comparable value.
``reference_integer_echelon`` is Bareiss's one-step fraction-free
elimination on dense integer lists, every division checked exact, kept
as an echelon oracle that shares no code with the sparse reduced form
in ``linalg``.  ``reference_kernel_basis`` (on top of it) and
``reference_forced_zeros`` are the null-space steps that list every free
column before building its vector by back-substitution and scan every
grid column for forced zeros, kept as oracles for ``kernel_basis`` and
``nullspace``.
``reference_render_json`` and ``reference_render_csv`` write a report by
first converting it to a document of dicts, lists and strings, then
handing that to ``json.dumps(indent=2)`` or flattening it for the
``csv`` module, kept as oracles for the one-pass writer in ``report``;
they write a ``NullBasis`` as the tuple of its vectors, and
``reference_csv_rows`` gives the cells of each CSV line.
``reference_failing_row`` sums every constraint row over all of its
entries, kept as the oracle for the null-vector check in ``constraints``,
which sums each row over the vector's own columns only.
``corrupting_kernel_basis`` spoils one null vector, and
``misreporting_kernel_basis`` drops one and may call its column a pivot,
to show that the null-space certificate in ``constraints`` catches it.
``reference_min_lipschitz`` solves one pinned LP per pin 0..L/2, kept
as the oracle for the gap search in ``extremal``, and
``corrupting_solve_lp`` spoils every LP result, to show that the LP
certificate check there catches it, and ``corrupting_tableau`` spoils
every result the dual simplex re-solve hands back, or every result
solved from scratch.
``reference_gap_program`` is the relaxed program of one gap alone, with
the gap's two slope rows replaced by their merged row, kept as the
oracle for the one relaxed program that serves every gap.
``sparse_rows`` writes dense LP rows as the mappings of their nonzero
entries that ``simplex`` takes.
``add``, ``derivative``, ``antiderivative``, ``shifted`` and
``window_integral`` act on ascending coefficient tuples;
``finite_difference_via_integral`` chains them into the n-fold window
integral of the n-th derivative, kept as the oracle for
``finite_difference`` on a polynomial.
``lookup`` follows a path of ``provenance.exact_fields`` into a JSON
report's document.
"""

import csv
import io
import json
import math
from dataclasses import fields, is_dataclass
from fractions import Fraction
from itertools import zip_longest

from divdiff import (
    AveragingProbeResult,
    BoundaryTerm,
    DomainEvaluationError,
    GridFunction,
    KnotValueList,
    LimitTerm,
    PiecewiseLinearFunc,
    PoleError,
    Polynomial,
    PolynomialFunc,
    RationalFunc,
    __version__,
    build_constraint_system,
    lagrange_equispaced,
    leading_coefficient,
    linalg,
    nullspace,
    simplex,
)
from divdiff.extremal import MinLipschitzResult, _fill_witness, _program
from divdiff.linalg import NullBasis
from divdiff.rational import decimal_string, format_rational, integer_text


def lookup(doc, path):
    """The value at an exact-field path such as ``results.rows[0].value``."""
    node = doc
    for piece in path.replace("]", "").replace("[", ".").split("."):
        node = node[int(piece)] if isinstance(node, list) else node[piece]
    return node


def random_fraction(rng, max_num=9, max_den=9):
    return Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))


def random_polynomial(rng, max_degree=6, max_num=9):
    degree = rng.randint(0, max_degree)
    return Polynomial(tuple(random_fraction(rng, max_num) for _ in range(degree + 1)))


def nonzero_polynomial(rng, max_degree=6):
    while True:
        p = random_polynomial(rng, max_degree)
        if not p.is_zero:
            return p


def random_grid_function(rng, max_denominator=8):
    denominator = rng.randint(1, max_denominator)
    entries = {
        k: random_fraction(rng)
        for k in range(denominator + 1)
        if rng.random() < 0.7
    }
    return GridFunction(denominator=denominator, entries=entries)


def random_sparse_rows(rng, ncols):
    """Up to six rows over a random half of the columns 0..ncols-1.

    The other columns stay untouched.  Rows may be empty, coefficients are
    integers in -4..4, and a zero coefficient still touches its column.
    """
    used = [c for c in range(ncols) if rng.random() < 0.5]
    return [
        {
            c: rng.randint(-4, 4)
            for c in used
            if rng.random() < 0.6
        }
        for _ in range(rng.randint(0, 6))
    ]


def pole_free_rational(rng, extend_zero=False):
    # q^2 + 1 is strictly positive on the whole line, so the quotient
    # can be evaluated anywhere.
    numerator = random_polynomial(rng, max_degree=4)
    q = random_polynomial(rng, max_degree=2, max_num=4)
    denominator = Polynomial(add((q * q).coefficients, (1,)))
    return RationalFunc(numerator, denominator, extended_by_zero=extend_zero)


def random_funcspec(rng, extend_zero=False):
    kind = rng.choice(("poly", "ratfun", "pl"))
    if kind == "poly":
        return PolynomialFunc(random_polynomial(rng), extended_by_zero=extend_zero)
    if kind == "ratfun":
        return pole_free_rational(rng, extend_zero=extend_zero)
    return PiecewiseLinearFunc(random_grid_function(rng), extended_by_zero=extend_zero)


def distinct_knots(rng, count, max_num=30, max_den=8):
    knots = set()
    while len(knots) < count:
        knots.add(random_fraction(rng, max_num=max_num, max_den=max_den))
    knots = list(knots)
    rng.shuffle(knots)
    return tuple(knots)


def solve_square(matrix, rhs):
    """Solve a square rational system by Gaussian elimination.

    Returns the solution vector, or None when the matrix is singular.
    """
    n = len(matrix)
    m = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        inv = m[col][col]
        for r in range(col + 1, n):
            if m[r][col] != 0:
                factor = m[r][col] / inv
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    x = [Fraction(0)] * n
    for r in range(n - 1, -1, -1):
        s = m[r][n] - sum(m[r][c] * x[c] for c in range(r + 1, n))
        x[r] = s / m[r][r]
    return x


def reference_divided_difference(kv):
    """Sum of f(x_k) / W'(x_k), one Fraction product per factor."""
    xs = kv.knots
    total = Fraction(0)
    for k, (xk, vk) in enumerate(zip(xs, kv.values)):
        w = Fraction(1)
        for i, xi in enumerate(xs):
            if i != k:
                w *= xk - xi
        total += vk / w
    return total


def reference_newton_coefficients(kv):
    """Prefix divided differences from the in-place Fraction table."""
    xs = list(kv.knots)
    table = list(kv.values)
    n = kv.order
    coeffs = [table[0]]
    for depth in range(1, n + 1):
        for i in range(n, depth - 1, -1):
            table[i] = (table[i] - table[i - 1]) / (xs[i] - xs[i - depth])
        coeffs.append(table[depth])
    return tuple(coeffs)


def reference_lagrange(values):
    """Newton form through the values at k/n, n = len(values) - 1, summed
    with ``add`` from Polynomial products."""
    n = len(values) - 1
    knots = [Fraction(k, max(n, 1)) for k in range(n + 1)]
    kv = KnotValueList(knots, values)
    result = ()
    basis = Polynomial((1,))
    for k, c in enumerate(reference_newton_coefficients(kv)):
        result = add(result, (basis * c).coefficients)
        basis = basis * Polynomial((-knots[k], Fraction(1)))
    return Polynomial(result)


def knot_values(f, knots):
    """The KnotValueList of f at the knots, one f.evaluate per knot."""
    knots = tuple(Fraction(x) for x in knots)
    return KnotValueList(knots, tuple(f.evaluate(x) for x in knots))


def reference_equispaced(f, n):
    """KnotValueList.equispaced(f, n) term by term: f.evaluate at each k/n."""
    return knot_values(f, [Fraction(k, n) for k in range(n + 1)] if n else [0])


def reference_evaluate(p, x):
    """Horner's rule on Fractions."""
    x = Fraction(x)
    acc = Fraction(0)
    for c in reversed(p.coefficients):
        acc = acc * x + c
    return acc


def binomial(n, j):
    """Exact C(n, j); j outside 0..n is an error, not a zero."""
    if not 0 <= j <= n:
        raise ValueError(f"binomial index out of range: C({n}, {j})")
    return math.comb(n, j)


def monomial(degree, coefficient=1):
    """coefficient * x**degree; a negative degree is an error."""
    if degree < 0:
        raise ValueError("monomial degree must be nonnegative")
    return Polynomial((Fraction(0),) * degree + (Fraction(coefficient),))


def reference_value(f, x):
    """f(x) for a polynomial, rational or piecewise-linear spec, reading
    neither its pairs nor its evaluate: numerator and denominator by
    reference_evaluate, 0 outside [0, 1] when f is zero-extended,
    PoleError where the denominator vanishes, and the linear interpolant
    of the two neighbouring grid values for a grid."""
    x = Fraction(x)
    if f.extended_by_zero and not 0 <= x <= 1:
        return Fraction(0)
    if isinstance(f, PolynomialFunc):
        return reference_evaluate(f.poly, x)
    if isinstance(f, RationalFunc):
        den = reference_evaluate(f.denominator, x)
        if den == 0:
            raise PoleError(x)
        return reference_evaluate(f.numerator, x) / den
    if not 0 <= x <= 1:
        raise DomainEvaluationError(f"{x} is outside [0, 1]")
    k, t = divmod(x * f.grid.denominator, 1)
    lo, hi = f.grid.entries.get(k, 0), f.grid.entries.get(k + 1, 0)
    return lo + (hi - lo) * t


def add(a, b):
    """Coefficients of the sum of two polynomials."""
    return tuple(x + y for x, y in zip_longest(a, b, fillvalue=0))


def derivative(a, order=1):
    """Coefficients of the order-th derivative."""
    for _ in range(order):
        a = tuple(k * c for k, c in enumerate(a))[1:]
    return a


def antiderivative(a):
    """Coefficients of the antiderivative with constant term 0."""
    return (0, *(Fraction(c) / (k + 1) for k, c in enumerate(a)))


def shifted(a, h):
    """Coefficients of x -> p(x + h), each (x + h)^k expanded binomially."""
    return tuple(
        sum(a[k] * math.comb(k, j) * h ** (k - j) for k in range(j, len(a)))
        for j in range(len(a))
    )


def window_integral(a, h):
    """Coefficients of x -> the integral of p over [x, x + h], that is
    A(x + h) - A(x) for the antiderivative A; the top terms cancel."""
    anti = antiderivative(a)
    return tuple(s - c for s, c in zip(shifted(anti, h), anti))[:-1]


def finite_difference_via_integral(p, x, h, n):
    """D_h^n p(x) as the n-fold window integral of p's n-th derivative."""
    a = derivative(p.coefficients, n)
    for _ in range(n):
        a = window_integral(a, h)
    return Polynomial(a).evaluate(x)


def _stencil(n):
    return [(j, (-1) ** (n - j) * math.comb(n, j)) for j in range(n + 1)]


def reference_shift_average(ev, x, h, n, N):
    """(1/N) * sum_{i=1..N} D_{ih}^n ev(x), one ev call per shift and j."""
    total = Fraction(0)
    for j, w in _stencil(n):
        step = j * h
        total += w * sum((ev(x + i * step) for i in range(1, N + 1)), Fraction(0))
    return total / N


def outcome(call, *args):
    """The value of call(*args), or the type and message of what it raised."""
    try:
        return call(*args)
    except Exception as exc:
        return type(exc).__name__, str(exc)


def reference_fd(f, x, h, n):
    """D_h^n f(x), one f.evaluate per term."""
    return reference_shift_average(f.evaluate, x, h, n, 1)


def reference_probe(f, x, h, n, N):
    """averaging_probe's result from the full loop, one f.evaluate per
    distinct point; the bound's M is the largest |f| over the points the
    loop touched inside [0, 1], or the grid's sup norm."""
    x, h = Fraction(x), Fraction(h)
    touched = {}

    def ev(point):
        if point not in touched:
            touched[point] = f.evaluate(point)
        return touched[point]

    average = reference_shift_average(ev, x, h, n, N)
    if isinstance(f, PiecewiseLinearFunc):
        m_bound = max((abs(v) for v in f.grid.entries.values()), default=Fraction(0))
    else:
        m_bound = max(
            (abs(v) for p, v in touched.items() if 0 <= p <= 1), default=Fraction(0)
        )
    survivors = sum(
        math.comb(n, j) * max(0, math.floor((1 - x) / (j * h))) for j in range(1, n + 1)
    )
    return AveragingProbeResult(
        n=n,
        h=h,
        x=x,
        N=N,
        average=average,
        residual=average - (-1) ** n * f.evaluate(x),
        bound=survivors * m_bound / N,
        cutoff=math.floor((1 - x) / h),
    )


def reference_telescope(g, x, n, j, h, N):
    """(jprime, y, lhs, rhs) of the reindexing identity, every term summed."""
    x, h = Fraction(x), Fraction(h)
    nfact = math.factorial(n)
    jprime = nfact // j
    y = x + nfact * h
    step = j * h
    lhs = sum(
        (g.evaluate(x + i * step) - g.evaluate(y + i * step) for i in range(1, N + 1)),
        Fraction(0),
    )
    rhs = sum(
        (g.evaluate(x + i * step) for i in range(1, jprime + 1)), Fraction(0)
    ) - sum((g.evaluate(x + i * step) for i in range(N + 1, N + jprime + 1)), Fraction(0))
    return jprime, y, lhs, rhs


def reference_walkthrough_sums(f, n, h, N, x):
    """Every field of proof_walkthrough's report, by name, from full loops."""
    x, h = Fraction(x), Fraction(h)
    q = lagrange_equispaced(reference_equispaced(f, n).values)
    nfact = math.factorial(n)
    y = x + nfact * h

    def defect(point):
        if point < 0 or point > 1:
            return Fraction(0)
        return f.evaluate(point) - q.evaluate(point)

    avg_defect_x = reference_shift_average(defect, x, h, n, N)
    avg_defect_y = reference_shift_average(defect, y, h, n, N)
    blocks = []
    for j in range(1, n + 1):
        jprime = nfact // j
        near_points = [x + i * j * h for i in range(1, jprime + 1)]
        far_points = [x + i * j * h for i in range(N + 1, N + jprime + 1)]
        near = sum((defect(p) for p in near_points), Fraction(0))
        far = sum((defect(p) for p in far_points), Fraction(0))
        inside = [p for p in near_points + far_points if 0 <= p <= 1]
        blocks.append((j, jprime, near, far, inside))
    max_defect = max(
        (abs(defect(p)) for *_, inside in blocks for p in inside), default=Fraction(0)
    )
    boundary = tuple(
        BoundaryTerm(
            j=j,
            jprime=jprime,
            near_sum=near,
            far_sum=far,
            weighted=Fraction((-1) ** (n - j) * math.comb(n, j), N) * (near - far),
            envelope=Fraction(math.comb(n, j) * len(inside), N) * max_defect,
        )
        for j, jprime, near, far, inside in blocks
    )
    boundary_total = sum((t.weighted for t in boundary), Fraction(0))
    identity_rhs = (-1) ** n * (defect(x) - defect(y))
    identity_lhs = avg_defect_x - avg_defect_y - boundary_total
    lead = leading_coefficient(q, n)
    return {
        "n": n,
        "h": h,
        "N": N,
        "x": x,
        "y": y,
        "interpolant": q,
        "leading": lead,
        "degree_reduced": lead == 0,
        "f_at_x": f.evaluate(x),
        "q_at_x": q.evaluate(x),
        "defect_at_x": defect(x),
        "defect_at_y": defect(y),
        "avg_defect_x": avg_defect_x,
        "avg_defect_y": avg_defect_y,
        "avg_interp_x": reference_shift_average(q.evaluate, x, h, n, N),
        "avg_interp_y": reference_shift_average(q.evaluate, y, h, n, N),
        "boundary": boundary,
        "boundary_total": boundary_total,
        "identity_lhs": identity_lhs,
        "identity_rhs": identity_rhs,
        "identity_equal": identity_lhs == identity_rhs,
        "residual": avg_defect_x - avg_defect_y - identity_rhs,
        "residual_envelope": sum((t.envelope for t in boundary), Fraction(0)),
        "interp_limit_terms": tuple(
            LimitTerm(j, (-1) ** n * Fraction(nfact // j, N) * q.evaluate(x))
            for j in range(1, n + 1)
        ),
    }


def reference_integer_echelon(matrix):
    """(nonzero echelon rows, pivot columns) of a dense integer matrix, by
    one-step fraction-free elimination."""
    rows = [list(r) for r in matrix]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivot_cols = []
    prev = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pivot = rows[r][c]
        for i in range(r + 1, nrows):
            factor = rows[i][c]
            new = []
            for j in range(ncols):
                q, rem = divmod(pivot * rows[i][j] - factor * rows[r][j], prev)
                if rem:
                    raise ArithmeticError("inexact division in fraction-free elimination")
                new.append(q)
            rows[i] = new
        prev = pivot
        pivot_cols.append(c)
        r += 1
    return rows[:r], pivot_cols


def reference_kernel_basis(rows, ncols):
    """(rank, pivot columns, basis) with one vector built per free column."""
    touched = sorted({c for row in rows for c in row})
    col_of = {c: i for i, c in enumerate(touched)}

    int_rows = []
    for row in rows:
        if not row:
            continue
        scale = math.lcm(*(Fraction(v).denominator for v in row.values()))
        dense = [0] * len(touched)
        for c, v in row.items():
            scaled = Fraction(v) * scale
            dense[col_of[c]] = scaled.numerator
        int_rows.append(dense)

    echelon, pivot_local = reference_integer_echelon(int_rows)
    rank = len(pivot_local)
    pivot_cols = [touched[c] for c in pivot_local]
    pivot_set = set(pivot_local)

    free_cols = []
    for c in range(ncols):
        if c not in col_of or col_of[c] not in pivot_set:
            free_cols.append(c)

    basis = []
    for f in free_cols:
        vec_local = {}
        if f in col_of:
            vec_local[col_of[f]] = Fraction(1)
            for row, pc in zip(reversed(echelon), reversed(pivot_local)):
                s = Fraction(0)
                for j in range(pc + 1, len(touched)):
                    if row[j] and j in vec_local:
                        s += row[j] * vec_local[j]
                if s:
                    vec_local[pc] = -s / row[pc]
        vec = {touched[j]: v for j, v in vec_local.items() if v != 0}
        if f not in col_of:
            vec = {f: Fraction(1)}
        basis.append(vec)
    return rank, pivot_cols, basis


def corrupting_kernel_basis(corrupt):
    """kernel_basis with corrupt(vector, free, pivot) applied to the first
    vector of a touched free column that has a pivot entry."""

    def kernel_basis(rows, ncols):
        rank, pivot_cols, vectors = linalg.kernel_basis(rows, ncols)
        vector = next(v for v in vectors if len(v) > 1)
        free = next(c for c in vector if c not in pivot_cols)
        pivot = next(c for c in vector if c in pivot_cols)
        corrupt(vector, free, pivot)
        return rank, pivot_cols, vectors

    return kernel_basis


def misreporting_kernel_basis(add_pivot):
    """kernel_basis without the vector of the first touched free column;
    with add_pivot that column is reported as a pivot too, as an echelon
    that took it for a pivot would."""

    def kernel_basis(rows, ncols):
        rank, pivot_cols, vectors = linalg.kernel_basis(rows, ncols)
        k = next(i for i, segment in enumerate(vectors.segments) if type(segment) is dict)
        free = next(c for c in vectors.segments[k] if c not in pivot_cols)
        if add_pivot:
            rank, pivot_cols = rank + 1, sorted([*pivot_cols, free])
        segments = vectors.segments[:k] + vectors.segments[k + 1 :]
        return rank, pivot_cols, NullBasis(segments)

    return kernel_basis


def reference_min_lipschitz(N):
    """min_lipschitz_unit_norm with one pinned LP per non-forced pin 0..L/2."""
    system = build_constraint_system(N)
    report = nullspace(system)
    infeasible = MinLipschitzResult(
        N=N, L=system.L, status="infeasible", value=None, pin_index=None, witness=None
    )
    if report.dimension == 0:
        return infeasible
    touched = set(system.touched)
    forced = set(report.forced_zero_points)
    best = None
    for pin in range(system.L // 2 + 1):
        if pin in forced:
            continue
        cols = sorted(touched | {pin})
        # The touched-column program over cols, with the pin row u_pin = 2 last.
        c, a_ub, b_ub, a_eq, b_eq = _program(system, cols)
        program = (c, a_ub, b_ub, [*a_eq, {cols.index(pin): 1}], [*b_eq, 2])
        result = simplex.solve_lp(*program)
        simplex.certify(result, *program)
        if result.value is not None and (best is None or result.value < best[0]):
            best = (result.value, result.x, cols, pin)
    if best is None:
        return infeasible
    value, x, cols, pin = best
    witness = _fill_witness(system.L, cols, x[: len(cols)])
    return MinLipschitzResult(
        N=N, L=system.L, status="optimal", value=value, pin_index=pin, witness=witness
    )


def corrupting_solve_lp(corrupt):
    """solve_lp that hands back corrupt(result) in place of every result."""

    def solve_lp(*args, **kwargs):
        return corrupt(simplex.solve_lp(*args, **kwargs))

    return solve_lp


def corrupting_tableau(corrupt, warm):
    """simplex._Tableau that hands back corrupt(result) in place of every
    result it re-solves from a kept basis (warm) or solves from scratch
    (not warm)."""

    class Tableau(simplex._Tableau):
        def solve(self, b_ub=(), b_eq=()):
            spoil = self.warm == warm
            result = super().solve(b_ub, b_eq)
            return corrupt(result) if spoil else result

    return Tableau


def reference_gap_program(system, cols, i):
    """The relaxed program of the gap cols[i]..cols[i + 1] on its own.

    The touched-column program with the two slope rows of the gap
    replaced by their sum for a pin in the gap,
    L / g (4 - u_a - u_b) <= t for the gap width g, written in integers
    as -L u_a - L u_b - g t <= -4 L.
    """
    objective, a_ub, b_ub, a_eq, b_eq = _program(system, cols)
    L, g = system.L, cols[i + 1] - cols[i]
    a_ub[2 * i : 2 * i + 2] = [{i: -L, i + 1: -L, len(cols): -g}]
    b_ub[2 * i : 2 * i + 2] = [-4 * L]
    return objective, a_ub, b_ub, a_eq, b_eq


def sparse_rows(rows):
    """Each dense row as the mapping of its nonzero entries, by index."""
    return [{j: a for j, a in enumerate(row) if a} for row in rows]


def reference_failing_row(system, vector):
    """The lowest constraint row that does not vanish on vector, or None."""
    for n, row in enumerate(system.rows):
        if sum(coeff * vector.get(c, 0) for c, coeff in row.items()):
            return n
    return None


def reference_forced_zeros(vectors, ncols):
    """The columns 0..ncols-1 where every vector holds 0."""
    covered = set()
    for vec in vectors:
        covered.update(k for k, v in vec.items() if v != 0)
    return tuple(k for k in range(ncols) if k not in covered)


def _reference_convert(value, path, exact, approx):
    if isinstance(value, bool):
        return value
    if isinstance(value, Fraction):
        exact.append(path)
        return format_rational(value)
    if isinstance(value, int):
        exact.append(path)
        # A JSON number up to CPython's default int-to-str limit of 4,300
        # digits, whatever limit runs; a string of digits past it.
        text = integer_text(value)
        return value if len(text.lstrip("-")) <= 4300 else text
    if value is None or isinstance(value, str):
        return value
    if isinstance(value, NullBasis):
        value = tuple(value)
    if isinstance(value, (list, tuple)):
        return [
            _reference_convert(v, f"{path}[{i}]", exact, approx) for i, v in enumerate(value)
        ]
    if isinstance(value, dict):
        items = value.items()
        if all(isinstance(k, int) for k in value):
            items = sorted(items)
        out = {}
        for k, v in items:
            key = str(k)
            out[key] = _reference_convert(v, f"{path}.{key}", exact, approx)
            if isinstance(v, Fraction) and not key.lstrip("+-").isdigit():
                out[f"{key}_decimal"] = decimal_string(v)
                approx.append(f"{path}.{key}_decimal")
        return out
    if isinstance(value, Polynomial):
        return _reference_convert(value.coefficients, path, exact, approx)
    if isinstance(value, GridFunction):
        return _reference_convert(value.entries, path, exact, approx)
    if is_dataclass(value) and not isinstance(value, type):
        record = {f.name: getattr(value, f.name) for f in fields(value)}
        return _reference_convert(record, path, exact, approx)
    raise TypeError(f"cannot serialize {type(value).__name__} at {path}")


def _reference_document(report):
    exact = []
    approx = []
    doc = {"command": report.command}
    doc["inputs"] = _reference_convert(report.inputs, "inputs", exact, approx)
    doc["results"] = _reference_convert(report.results, "results", exact, approx)
    doc["provenance"] = {
        "version": __version__,
        "exact_fields": exact,
        "approx_fields": approx,
    }
    return doc


def reference_render_json(report):
    return json.dumps(_reference_document(report), indent=2) + "\n"


def _reference_cell(value):
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return ""
    return str(value)


def _reference_flatten(value, path, pairs):
    if isinstance(value, dict):
        for key, v in value.items():
            _reference_flatten(v, f"{path}.{key}", pairs)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            _reference_flatten(v, f"{path}[{i}]", pairs)
    else:
        pairs.append((path, _reference_cell(value)))


def reference_csv_rows(report):
    """The cells of each CSV line of a report, a table's header taken
    from its first row alone."""
    doc = _reference_document(report)
    rows = [["key", "value"]]
    _reference_flatten(doc["command"], "command", rows)
    _reference_flatten(doc["inputs"], "inputs", rows)
    results = dict(doc["results"])
    table = results.pop("rows", None)
    _reference_flatten(results, "results", rows)
    _reference_flatten(doc["provenance"]["version"], "provenance.version", rows)
    if table is not None:
        rows.append([])
        if table:
            header = list(table[0].keys())
            rows.append(header)
            rows.extend([_reference_cell(row.get(col)) for col in header] for row in table)
    return [list(row) for row in rows]


def _reference_line(cells):
    # csv.writer quotes a field that holds a character of its line
    # terminator; with "\n" alone Python 3.11 would leave a lone "\r"
    # bare, which a reader takes for a line break.  So the line is written
    # with "\r\n" and that ending cut back to "\n".
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\r\n").writerow(cells)
    return buffer.getvalue()[:-2] + "\n"


def reference_render_csv(report):
    """The CSV text of reference_csv_rows, written by the csv module."""
    return "".join(map(_reference_line, reference_csv_rows(report)))
