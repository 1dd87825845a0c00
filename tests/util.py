"""Shared helpers for randomized tests.

The generators take an explicit ``random.Random`` so individual tests
stay reproducible under a fixed seed.  ``solve_square`` is a plain
Fraction Gaussian elimination, kept here as an oracle for the solvers.
The ``reference_*`` functions are plain Fraction versions of the
integer kernels (the weighted sum, the recursive table, the Newton form
assembled from ``Polynomial`` products, and Horner's rule), kept as
oracles for them.
"""

from fractions import Fraction

from divdiff import (
    GridFunction,
    KnotValueList,
    PiecewiseLinearFunc,
    Polynomial,
    PolynomialFunc,
    RationalFunc,
)


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


def pole_free_rational(rng, extend_zero=False):
    # q^2 + 1 is strictly positive on the whole line, so the quotient
    # can be evaluated anywhere.
    numerator = random_polynomial(rng, max_degree=4)
    q = random_polynomial(rng, max_degree=2, max_num=4)
    denominator = q * q + Polynomial((Fraction(1),))
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
    for k, (xk, vk) in enumerate(kv.pairs):
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


def reference_lagrange(sample):
    """Newton form summed with Polynomial additions and products."""
    knots = sample.knots
    kv = KnotValueList(tuple(zip(knots, sample.values)))
    result = Polynomial.zero()
    basis = Polynomial.constant(1)
    for k, c in enumerate(reference_newton_coefficients(kv)):
        result = result + basis * c
        basis = basis * Polynomial((-knots[k], Fraction(1)))
    return result


def reference_evaluate(p, x):
    """Horner's rule on Fractions."""
    x = Fraction(x)
    acc = Fraction(0)
    for c in reversed(p.coefficients):
        acc = acc * x + c
    return acc
