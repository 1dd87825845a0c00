"""Acceptance gate: ten checks, one printed pass/fail line each.

Each test prints its line before asserting, so the lines are visible in
captured output on failure and under `pytest tests/test_acceptance.py -s`
when everything passes.  All comparisons are exact rational equality;
the stated time budgets are informational and printed with each line.
"""

import json
import random
import time
from fractions import Fraction

from divdiff import (
    KnotValueList,
    PiecewiseLinearFunc,
    Polynomial,
    PolynomialFunc,
    averaging_probe,
    build_constraint_system,
    check_equispaced_identity,
    divided_difference_direct,
    divided_difference_recursive,
    finite_difference,
    lagrange_equispaced,
    leading_coefficient,
    min_lipschitz_unit_norm,
    nullspace,
    parse_rational,
    polynomial_cascade,
    telescope_shift_identity,
)

from golden.check import launch
from util import (
    distinct_knots,
    finite_difference_via_integral,
    lookup,
    nonzero_polynomial,
    pole_free_rational,
    random_fraction,
    random_funcspec,
    random_grid_function,
    random_polynomial,
)


def report_line(number, label, ok, started):
    elapsed = time.perf_counter() - started
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:2d} [{status}] {label} ({elapsed:.2f}s)")


def test_criterion_01_identity_corpus():
    started = time.perf_counter()
    rng = random.Random(1001)
    corpus = []
    for _ in range(20):
        corpus.append(PolynomialFunc(random_polynomial(rng, max_degree=10)))
    for _ in range(15):
        corpus.append(pole_free_rational(rng))
    for _ in range(15):
        corpus.append(PiecewiseLinearFunc(random_grid_function(rng)))
    failures = []
    for i, f in enumerate(corpus):
        for n in range(1, 13):
            check = check_equispaced_identity(f, n)
            if not check.equal:
                failures.append((i, n))
    ok = len(corpus) >= 50 and not failures
    report_line(1, "divided difference equals scaled forward difference "
                   "(50 functions, n=1..12, target <10s)", ok, started)
    assert ok, failures


def test_criterion_02_direct_equals_recursive():
    started = time.perf_counter()
    rng = random.Random(1002)
    ok = True
    for _ in range(1000):
        order = rng.randint(0, 10)
        knots = distinct_knots(rng, order + 1)
        kv = KnotValueList(knots, tuple(random_fraction(rng) for _ in knots))
        if divided_difference_direct(kv) != divided_difference_recursive(kv):
            ok = False
            break
    report_line(2, "direct sum equals recursive table "
                   "(1000 instances, order<=10, target <5s)", ok, started)
    assert ok


def test_criterion_03_integral_representation():
    started = time.perf_counter()
    rng = random.Random(1003)
    ok = True
    for _ in range(200):
        p = random_polynomial(rng, max_degree=10)
        n = rng.randint(1, 8)
        x = random_fraction(rng)
        h = abs(random_fraction(rng)) + Fraction(1, 4)
        via_sum = finite_difference(PolynomialFunc(p), x, h, n)
        if finite_difference_via_integral(p, x, h, n) != via_sum:
            ok = False
            break
    report_line(3, "window-integral form equals binomial sum "
                   "(200 polynomials, deg<=10, n<=8, target <10s)", ok, started)
    assert ok


def test_criterion_04_leading_coefficient_bridge():
    started = time.perf_counter()
    rng = random.Random(1004)
    ok = True
    for _ in range(200):
        n = rng.randint(1, 10)
        values = tuple(random_fraction(rng) for _ in range(n + 1))
        q = lagrange_equispaced(values)
        kv = KnotValueList(tuple(Fraction(k, n) for k in range(n + 1)), values)
        if leading_coefficient(q, n) != divided_difference_direct(kv):
            ok = False
            break
    report_line(4, "interpolant leading coefficient equals divided difference "
                   "(200 samples, n<=10, target <5s)", ok, started)
    assert ok


def test_criterion_05_cascade_pins_the_degree():
    started = time.perf_counter()
    rng = random.Random(1005)
    zero = polynomial_cascade(Polynomial())
    ok = (zero.verdict, zero.order) == ("ZeroPolynomial", None)
    for _ in range(200):
        if not ok:
            break
        p = nonzero_polynomial(rng, max_degree=10)
        result = polynomial_cascade(p)
        ok = (result.verdict, result.order) == ("NonzeroAtOrder", p.degree)
    report_line(5, "difference cascade identifies zero vs degree "
                   "(200 nonzero polynomials, deg<=10, target <5s)", ok, started)
    assert ok


def test_criterion_06_nullspace_fixtures():
    started = time.perf_counter()
    reports = {N: nullspace(build_constraint_system(N)) for N in (1, 2, 3, 4)}
    ok = (
        reports[1].dimension == 0
        and reports[2].dimension == 0
        and reports[3].dimension == 3
        and reports[3].forced_zero_points == (0, 3, 6)
        and all(vec.get(2, 0) == vec.get(4, 0) for vec in reports[3].basis)
        and reports[4].dimension == 8
    )
    report_line(6, "constraint null spaces: dims 0,0,3,8; forced zeros at "
                   "0,1/2,1 and f(1/3)=f(2/3) for N=3 (target <1s)", ok, started)
    assert ok


def test_criterion_07_min_lipschitz_fixture():
    started = time.perf_counter()
    two = min_lipschitz_unit_norm(2)
    three = min_lipschitz_unit_norm(3)
    ok = two.status == "infeasible" and three.status == "optimal"
    if ok:
        system = build_constraint_system(3)
        witness = three.witness
        ok = (
            three.value == 6
            and witness is not None
            and all(r == 0 for r in system.residuals(witness))
            and witness.sup_norm() == 1
            and witness.lipschitz_constant() == 6
        )
    report_line(7, "min Lipschitz: N=2 infeasible, N=3 exactly 6 with valid "
                   "witness (target <5s)", ok, started)
    assert ok


def test_criterion_08_telescoping_identity():
    started = time.perf_counter()
    rng = random.Random(1008)
    ok = True
    for _ in range(500):
        g = random_funcspec(rng, extend_zero=True)
        n = rng.randint(1, 6)
        j = rng.randint(1, n)
        h = Fraction(1, rng.randint(10, 200))
        N = rng.randint(1, 50)
        x = Fraction(rng.randint(0, 21), 20)
        check = telescope_shift_identity(g, x, n, j, h, N)
        if not check.equal:
            ok = False
            break
    report_line(8, "telescoping shift identity exact on 500 random "
                   "configurations (n<=6, N<=50, target <10s)", ok, started)
    assert ok


def test_criterion_09_averaging_decay():
    started = time.perf_counter()
    rng = random.Random(1009)
    ok = True
    for _ in range(20):
        f = random_funcspec(rng, extend_zero=True)
        n = rng.randint(1, 4)
        h = Fraction(1, rng.randint(8, 64))
        x = Fraction(rng.randint(0, 19), 20)
        saturated = []
        cutoff = None
        for N in (4, 8, 16, 32, 64, 128, 256):
            probe = averaging_probe(f, x, h, n, N)
            cutoff = probe.cutoff
            if abs(probe.residual) > probe.bound:
                ok = False
                break
            if N >= probe.cutoff:
                saturated.append(probe.residual * N)
        # h >= 1/64 keeps the cutoff below 256, so the saturated regime is
        # actually sampled; past it, residual * N must be a single constant
        if not ok or len(saturated) < 2 or len(set(saturated)) != 1:
            ok = False
            break
    report_line(9, "averaged residual obeys bound and residual*N freezes past "
                   "cutoff (20 functions, N=4..256, target <20s)", ok, started)
    assert ok


CLI_FIXTURES = [
    ["eval", "--knots", "0,1/3,1", "--values", "1,0,1"],
    ["uniform", "--func", "ratfun:1;1,0,25", "--n", "4"],
    ["fd", "--func", "poly:0,0,1", "--x", "1/3", "--h", "1/6", "--n", "2"],
    ["identity", "--func", "poly:0,-1,0,1", "--n", "3"],
    ["interp", "--func", "poly:0,-1,0,1", "--n", "3"],
    ["cascade", "--func", "poly:0,-1,1"],
    ["nullspace", "--N", "3"],
    ["minlip", "--N", "3"],
    ["probe", "--func", "pl:hat.csv", "--extend-zero", "--x", "0", "--h", "1/4",
     "--n", "1", "--Nmax", "8"],
    ["telescope", "--func", "pl:hat.csv", "--extend-zero", "--x", "1/10",
     "--h", "1/50", "--n", "2", "--j", "1", "--N", "6"],
    ["walkthrough", "--func", "pl:hat.csv", "--extend-zero", "--x", "1/10",
     "--h", "1/8", "--n", "1", "--N", "8"],
]


def test_criterion_10_cli_round_trip():
    # Launched from tests/golden/, so that pl:hat.csv names the fixture there.
    started = time.perf_counter()
    ok = True
    for argv in CLI_FIXTURES:
        runs = [launch(argv, keep_report=True) for _ in range(2)]
        if runs[0].report != runs[1].report or not runs[0].report:
            ok = False
            break
        doc = json.loads(runs[0].report)
        for path in doc["provenance"]["exact_fields"]:
            leaf = lookup(doc, path)
            if isinstance(leaf, str):
                parse_rational(leaf)
            elif not isinstance(leaf, int):
                ok = False
                break
        if not ok:
            break
    report_line(10, "every subcommand emits byte-identical reports across "
                    "runs and all exact fields re-parse (target <10s)", ok, started)
    assert ok
