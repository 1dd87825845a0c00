"""Independent checks of captured divdiff reports.

Every expected value here comes from a closed form or from a direct
recomputation over ``fractions.Fraction`` that shares no code with
divdiff: polynomial leading coefficients, 1/(a + x) divided differences,
stencil rows built from math.comb, the known minlip value 6, and shift
sums clipped to the points inside [0, 1] (the zero extension makes every
other term vanish, so the clipped sum is exact and cheap).  Where no
closed form exists (piecewise-linear identity inputs) the report's own
equality flags are checked together with its two sides.

``check`` returns None for a correct report and a one-line reason
otherwise.
"""

import csv
import io
import json
import math
import re
from fractions import Fraction

from workloads import horner


class Mismatch(Exception):
    pass


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


# --- the functions an op was given, evaluated by the checker -------------


def evaluator(func: dict, grids: dict):
    """The op's function, extended by zero outside [0, 1] as --extend-zero asks."""
    if func["type"] == "poly":
        coeffs = [Fraction(c) for c in func["coeffs"]]
        inner = lambda x: horner(coeffs, x)  # noqa: E731
    elif func["type"] == "ratfun":
        num = [Fraction(c) for c in func["num"]]
        den = [Fraction(c) for c in func["den"]]
        inner = lambda x: horner(num, x) / horner(den, x)  # noqa: E731
    else:
        grid = grids[func["grid"]]
        L = grid["L"]
        values = {int(k): Fraction(v) for k, v in grid["entries"].items()}

        def inner(x: Fraction) -> Fraction:
            s = x * L
            k = s.numerator // s.denominator
            lo = values.get(k, Fraction(0))
            if k == L:
                return lo
            return lo + (values.get(k + 1, Fraction(0)) - lo) * (s - k)

    return lambda x: inner(x) if 0 <= x <= 1 else Fraction(0)


def _lead_at(coeffs: list, n: int) -> Fraction:
    """Coefficient of x^n in a polynomial of degree at most n."""
    _expect(len(coeffs) - 1 <= n, "generator produced degree above n")
    return Fraction(coeffs[n]) if len(coeffs) - 1 == n else Fraction(0)


def _clipped_sum(g, start: Fraction, step: Fraction, first: int, last: int) -> Fraction:
    """sum_{i=first..last} g(start + i*step) for g zero outside [0, 1], step > 0."""
    lo = max(first, math.ceil(-start / step))
    hi = min(last, math.floor((1 - start) / step))
    return sum((g(start + i * step) for i in range(lo, hi + 1)), Fraction(0))


def stencil_rows(N: int) -> tuple[int, list]:
    """f(0) = 0 and D_{1/n}^n f(0) = 0 for n = 1..N on the grid k/L."""
    L = math.lcm(*range(1, N + 1))
    rows = [{0: 1}]
    for n in range(1, N + 1):
        rows.append({j * (L // n): (-1) ** (n - j) * math.comb(n, j) for j in range(n + 1)})
    return L, rows


def _annihilated(rows: list, vectors: list) -> bool:
    """Every row sums to 0 on every vector; visits only the rows a vector touches."""
    by_column: dict = {}
    for r, row in enumerate(rows):
        for k, c in row.items():
            by_column.setdefault(k, []).append((r, c))
    for vec in vectors:
        sums: dict = {}
        for k, v in vec.items():
            for r, c in by_column.get(k, ()):
                sums[r] = sums.get(r, 0) + c * v
        if any(sums.values()):
            return False
    return True


# --- per-subcommand checks -----------------------------------------------


def _uniform(op, r, grids):
    p = op["params"]
    _expect(r["n"] == p["n"], "n echoed wrong")
    _expect(Fraction(r["divided_difference"]) == _lead_at(op["func"]["coeffs"], p["n"]),
            "divided difference differs from the leading coefficient")


def _fd(op, r, grids):
    p = op["params"]
    n, h = p["n"], Fraction(p["h"])
    expected = _lead_at(op["func"]["coeffs"], n) * math.factorial(n) * h**n
    _expect(Fraction(r["value"]) == expected, "finite difference differs from a*n!*h^n")


def _identity(op, r, grids):
    n = op["params"]["n"]
    _expect(r["equal"] is True and Fraction(r["lhs"]) == Fraction(r["rhs"]), "identity sides differ")
    func = op["func"]
    if func["type"] == "poly":
        expected = _lead_at(func["coeffs"], n)
    elif func["type"] == "ratfun":  # c / (a + x): (-1)^n c / prod_k (a + k/n)
        c, a = Fraction(func["num"][0]), Fraction(func["den"][0])
        expected = (-1) ** n * c / math.prod(a + Fraction(k, n) for k in range(n + 1))
    else:
        return
    _expect(Fraction(r["lhs"]) == expected, "divided difference differs from its closed form")


def _interp(op, r, grids):
    n = op["params"]["n"]
    coeffs = [Fraction(c) for c in op["func"]["coeffs"]]
    _expect([Fraction(c) for c in r["coefficients"]] == coeffs, "interpolant is not the input polynomial")
    _expect(r["degree"] == len(coeffs) - 1, "wrong degree")
    lead = _lead_at(op["func"]["coeffs"], n)
    _expect(Fraction(r["leading"]) == lead, "wrong leading coefficient")
    _expect(r["degree_reduced"] is (lead == 0), "wrong degree_reduced flag")


def _eval(op, r, grids):
    n = len(op["params"]["knots"]) - 1
    expected = _lead_at(op["func"]["coeffs"], n)
    _expect(r["order"] == n, "wrong order")
    _expect(r["equal"] is True, "direct and recursive disagree")
    _expect(Fraction(r["direct"]) == expected == Fraction(r["recursive"]),
            "divided difference differs from the leading coefficient")


def _cascade(op, r, grids):
    coeffs = [Fraction(c) for c in op["func"]["coeffs"]]
    d = len(coeffs) - 1
    rows = r["rows"]
    _expect(r["verdict"] == "NonzeroAtOrder" and r["order"] == d, "verdict order is not the degree")
    _expect([row["order"] for row in rows] == list(range(d, -1, -1)), "wrong cascade orders")
    top = coeffs[d] * math.factorial(d) / Fraction(d) ** d
    _expect(Fraction(rows[0]["value"]) == top and Fraction(rows[0]["step"]) == Fraction(1, d),
            "top difference differs from a*d!/d^d")
    _expect(Fraction(rows[-1]["value"]) == coeffs[0] and rows[-1]["step"] is None, "order-0 row is not p(0)")


def _nullspace_results(op, text):
    if op["format"] == "json":
        r = json.loads(text)["results"]
        basis = [{int(k): Fraction(v) for k, v in vec.items()} for vec in r["basis"]]
        return r["N"], r["L"], r["rank"], r["dimension"], basis, r["forced_zero_points"]
    scalars, basis, forced = {}, {}, {}
    for row in csv.reader(io.StringIO(text)):
        if len(row) != 2:
            continue
        key, value = row
        m = re.fullmatch(r"results\.basis\[(\d+)\]\.(\d+)", key)
        if m:
            basis.setdefault(int(m.group(1)), {})[int(m.group(2))] = Fraction(value)
            continue
        m = re.fullmatch(r"results\.forced_zero_points\[(\d+)\]", key)
        if m:
            forced[int(m.group(1))] = int(value)
            continue
        scalars[key] = value
    vectors = [basis[i] for i in range(len(basis))]
    return (int(scalars["results.N"]), int(scalars["results.L"]), int(scalars["results.rank"]),
            int(scalars["results.dimension"]), vectors, [forced[i] for i in range(len(forced))])


def _nullspace(op, text):
    N, L, rank, dimension, basis, forced = _nullspace_results(op, text)
    own_L, rows = stencil_rows(op["params"]["N"])
    _expect(N == op["params"]["N"] and L == own_L, "wrong N or L")
    _expect(dimension == len(basis) and rank + dimension == L + 1, "rank and dimension do not add up")
    _expect(_annihilated(rows, basis), "a basis vector is not annihilated")
    seen: dict = {}
    for vec in basis:
        for k in vec:
            seen[k] = seen.get(k, 0) + 1
    _expect(all(any(seen[k] == 1 for k in vec) for vec in basis),
            "basis vectors lack private columns (independence unproven)")
    _expect(forced == [k for k in range(L + 1) if k not in seen], "wrong forced zero points")


def _minlip(op, r, grids):
    N = op["params"]["N"]
    own_L, rows = stencil_rows(N)
    _expect(r["N"] == N and r["L"] == own_L, "wrong N or L")
    if N <= 2:
        _expect(r["status"] == "infeasible" and r["value"] is None and r["witness"] is None,
                "N <= 2 must be infeasible")
        return
    _expect(r["status"] == "optimal" and Fraction(r["value"]) == 6, "minlip value is not 6")
    w = {int(k): Fraction(v) for k, v in r["witness"].items()}
    values = [w.get(k, Fraction(0)) for k in range(own_L + 1)]
    _expect(max(abs(v) for v in values) == 1 and values[r["pin_index"]] == 1, "witness sup norm is not 1")
    _expect(_annihilated(rows, [w]), "witness violates a constraint row")
    slope = max(abs(b - a) for a, b in zip(values, values[1:])) * own_L
    _expect(slope == 6, "witness Lipschitz constant is not 6")


def _probe(op, r, grids):
    p = op["params"]
    n, x, h = p["n"], Fraction(p["x"]), Fraction(p["h"])
    f = evaluator(op["func"], grids)
    counts = [2**k for k in range(p["N"].bit_length())] if p["sweep"] else [p["N"]]
    _expect([row["N"] for row in r["rows"]] == counts, "wrong shift counts")
    _expect(r["cutoff"] == math.floor((1 - x) / h), "wrong cutoff")
    sign_fx = (-1) ** n * f(x)
    for row in r["rows"]:
        N = row["N"]
        boundary = sum(
            (-1) ** (n - j) * math.comb(n, j) * _clipped_sum(f, x, j * h, 1, N) for j in range(1, n + 1)
        )
        average, residual = Fraction(row["average"]), Fraction(row["residual"])
        _expect(average == sign_fx + boundary / N, "average differs from the clipped shift sum")
        _expect(residual == average - sign_fx, "residual is not average - (-1)^n f(x)")
        _expect(abs(residual) <= Fraction(row["bound"]), "residual exceeds its bound")


def _telescope(op, r, grids):
    p = op["params"]
    n, j, N, x, h = p["n"], p["j"], p["N"], Fraction(p["x"]), Fraction(p["h"])
    g = evaluator(op["func"], grids)
    jprime, step = math.factorial(n) // j, j * h
    y = x + math.factorial(n) * h
    _expect(r["jprime"] == jprime and Fraction(r["y"]) == y, "wrong j' or y")
    lhs = _clipped_sum(g, x, step, 1, N) - _clipped_sum(g, y, step, 1, N)
    rhs = _clipped_sum(g, x, step, 1, jprime) - _clipped_sum(g, x, step, N + 1, N + jprime)
    _expect(r["equal"] is True and Fraction(r["lhs"]) == lhs and Fraction(r["rhs"]) == rhs,
            "telescope sides differ from the clipped sums")


def _walkthrough(op, r, grids):
    p = op["params"]
    n, x, h = p["n"], Fraction(p["x"]), Fraction(p["h"])
    f = evaluator(op["func"], grids)
    q = [Fraction(c) for c in r["interpolant"]]
    _expect(Fraction(r["y"]) == x + math.factorial(n) * h, "wrong y")
    _expect(all(horner(q, Fraction(k, n)) == f(Fraction(k, n)) for k in range(n + 1)),
            "interpolant misses f at a knot")
    lead = q[n] if len(q) > n else Fraction(0)
    _expect(Fraction(r["leading"]) == lead and r["degree_reduced"] is (lead == 0), "wrong leading coefficient")
    _expect(Fraction(r["f_at_x"]) == f(x) and Fraction(r["q_at_x"]) == horner(q, x), "wrong values at x")
    _expect(r["identity_equal"] is True and Fraction(r["identity_lhs"]) == Fraction(r["identity_rhs"]),
            "walkthrough identity fails")
    residual = Fraction(r["residual"])
    _expect(residual == Fraction(r["boundary_total"]), "residual differs from the boundary total")
    _expect(abs(residual) <= Fraction(r["residual_envelope"]), "residual exceeds its envelope")
    if op["func"]["type"] == "poly" and len(op["func"]["coeffs"]) - 1 <= n:
        _expect(residual == 0, "a polynomial of degree <= n must leave no residual")


_CHECKS = {
    "uniform": _uniform,
    "fd": _fd,
    "identity": _identity,
    "interp": _interp,
    "eval": _eval,
    "cascade": _cascade,
    "minlip": _minlip,
    "probe": _probe,
    "telescope": _telescope,
    "walkthrough": _walkthrough,
}


def check(op: dict, grids: dict, code: int, stdout: str, stderr: str, file_text) -> "str | None":
    """None when the op's outcome is correct, else the reason it is not."""
    try:
        _expect("Traceback" not in stderr, "traceback on stderr")
        _expect(code == op["expect_code"], f"exit code {code}, expected {op['expect_code']}")
        if op["expect_code"] != 0 and op["cmd"] != "minlip":  # a refusal: one diagnostic line
            _expect(stdout == "" and stderr.count("\n") <= 3 and "error" in stderr,
                    "refusal without a one-line diagnostic")
            return None
        if op["out"]:
            _expect(stdout == "" and file_text is not None, "--out report missing or echoed")
            text = file_text
        else:
            text = stdout
        if op["cmd"] == "minlip" and op["expect_code"] == 2:
            _expect("no solution" in stderr, "infeasible minlip without its diagnostic")
        else:
            _expect(stderr == "", "unexpected diagnostics on stderr")
        if op["cmd"] == "nullspace":
            _nullspace(op, text)
            return None
        doc = json.loads(text)
        _expect(doc["command"] == op["cmd"], "wrong command in report")
        _CHECKS[op["cmd"]](op, doc["results"], grids)
    except Mismatch as exc:
        return str(exc)
    except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError) as exc:
        return f"malformed report: {type(exc).__name__}: {exc}"
    return None
