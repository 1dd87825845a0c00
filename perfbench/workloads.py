"""Seeded op lists for the four benchmark workloads.

An op is one call of ``divdiff.cli.main(argv)``.  A workload is one pass
(a fixed list of ops whose shape -- subcommands, orders, shift counts,
degrees -- never depends on the seed) repeated a fixed number of times.
The seed only picks coefficients, evaluation points, grid files and the
order of ops inside the pass, so two seeds load the program the same way
while feeding it different numbers.

Each op records what the checker needs to verify its report without
trusting the program: the function it was given, its parameters and the
exit code a correct program returns.  Paths are placeholders
(``pl:@<grid>`` and ``@out``) that the child process replaces with files
under its scratch directory.
"""

import math
import random
from fractions import Fraction

# Why each workload exists; BENCHMARK.json repeats these lines.
WHY = {
    "kernels": "uniform/identity/interp/fd/eval/cascade, n 8..256: O(n^2)-O(n^3) Fraction work in differences, "
    "poly, interpolation, funcs; tiny reports, LP only in one floor op",
    "lattice": "minlip N 1..5 and nullspace N 3..8: time in simplex, extremal, linalg and constraints, "
    "small reports; the only workload where LP pruning shows",
    "shifts": "probe, telescope, walkthrough on zero-extended pl/poly/ratfun, h 1/8..1/256, N 10..10^4, "
    "points mostly outside or all inside [0, 1]",
    "reports": "nullspace N 9..12 in json and csv, half via --out: 2 MB reports, so report rendering, "
    "GridFunction churn and peak RSS carry the load",
}

NAMES = tuple(WHY)

# Work in one pass, in seconds at reference speed (see speed.py), measured
# on the seed commit.  The pass count of a run is seconds / PASS_SECONDS, so
# a run lasts about --seconds there and the op list stays fixed.
PASS_SECONDS = {"kernels": 3.1, "lattice": 6.9, "shifts": 3.1, "reports": 3.4}

# Deadline for a single op, in wall seconds.  The slowest seed-commit op
# (minlip N=5) takes about 6 s on a 2-CPU sandbox.
DEADLINE_SECONDS = {"kernels": 30.0, "lattice": 60.0, "shifts": 30.0, "reports": 30.0}

# Input ladders, per pass; recorded in perfbench/README.md and baseline.json.
KERNEL_RUNGS = ((8, 24), (16, 20), (32, 16), (64, 12), (128, 6), (256, 3))
KERNEL_KINDS = ("uniform", "identity", "interp", "fd", "eval")
CASCADE_DEGREES = (1, 2, 4, 6, 8, 10, 12, 14, 16, 19, 22, 24)
MINLIP_COUNTS = ((1, 8), (2, 8), (3, 8), (4, 12), (5, 1))
NULLSPACE_LATTICE = tuple(range(3, 9))
NULLSPACE_LATTICE_REPEATS = 8
NULLSPACE_REPORTS = (9, 10, 11, 12)
H_DENOMINATORS = (8, 16, 32, 64, 128, 256)
PROBE_SLOTS = (  # (n, N, points all inside [0, 1]?)
    [(1 + i % 4, 10, i % 2 == 0) for i in range(10)]
    + [(1 + i % 2, 100, i % 2 == 0) for i in range(10)]
    + [(1 + i % 4, 1000, False) for i in range(5)]
    + [(3, 10_000, False)]
)
PROBE_SWEEPS = ((2, 256), (3, 256))  # (n, Nmax)
TELESCOPE_SLOTS = tuple((2 + i % 6, (10, 100, 1000, 10_000)[i % 4]) for i in range(18))
WALKTHROUGH_SLOTS = (
    [(n, 10) for n in range(1, 8)]
    + [(n, 100) for n in range(1, 7)]
    + [(1, 1000), (2, 1000), (3, 1000), (1, 1000)]
)
GRID_DENOMINATORS = (4, 8, 16, 32)


def tail_percentile(samples: int) -> float:
    """Highest percentile of a fixed ladder with at least ten samples beyond it."""
    best = 50.0
    for p in (50.0, 75.0, 90.0, 95.0, 97.5, 99.0, 99.5, 99.9):
        if samples * (100.0 - p) / 100.0 >= 10.0 - 1e-9:
            best = p
    return best


def passes_for(name: str, seconds: float) -> int:
    return max(1, round(seconds / PASS_SECONDS[name]))


# --- exact helpers, independent of divdiff ------------------------------


def fmt(value: Fraction) -> str:
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _coef(rng: random.Random, nonzero: bool = False) -> Fraction:
    while True:
        value = Fraction(rng.randint(-99, 99), rng.randint(1, 99))
        if value or not nonzero:
            return value


def _poly(rng: random.Random, degree: int) -> list[str]:
    coeffs = [_coef(rng) for _ in range(degree)] + [_coef(rng, nonzero=True)]
    return [fmt(c) for c in coeffs]


def horner(coeffs, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + Fraction(c)
    return acc


def _knots_values(knots, values) -> list:
    # The "=" form keeps argparse from reading a leading "-" as an option.
    return ["--knots=" + ",".join(map(fmt, knots)), "--values=" + ",".join(map(fmt, values))]


def _func_text(func: dict) -> str:
    if func["type"] == "poly":
        return "poly:" + ",".join(func["coeffs"])
    if func["type"] == "ratfun":
        return "ratfun:" + ",".join(func["num"]) + ";" + ",".join(func["den"])
    return "pl:@" + func["grid"]


def _make_grid(rng: random.Random, L: int) -> dict:
    picks = sorted(rng.sample(range(L + 1), k=max(2, L // 2)))
    return {"L": L, "entries": {str(k): fmt(_coef(rng, nonzero=True)) for k in picks}}


def _ratfun_positive(rng: random.Random, degree: int) -> dict:
    """num / (a + x^2) with a > 0: no pole anywhere on the real line."""
    a = Fraction(rng.randint(1, 99), rng.randint(1, 99))
    return {"type": "ratfun", "num": _poly(rng, degree), "den": [fmt(a), "0", "1"]}


def _op(cmd: str, argv: list, func=None, expect_code: int = 0, fmt_name="json", out=False, **params) -> dict:
    argv = [cmd] + [str(a) for a in argv]
    if fmt_name != "json":
        argv += ["--format", fmt_name]
    if out:
        argv += ["--out", "@out"]
    return {
        "cmd": cmd,
        "argv": argv,
        "func": func,
        "params": params,
        "format": fmt_name,
        "out": out,
        "expect_code": expect_code,
    }


# --- the ops every pass carries -------------------------------------------


def floor_ops(rng: random.Random, grids: dict) -> list:
    """One small op per subcommand.

    Every workload carries these (about 0.1 s a pass) so that each layer the
    traced run names does some work in every workload; the layers a workload
    is about still take nearly all of its time.
    """
    grid = "floor"
    grids[grid] = _make_grid(rng, 8)
    poly3 = {"type": "poly", "coeffs": _poly(rng, 3)}
    poly4 = {"type": "poly", "coeffs": _poly(rng, 4)}
    knots = [Fraction(k, 3) for k in (0, 1, 2, 4)]
    values = [horner(poly3["coeffs"], x) for x in knots]
    ops = [
        _op("eval", _knots_values(knots, values),
            func=poly3, knots=list(map(fmt, knots)), values=list(map(fmt, values))),
        _op("uniform", ["--func", _func_text(poly4), "--n", 4], func=poly4, n=4),
        _op("fd", ["--func", _func_text(poly3), "--x", "1/2", "--h", "1/3", "--n", 3],
            func=poly3, x="1/2", h="1/3", n=3),
        _op("identity", ["--func", "ratfun:2;3/2,1", "--n", 4],
            func={"type": "ratfun", "num": ["2"], "den": ["3/2", "1"]}, n=4),
        _op("interp", ["--func", _func_text(poly4), "--n", 4], func=poly4, n=4),
        _op("cascade", ["--func", _func_text(poly3)], func=poly3),
        _op("nullspace", ["--N", 3], N=3),
        _op("minlip", ["--N", 3], N=3),
        _probe(1, {"type": "pl", "grid": grid}, 1, 10, 16, inside=True),
        _telescope(2, poly3, 2, 1, 10, 32),
        _walkthrough(3, {"type": "pl", "grid": grid}, 1, 10, 8),
    ]
    return ops


# --- kernels --------------------------------------------------------------


def _kernel_op(rng: random.Random, kind: str, n: int, slot: int, grids: dict) -> dict:
    if n <= 24 and slot % 2 == 0:
        degree = n
    else:
        degree = 1 + (slot * 5) % min(24, n - 1)
    poly = {"type": "poly", "coeffs": _poly(rng, degree)}
    if kind == "uniform":
        return _op("uniform", ["--func", _func_text(poly), "--n", n], func=poly, n=n)
    if kind == "interp":
        return _op("interp", ["--func", _func_text(poly), "--n", n], func=poly, n=n)
    if kind == "fd":
        x = Fraction(slot % 19 - 9, 1 + slot * 5 % 9)
        h = Fraction(1, 1 + slot % 9)
        return _op("fd", ["--func", _func_text(poly), f"--x={fmt(x)}", "--h", fmt(h), "--n", n],
                   func=poly, x=fmt(x), h=fmt(h), n=n)
    if kind == "eval":
        den = 1 + slot % 9
        knots = [Fraction(k, den) for k in rng.sample(range(3 * (n + 1)), n + 1)]
        values = [horner(poly["coeffs"], x) for x in knots]
        return _op("eval", _knots_values(knots, values),
                   func=poly, knots=list(map(fmt, knots)), values=list(map(fmt, values)))
    # identity: polynomial, 1/(a + x) or a piecewise-linear grid, in turn
    shape = slot % 3
    if shape == 1:
        a = Fraction(rng.randint(1, 99), rng.randint(1, 99))
        c = _coef(rng, nonzero=True)
        func = {"type": "ratfun", "num": [fmt(c)], "den": [fmt(a), "1"]}
    elif shape == 2:
        name = f"k{len(grids)}"
        grids[name] = _make_grid(rng, GRID_DENOMINATORS[slot % len(GRID_DENOMINATORS)])
        func = {"type": "pl", "grid": name}
    else:
        func = poly
    return _op("identity", ["--func", _func_text(func), "--n", n], func=func, n=n)


def _kernel_refusals(rng: random.Random) -> list:
    ops = []
    for n in (8, 16):  # a repeated knot: exit 2
        knots = [Fraction(k, 5) for k in rng.sample(range(40), n + 1)]
        knots[-1] = knots[0]
        values = [_coef(rng) for _ in knots]
        ops.append(_op("eval", _knots_values(knots, values),
                       expect_code=2, refusal="duplicate knot"))
    for n in (8, 16):  # a pole at one of the knots k/n: exit 2
        k = rng.randint(0, n)
        func = {"type": "ratfun", "num": ["1"], "den": [fmt(Fraction(-k, n)), "1"]}
        ops.append(_op("identity", ["--func", _func_text(func), "--n", n], expect_code=2, refusal="pole"))
    bad = rng.choice(("3/0", "1.5", "x", "2/-3", "1e3"))
    ops.append(_op("uniform", ["--func", f"poly:1,{bad},2", "--n", 8], expect_code=1, refusal="bad literal"))
    return ops


def _kernels(rng: random.Random, grids: dict) -> list:
    ops = []
    for r, (n, count) in enumerate(KERNEL_RUNGS):
        for i in range(count):
            kind = KERNEL_KINDS[(r + i) % len(KERNEL_KINDS)]
            ops.append(_kernel_op(rng, kind, n, i, grids))
    for degree in CASCADE_DEGREES:
        poly = {"type": "poly", "coeffs": _poly(rng, degree)}
        ops.append(_op("cascade", ["--func", _func_text(poly)], func=poly))
    return ops + _kernel_refusals(rng)


# --- lattice and reports -----------------------------------------------


def _lattice(rng: random.Random, grids: dict) -> list:
    ops = []
    for N, count in MINLIP_COUNTS:
        ops += [_op("minlip", ["--N", N], expect_code=2 if N <= 2 else 0, N=N) for _ in range(count)]
    for N in NULLSPACE_LATTICE:
        ops += [_op("nullspace", ["--N", N], N=N) for _ in range(NULLSPACE_LATTICE_REPEATS)]
    return ops


def _reports(rng: random.Random, grids: dict) -> list:
    ops = []
    for N in NULLSPACE_REPORTS:
        for fmt_name in ("json", "csv"):
            for out in (False, True):
                ops.append(_op("nullspace", ["--N", N], fmt_name=fmt_name, out=out, N=N))
    return ops


# --- shifts -------------------------------------------------------------


def _shift_func(rng: random.Random, slot: int, grids: dict) -> dict:
    shape = slot % 3
    if shape == 0:
        name = f"s{len(grids)}"
        grids[name] = _make_grid(rng, GRID_DENOMINATORS[slot % len(GRID_DENOMINATORS)])
        return {"type": "pl", "grid": name}
    if shape == 1:
        return {"type": "poly", "coeffs": _poly(rng, 1 + slot % 6)}
    return _ratfun_positive(rng, slot % 4)


def _base_point(slot: int, reach: Fraction) -> Fraction:
    """A point x = k/40 in [0, 1), with x + reach <= 1 when reach < 1.

    It depends on the slot, not the seed: how many shifted points land
    inside [0, 1] sets an op's cost, and that must not vary with the seed.
    """
    top = min(Fraction(39, 40), 1 - reach) if reach < 1 else Fraction(39, 40)
    return Fraction(slot * 7 % (math.floor(top * 40) + 1), 40)


def _probe(slot, func, n, N, h_den, inside, sweep=False) -> dict:
    h = Fraction(1, h_den)
    x = _base_point(slot, n * N * h if inside else Fraction(1))
    count = ["--Nmax", N] if sweep else ["--N", N]
    return _op("probe", ["--func", _func_text(func), "--extend-zero", "--x", fmt(x), "--h", fmt(h),
                         "--n", n] + count,
               func=func, x=fmt(x), h=fmt(h), n=n, N=N, sweep=sweep)


def _telescope(slot, func, n, j, N, h_den) -> dict:
    h = Fraction(1, h_den)
    x = _base_point(slot, Fraction(1))
    return _op("telescope", ["--func", _func_text(func), "--extend-zero", "--x", fmt(x), "--h", fmt(h),
                             "--n", n, "--j", j, "--N", N],
               func=func, x=fmt(x), h=fmt(h), n=n, j=j, N=N)


def _walkthrough(slot, func, n, N, h_den) -> dict:
    h = Fraction(1, h_den)
    x = _base_point(slot, Fraction(1))
    return _op("walkthrough", ["--func", _func_text(func), "--extend-zero", "--x", fmt(x), "--h", fmt(h),
                               "--n", n, "--N", N],
               func=func, x=fmt(x), h=fmt(h), n=n, N=N)


def _shifts(rng: random.Random, grids: dict) -> list:
    ops = []
    slot = 0
    for n, N, inside in PROBE_SLOTS:
        h_den = 256 if inside else H_DENOMINATORS[slot % len(H_DENOMINATORS)]
        ops.append(_probe(slot, _shift_func(rng, slot, grids), n, N, h_den, inside))
        slot += 1
    for n, Nmax in PROBE_SWEEPS:
        ops.append(_probe(slot, _shift_func(rng, slot, grids), n, Nmax, 64, False, sweep=True))
        slot += 1
    for i, (n, N) in enumerate(TELESCOPE_SLOTS):
        j = 1 + i % n
        ops.append(_telescope(slot, _shift_func(rng, slot, grids), n, j, N,
                              H_DENOMINATORS[slot % len(H_DENOMINATORS)]))
        slot += 1
    for n, N in WALKTHROUGH_SLOTS:
        ops.append(_walkthrough(slot, _shift_func(rng, slot, grids), n, N,
                                H_DENOMINATORS[slot % len(H_DENOMINATORS)]))
        slot += 1
    return ops


_BUILDERS = {"kernels": _kernels, "lattice": _lattice, "shifts": _shifts, "reports": _reports}


def build(name: str, seed: int) -> dict:
    """The pass of workload ``name`` for ``seed``: ops in run order plus grid files."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    rng = random.Random(f"divdiff-perfbench:{name}:{seed}")
    grids: dict = {}
    ops = _BUILDERS[name](rng, grids) + floor_ops(rng, grids)
    rng.shuffle(ops)
    for i, op in enumerate(ops):
        op["id"] = i
    return {"workload": name, "seed": seed, "grids": grids, "ops": ops}
