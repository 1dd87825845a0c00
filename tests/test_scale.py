"""Whole launches at scale, each within its time bound.

Each case launches ``python -m divdiff`` once in a child process, with
the package the tests imported, and is killed and failed past its bound
in seconds.  The launch must exit 0 with nothing on stderr, and one
predicate must hold on its report: the facts of the source paper where
tier-1's in-process tests stop short (the averaged difference near
(-1)^n f(x) at h = 1/20000, the telescoping reindex at N = 10^9, the
difference constraints of rank N + 1 at N = 16), and order-3000 to
order-100000 differences that end in seconds.  An ``{out}`` in a case's
argv is a file in the test's temporary directory, and the report is
read from there, with stdout empty.
"""

import csv
import io
import json
import math
import re
import subprocess
import sys
from fractions import Fraction
from typing import Any, Callable, NamedTuple

import pytest

from golden.check import GOLDEN_DIR
from util import child_env

HAT = f"pl:{GOLDEN_DIR / 'hat.csv'}"
RUNGE = "ratfun:1;1,0,25"
SQUARE = "poly:0,0,1"


class Case(NamedTuple):
    argv: tuple[str, ...]
    bound: float  # seconds
    holds: Callable[[Any], bool]  # on the report, a JSON document or CSV cells


def _nullspace_json(doc: dict, columns: int) -> bool:
    # Dimension and rank fill the L + 1 grid columns, and the exact fields
    # list each basis entry once.
    results = doc["results"]
    basis = results["basis"]
    listed = [p for p in doc["provenance"]["exact_fields"] if p.startswith("results.basis[")]
    unique = set(listed)
    return (
        results["dimension"] == len(basis)
        and results["rank"] + results["dimension"] == columns
        and len(listed) == len(unique) == sum(map(len, basis))
        and all(f"results.basis[{i}].{k}" in unique for i, vector in enumerate(basis) for k in vector)
    )


def _nullspace_csv(cells: dict, columns: int) -> bool:
    basis = {m.group(1) for m in map(re.compile(r"results\.basis\[(\d+)\]\.").match, cells) if m}
    rank, dimension = int(cells["results.rank"]), int(cells["results.dimension"])
    return dimension == len(basis) and rank + dimension == columns


def _nullspace(n: int, fmt: str, out: bool = False) -> Case:
    columns = math.lcm(*range(1, n + 1)) + 1
    holds = _nullspace_csv if fmt == "csv" else _nullspace_json
    argv = ("nullspace", "--N", str(n), "--max-N", str(n), "--format", fmt)
    return Case(argv + ("--out", "{out}") * out, 30, lambda report: holds(report, columns))


def _telescope_of_order_twenty(func: str, *extend: str) -> Case:
    argv = ("telescope", "--func", func, *extend, "--x", "1/10", "--h", "1/50", "--n", "20",
            "--j", "3", "--N", "1000")
    return Case(argv, 10, lambda doc: doc["results"]["jprime"] == math.factorial(20) // 3
                and doc["results"]["equal"] is True
                and doc["results"]["lhs"] == doc["results"]["rhs"])


CASES = {
    # 27,721 and 720,721 grid columns; nearly all of the 27,708 and
    # 720,704 basis vectors are written as runs of untouched columns.
    "nullspace-12-csv-out": _nullspace(12, "csv", out=True),
    "nullspace-12-json-out": _nullspace(12, "json", out=True),
    "nullspace-16-csv": _nullspace(16, "csv"),
    "nullspace-16-json": _nullspace(16, "json"),
    # About 20,000 points of the lattice x + m*h lie in [0, 1], each
    # evaluated once; the residual and bound run to tens of thousands of
    # digits.
    "probe-runge-h-1-20000": Case(
        ("probe", "--func", RUNGE, "--extend-zero", "--x", "0", "--h", "1/20000", "--n", "4",
         "--N", "100000"),
        60,
        lambda doc: bool(doc["results"]["rows"]) and all(
            abs(Fraction(row["residual"])) <= Fraction(row["bound"])
            for row in doc["results"]["rows"]
        ),
    ),
    # Both vanish on x^2: the node products at equispaced knots and the
    # binomial row come by a ratio recurrence.  The identity sums both of
    # its sides on x^2 too.
    "uniform-square-3000": Case(
        ("uniform", "--func", SQUARE, "--n", "3000"), 30,
        lambda doc: doc["results"]["divided_difference"] == "0",
    ),
    "fd-square-20000": Case(
        ("fd", "--func", SQUARE, "--x", "0", "--h", "1/2", "--n", "20000"), 30,
        lambda doc: doc["results"]["value"] == "0",
    ),
    "identity-square-3000": Case(
        ("identity", "--func", SQUARE, "--n", "3000"), 30,
        lambda doc: doc["results"]["equal"] is True,
    ),
    # The direct kernel adds its 3001 terms, each over its own
    # denominator, in a balanced tree; identity asks for each knot once.
    "uniform-runge-3000": Case(
        ("uniform", "--func", RUNGE, "--n", "3000"), 10,
        lambda doc: bool(doc["results"]["divided_difference"]),
    ),
    "identity-runge-3000": Case(
        ("identity", "--func", RUNGE, "--n", "3000"), 10,
        lambda doc: doc["results"]["equal"] is True,
    ),
    # The polynomial trims its trailing zeros in one pass.  Linux caps one
    # argument at 128 KiB, so a --func text holds at most about 65,000.
    "cascade-60000-zeros": Case(
        ("cascade", "--func", "poly:1" + ",0" * 60000), 3,
        lambda doc: (doc["results"]["verdict"], doc["results"]["order"]) == ("NonzeroAtOrder", 0),
    ),
    # An unextended polynomial of degree below n gives 0 after the h and
    # n checks, with no stencil: its binomial row alone would hold about
    # 0.9 GB at n = 100,000.
    "fd-square-100000": Case(
        ("fd", "--func", SQUARE, "--x", "0", "--h", "1/2", "--n", "100000"), 10,
        lambda doc: doc["results"]["value"] == "0",
    ),
    # Each of its four runs is deg p + 1 integer weights on the lattice,
    # so N = 10^9 and j' = 20! cost what N = 1 does.
    "telescope-cubic-N-1e9": Case(
        ("telescope", "--func", "poly:1,-2,0,3", "--x", "1/10", "--h", "1/50", "--n", "20",
         "--j", "1", "--N", "1000000000"),
        10,
        lambda doc: doc["results"]["equal"] is True
        and doc["results"]["jprime"] == math.factorial(20),
    ),
    "walkthrough-hat-15": Case(
        ("walkthrough", "--func", HAT, "--extend-zero", "--x", "1/10", "--h", "1/64",
         "--n", "15", "--N", "8"),
        10,
        lambda doc: doc["results"]["identity_equal"] is True
        and doc["results"]["residual"] == doc["results"]["boundary_total"]
        and len(doc["results"]["boundary"]) == 15,
    ),
    "telescope-20-cubic-extended": _telescope_of_order_twenty("poly:1,-2,3/5,7", "--extend-zero"),
    "telescope-20-cubic": _telescope_of_order_twenty("poly:1,-2,3/5,7"),
    "telescope-20-hat-extended": _telescope_of_order_twenty(HAT, "--extend-zero"),
}


@pytest.mark.parametrize("name", list(CASES))
def test_a_launch_at_scale_ends_within_its_bound(name, tmp_path):
    case = CASES[name]
    out = tmp_path / "report"
    argv = [arg.format(out=out) for arg in case.argv]
    try:
        done = subprocess.run(
            [sys.executable, "-m", "divdiff", *argv], capture_output=True, env=child_env(),
            timeout=case.bound,
        )
    except subprocess.TimeoutExpired:  # the child is killed
        done = None
    if done is None:
        pytest.fail(f"{name} ran past its bound of {case.bound} s", pytrace=False)
    assert (done.returncode, done.stderr) == (0, b"")
    if str(out) in argv:
        assert done.stdout == b""
        text = out.read_bytes()
    else:
        text = done.stdout
    # Exact values past 4,300 digits are read back with the limit lifted.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        if "csv" in argv:
            report = dict(csv.reader(io.StringIO(text.decode("utf-8"), newline="")))
        else:
            report = json.loads(text)
        del text
        held = case.holds(report)
    finally:
        sys.set_int_max_str_digits(limit)
    assert held, name
