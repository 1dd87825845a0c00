"""Whole launches at scale, each within its time bound, and the launcher.

Each bounded run of ``SCALE`` in ``tests/golden/check.py`` is launched
once through ``check.launch``, with the package the tests imported, and
is killed and failed past its bound in seconds.  The launch must exit 0
with nothing on stderr and give its pinned SHA-256, and one predicate in
``HOLDS`` must hold on its report: the facts of the source paper where
tier-1's in-process tests stop short (the averaged difference near
(-1)^n f(x) at h = 1/20000, the telescoping reindex at N = 10^9, the
difference constraints of rank N + 1 at N = 16), and order-3000 to
order-100000 differences that end in seconds.
"""

import csv
import io
import json
import math
import re
import sys
import time
from fractions import Fraction

import pytest

from golden.check import GOLDEN_DIR, SCALE, launch


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


def _nullspace(holds, n: int):
    columns = math.lcm(*range(1, n + 1)) + 1
    return lambda report: holds(report, columns)


def _telescope_of_order_twenty(doc: dict) -> bool:
    return (doc["results"]["jprime"] == math.factorial(20) // 3
            and doc["results"]["equal"] is True
            and doc["results"]["lhs"] == doc["results"]["rhs"])


# The fact each bounded run must show, on its report: a JSON document or
# CSV cells.
HOLDS = {
    "nullspace-12-csv-out": _nullspace(_nullspace_csv, 12),
    "nullspace-12-json-out": _nullspace(_nullspace_json, 12),
    "nullspace-16-csv": _nullspace(_nullspace_csv, 16),
    "nullspace-16-json": _nullspace(_nullspace_json, 16),
    "probe-runge-h-1-20000": lambda doc: bool(doc["results"]["rows"]) and all(
        abs(Fraction(row["residual"])) <= Fraction(row["bound"])
        for row in doc["results"]["rows"]
    ),
    "uniform-square-3000": lambda doc: doc["results"]["divided_difference"] == "0",
    "fd-square-20000": lambda doc: doc["results"]["value"] == "0",
    "identity-square-3000": lambda doc: doc["results"]["equal"] is True,
    "uniform-runge-3000": lambda doc: bool(doc["results"]["divided_difference"]),
    "identity-runge-3000": lambda doc: doc["results"]["equal"] is True,
    "cascade-60000-zeros": lambda doc: (
        (doc["results"]["verdict"], doc["results"]["order"]) == ("NonzeroAtOrder", 0)
    ),
    "fd-square-100000": lambda doc: doc["results"]["value"] == "0",
    "telescope-cubic-N-1e9": lambda doc: doc["results"]["equal"] is True
    and doc["results"]["jprime"] == math.factorial(20),
    "walkthrough-hat-15": lambda doc: doc["results"]["identity_equal"] is True
    and doc["results"]["residual"] == doc["results"]["boundary_total"]
    and len(doc["results"]["boundary"]) == 15,
    "telescope-20-cubic-extended": _telescope_of_order_twenty,
    "telescope-20-cubic": _telescope_of_order_twenty,
    "telescope-20-hat-extended": _telescope_of_order_twenty,
}


@pytest.mark.parametrize("name", [name for name, run in SCALE.items() if run.bound])
def test_a_launch_at_scale_ends_within_its_bound(name):
    run = SCALE[name]
    try:
        done = launch(run.argv, run.bound, keep_report=True)
    except TimeoutError as error:
        pytest.fail(f"{name}: {error}", pytrace=False)
    assert (done.code, done.stderr, done.sha256) == (run.code, b"", run.digest)
    text = done.report
    del done
    # Exact values past 4,300 digits are read back with the limit lifted.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        if "csv" in run.argv:
            report = dict(csv.reader(io.StringIO(text.decode("utf-8"), newline="")))
        else:
            report = json.loads(text)
        del text
        held = HOLDS[name](report)
    finally:
        sys.set_int_max_str_digits(limit)
    assert held, name


def test_a_launch_past_its_bound_is_killed_promptly():
    started = time.perf_counter()
    with pytest.raises(TimeoutError, match="minlip ran past its bound of 0.05 s"):
        launch(SCALE["minlip-13"].argv, 0.05)
    assert time.perf_counter() - started < 3


def test_an_out_launch_reports_the_file_with_stdout_empty():
    # The report is stdout followed by the file: any stray stdout byte
    # would show in front of the golden bytes.
    done = launch(["nullspace", "--N", "3", "--out", "{out}"], keep_report=True)
    assert (done.code, done.stderr) == (0, b"")
    assert done.report == (GOLDEN_DIR / "nullspace.json").read_bytes()


def test_a_failed_launch_keeps_its_stderr_line():
    done = launch(["nullspace", "--N", "20"])
    assert (done.code, done.size) == (1, 0)
    assert done.stderr == b"divdiff: error: N=20 exceeds the cap 12; raise it with --max-N\n"
