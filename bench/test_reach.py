"""The reach tool lists a function that no golden or pin runs, and not one
that they do, and the functions they never run are exactly the kept ones.

    python -m pytest bench

The tool reads lines through ``sys.monitoring``, so below Python 3.12
this file is skipped.
"""

import sys

import pytest

import reach

pytestmark = pytest.mark.skipif(
    sys.version_info < (3, 12), reason="sys.monitoring is new in Python 3.12"
)

# The functions that no golden or pin runs, each with the reason it stays.
# This is the one copy of the list; ROADMAP item 10 points here.  A new
# function that none of them runs fails the test below until it is reached
# by a case, removed, or named here with its reason.
KEPT = {
    ("__init__.py", "__getattr__"): "the lazy exports, so that import divdiff loads no "
    "submodule; the CLI imports its modules directly, tests/test_package.py reaches it",
    ("__init__.py", "__dir__"): "lists the lazy exports; tests/test_package.py reaches it",
    ("cli.py", "_Parser.error"): "usage errors, exit 1, under tests/test_cli.py",
    ("cli.py", "_Parser.print_help"): "--help, under tests/test_cli.py",
    ("cli.py", "_encode_into"): "the byte path of --out and a real stdout; the cases write "
    "a StringIO, so only launches reach it (check.SCALE, tests/test_cli.py)",
    ("constraints.py", "ConstraintSystem.residuals"): "the reader's check of a solution",
    ("differences.py", "KnotValueList.equispaced"): "public API, in the README tour",
    ("errors.py", "DuplicateKnotError.__init__"): "a guard, run only on a refusal",
    ("errors.py", "PoleError.__init__"): "a guard, run only on a refusal",
    ("funcs.py", "FuncSpec.evaluate"): "public point evaluation, the oracle of the lattice "
    "pairs (mutant evaluate-without-zero-extension)",
    ("funcs.py", "FuncSpec.pairs"): "a guard: abstract, every FuncSpec overrides it",
    ("funcs.py", "GridFunction.dense"): "the reader's check of a minlip witness",
    ("funcs.py", "GridFunction.lipschitz_constant"): "the reader's check of a minlip "
    "witness, under tests/test_extremal.py",
    ("funcs.py", "GridFunction.value"): "the reader's check of a minlip witness",
    ("linalg.py", "NullBasis.__eq__"): "the null basis as a library value",
    ("linalg.py", "NullBasis.__iter__"): "the null basis read vector by vector, by the "
    "tests' oracles and by callers",
    ("linalg.py", "NullBasis.__repr__"): "the null basis as a library value",
    ("poly.py", "Polynomial.__mul__"): "perfbench traces it (ROADMAP item 13); it goes "
    "when perfbench no longer does",
    ("report.py", "_Run.pairs"): "report writes a value by its exact class, so a NullBasis "
    "inside a command's rows goes through it; it goes with _Run (ROADMAP item 2)",
    ("report.py", "_claim"): "a guard against a key written twice (ROADMAP item 18)",
}


@pytest.fixture(scope="module")
def found():
    return reach.functions(pin.argv for pin in reach.check.CASES.values())


def test_the_cases_never_multiply_polynomials_and_do_sum_the_direct_tree(found):
    count, missed = found["poly.py", "Polynomial.__mul__"]
    assert len(missed) == count > 0
    count, missed = found["differences.py", "_direct_sum"]
    assert count > 0 and not missed


def test_the_functions_no_case_runs_are_the_kept_ones(found):
    never = {key for key, (count, missed) in found.items() if len(missed) == count > 0}
    assert never == set(KEPT)
