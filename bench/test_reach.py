"""The reach tool lists a function that no golden or pin runs, and not one
that they do.

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


def test_the_cases_never_multiply_polynomials_and_do_sum_the_direct_tree():
    found = reach.functions(pin.argv for pin in reach.check.CASES.values())
    count, missed = found["poly.py", "Polynomial.__mul__"]
    assert len(missed) == count > 0
    count, missed = found["differences.py", "_direct_sum"]
    assert count > 0 and not missed
