"""The committed mutants: each one breaks a check or a rule of the package,
and names the tests that must fail when it does.

An entry gives the file under ``src/divdiff/``, the exact old text (it
must occur there once), the new text, the test ids that must fail, and
one line of reason.  A test id is a pytest node id as ``pytest -rf``
prints it, with its parameter part.  A surviving mutant is mended by a
test, never by deleting or weakening its entry; an entry changes only
when the code it targets changes.
"""

from typing import NamedTuple


class Mutant(NamedTuple):
    file: str
    old: str
    new: str
    tests: tuple[str, ...]
    reason: str


EXTREMAL = "tests/test_extremal.py::"

MUTANTS = {
    "certify-without-dual-feasibility": Mutant(
        "simplex.py",
        '    if any(v * cj.denominator > cj.numerator * dy * s for v, cj in zip(ty, c)):\n'
        '        raise ArithmeticError("LP dual is not feasible")\n',
        "",
        (
            EXTREMAL + "test_lp_certificate_catches_a_corrupted_result[a doubled dual-3]",
            EXTREMAL
            + "test_lp_certificate_catches_a_corrupted_result_on_fraction_rows[a doubled dual]",
            EXTREMAL + "test_lp_certificate_catches_a_corrupted_warm_result[a doubled dual]",
        ),
        "a dual that breaks A^T y <= c would let a value below the optimum certify",
    ),
    "certify-without-solution-sign-and-length": Mutant(
        "simplex.py",
        "    if x is None or len(x) != len(c) or any(v < 0 for v in x):\n"
        '        raise ArithmeticError("LP solution is not feasible")\n',
        "",
        (
            EXTREMAL
            + "test_lp_certificate_catches_a_corrupted_result[an extra negative solution entry-3]",
            EXTREMAL + "test_lp_certificate_catches_a_corrupted_result_on_fraction_rows"
            "[an extra negative solution entry]",
            EXTREMAL + "test_lp_certificate_catches_a_corrupted_warm_result"
            "[an extra negative solution entry]",
        ),
        "an entry past the last column is seen by no row, only by this check",
    ),
    "sweep-without-residual-recomputation": Mutant(
        "probes.py",
        "        if lattice.total(boundary) / N != residual:\n"
        '            raise ArithmeticError("residual recomputation mismatch")\n',
        "",
        ("tests/test_probes.py::test_a_spoiled_average_fails_the_residual_recomputation",),
        "a wrong shift average would reach the probe report unchecked",
    ),
    "pin-row-at-one": Mutant(
        "extremal.py",
        "        b_eq.append(2)\n",
        "        b_eq.append(1)\n",
        (
            EXTREMAL + "test_three_attains_six",
            EXTREMAL + "test_gap_search_matches_the_per_pin_loop[3]",
            EXTREMAL + "test_minlip_report_is_byte_identical[3]",
        ),
        "u_pin = 1 is f(pin) = 0, so the pinned programs lose the sup norm 1",
    ),
}
