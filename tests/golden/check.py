"""Golden CLI reports: byte-exact outputs and SHA-256 pins.

The files beside this module are the stdout of every example command in
the README, once with ``--format json`` (``<command>.json``) and once with
``--format csv`` (``<command>.csv``), run from this directory so that
``pl:hat.csv`` names the fixture committed here.  ``PINS`` holds the
SHA-256 of the stdout of larger runs, where the report itself is too
big to keep, and of report shapes no README command shows: an
infeasible ``minlip`` (exit 2, a ``Pin`` carries its exit code), a
``minlip`` witness in CSV, the zero polynomial's ``cascade``, a
degree-reduced ``interp``, single-N and swept ``probe``, ``walkthrough``
on the Runge function, ``telescope`` at n = 20 and a zero-extended
``telescope`` from a negative x.  Both were recorded with the plain
``Fraction`` kernels (direct sum, recursive table, ``Polynomial``
products, Fraction Horner), so they hold every later kernel to the same
bytes.  The swept ``probe`` and negative-x ``telescope`` pins were
recorded while the shift sums still added one ``Fraction`` per term.  The ``nullspace``
pins, JSON and CSV at N = 9..12, were recorded while the null space
still built one grid function per basis vector and scanned every grid
column for forced zeros.  The ``minlip`` pins at N = 4..6 were recorded
with the rational (Fraction) tableau; those at N = 7..9 while ``minlip``
still solved one LP per pin 0..L/2; those at N = 10..12, out of that
loop's reach, by the gap search that replaced it.  The
report-shape pins were recorded while every CLI handler still built its
results dict by hand.

``tests/test_golden.py`` runs these under pytest.  Without pytest, run

    PYTHONPATH=src python tests/golden/check.py

from the root of a checkout; it prints one line per case and exits 1 if
any report differs.
"""

import contextlib
import hashlib
import io
import os
import sys
from pathlib import Path
from typing import NamedTuple

from divdiff.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent

# The example commands of the README "Command line" section, in order.
README_COMMANDS = {
    "eval": ["eval", "--knots", "0,1/2,1", "--values", "0,1/4,1"],
    "uniform": ["uniform", "--func", "poly:0,0,1", "--n", "2"],
    "fd": ["fd", "--func", "poly:0,0,1", "--x", "0", "--h", "1/2", "--n", "2"],
    "identity": ["identity", "--func", "ratfun:1;1,0,25", "--n", "6"],
    "interp": ["interp", "--func", "poly:0,-1,0,1", "--n", "3"],
    "cascade": ["cascade", "--func", "poly:0,-1,1"],
    "nullspace": ["nullspace", "--N", "3"],
    "minlip": ["minlip", "--N", "3"],
    "probe": [
        "probe", "--func", "pl:hat.csv", "--extend-zero",
        "--x", "0", "--h", "1/4", "--n", "1", "--Nmax", "8",
    ],
    "telescope": [
        "telescope", "--func", "pl:hat.csv", "--extend-zero",
        "--x", "1/10", "--h", "1/50", "--n", "2", "--j", "1", "--N", "6",
    ],
    "walkthrough": [
        "walkthrough", "--func", "pl:hat.csv", "--extend-zero",
        "--x", "1/10", "--h", "1/8", "--n", "1", "--N", "8",
    ],
}

RUNGE = "ratfun:1;1,0,25"


def _eval_argv(n):
    # Knot j is (j - n/2) / (j % 2 + 1): integers and half-integers of
    # both signs, taken in a scrambled order, with values whose
    # denominators run up to 2^12 (n + 5).
    order = [(37 * k) % (n + 1) for k in range(n + 1)]
    knots = [f"{2 * j - n}/{2 * (j % 2 + 1)}" for j in order]
    values = [f"{(-1) ** j * (3 * j + 1)}/{2 ** (j % 13) * (j + 5)}" for j in order]
    return ["eval", "--knots=" + ",".join(knots), "--values=" + ",".join(values)]


def _cascade_argv(degree):
    coeffs = [f"{(-1) ** k * (k + 1)}/{k % 5 + 1}" for k in range(degree + 1)]
    return ["cascade", "--func", "poly:" + ",".join(coeffs)]


def _walkthrough_argv(fmt):
    return [
        "walkthrough", "--func", RUNGE, "--extend-zero",
        "--x", "1/10", "--h", "1/64", "--n", "3", "--N", "8", "--format", fmt,
    ]


class Pin(NamedTuple):
    """A pinned run: its argv, the SHA-256 of its stdout, its exit code."""

    argv: list
    digest: str
    code: int = 0


PINS = {
    "uniform-64": Pin(
        ["uniform", "--func", RUNGE, "--n", "64"],
        "b923f00b0a1cdf12ea9027da2050be508274f99c466e81ea4e4229d2857d6ba6",
    ),
    "uniform-256": Pin(
        ["uniform", "--func", RUNGE, "--n", "256"],
        "85f89389068ae60e9dc00ce0d7bc68d557d27b4ce50ee7753c7029c829fcf123",
    ),
    "identity-64": Pin(
        ["identity", "--func", RUNGE, "--n", "64"],
        "3b4b25ce65829a260a9cec2537a5ae8fcc0e9098ff7519dcbc7a7062b81a637e",
    ),
    "identity-256": Pin(
        ["identity", "--func", RUNGE, "--n", "256"],
        "af49d95c891abb23edffc9ed8d98bb784a87bdd24216fde41d556cdab78550b9",
    ),
    "interp-64": Pin(
        ["interp", "--func", RUNGE, "--n", "64"],
        "0e18d29b78a0f94205b6287c4b655024608b139503c47cd6ac0072b087f3f130",
    ),
    "interp-256": Pin(
        ["interp", "--func", RUNGE, "--n", "256"],
        "71074496ccec849d44976b8c6b0dd039d9f6e322005b7cec10dd891cef89781b",
    ),
    "eval-64": Pin(
        _eval_argv(64),
        "5838744728f2dbd4c38399dc1b7cf3738df8120885257c6a34bfe2ca9b02f7c5",
    ),
    "eval-256": Pin(
        _eval_argv(256),
        "27fea9ca78410c7e9f6d057e22431bd7befcb8013d61f9edbbb06d19162fb47b",
    ),
    "fd-64": Pin(
        ["fd", "--func", RUNGE, "--x", "0", "--h", "1/64", "--n", "64"],
        "5bd6a1fbec58e98b04612365ebe7fd9809670b7e390877bba4285dca82a0108a",
    ),
    "fd-256": Pin(
        ["fd", "--func", RUNGE, "--x", "0", "--h", "1/256", "--n", "256"],
        "ab5a413cfd67cedd9a8e3db30e436d0d9684bd8aeca91327dcf5e433c93f4a71",
    ),
    "cascade-24": Pin(
        _cascade_argv(24),
        "a661adf9d843f194227c0584b0517fbfd8c788e961dd21c1dc5412bf259ccf26",
    ),
    "nullspace-9": Pin(
        ["nullspace", "--N", "9"],
        "e7be061ae33620f7f49a41cd401b38e79015569a182fd305a15db4a41b3d7e90",
    ),
    "nullspace-9-csv": Pin(
        ["nullspace", "--N", "9", "--format", "csv"],
        "3db0b0631f3f538818dc4f59f6337ecd68a67b111c2981017e815b66136fa7d6",
    ),
    "nullspace-10": Pin(
        ["nullspace", "--N", "10"],
        "76f10e1f71dafd0d4d56a51dbdfa8cbef2bc7990d7d76a5087f7e174df869605",
    ),
    "nullspace-10-csv": Pin(
        ["nullspace", "--N", "10", "--format", "csv"],
        "70739a25799b2c0c5fd42bf22454b363b1ac11363fd2d3f0e8ee0dc6a688c9fd",
    ),
    "nullspace-11": Pin(
        ["nullspace", "--N", "11"],
        "98bb0a572b7aeb3888fb1fd752cc8090a71bcc26e7285d1e4f9b38508f7f5908",
    ),
    "nullspace-11-csv": Pin(
        ["nullspace", "--N", "11", "--format", "csv"],
        "500d403ef9cfab9c9ba3648a04ffe85d040962fc4d1b1c7062721cf88efb9d03",
    ),
    "nullspace-12": Pin(
        ["nullspace", "--N", "12"],
        "4520951f329771ea2042803a237f90904ca4f6a5200dd8ab578fa243e23d6171",
    ),
    "nullspace-12-csv": Pin(
        ["nullspace", "--N", "12", "--format", "csv"],
        "619bf7238ad6447114247ffab261e91ab8932d45aef6057fb3dd68c8de6231dd",
    ),
    "minlip-2-infeasible": Pin(
        ["minlip", "--N", "2"],
        "9495fa2067e2106accfc0930ca23f53e6ed033079db0a90990832936d2b1a1ec",
        code=2,
    ),
    "minlip-4": Pin(
        ["minlip", "--N", "4"],
        "9c324280106ddbea5c42e547af059c34c0054f2503be857ed7e3286e9f6d1ee7",
    ),
    "minlip-5": Pin(
        ["minlip", "--N", "5"],
        "ec188bf350a57e945643e73827ce2427941c106ee65b268a9c36063f9507df0a",
    ),
    "minlip-6": Pin(
        ["minlip", "--N", "6"],
        "88ea50d284d4b24524b55feb3a8506ebcdf1304d9610a44c7a751bebe848bebf",
    ),
    "minlip-7": Pin(
        ["minlip", "--N", "7"],
        "bb250df9ea5354f5ba23cfc9b237bb48e17cc6b979c85c4c505c18834eebc333",
    ),
    "minlip-8": Pin(
        ["minlip", "--N", "8"],
        "16e0e894915cf0c9c1957bd574da8f05cd9d2374bd0346b95048220870e7e7b5",
    ),
    "minlip-9": Pin(
        ["minlip", "--N", "9"],
        "0c9df4770c9b56d54e9a6fbb10e85a3bb8b3ad831a32e873cf6f04cc97fdbafc",
    ),
    "minlip-10": Pin(
        ["minlip", "--N", "10"],
        "71fac5a20973e21d2089d41d68cb6ad221783a7df042902e0aedb045eeaa8da1",
    ),
    "minlip-11": Pin(
        ["minlip", "--N", "11"],
        "eb45a2281dfd93c81fa3f32a6f490eb7aad4e6aa346810050181606f954280c1",
    ),
    "minlip-12": Pin(
        ["minlip", "--N", "12"],
        "499a57710f56d93f3294d68e29d43b11abd8c9d7e8da1660e21fd085186aa144",
    ),
    "minlip-4-csv": Pin(
        ["minlip", "--N", "4", "--format", "csv"],
        "c3026dab25fcc404f968266e6fc66e4212bd483c0dfa9fb57418f2b6214ff8c0",
    ),
    "cascade-zero": Pin(
        ["cascade", "--func", "poly:0"],
        "d987e3da68a53e95ad17706095cb73ba09e0fdb9d262b1053bdc712bd09848e5",
    ),
    "cascade-zero-csv": Pin(
        ["cascade", "--func", "poly:0", "--format", "csv"],
        "4e3ad761b416c0b0e6d09ef59ce5e6f20bb1f5666d8f26abaf4dcd382af29c16",
    ),
    "interp-reduced": Pin(
        ["interp", "--func", "poly:0,1/2,-3/2,1", "--n", "2"],
        "8985040230036eb2011d0fbc90bc624abd868fd36d2bc210a1d02f201fac4d63",
    ),
    "probe-runge": Pin(
        [
            "probe", "--func", RUNGE, "--extend-zero",
            "--x", "1/3", "--h", "1/16", "--n", "3", "--N", "5",
        ],
        "067592fab1bf9db267ccc5014a519bba2863b5304ce3de693b1f337689dd8178",
    ),
    "probe-runge-sweep": Pin(
        [
            "probe", "--func", RUNGE, "--extend-zero",
            "--x", "1/3", "--h", "1/64", "--n", "4", "--Nmax", "256",
        ],
        "324c06c404cc655c012bf3a41a3bfd5858a4b87a1b2e8e47b50b83e8f3cb0f9c",
    ),
    "walkthrough-runge": Pin(
        _walkthrough_argv("json"),
        "bcf5e22fd48de1f24628fbb4adccbb995e186aa0c18f945adc457fd8084894a2",
    ),
    "walkthrough-runge-csv": Pin(
        _walkthrough_argv("csv"),
        "5c03d12e00f433c024e66865fb14873377ebf19982374962a7d02ae6075a72fc",
    ),
    "telescope-runge": Pin(
        [
            "telescope", "--func", RUNGE, "--extend-zero",
            "--x", "-1/3", "--h", "1/64", "--n", "4", "--j", "2", "--N", "30",
        ],
        "fd07be1d706424b265855325093d03cdf9434f11e89d455f04bad05f442e21dd",
    ),
    "telescope-20": Pin(
        [
            "telescope", "--func", "poly:1,-2,0,3",
            "--x", "1/10", "--h", "1/50", "--n", "20", "--j", "3", "--N", "1000",
        ],
        "e2ec6d729229382dce83137a78d20d377a92596a8a6ca1aaed2900a81681d124",
    ),
}


def run(argv):
    """Exit code and stdout of ``divdiff <argv>``, run in GOLDEN_DIR."""
    out = io.StringIO()
    previous = os.getcwd()
    os.chdir(GOLDEN_DIR)
    try:
        with contextlib.redirect_stdout(out):
            code = main(list(argv))
    finally:
        os.chdir(previous)
    return code, out.getvalue()


def readme_argv(name, fmt):
    return README_COMMANDS[name] + ["--format", fmt]


def golden_text(name, fmt):
    return (GOLDEN_DIR / f"{name}.{fmt}").read_text(encoding="utf-8")


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _check_all():
    failures = 0
    for name in README_COMMANDS:
        for fmt in ("json", "csv"):
            code, out = run(readme_argv(name, fmt))
            ok = code == 0 and out == golden_text(name, fmt)
            failures += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {name}.{fmt}")
    for name, pin in PINS.items():
        code, out = run(pin.argv)
        ok = code == pin.code and sha256(out) == pin.digest
        failures += not ok
        print(f"{'ok  ' if ok else 'FAIL'} pin {name}")
    print(f"python {sys.version.split()[0]}: {failures} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(_check_all())
