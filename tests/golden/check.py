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
column for forced zeros.  The ``nullspace-13`` pins, JSON and CSV, the
first with six-digit columns (L = 360,360), were recorded while the
report writer still formatted each run's ``i].k`` paths one
``str.format`` at a time.  The ``nullspace-14`` (JSON) and
``nullspace-16-csv`` pins were recorded while ``kernel_basis`` still
ran the one-step fraction-free echelon on dense copies of the touched
columns and back-substituted in Fractions.  The ``minlip`` pins at N = 4..6 were recorded
with the rational (Fraction) tableau; those at N = 7..9 while ``minlip``
still solved one LP per pin 0..L/2; those at N = 10..12, out of that
loop's reach, by the gap search that replaced it.  The
report-shape pins were recorded while every CLI handler still built its
results dict by hand.  The ``uniform-1000`` and ``fd-10000`` pins were
recorded while the direct kernel still formed each node product as a
product of n factors and the stencil took each binomial from
``math.comb``.  The pins on a rational function whose denominator is
negative on [0, 1] (``probe``, ``walkthrough``, ``telescope``), the
``walkthrough`` of a polynomial whose points land on the knots k/n, and
the unextended ``fd`` of a quadratic at order 5 were recorded while
every point of a shift sum was still evaluated to a ``Fraction``
through ``FuncSpec.evaluate``.  The ``uniform-3000`` and
``identity-3000`` pins on the Runge function, the degree-5 ``interp``
at n = 400 and the ``eval`` of a degree-7 polynomial at 129 unequally
spaced knots were recorded while the direct kernel still summed over
the lcm of all its denominators and both difference tables ran every
pass past their first vanishing row; those two Runge pins also while
the node products at equispaced knots still came from a table of
factorials.  The order-0 ``uniform`` and ``interp`` pins were recorded
while the single knot 0 of order 0 still had its own branch.  The
``identity`` pin on a quadratic at n = 64 was recorded while the forward
difference of an unextended polynomial of degree below n was still set
to 0 and never summed.  The two ``telescope`` pins whose ``jprime`` (n!/j)
has 690 and 5,080 digits were recorded under CPython's default
int-to-str digit limit, while the report still wrote an int as a JSON
number or a string by whether the running limit let ``str()`` convert it.
The pins on ``zigzag.csv``, the second grid fixture here (L = 12), were
recorded while a piecewise-linear function still interpolated each
point as a ``Fraction`` through ``GridFunction.evaluate``.  The
``cascade`` pins at degree 160 and with interior zero coefficients, and
the ``uniform`` and ``identity`` pins on a degree-24 polynomial with
mixed denominators and on a rational function whose denominator is
negative on [0, 1], were recorded while the cascade still summed a
lattice stencil for every order and the equispaced direct sum still
made each knot and each value a ``Fraction``.  The zero-extended ``fd``
pins on a polynomial, on a rational function and on ``zigzag.csv`` were
recorded while each kind of function still applied the zero extension
in its own pairs.

``CASES`` lists each of these runs once, with the SHA-256 and exit code
it must give: ``readme-<command>-<format>`` for every README command in
JSON, then in CSV, whose digest is that of its golden file's bytes, then
``pin-<name>`` for every pin.  ``SCALE`` lists the runs too large or too
slow to run in process, each with its time bound in seconds.  ``launch``
runs one argv as a whole ``python -m divdiff`` child, from this directory:
``tests/test_scale.py`` launches every bounded run of ``SCALE``, and the
ladder in ``bench/`` times every case of both tables, under the same
names (``scale-<name>`` for ``SCALE``).  ``tests/test_golden.py`` runs
``CASES`` under pytest.  Without pytest, run

    PYTHONPATH=src python tests/golden/check.py

from the root of a checkout; it prints one ``ok`` or ``FAIL`` line per
case, under its ``CASES`` name, then ``python X.Y.Z: N failed``, and
exits 1 if any report differs.
"""

import contextlib
import hashlib
import io
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import divdiff
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


def _polynomial_eval_argv(count):
    # Knot k is (-1)^k (k^2 + 1) / (k % 7 + 2): unequally spaced, of both
    # signs and with mixed denominators.  The values are those of a
    # degree-7 polynomial, so every difference past order 7 vanishes.
    coeffs = [Fraction((-1) ** i * (2 * i + 1), i % 4 + 3) for i in range(8)]
    knots = [Fraction((-1) ** k * (k * k + 1), k % 7 + 2) for k in range(count)]
    values = [sum(c * x**i for i, c in enumerate(coeffs)) for x in knots]
    return ["eval", "--knots=" + ",".join(map(str, knots)),
            "--values=" + ",".join(map(str, values))]


# Denominator -2 + x is negative on [0, 1]; the numerator's degree is higher.
NEGATIVE_DENOMINATOR = "ratfun:1,2,0,3;-2,1"


def _walkthrough_argv(fmt):
    return [
        "walkthrough", "--func", RUNGE, "--extend-zero",
        "--x", "1/10", "--h", "1/64", "--n", "3", "--N", "8", "--format", fmt,
    ]


# Degree 24, coefficients of both signs over the denominators 2..8, so
# each equispaced pair (P(t), E) is an integer over E = 840 n^24.
MIXED_24 = "poly:" + ",".join(f"{(-1) ** (k // 2) * (3 * k + 1)}/{k % 7 + 2}" for k in range(25))


# A piecewise-linear grid of 12 steps with values of both signs and mixed
# denominators, nonzero at 0 and at 1, and with its zero entries omitted.
ZIGZAG = "pl:zigzag.csv"


class Pin(NamedTuple):
    """A pinned run: its argv, the SHA-256 of its report, its exit code, and
    for a run of SCALE its time bound in seconds (None: timed, not bounded)."""

    argv: list
    digest: str
    code: int = 0
    bound: float | None = None


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
    "uniform-1000": Pin(
        ["uniform", "--func", RUNGE, "--n", "1000"],
        "764cbfef56b0b723354cb805f4829b7bd3e243f1cd54dc30b11a1f68c4093cdf",
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
    "fd-10000": Pin(
        ["fd", "--func", RUNGE, "--x", "0", "--h", "1/2", "--n", "10000"],
        "e208d0a182f1ffca69823e9c60a9d6f935dcc88592fbbdceea24fdc9d8a54d10",
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
    "nullspace-13": Pin(
        ["nullspace", "--N", "13", "--max-N", "13"],
        "9d9f312f33ed63268c18dc531f9c6d7a76c7c6170c45a20b66a3d6bb7fce98ed",
    ),
    "nullspace-13-csv": Pin(
        ["nullspace", "--N", "13", "--max-N", "13", "--format", "csv"],
        "afb02fcd9f324353c22bc26bfc8a54ed35ee55ea579018c6a2bc9f13fab57b3f",
    ),
    "nullspace-14": Pin(
        ["nullspace", "--N", "14", "--max-N", "16"],
        "90a9400b4c35fc92d0a0046bb8844e3607f5a344893d9cf7a35d1821e2e9078b",
    ),
    "nullspace-16-csv": Pin(
        # 81 touched columns; the JSON report at N = 16 is left out for
        # the memory it takes.
        ["nullspace", "--N", "16", "--max-N", "16", "--format", "csv"],
        "83e4559c6d76f2c4569441ac87fa152e04c6dd6b7733200123cdcc16c50c5aa2",
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
    "probe-negative-denominator": Pin(
        [
            "probe", "--func", NEGATIVE_DENOMINATOR, "--extend-zero",
            "--x", "1/5", "--h", "1/32", "--n", "3", "--Nmax", "64",
        ],
        "06c77a17f46b560f5d2d018c5ff1a8d6bd6f2ff8ffa931c37287db09d100a058",
    ),
    "walkthrough-negative-denominator": Pin(
        [
            "walkthrough", "--func", NEGATIVE_DENOMINATOR, "--extend-zero",
            "--x", "1/10", "--h", "1/40", "--n", "3", "--N", "12",
        ],
        "ef5bdc5e090b206ab4385337d91aceacddfff52c7f2687d0b93e2ef9ea871ff5",
    ),
    "telescope-negative-denominator": Pin(
        [
            "telescope", "--func", NEGATIVE_DENOMINATOR, "--extend-zero",
            "--x", "-1/5", "--h", "1/48", "--n", "3", "--j", "2", "--N", "20",
        ],
        "28b33a9f62e6da663a301c44f1cbe844e64c1cd219a6be5a2d39b3f263f27c18",
    ),
    "walkthrough-poly-knots": Pin(
        # Every other point 1/3 + m/6 is a knot k/3 of the sample.
        [
            "walkthrough", "--func", "poly:1,-3,0,2,5,-1", "--extend-zero",
            "--x", "1/3", "--h", "1/6", "--n", "3", "--N", "9",
        ],
        "b27b3efbe35f9596e40feaec86111ae4de642dc54f90f8e0abf22ac455d67d63",
    ),
    "uniform-3000": Pin(
        ["uniform", "--func", RUNGE, "--n", "3000"],
        "bca75cf7a695f9b8d3676e976ce9439ba75369c20010dc9abac25c7b86cf580b",
    ),
    "identity-3000": Pin(
        ["identity", "--func", RUNGE, "--n", "3000"],
        "18542883277617697c45f3eb7ed2aec57e810e53fd49c196b60d437503efebb9",
    ),
    "interp-poly-400": Pin(
        ["interp", "--func", "poly:1,-2,0,3,-1/2,5/7", "--n", "400"],
        "dd2b0d3eb6c206ffa48a8d726af76ce4d36c4a8baaae8d82a542bb472482f039",
    ),
    "eval-poly-129": Pin(
        _polynomial_eval_argv(129),
        "1eb916ffb3af0ed59043876bc0d02e7bbb640f77f5eb6141e6f6271ff7b0de08",
    ),
    "fd-poly-above-degree": Pin(
        ["fd", "--func", "poly:1,-2,3", "--x", "-7/3", "--h", "1/9", "--n", "5"],
        "46a19799e594659eec23268e5c89918f46984e507a2c3eecfddbc0009e82df7d",
    ),
    "uniform-0": Pin(
        ["uniform", "--func", RUNGE, "--n", "0"],
        "3f98c4b9761709dad069c276a710bb550d4b013bef316ea5d162599a7e0022d4",
    ),
    "interp-0": Pin(
        ["interp", "--func", "poly:3,1", "--n", "0"],
        "4913368e8b9e8363218cc6d2d34b5c729459590c0ed9bfdda46b7212bd39f5fd",
    ),
    "identity-poly-below-order": Pin(
        ["identity", "--func", "poly:1,-2,3", "--n", "64"],
        "5ec7fdec3862cfc60c9dd2d01f79ad92036da325c5b841a63dc4a1b18901f94f",
    ),
    "telescope-jprime-690-digits": Pin(
        ["telescope", "--func", "poly:1", "--x", "0", "--h", "1", "--n", "330",
         "--j", "1", "--N", "1"],
        "cdf501b30aa34fb3a306ececd0a55b4c12cc78de01d9135601c629afb34c2dbf",
    ),
    "telescope-jprime-5080-digits": Pin(
        ["telescope", "--func", "poly:1,2", "--extend-zero", "--x", "0", "--h", "1/8",
         "--n", "1800", "--j", "1", "--N", "5"],
        "0a3b3e9864463bb268682b60f04c769b4fefb6b2de05cd3cfb1a9620686b5cff",
    ),
    "probe-zigzag-sweep": Pin(
        # h = 1/30 is no multiple of the grid step 1/12.
        ["probe", "--func", ZIGZAG, "--extend-zero",
         "--x", "1/7", "--h", "1/30", "--n", "2", "--Nmax", "40"],
        "b9177d7cd54797d2ab45bae6765ad6ed3c5729bcde194b4049ef86737df3925d",
    ),
    "telescope-zigzag": Pin(
        ["telescope", "--func", ZIGZAG, "--extend-zero",
         "--x", "1/5", "--h", "1/18", "--n", "3", "--j", "2", "--N", "12"],
        "cb4c9b1d182af5eb66611deb9da4c341677262d9bda829e043784a0d37af67d0",
    ),
    "walkthrough-zigzag": Pin(
        ["walkthrough", "--func", ZIGZAG, "--extend-zero",
         "--x", "1/10", "--h", "1/26", "--n", "3", "--N", "9"],
        "1ed979baaa0c2dc4df35a3f221da5f37a0231282ce856605a72a350200c0e07f",
    ),
    "identity-zigzag": Pin(
        ["identity", "--func", ZIGZAG, "--n", "30"],
        "dfc21b550b6e0a4524f11068f187a8362d68c4906e04bdff431a9f436c8ada96",
    ),
    "uniform-zigzag": Pin(
        ["uniform", "--func", ZIGZAG, "--n", "25"],
        "808178b52bcabd454a1e3492e7c5512d597b12067fab7ca095b6bc0fac5ab561",
    ),
    "interp-zigzag": Pin(
        ["interp", "--func", ZIGZAG, "--n", "18"],
        "002f9565629b460316a5a1e63827f58a0716495e4c3fccec6807c84e5ea41855",
    ),
    "fd-zigzag": Pin(
        # Unextended, with every point 1/9 + j/20 inside [0, 1].
        ["fd", "--func", ZIGZAG, "--x", "1/9", "--h", "1/20", "--n", "14"],
        "e63fbd8b2bff5a9fc627cd2084ed9b3657cbf25d4ccedd399ee1dd2a78e36db2",
    ),
    "cascade-160": Pin(
        _cascade_argv(160),
        "046922bcde50b280222714e3a25d809f5baed0c8d083a521b7171fee33c4d100",
    ),
    "cascade-interior-zeros": Pin(
        # Degree 18, with runs of zero coefficients inside and a leading
        # coefficient over a nine-digit prime.
        ["cascade", "--func", "poly:5/3,0,-2,0,0,7/11,0,0,0,0,-1/9,0,3,0,0,0,0,0,-13/998244353"],
        "b74151d6005514d1cd095aabf30ac9b2b7df202d276e810076b4311c806423cb",
    ),
    "uniform-mixed-24": Pin(
        ["uniform", "--func", MIXED_24, "--n", "24"],
        "0f464c80f9cbaabde6f770547adb9982f5cfef157aaf51a64acd999a0ef1ad67",
    ),
    "identity-mixed-24": Pin(
        ["identity", "--func", MIXED_24, "--n", "24"],
        "3715057c9ec304d13f29ad01a325085e94a616514da25ed21e5983c2215def9b",
    ),
    "uniform-mixed-256": Pin(
        ["uniform", "--func", MIXED_24, "--n", "256"],
        "53ef670c2e753344a5ad8ecc3de3e578d091c9ce4431dbf3507fe2b027a33734",
    ),
    "identity-mixed-256": Pin(
        ["identity", "--func", MIXED_24, "--n", "256"],
        "c094f1548c7e9ca2b5542587f8a0e2b352a74678cb9360da9df8f9b57181e69f",
    ),
    "uniform-negative-denominator": Pin(
        # The pairs turn their signs so that each denominator is positive.
        ["uniform", "--func", NEGATIVE_DENOMINATOR, "--n", "64"],
        "e10fa687602dff009ea8c9b27c0f6dccc0682a74c515e4d51233b930d8ae1e45",
    ),
    "fd-zigzag-outside": Pin(
        # Unextended, and the point 1/3 + 6/8 = 13/12 leaves [0, 1]: no
        # report, exit 2.
        ["fd", "--func", ZIGZAG, "--x", "1/3", "--h", "1/8", "--n", "7"],
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        code=2,
    ),
    "fd-negative-denominator-extended": Pin(
        # Zero-extended from x = -1/3: the points below 0 and past 1 add 0.
        ["fd", "--func", NEGATIVE_DENOMINATOR, "--extend-zero",
         "--x", "-1/3", "--h", "1/7", "--n", "12"],
        "40c73f8d98b77f6d3cf5a8d4cedb11a621fefc23a3b6c00398269c6bfaee37df",
    ),
    "fd-zigzag-extended": Pin(
        # The zero-extended twin of fd-zigzag-outside: 13/12 adds 0.
        ["fd", "--func", ZIGZAG, "--extend-zero", "--x", "1/3", "--h", "1/8", "--n", "7"],
        "29e7f34a19ae2833ba2afcbdb7a601e4507eca939e939d46b67c2cacf430d2e7",
    ),
    "fd-poly-extended": Pin(
        # Degree 2 below n = 5: only the zero extension keeps the sum from
        # giving 0 with no point asked for.
        ["fd", "--func", "poly:1,-2,3", "--extend-zero", "--x", "-1/2", "--h", "1/4", "--n", "5"],
        "f31921c23f763b33c7606b59f610a5a0c951e6a88cc780d03fb9c3c9ecc00f9a",
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


CASES = {
    **{
        f"readme-{name}-{fmt}": Pin(
            readme_argv(name, fmt),
            hashlib.sha256((GOLDEN_DIR / f"{name}.{fmt}").read_bytes()).hexdigest(),
        )
        for name in README_COMMANDS
        for fmt in ("json", "csv")
    },
    **{f"pin-{name}": pin for name, pin in PINS.items()},
}


HAT = "pl:hat.csv"
SQUARE = "poly:0,0,1"


def _nullspace_argv(n, fmt, *out):
    return ["nullspace", "--N", str(n), "--max-N", str(n), "--format", fmt, *out]


def _telescope_of_order_twenty_argv(func, *extend):
    return ["telescope", "--func", func, *extend, "--x", "1/10", "--h", "1/50", "--n", "20",
            "--j", "3", "--N", "1000"]


def _runge_eval_argv(n):
    # The knots k/(k+1), k = 0..n: off a progression, with n + 1 distinct
    # denominators; the values are Runge's 1/(1 + 25 x^2) there.
    knots = [f"{k}/{k + 1}" for k in range(n + 1)]
    values = [f"{(k + 1) ** 2}/{(k + 1) ** 2 + 25 * k * k}" for k in range(n + 1)]
    return ["eval", "--knots=" + ",".join(knots), "--values=" + ",".join(values)]


# Whole launches past the pins, and three pins launched whole.  minlip-13
# was recorded at the commit before the ladder existed, every other new
# digest at caed0ea, from this directory.  An "{out}" in an argv is a file
# that launch() makes.
SCALE = {
    # About 13 s: the ladder times it, and no bound is set.
    "minlip-13": Pin(
        ["minlip", "--N", "13", "--max-N", "13"],
        "a16d4b0889cace06b006b209d3d3d299a1cc55d3de245ca68ad4040cddf95be0",
    ),
    # 27,721 and 720,721 grid columns; nearly all of the 27,708 and
    # 720,704 basis vectors are written as runs of untouched columns.
    # The file holds the bytes of the stdout pin.
    "nullspace-12-csv-out": Pin(
        _nullspace_argv(12, "csv", "--out", "{out}"), PINS["nullspace-12-csv"].digest, bound=30,
    ),
    "nullspace-12-json-out": Pin(
        _nullspace_argv(12, "json", "--out", "{out}"), PINS["nullspace-12"].digest, bound=30,
    ),
    "nullspace-16-csv": PINS["nullspace-16-csv"]._replace(bound=30),
    "nullspace-16-json": Pin(
        _nullspace_argv(16, "json"),
        "2dc25df0f4483cc7995145c63691bd338da7ccbe7e2a9c4105041dd556ed33a8", bound=30,
    ),
    # About 20,000 points of the lattice x + m*h lie in [0, 1], each
    # evaluated once; the residual and bound run to tens of thousands of
    # digits.
    "probe-runge-h-1-20000": Pin(
        ["probe", "--func", RUNGE, "--extend-zero", "--x", "0", "--h", "1/20000", "--n", "4",
         "--N", "100000"],
        "05589e2305d38e75a235fce530d8ac4b01fd421c77010146ea40c0b49fb83795", bound=60,
    ),
    # Both vanish on x^2: the node products at equispaced knots and the
    # binomial row come by a ratio recurrence.  The identity sums both of
    # its sides on x^2 too.
    "uniform-square-3000": Pin(
        ["uniform", "--func", SQUARE, "--n", "3000"],
        "2137e7ea03318335c7332f0e87c5fb1011a9a6fde60b0953da77a07d3c79e75c", bound=30,
    ),
    "fd-square-20000": Pin(
        ["fd", "--func", SQUARE, "--x", "0", "--h", "1/2", "--n", "20000"],
        "1a0700a2abfdb9b4e237cb9f1f464c4f44d323a070655b6fa8fcf5fbd886c9de", bound=30,
    ),
    "identity-square-3000": Pin(
        ["identity", "--func", SQUARE, "--n", "3000"],
        "f48ad7aa5729ca9364d99ee46ddda99c38bdfce8e64c9946bff960af65c6ec18", bound=30,
    ),
    # The direct kernel adds its 3001 terms, each over its own
    # denominator, in a balanced tree; identity asks for each knot once.
    "uniform-runge-3000": PINS["uniform-3000"]._replace(bound=10),
    "identity-runge-3000": PINS["identity-3000"]._replace(bound=10),
    # 257 knots off a progression: 257 node products of 256 factors each,
    # and the recursive table besides.  Recorded at 537fa16; about 2.5 s,
    # timed by the ladder and not bounded.
    "eval-runge-257": Pin(
        _runge_eval_argv(256),
        "1815a397781ac3df65c3ca3b1707650f51e16e73e9c22f352bc872265941af35",
    ),
    # The polynomial trims its trailing zeros in one pass.  Linux caps one
    # argument at 128 KiB, so a --func text holds at most about 65,000.
    "cascade-60000-zeros": Pin(
        ["cascade", "--func", "poly:1" + ",0" * 60000],
        "551aa7c4368e951c3ff1f3a14a9f875ccab8ba7801af75f6b857545e9a028fea", bound=3,
    ),
    # An unextended polynomial of degree below n gives 0 after the h and
    # n checks, with no stencil: its binomial row alone would hold about
    # 0.9 GB at n = 100,000.
    "fd-square-100000": Pin(
        ["fd", "--func", SQUARE, "--x", "0", "--h", "1/2", "--n", "100000"],
        "61d02b021a5582bb585d8e25be388bc8cbefbe8fd50dfa8b00f1409658363381", bound=10,
    ),
    # Each of its four runs is deg p + 1 integer weights on the lattice,
    # so N = 10^9 and j' = 20! cost what N = 1 does.
    "telescope-cubic-N-1e9": Pin(
        ["telescope", "--func", "poly:1,-2,0,3", "--x", "1/10", "--h", "1/50", "--n", "20",
         "--j", "1", "--N", "1000000000"],
        "2081a8428000dcb9268f17482bd776ab75f55a6b2b81e7b60a651d921cc93db2", bound=10,
    ),
    "walkthrough-hat-15": Pin(
        ["walkthrough", "--func", HAT, "--extend-zero", "--x", "1/10", "--h", "1/64",
         "--n", "15", "--N", "8"],
        "89bcdec6e522857080cc7c8577ac3c1e2ed9a6936ea1eee4c6f62d5febe758d3", bound=10,
    ),
    "telescope-20-cubic-extended": Pin(
        _telescope_of_order_twenty_argv("poly:1,-2,3/5,7", "--extend-zero"),
        "9e6959c554e4de2de3e67c70603d6b84029b54b1957d0cc97ce020ba3c77458f", bound=10,
    ),
    "telescope-20-cubic": Pin(
        _telescope_of_order_twenty_argv("poly:1,-2,3/5,7"),
        "01fe36fdf4a4e40432e0ed52982175947868aee72a09723f61a1e77bd51f1259", bound=10,
    ),
    "telescope-20-hat-extended": Pin(
        _telescope_of_order_twenty_argv(HAT, "--extend-zero"),
        "5b1cc925385929472bd33ade8b8b1cd8dc426a62c845b64031854301f31f4a5e", bound=10,
    ),
}


def child_env(**overrides):
    """os.environ with the imported divdiff's directory first on PYTHONPATH,
    so that a child imports the same package: src/ or an install.

    Each override sets a variable, or removes it when None.
    """
    env = dict(os.environ)
    root = os.path.dirname(os.path.dirname(os.path.abspath(divdiff.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    for name, value in overrides.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    return env


class Launch(NamedTuple):
    """One child: its exit code, its report's byte count and SHA-256, its
    stderr, its wall time in seconds, its peak RSS in KiB, and the report's
    bytes when they were kept."""

    code: int
    size: int
    sha256: str
    stderr: bytes
    seconds: float
    peak_rss_kib: int
    report: bytes | None


def launch(argv, bound=None, keep_report=False):
    """``python -m divdiff <argv>`` in a child, run from GOLDEN_DIR with
    ``child_env()``.

    The report is the child's stdout.  An ``{out}`` in argv becomes a file
    in a temporary directory, and the report is then stdout, which must
    stay empty, followed by that file's bytes.  The report is hashed and
    counted 64 KiB at a time and held only with keep_report: a child's peak
    RSS counts its parent's at the spawn, so a held report would show in
    the next child's.  A child still running after bound seconds is
    killed, and TimeoutError raised.
    """
    with tempfile.TemporaryDirectory(prefix="divdiff-launch-") as tmp:
        stdout, stderr, out = (Path(tmp, name) for name in ("stdout", "stderr", "out"))
        with open(stdout, "wb") as stdout_file, open(stderr, "wb") as stderr_file:
            start = time.perf_counter()
            child = subprocess.Popen(
                [sys.executable, "-m", "divdiff", *(arg.replace("{out}", str(out)) for arg in argv)],
                cwd=GOLDEN_DIR, env=child_env(), stdout=stdout_file, stderr=stderr_file,
            )
        timer = threading.Timer(bound, os.kill, (child.pid, signal.SIGKILL))
        if bound is not None:
            timer.start()
        # The child is reaped only once the timer can no longer fire, so a
        # late SIGKILL reaches this child, at worst a zombie, and no other.
        os.waitid(os.P_PID, child.pid, os.WEXITED | os.WNOWAIT)
        seconds = time.perf_counter() - start
        if bound is not None:
            timer.cancel()
            timer.join()
        # wait4 reaps the child, so Popen is told its exit code here.
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
        # The timer fires bound seconds after start at the earliest.
        if child.returncode == -signal.SIGKILL and bound is not None and seconds >= bound:
            raise TimeoutError(f"divdiff {argv[0]} ran past its bound of {bound} s and was killed")
        digest, size, chunks = hashlib.sha256(), 0, []
        for path in (stdout, out):
            with contextlib.suppress(FileNotFoundError), open(path, "rb") as file:
                while chunk := file.read(1 << 16):
                    digest.update(chunk)
                    size += len(chunk)
                    if keep_report:
                        chunks.append(chunk)
        errors = stderr.read_bytes()
    # ru_maxrss is in KiB on Linux and in bytes on macOS.
    rss = usage.ru_maxrss // 1024 if sys.platform == "darwin" else usage.ru_maxrss
    report = b"".join(chunks) if keep_report else None
    return Launch(child.returncode, size, digest.hexdigest(), errors, seconds, rss, report)


def _check_all():
    failures = 0
    for name, pin in CASES.items():
        code, out = run(pin.argv)
        ok = code == pin.code and sha256(out) == pin.digest
        failures += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
    print(f"python {sys.version.split()[0]}: {failures} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(_check_all())
