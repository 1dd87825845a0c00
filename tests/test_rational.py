import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from divdiff import ParseError, decimal_string, format_rational, parse_rational
from divdiff.rational import _DECIMAL, parse_integer, parse_rationals
from golden.check import child_env


def test_parse_integers():
    assert parse_rational("7") == Fraction(7)
    assert parse_rational("-3") == Fraction(-3)
    assert parse_rational("+2") == Fraction(2)
    assert parse_rational("0") == Fraction(0)


def test_parse_fractions_normalize():
    assert parse_rational("2/4") == Fraction(1, 2)
    assert parse_rational("-6/4") == Fraction(-3, 2)
    assert parse_rational("0/9") == Fraction(0)


@pytest.mark.parametrize(
    "bad",
    ["", "1/0", "1/-2", "x", "1.5", "1/2/3", "1 / 2", "--2", "2/", "/3"],
)
def test_parse_rejects_malformed_tokens(bad):
    with pytest.raises(ParseError) as excinfo:
        parse_rational(bad)
    # the offending token is named in the message
    assert repr(bad) in str(excinfo.value) or bad in str(excinfo.value)


@pytest.mark.parametrize("bad", ["\u0661/\u0662", "\uff11/\uff12", "\u0663", "1/\uff12"])
def test_parse_takes_ascii_digits_only(bad):
    # Arabic-Indic and fullwidth digits are digits to str.isdigit, not here
    with pytest.raises(ParseError, match="not a rational literal"):
        parse_rational(bad)


def test_parse_tolerates_surrounding_whitespace():
    assert parse_rational(" 1 ") == Fraction(1)
    assert parse_rational("\t-2/6\n") == Fraction(-1, 3)


def test_parse_integer():
    assert parse_integer("7") == 7
    assert parse_integer("-3") == -3
    assert parse_integer("+2") == 2
    assert parse_integer(" 12\n") == 12
    assert type(parse_integer("5")) is int


@pytest.mark.parametrize(
    "bad", ["", "+", "-", "1_0", "\u0663", "\uff11", "4.0", "0x4", "1/2", "1e3", "1 2"]
)
def test_parse_integer_takes_ascii_digits_only(bad):
    with pytest.raises(ParseError, match="not an integer literal"):
        parse_integer(bad)


def test_parse_rationals():
    assert parse_rationals("0") == (Fraction(0),)
    assert parse_rationals("1, -2/4 ,+3") == (Fraction(1), Fraction(-1, 2), Fraction(3))


@pytest.mark.parametrize("bad", ["", ",", "0,,1", "1,", ",1", "1;2", "1,\uff12", "1,x"])
def test_parse_rationals_refuses_empty_and_malformed_items(bad):
    with pytest.raises(ParseError, match="not a rational literal"):
        parse_rationals(bad)


def test_format_uses_lowest_terms():
    assert format_rational(Fraction(4, 8)) == "1/2"
    assert format_rational(Fraction(-10, 5)) == "-2"
    assert format_rational(Fraction(0)) == "0"
    assert format_rational(Fraction(5)) == "5"


@given(st.fractions(max_denominator=1000))
def test_round_trip(value):
    assert parse_rational(format_rational(value)) == value


def test_decimal_strings():
    assert decimal_string(Fraction(1, 4)) == "0.25"
    assert decimal_string(Fraction(1, 3)) == "0.333333333333333"
    assert decimal_string(Fraction(-2, 7)) == "-0.285714285714286"
    assert decimal_string(Fraction(22, 7)) == "3.14285714285714"
    assert decimal_string(Fraction(0)) == "0"
    assert decimal_string(Fraction(5)) == "5"


def test_decimal_keeps_leading_zeros_of_small_values():
    assert decimal_string(Fraction(1, 300000)) == "0.00000333333333333333"


@pytest.mark.parametrize(
    "numerator, denominator, text",
    [
        (Decimal("1E1000020"), 3, "3.33333333333333E+1000019"),
        (1, Decimal("3E1000020"), "3.33333333333333E-1000021"),
    ],
    ids=["large", "small"],
)
def test_decimal_keeps_exponents_past_a_million(numerator, denominator, text):
    # decimal_string divides a Fraction's two ints in this context; Decimal
    # operands stand in for million-digit ints, whose conversion takes seconds.
    assert _DECIMAL.to_sci_string(_DECIMAL.divide(numerator, denominator)) == text


def test_decimal_ignores_a_changed_default_context():
    # decimal.DefaultContext seeds each thread's context and fills every
    # field a new Context is not given, so it is changed before the import.
    code = (
        "import decimal\n"
        "decimal.DefaultContext.rounding = decimal.ROUND_FLOOR\n"
        "decimal.DefaultContext.capitals = 0\n"
        "decimal.DefaultContext.traps[decimal.Inexact] = True\n"
        "from fractions import Fraction\n"
        "from divdiff.rational import decimal_string\n"
        "print(decimal_string(Fraction(2, 3)), decimal_string(Fraction(-1, 3 * 10**20)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, env=child_env(), text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0.666666666666667 -3.33333333333333E-21\n"


def test_format_past_the_str_digit_limit_matches_str():
    limit = sys.get_int_max_str_digits()
    values = [
        10**limit - 1,  # the longest that str() takes
        10**limit,
        -(10**5000) - 7,  # a run of zeros inside the low block
        3**20000,
        -(7**9000) * 10**1500,
    ]
    texts = [format_rational(Fraction(v)) for v in values]
    texts.append(format_rational(Fraction(1, 3**9000)))
    assert sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        expected = [str(v) for v in values] + [f"1/{3**9000}"]
    finally:
        sys.set_int_max_str_digits(limit)
    assert texts == expected
