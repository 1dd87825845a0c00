"""Parsing and formatting of exact rational scalars.

The scalar type everywhere in this package is fractions.Fraction, which
already keeps values in lowest terms with a positive denominator and
raises on division by zero.  Text form is "p/q" or a bare integer in
ASCII digits, read by the parsers below wherever a number enters the
package; decimal strings are display-only output, never input.
"""

import re
from decimal import (
    MAX_EMAX, MIN_EMIN, ROUND_HALF_EVEN, Context, DivisionByZero, InvalidOperation, Overflow,
)
from fractions import Fraction

from .errors import ParseError

DECIMAL_DIGITS = 15
# Every decimal string is divided and written in this context.  Each field is
# given, so neither the caller's context nor decimal.DefaultContext counts.
_DECIMAL = Context(
    prec=DECIMAL_DIGITS, rounding=ROUND_HALF_EVEN, Emin=MIN_EMIN, Emax=MAX_EMAX,
    capitals=1, clamp=0, traps=[InvalidOperation, DivisionByZero, Overflow],
)

# [0-9]: \d and int() also take other scripts' digits ("١", "１"), int() "1_0" too.
_INTEGER_RE = re.compile("[+-]?[0-9]+")
_RATIONAL_RE = re.compile(f"({_INTEGER_RE.pattern})(?:/([0-9]+))?")


def parse_integer(text: str) -> int:
    """Parse an integer literal; anything else is a ParseError."""
    if _INTEGER_RE.fullmatch(text.strip()) is None:
        raise ParseError(f"not an integer literal: {text!r}")
    return int(text)


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or an integer literal; anything else is a ParseError."""
    m = _RATIONAL_RE.fullmatch(text.strip())
    if m is None:
        raise ParseError(f"not a rational literal: {text!r}")
    numerator = int(m.group(1))
    denominator = int(m.group(2)) if m.group(2) is not None else 1
    if denominator == 0:
        raise ParseError(f"zero denominator in rational literal: {text!r}")
    return Fraction(numerator, denominator)


def parse_rationals(text: str) -> tuple[Fraction, ...]:
    """Parse comma-separated rational literals; an empty item is malformed."""
    return tuple(parse_rational(item) for item in text.split(","))


def integer_text(value: int) -> str:
    """str(value), also past the interpreter's limit on the digits of an
    int-to-str conversion (sys.set_int_max_str_digits).  The limit is left
    as it is: a longer integer is cut into blocks of digits that each fit."""
    try:
        return str(value)
    except ValueError:
        pass
    if value < 0:
        return "-" + integer_text(-value)
    low_digits = value.bit_length() * 3 // 20  # about half of the digits
    high, low = divmod(value, 10**low_digits)
    return integer_text(high) + integer_text(low).zfill(low_digits)


def format_rational(value: Fraction) -> str:
    """Canonical text form, str(value) whatever the digit limit: "p/q", or "p" if q is 1."""
    if value.denominator == 1:
        return integer_text(value.numerator)
    return f"{integer_text(value.numerator)}/{integer_text(value.denominator)}"


def decimal_string(value: Fraction) -> str:
    """Display-only decimal rendering with DECIMAL_DIGITS significant digits, half-even."""
    return _DECIMAL.to_sci_string(_DECIMAL.divide(value.numerator, value.denominator))
