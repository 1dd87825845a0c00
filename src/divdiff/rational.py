"""Parsing and formatting of exact rational scalars.

The scalar type everywhere in this package is fractions.Fraction, which
already keeps values in lowest terms with a positive denominator and
raises on division by zero.  Text form is "p/q" or a bare integer and
nothing else; decimal strings are display-only output, never input.
"""

import re
from decimal import Decimal, localcontext
from fractions import Fraction

from .errors import ParseError

Rational = Fraction

DECIMAL_DIGITS = 15

# ASCII: without it \d also matches other scripts' digits, such as "١" or "１".
_RATIONAL_RE = re.compile(r"^([+-]?\d+)(?:/(\d+))?$", re.ASCII)


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or an integer literal; anything else is a ParseError."""
    m = _RATIONAL_RE.match(text.strip())
    if m is None:
        raise ParseError(f"not a rational literal: {text!r}")
    numerator = int(m.group(1))
    denominator = int(m.group(2)) if m.group(2) is not None else 1
    if denominator == 0:
        raise ParseError(f"zero denominator in rational literal: {text!r}")
    return Fraction(numerator, denominator)


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
    """Canonical text form: bare integer when the denominator is 1."""
    try:
        return str(value)  # Fraction's own text has this form
    except ValueError:
        pass  # past the digit limit of an int-to-str conversion
    if value.denominator == 1:
        return integer_text(value.numerator)
    return f"{integer_text(value.numerator)}/{integer_text(value.denominator)}"


def decimal_string(value: Fraction, digits: int = DECIMAL_DIGITS) -> str:
    """Display-only decimal rendering with the given significant digits."""
    with localcontext() as ctx:
        ctx.prec = digits
        return str(Decimal(value.numerator) / Decimal(value.denominator))
