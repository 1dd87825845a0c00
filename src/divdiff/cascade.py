"""Detecting the degree of a polynomial through forward differences.

For a polynomial p of exact degree d with leading coefficient a, the
order-d forward difference with step 1/d satisfies

    D_{1/d}^d p(0) = a * d! / d**d,

which is nonzero whenever p is nonzero.  Lower orders may or may not
vanish.  The cascade evaluates the order-n difference with step 1/n for
n = deg(p) down to 1, then the plain value p(0) at order 0, and reports
the highest order whose value is nonzero.  Only the zero polynomial
passes every check.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .differences import finite_difference
from .funcs import PolynomialFunc
from .poly import Polynomial


@dataclass(frozen=True)
class CascadeCheck:
    order: int
    step: Optional[Fraction]  # None at order 0, where no step is involved
    value: Fraction

    @property
    def nonzero(self) -> bool:
        return self.value != 0


@dataclass(frozen=True)
class CascadeResult:
    verdict: str  # "ZeroPolynomial" when every check vanished, else "NonzeroAtOrder"
    order: Optional[int]  # the highest order with a nonzero difference
    rows: tuple[CascadeCheck, ...]


def polynomial_cascade(p: Polynomial) -> CascadeResult:
    """Run the difference cascade for p, from order deg(p) down to 0.

    Returns every check in descending order as the rows.  The verdict is
    "ZeroPolynomial", with order None, exactly when p is the zero
    polynomial; otherwise it is "NonzeroAtOrder" with order d, the
    highest order with a nonzero difference, which always equals deg(p).
    """
    if p.is_zero:
        return CascadeResult("ZeroPolynomial", None, ())
    f = PolynomialFunc(p)
    checks = []
    for order in range(p.degree, 0, -1):
        step = Fraction(1, order)
        value = finite_difference(f, 0, step, order)
        checks.append(CascadeCheck(order=order, step=step, value=value))
    checks.append(CascadeCheck(order=0, step=None, value=p.evaluate(Fraction(0))))
    order = next((check.order for check in checks if check.nonzero), None)
    verdict = "ZeroPolynomial" if order is None else "NonzeroAtOrder"
    return CascadeResult(verdict, order, tuple(checks))
