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
from typing import Optional, Union

from .differences import finite_difference
from .funcs import PolynomialFunc
from .poly import Polynomial


@dataclass(frozen=True)
class ZeroPolynomial:
    """Every difference in the cascade vanished."""


@dataclass(frozen=True)
class NonzeroAtOrder:
    """The order-``order`` difference is the highest nonzero one."""

    order: int


Verdict = Union[ZeroPolynomial, NonzeroAtOrder]


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
    checks: tuple[CascadeCheck, ...]
    verdict: Verdict


def polynomial_cascade(p: Polynomial) -> CascadeResult:
    """Run the difference cascade for p, from order deg(p) down to 0.

    Returns every check in descending order.  The verdict is
    ZeroPolynomial exactly when p is the zero polynomial; otherwise it
    is NonzeroAtOrder(d) where d is the highest order with a nonzero
    difference, which always equals deg(p).
    """
    if p.is_zero:
        return CascadeResult(checks=(), verdict=ZeroPolynomial())
    f = PolynomialFunc(p)
    checks = []
    for order in range(p.degree, 0, -1):
        step = Fraction(1, order)
        value = finite_difference(f, 0, step, order)
        checks.append(CascadeCheck(order=order, step=step, value=value))
    checks.append(CascadeCheck(order=0, step=None, value=p.evaluate(Fraction(0))))
    first_nonzero = next((check.order for check in checks if check.nonzero), None)
    if first_nonzero is None:
        verdict: Verdict = ZeroPolynomial()
    else:
        verdict = NonzeroAtOrder(order=first_nonzero)
    return CascadeResult(checks=tuple(checks), verdict=verdict)
