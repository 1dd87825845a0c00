"""Detecting the degree of a polynomial through forward differences.

For a polynomial p of exact degree d with leading coefficient a, the
order-d forward difference with step 1/d satisfies

    D_{1/d}^d p(0) = a * d! / d**d,

which is nonzero whenever p is nonzero.  Lower orders may or may not
vanish.  The cascade evaluates the order-n difference with step 1/n for
n = deg(p) down to 1, then the plain value p(0) at order 0, and reports
the highest order whose value is nonzero.  Only the zero polynomial
passes every check.

Every order comes from one closed form.  The Stirling numbers of the
second kind S(k, n) write x^k = sum_n S(k, n) x(x-1)...(x-n+1), so the
order-n difference of x^k with step 1 at 0 is n! S(k, n) (Graham, Knuth
and Patashnik, Concrete Mathematics, section 6.1).  With p's integer
form C_k / den and step 1/n,

    D_{1/n}^n p(0) = n! A_n / (den n^d),
    A_n = sum_{k=n..d} C_k S(k, n) n^(d-k).

All the A_n are built in one pass over ascending k, each by Horner in
n, while one row S(k, 0..k) is kept and advanced by
S(k, n) = n S(k-1, n) + S(k-1, n-1).  That is O(d^2) integer operations
with O(d) numbers alive, where a stencil per order costs O(d^3) and a
table of every S(k, n) O(d^2) memory.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

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
    den, nums = p._integer_form
    d = len(nums) - 1
    stirling = [1]  # S(k, 0..k), here at k = 0
    sums = [0] * (d + 1)  # sums[n] becomes A_n; sums[0] is not used
    for k, c in enumerate(nums):
        orders = range(1, k + 1)
        if k:
            # S(k, n) from S(k-1, n) (0 at n = k) and S(k-1, n-1)
            stirling = [0] + [n * s + t for n, s, t in zip(orders, stirling[1:] + [0], stirling)]
        sums[1 : k + 1] = [a * n + c * s for n, a, s in zip(orders, sums[1 : k + 1], stirling[1:])]
    checks = [
        CascadeCheck(n, Fraction(1, n), Fraction(math.factorial(n) * sums[n], den * n**d))
        for n in range(d, 0, -1)
    ]
    checks.append(CascadeCheck(order=0, step=None, value=p.evaluate(Fraction(0))))
    order = next((check.order for check in checks if check.nonzero), None)
    verdict = "ZeroPolynomial" if order is None else "NonzeroAtOrder"
    return CascadeResult(verdict, order, tuple(checks))
