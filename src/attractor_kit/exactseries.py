"""The paper's Lagrange-inversion formula for one coefficient, over Fractions.

This is the oracle the exact paths of ``ce`` are tested against: it works on
plain coefficient lists with long division and binary powering, and shares
no code with the integer kernels there.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


def _mul(a: list, b: list) -> list:
    """Cauchy product of two equal-length series, truncated to that length."""
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(len(a))]


def lagrange_coefficient(F: Sequence, n: int) -> Fraction:
    """n-th inversion coefficient of the implicit relation w = F(x/(1+w)^2).

    ``F = (0, F_1, ..., F_N)`` are the source series' coefficients, N >= n.
    Returns (1/n) [x^(n-1)] { F'(x) (1+F(x))^(-2n) }, exactly.  With
    x = k^2 this is the coefficient of k^(2n) in the inverted series w(k).
    """
    if n < 1:
        raise ValueError("n must be positive")
    F = [Fraction(c) for c in F]
    if not F or F[0] != 0:
        raise ValueError("source series must have zero constant term")
    if len(F) <= n:
        raise ValueError(
            f"source series order {len(F) - 1} too short for coefficient n={n}"
        )
    # 1/(1+F) by long division, to order n-1 as far as [x^(n-1)] reads
    recip = [Fraction(1)]
    for m in range(1, n):
        recip.append(-sum(F[j] * recip[m - j] for j in range(1, m + 1)))
    # (1+F)^(-2n) by repeated squaring
    power, p = [Fraction(1)] + [Fraction(0)] * (n - 1), 2 * n
    while p:
        if p & 1:
            power = _mul(power, recip)
        p >>= 1
        if p:
            recip = _mul(recip, recip)
    # [x^(n-1)] of F'(x) = sum_j j F_j x^(j-1) times the power
    return sum(j * F[j] * power[n - j] for j in range(1, n + 1)) / n
