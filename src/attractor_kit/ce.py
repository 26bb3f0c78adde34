"""Gradient-expansion coefficients for the 1D BGK dispersion relation.

The equilibrium velocity distribution enters only through its even moments
mu_{2m}.  The Gaussian (unbounded velocities) gives mu_{2m} = (2m-1)!!, the
uniform weight on [-1, 1] gives 1/(2m+1), and arbitrary bounded-support
moment sequences are accepted after validation.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import Callable, Sequence

import numpy as np


class InsufficientData(Exception):
    """Not enough coefficients for the requested analysis."""


class InvalidWeight(Exception):
    """Moment sequence violates the bounded-support invariants."""


def double_factorial(m: int) -> int:
    """(2m-1)!! as an exact integer (direct product, no shortcuts)."""
    out = 1
    for i in range(1, 2 * m, 2):
        out *= i
    return out


class WeightKind(enum.Enum):
    GAUSSIAN = "gaussian"
    BOUNDED_UNIFORM = "bounded-uniform"
    BOUNDED_CUSTOM = "bounded-custom"


@dataclass(frozen=True)
class WeightModel:
    """Even-moment sequence mu_{2m} of an equilibrium velocity distribution."""

    kind: WeightKind
    _moments: Callable[[int], Fraction] = field(compare=False)

    def moment(self, m: int) -> Fraction:
        """mu_{2m}; mu_0 = 1 by normalization."""
        if m == 0:
            return Fraction(1)
        return self._moments(m)

    @property
    def bounded(self) -> bool:
        return self.kind is not WeightKind.GAUSSIAN

    @classmethod
    def gaussian(cls) -> "WeightModel":
        return cls(WeightKind.GAUSSIAN, lambda m: Fraction(double_factorial(m)))

    @classmethod
    def bounded_uniform(cls) -> "WeightModel":
        # W(v) = 1/2 on [-1, 1]: mu_{2m} = 1/(2m+1)
        return cls(WeightKind.BOUNDED_UNIFORM, lambda m: Fraction(1, 2 * m + 1))

    @classmethod
    def bounded_custom(cls, moments: Sequence[Fraction]) -> "WeightModel":
        """Weight from an explicit sequence mu_2, mu_4, ...

        Bounded support on [-1, 1] forces 0 < mu_{2(m+1)} <= mu_{2m} <= 1;
        sequences violating this are rejected.
        """
        mus = [Fraction(mu) for mu in moments]
        prev = Fraction(1)
        for i, mu in enumerate(mus):
            if not (0 < mu <= 1):
                raise InvalidWeight(f"mu_{2 * (i + 1)} = {mu} outside (0, 1]")
            if mu > prev:
                raise InvalidWeight(
                    f"moments must be non-increasing; mu_{2 * (i + 1)} = {mu} "
                    f"> mu_{2 * i} = {prev}"
                )
            prev = mu

        def mom(m: int) -> Fraction:
            if m > len(mus):
                raise InsufficientData(
                    f"custom weight supplies {len(mus)} moments; "
                    f"mu_{2 * m} requested"
                )
            return mus[m - 1]

        return cls(WeightKind.BOUNDED_CUSTOM, mom)


def build_source_series(w: WeightModel, order: int) -> tuple:
    """Coefficients (0, -mu_2, mu_4, ...) of the source of the implicit
    relation, F(x) = Sum_{m=1..order} (-1)^m mu_{2m} x^m."""
    if order < 1:
        raise ValueError("order must be >= 1")
    return (Fraction(0),) + tuple(
        (-1) ** m * w.moment(m) for m in range(1, order + 1)
    )


@dataclass(frozen=True)
class CECoefficients:
    """Exact coefficients a_{2n} of the inverted series w(k) = sum a_{2n} k^{2n}."""

    values: tuple
    weight: WeightModel

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i):
        return self.values[i]


def _recip_square(a: list, d: int) -> tuple:
    """(a/d)^{-2} for integers a over denominator d with a[0] == d.

    Power-series recurrence for A^alpha with A_0 = 1 and alpha = -2:
    j P_j = -sum_{i=1..j} (i + j) A_i P_{j-i}.  Returns (nums, den) with den
    the lcm of the coefficients' reduced denominators.
    """
    t, q = [1], 1
    for j in range(1, len(a)):
        num = -sum((i + j) * a[i] * t[j - i] for i in range(1, j + 1))
        den = j * d * q
        g = math.gcd(num, den)
        num, den = num // g, den // g
        grow = den // math.gcd(q, den)
        if grow != 1:
            t = [c * grow for c in t]
            q *= grow
        t.append(num * (q // den))
    return t, q


def _mul_reduced(p: list, dp: int, s: list, ds: int) -> tuple:
    """(p/dp)(s/ds) truncated to len(p), reduced by one gcd over the vector."""
    rs = s[::-1]
    top = len(p) - 1
    c = [sum(map(mul, p[: k + 1], rs[top - k :])) for k in range(top + 1)]
    den = dp * ds
    g = math.gcd(den, *c)
    if g != 1:
        c = [v // g for v in c]
        den //= g
    return c, den


def _chord_diagram_coefficients(n_max: int) -> list:
    """Gaussian a_{2n} = (-1)^n a(n), with a(n) the connected chord diagrams
    (OEIS A000699): a(1) = 1, a(n) = (n-1) sum_{i=1}^{n-1} a(i) a(n-i)."""
    a = [0, 1]
    for n in range(2, n_max + 1):
        a.append((n - 1) * sum(map(mul, a[1:n], a[n - 1 : 0 : -1])))
    return [Fraction(-a[n] if n % 2 else a[n]) for n in range(1, n_max + 1)]


def _tangent_coefficients(n_max: int) -> list:
    """Uniform-weight a_{2n} = -T_n / ((4^n - 1)(2n-1)!), from 1 + w = k cot k.

    T_n are the tangent numbers, built in place by the integer loop of Brent
    and Harvey ("Fast computation of Bernoulli, Tangent and Secant numbers",
    2013).
    """
    t = [0, 1] + [0] * (n_max - 1)
    for k in range(2, n_max + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, n_max + 1):
        for j in range(k, n_max + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    values, fact = [], 1  # fact = (2n-1)!
    for n in range(1, n_max + 1):
        if n > 1:
            fact *= (2 * n - 2) * (2 * n - 1)
        values.append(Fraction(-t[n], (4**n - 1) * fact))
    return values


def _lagrange_kernel(source: tuple) -> list:
    """a_{2n}, n = 1..N, by Lagrange inversion from the source series
    (0, F_1, ..., F_N) of ``build_source_series``.

    a_{2n} = (1/n) [x^{n-1}] F'(x) (1+F(x))^{-2n}, the same value as
    ``lagrange_coefficient`` for each n.  Every series is a list of Python
    ints over one common denominator: (1+F)^{-2} is computed once, the
    running power (1+F)^{-2n} is advanced by one integer Cauchy product and
    one gcd per order, and each coefficient is read from it with a single
    dot product against F'.
    """
    n_max = len(source) - 1
    d = math.lcm(*(c.denominator for c in source[1:]))
    f = [0] + [c.numerator * (d // c.denominator) for c in source[1:]]  # F over d
    fp = [m * f[m] for m in range(1, n_max + 1)]  # F' over d
    # 1+F to order n_max - 1, as far as [x^{n-1}] reads
    recip_sq, drecip = _recip_square([d] + f[1:n_max], d)
    power, dpow = recip_sq, drecip  # (1+F)^{-2n} at n = 1
    values = []
    for n in range(1, n_max + 1):
        if n > 1:
            power, dpow = _mul_reduced(power, dpow, recip_sq, drecip)
        dot = sum(map(mul, fp[:n], power[n - 1 :: -1]))
        values.append(Fraction(dot, n * d * dpow))
    return values


def ce_coefficients(w: WeightModel, n_max: int) -> CECoefficients:
    """All coefficients a_{2n}, n = 1..n_max, exactly.

    The built-in weights use O(n^2) integer recurrences for their closed
    forms: connected chord diagrams for the Gaussian, tangent numbers for
    the uniform weight.  A custom weight goes through the Lagrange-inversion
    kernel.  Every path gives the same Fractions as ``lagrange_coefficient``.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if w.kind is WeightKind.GAUSSIAN:
        values = _chord_diagram_coefficients(n_max)
    elif w.kind is WeightKind.BOUNDED_UNIFORM:
        values = _tangent_coefficients(n_max)
    else:
        values = _lagrange_kernel(build_source_series(w, n_max))
    return CECoefficients(tuple(values), w)


def ratio_sequence(c: CECoefficients) -> list:
    """Successive ratios r_n = |a_{2(n+1)} / a_{2n}| as floats, n = 1..N-1."""
    if len(c) < 2:
        raise InsufficientData("need at least two coefficients for ratios")
    out = []
    for n in range(len(c) - 1):
        if c.values[n] == 0:
            raise ZeroDivisionError(
                f"a_{2 * (n + 1)} = 0: degenerate weight model"
            )
        out.append(abs(float(c.values[n + 1] / c.values[n])))
    return out


@dataclass(frozen=True)
class RadiusEstimate:
    """Extrapolated convergence radius of the k^2 series, with divergence flag."""

    radius: float
    divergent: bool


# below this extrapolated radius the series is reported as divergent
_DIVERGENT_RADIUS = 1e-2


def radius_estimate(c: CECoefficients) -> RadiusEstimate:
    """Estimate lim 1/r_n by fitting 1/r_n linearly against 1/n.

    Uses the last third of the available ratios.  A limit consistent with
    zero is reported as divergent evidence, not asserted as a theorem.
    """
    if len(c) < 8:
        raise InsufficientData("radius extrapolation needs >= 8 coefficients")
    ratios = ratio_sequence(c)
    m = max(len(ratios) // 3, 3)
    n = np.arange(1, len(ratios) + 1)[-m:]
    y = 1.0 / np.asarray(ratios[-m:])
    slope, intercept = np.polyfit(1.0 / n, y, 1)
    radius = max(float(intercept), 0.0)
    return RadiusEstimate(radius, radius < _DIVERGENT_RADIUS)

