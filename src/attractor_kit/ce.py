"""Gradient-expansion coefficients for the 1D BGK dispersion relation.

The equilibrium velocity distribution enters only through its even moments
mu_{2m}.  The Gaussian (unbounded velocities) gives mu_{2m} = (2m-1)!!, the
uniform weight on [-1, 1] gives 1/(2m+1), and a custom list of moments is
accepted only where some weight on [-1, 1] has them: building its
`WeightModel` decides that from the exact Jacobi levels that Chebyshev's
algorithm finds, and keeps them.
"""

from __future__ import annotations

import enum
import math
import statistics
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from operator import mul
from typing import Sequence


class InsufficientData(Exception):
    """Not enough coefficients for the requested analysis."""


class InvalidWeight(ValueError):
    """No weight on [-1, 1] has the moment sequence."""


class WeightKind(enum.Enum):
    GAUSSIAN = "gaussian"
    BOUNDED_UNIFORM = "bounded-uniform"
    BOUNDED_CUSTOM = "bounded-custom"


def _jacobi_levels(moments: Sequence[Fraction]) -> list:
    """The levels beta_1, beta_2, ... of a symmetric weight's Jacobi fraction,
    <1/(s + ikv)> = 1/(s + beta_1 k^2/(s + beta_2 k^2/(s + ...))), in exact
    Fractions from its moments mu_2, mu_4, ..., one level per moment.

    Chebyshev's algorithm (Gautschi, Orthogonal Polynomials: Computation and
    Approximation, 2004, sec. 2.1.7), which gives the levels of Rutishauser's
    qd scheme: row j holds <pi_j(v) v^(j+2i)>, i = 0, 1, ..., for the monic
    orthogonal polynomials pi_j, and beta_j is the ratio of the first
    entries of rows j and j - 1, so it divides only by products of earlier
    levels.  A zero level ends the list where the weight has finite support
    and its fraction is exact; its later moments must then give a zero row.
    InvalidWeight at a negative level, or at a zero one that the later
    moments contradict: no weight has those moments.
    """
    prev, row = [0] * (len(moments) + 1), [Fraction(1), *moments]
    levels = []
    beta = 0
    while len(row) > 1:
        prev, row = row, [a - beta * b for a, b in zip(row[1:], prev[1:])]
        beta = row[0] / prev[0]
        if beta < 0 or beta == 0 and any(row):
            raise InvalidWeight(
                f"beta_{len(levels) + 1} = {beta}: no weight has these moments"
            )
        if beta == 0:
            break
        levels.append(beta)
    return levels


@dataclass(frozen=True)
class WeightModel:
    """Even-moment sequence mu_{2m} of an equilibrium velocity distribution.

    ``moments`` holds mu_2, mu_4, ... of a custom weight; the built-in
    weights have closed forms and leave it empty.  ``levels`` holds a custom
    weight's exact Jacobi levels, which follow from its moments, so equality
    ignores it.  The built-ins keep no levels: theirs is (), the same value
    as the point mass delta(v)'s.

    Some weight on [-1, 1] has the moments exactly when no level is negative
    and no monic orthogonal polynomial is negative at v = 1; else InvalidWeight.
    """

    kind: WeightKind
    moments: tuple = ()
    levels: tuple = field(default=(), init=False, repr=False, compare=False)

    def __post_init__(self):
        # pi_{j+1}(1) = pi_j(1) - beta_j pi_{j-1}(1), pi_0 = pi_1 = 1: a negative one has
        # a Gauss node past |v| = 1 (Szego, Orthogonal Polynomials, 1939, sec. 3.3), and
        # with none the levels' Gauss rule is a weight with these moments; all zero is delta(v)
        levels = tuple(_jacobi_levels(self.moments))
        before = pi = Fraction(1)
        for j, beta in enumerate(levels, 2):
            before, pi = pi, pi - beta * before
            if pi < 0:
                raise InvalidWeight(f"pi_{j}(1) = {pi}: no weight on [-1, 1] has these moments")
        object.__setattr__(self, "levels", levels)

    @classmethod
    def gaussian(cls) -> "WeightModel":
        return cls(WeightKind.GAUSSIAN)

    @classmethod
    def bounded_uniform(cls) -> "WeightModel":
        return cls(WeightKind.BOUNDED_UNIFORM)

    @classmethod
    def bounded_custom(cls, moments: Sequence[Fraction]) -> "WeightModel":
        """Weight from an explicit sequence mu_2, mu_4, ..., read as Fractions."""
        return cls(WeightKind.BOUNDED_CUSTOM, tuple(map(Fraction, moments)))


def build_source_series(w: WeightModel, order: int) -> tuple:
    """Coefficients (0, -mu_2, mu_4, ...) of the source of the implicit
    relation, F(x) = Sum_{m=1..order} (-1)^m mu_{2m} x^m: the one place a
    weight becomes its moments.  InsufficientData, before any other work,
    where a custom weight supplies fewer than ``order``."""
    if order < 1:
        raise ValueError("order must be >= 1")
    if w.kind is WeightKind.GAUSSIAN:  # (2m-1)!!
        mus = map(Fraction, accumulate(range(1, 2 * order, 2), mul))
    elif w.kind is WeightKind.BOUNDED_UNIFORM:  # W(v) = 1/2 on [-1, 1]
        mus = (Fraction(1, 2 * m + 1) for m in range(1, order + 1))
    elif order > len(w.moments):
        n = len(w.moments)
        raise InsufficientData(f"custom weight supplies {n} moments; mu_{2 * n + 2} requested")
    else:
        mus = w.moments[:order]
    return (Fraction(0),) + tuple(mu if m % 2 == 0 else -mu for m, mu in enumerate(mus, 1))


@dataclass(frozen=True)
class CECoefficients:
    """Exact coefficients a_{2n} of the inverted series w(k) = sum a_{2n} k^{2n}."""

    values: tuple

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
    ints over one common denominator, of length N.  The powers of
    phi = (1+F)^{-2} come in baby and giant steps (Paterson and Stockmeyer,
    SIAM J. Comput. 2 (1973) 60; Brent and Kung, J. ACM 25 (1978) 581):
    with b = isqrt(N), the baby steps phi^1 .. phi^b are kept, and one giant
    series H = F' phi^{bi} advances by one product with phi^b every b
    orders.  For n = bi + j, j = 1..b, a_{2n} is the single dot product
    [x^{n-1}] H phi^j.  Each giant series is kept to length N, because the
    next giant step, H phi^b, reads all of it.  That is b - 1 + ceil(N/b) - 1
    integer Cauchy products of length N, about 2 sqrt(N), and N(N+1)/2 for
    the dot products: about N^{5/2} integer products in all (3.7-4.8 s at
    N = 200 for the uniform and 3/(2m+3) moments on a 2-vCPU Xeon).
    """
    n_max = len(source) - 1
    d = math.lcm(*(c.denominator for c in source[1:]))
    f = [0] + [c.numerator * (d // c.denominator) for c in source[1:]]  # F over d
    fp = [m * f[m] for m in range(1, n_max + 1)]  # F' over d
    # 1+F to order n_max - 1, as far as [x^{n-1}] reads
    phi = _recip_square([d] + f[1:n_max], d)
    b = math.isqrt(n_max)
    baby = [phi]  # baby[j - 1] = phi^j over its denominator
    for _ in range(b - 1):
        baby.append(_mul_reduced(*baby[-1], *phi))
    h, dh = fp, d  # H = F' phi^{bi}
    values = []
    for n in range(1, n_max + 1):
        j = (n - 1) % b
        if j == 0 and n > 1:
            h, dh = _mul_reduced(h, dh, *baby[-1])
        power, dpow = baby[j]
        dot = sum(map(mul, h[:n], power[n - 1 :: -1]))
        values.append(Fraction(dot, n * dh * dpow))
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
    return CECoefficients(tuple(values))


def ratio_sequence(c: CECoefficients) -> list:
    """Successive ratios r_n = |a_{2(n+1)} / a_{2n}| as floats, n = 1..N-1,
    and NaN where a_{2n} = 0 leaves r_n undefined."""
    if len(c) < 2:
        raise InsufficientData("need at least two coefficients for ratios")
    v = c.values
    return [abs(float(b / a)) if a else math.nan for a, b in zip(v, v[1:])]


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
    if 0 in c.values:
        raise ZeroDivisionError(
            f"a_{2 * c.values.index(0) + 2} = 0: the ratio fit needs nonzero a_2n"
        )
    ratios = ratio_sequence(c)
    m = max(len(ratios) // 3, 3)
    start = len(ratios) - m
    inv_n = [1.0 / n for n in range(start + 1, len(ratios) + 1)]
    inv_r = [1.0 / r for r in ratios[start:]]
    _slope, intercept = statistics.linear_regression(inv_n, inv_r)
    radius = max(intercept, 0.0)
    return RadiusEstimate(radius, radius < _DIVERGENT_RADIUS)

