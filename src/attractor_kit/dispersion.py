"""Exact dispersion relation omega(k) of the BGK hydrodynamic branch.

The Gaussian case solves (w+1) = I(A), A = (1+w)^2/k^2, where I is the
velocity-space resolvent averaged over the Maxwellian; the bounded-support
case solves the analogous condition on [-1, 1].  These solvers are the
ground truth the resummation and the spectral branches are checked against.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .borel import ce_truncation_eval, resum_dispersion
from .ce import WeightKind, WeightModel, build_source_series, ce_coefficients
from .spectral import (
    NoBranchPoint,
    NoRootInInterval,
    _safeguarded_newton,
    trace_branch,
)


# largest wavenumber of a comparison grid; it stays below k* = sqrt(pi/2)
# ~ 1.2533, where the exact Gaussian root reaches omega = -1 and the
# hydrodynamic branch ends
K_GRID_MAX = 1.2


class SeriesDivergent(Exception):
    """Moment series left its convergence region during the solve."""


class Method(enum.Enum):
    EXACT_GAUSSIAN = "exact-gaussian"
    EXACT_BOUNDED = "exact-bounded"


@dataclass(frozen=True)
class DispersionSample:
    k: float
    omega: float
    residual: float
    method: Method


# below this u, erfcx(u) = exp(u^2) erfc(u) with u^2 split exactly; above
# it erfc(u) ~ 1e-296 nears underflow and the continued fraction converges
# to double precision within _ERFCX_CF_TERMS terms
_ERFCX_SPLIT = 26.0
_ERFCX_CF_TERMS = 12
# Dekker's splitting constant 2^27 + 1 for doubles
_DEKKER = 134217729.0
# from this u on, dI/du comes from the continued fraction: the closed form
# (1 + 2u^2) sqrt(pi) erfcx(u) - 2u cancels all but ~1/u^3 of its ~2u terms
_DERIV_CF_MIN = 2.0


def _laplace_cf(u: float, terms: int) -> tuple:
    """Tails K_1, K_2, K_3 of K_n = u + (n/2)/K_{n+1}, evaluated bottom-up.

    Laplace's continued fraction for erfc gives erfcx(u) = 1/(sqrt(pi) K_1)
    (Cody, Math. Comp. 23 (1969) 631).
    """
    k3 = k2 = k1 = u
    for n in range(terms, 0, -1):
        k3, k2, k1 = k2, k1, u + 0.5 * n / k1
    return k1, k2, k3


def _erfcx(u: float) -> float:
    """Scaled complementary error function exp(u^2) erfc(u) for u >= 0.

    Small u: u^2 = hi + lo exactly (Dekker), so exp(u^2) = exp(hi)(1 + lo)
    to within lo^2, and erfc(u) comes from the C library.  Large u: the
    Laplace continued fraction.
    """
    if u < _ERFCX_SPLIT:
        c = _DEKKER * u
        uh = c - (c - u)
        ul = u - uh
        hi = u * u
        lo = ((uh * uh - hi) + 2.0 * uh * ul) + ul * ul
        return math.exp(hi) * (1.0 + lo) * math.erfc(u)
    return 1.0 / (math.sqrt(math.pi) * _laplace_cf(u, _ERFCX_CF_TERMS)[0])


def gaussian_resolvent(A: float) -> float:
    """I(A) = sqrt(pi A/2) exp(A/2) erfc(sqrt(A/2)).

    Closed form of the Maxwellian average of A/(A + v^2); the scaled
    complementary error function keeps it finite at large A.
    """
    if A <= 0:
        raise ValueError("A must be positive")
    u = math.sqrt(A / 2.0)
    return math.sqrt(math.pi) * u * _erfcx(u)


def _gaussian_resolvent_dA(A: float) -> float:
    """dI/dA = (dI/du) / (4u) with I = sqrt(pi) u erfcx(u), u = sqrt(A/2).

    Small u: dI/du = sqrt(pi) (1 + 2u^2) erfcx(u) - 2u, from
    erfcx'(u) = 2u erfcx(u) - 2/sqrt(pi).  Otherwise the same quantity
    without cancellation: dI/du = 1/(K_1 K_2 K_3).  The fraction's error
    falls like exp(-2u sqrt(2N)) in its term count N, and 12 + 240/u^2
    terms reach double precision for every u >= 2.
    """
    u = math.sqrt(A / 2.0)
    if u < _DERIV_CF_MIN:
        e = _erfcx(u)
        dI_du = math.sqrt(math.pi) * (e + 2 * u * u * e) - 2 * u
    else:
        k1, k2, k3 = _laplace_cf(u, _ERFCX_CF_TERMS + int(240.0 / (u * u)))
        dI_du = 1.0 / (k1 * k2 * k3)
    return dI_du / (4 * u)


# Newton tolerance of the exact solvers, near double precision
_NEWTON_TOL = 1e-14


def _newton_tol_reached(step: float, _prev: float) -> bool:
    """Stopping test of the exact solvers' Newton: the last update alone."""
    return step < _NEWTON_TOL


def solve_exact_gaussian(k: float) -> DispersionSample:
    """Root of (w+1) - I((1+w)^2/k^2) on the hydrodynamic interval (-1, 0].

    Starts from the 4th-order gradient estimate -k^2 + k^4 for small k.
    The kinetic eigenvalue w = -1 is excluded by construction.
    """
    if k <= 0:
        raise ValueError("k must be positive")

    def f(w):
        return (w + 1) - gaussian_resolvent((1 + w) ** 2 / (k * k))

    def fprime(w):
        A = (1 + w) ** 2 / (k * k)
        return 1 - _gaussian_resolvent_dA(A) * 2 * (1 + w) / (k * k)

    x0 = -k * k + k**4 if k <= 0.5 else -0.2
    w = _safeguarded_newton(f, fprime, -1 + 1e-9, 0.0, x0, _newton_tol_reached)
    return DispersionSample(k, w, abs(f(w)), Method.EXACT_GAUSSIAN)


# terms of a custom weight's moment series that the exact solver sums
_BOUNDED_SERIES_TERMS = 60


def _bounded_series_sum(coeffs: Sequence[float], x: float) -> float:
    """Sum of the moment series sum_m coeffs[m-1] x^m, with divergence guard.

    ``coeffs`` are the float source-series coefficients (-1)^m mu_{2m},
    built once per solve.
    """
    total = 0.0
    prev_term = math.inf
    growing = 0
    for m, c in enumerate(coeffs, start=1):
        term = c * x**m
        total += term
        if abs(term) > prev_term:
            growing += 1
            if growing >= 3 and abs(term) > 1e-12:
                raise SeriesDivergent(
                    f"moment series terms growing at x = {x:.6g}"
                )
        else:
            growing = 0
        prev_term = abs(term)
    return total


def solve_exact_bounded(k: float, w: WeightModel) -> DispersionSample:
    """Hydrodynamic root for a bounded-support weight.

    The uniform weight admits the closed condition arctan(k/(1+w)) = k
    (imaginary part cancels by symmetry); custom weights are solved through
    their moment series with a convergence check on x = k^2/(1+w)^2.
    """
    if not w.bounded:
        raise ValueError("use solve_exact_gaussian for the Gaussian weight")
    if k == 0:
        return DispersionSample(0.0, 0.0, 0.0, Method.EXACT_BOUNDED)
    if k < 0:
        raise ValueError("k must be non-negative")

    if w.kind is WeightKind.BOUNDED_UNIFORM:

        def f(om):
            return math.atan(k / (1 + om)) - k

        def fprime(om):
            a = 1 + om
            return -k / (a * a + k * k)

        root = _safeguarded_newton(f, fprime, -1 + 1e-12, 0.0, -k * k / 3, _newton_tol_reached)
        return DispersionSample(k, root, abs(f(root)), Method.EXACT_BOUNDED)

    source = build_source_series(w, _BOUNDED_SERIES_TERMS)
    coeffs = [float(c) for c in source[1:]]

    def f(om):
        x = k * k / (1 + om) ** 2
        return om - _bounded_series_sum(coeffs, x)

    def fprime(om, h=1e-7):
        return (f(om + h) - f(om - h)) / (2 * h)

    # the moment series is only summable for x = k^2/(1+om)^2 below ~1
    # (monotone moments <= 1), so the bracket stops at 1 + om = k
    lo = max(-1 + 1e-6, k - 1 + 1e-7)
    try:
        root = _safeguarded_newton(f, fprime, lo, 0.0, -k * k / 3, _newton_tol_reached)
    except NoRootInInterval as exc:
        raise SeriesDivergent(
            f"root at k = {k:.6g} lies outside the moment series' "
            "convergence region"
        ) from exc
    return DispersionSample(k, root, abs(f(root)), Method.EXACT_BOUNDED)


@dataclass
class ComparisonTable:
    """Per-method omega values (and deviations from exact) on a k grid."""

    k_grid: list
    columns: dict  # name -> list of float (NaN marks missing cells)


def compare_methods(
    k_grid: Sequence[float],
    branch_orders: Iterable[int] = (1, 2, 20, 50),
    pade_L: int = 14,
    pade_M: int = 14,
) -> ComparisonTable:
    """Evaluate every method of reconstructing omega(k) on a common grid.

    Columns: omega_exact, omega_resummed, omega_branch_n{X} with a
    physical_n{X} companion flag, omega_ce2, omega_ce4, and dev_* columns
    relative to the exact solver.  Per-method failures become NaN cells.
    """
    ks = [float(k) for k in k_grid]
    if any(k < 0 or k > K_GRID_MAX + 1e-9 for k in ks):
        raise ValueError(f"grid must lie within [0, {K_GRID_MAX}]")
    branch_orders = tuple(branch_orders)
    coeffs = ce_coefficients(WeightModel.gaussian(), pade_L + pade_M + 1)
    resum = resum_dispersion(coeffs, pade_L, pade_M)
    branches = {n: trace_branch(n) for n in branch_orders}

    cols: dict = {"k": ks}

    def run(fn):
        out = []
        for k in ks:
            try:
                out.append(float(fn(k)))
            except Exception:
                out.append(math.nan)
        return out

    exact = run(lambda k: 0.0 if k == 0 else solve_exact_gaussian(k).omega)
    cols["omega_exact"] = exact
    cols["omega_resummed"] = [float(v) for v in resum(ks)]
    for n in branch_orders:
        curve = branches[n]
        vals, phys = [], []
        for k in ks:
            try:
                vals.append(curve.omega_at(k))
                phys.append(True)
            except NoBranchPoint:
                vals.append(math.nan)
                phys.append(False)
        cols[f"omega_branch_n{n}"] = vals
        cols[f"physical_n{n}"] = phys
    cols["omega_ce2"] = run(lambda k: ce_truncation_eval(coeffs, 2, k))
    cols["omega_ce4"] = run(lambda k: ce_truncation_eval(coeffs, 4, k))

    for name in list(cols):
        if name.startswith("omega_") and name != "omega_exact":
            cols["dev_" + name[len("omega_"):]] = [
                v - e for v, e in zip(cols[name], exact)
            ]
    return ComparisonTable(ks, cols)
