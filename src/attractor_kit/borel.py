"""Borel transform, diagonal Pade approximants, and Laplace resummation.

Convention: the transform divides the n-th coefficient by n!, and the
inverse is the Laplace integral int_0^inf e^{-t} B(x t) dt, so the pair is
self-consistent term by term (int e^{-t} t^n dt = n!).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

import numpy as np
from numpy.polynomial.laguerre import laggauss
from numpy.polynomial.legendre import leggauss

from .ce import CECoefficients

# residues below this are Froissart doublets (pole cancelled by a nearby
# zero); they carry no analytic information and are excluded from
# contour checks and singularity diagnostics
_SPURIOUS_RESIDUE = 1e-8

_CONTOUR_TOL = 1e-8


class SingularPadeSystem(Exception):
    """The Toeplitz denominator system is rank-deficient (blocked Pade entry)."""


class PoleOnContour(Exception):
    """A genuine Pade pole sits on the positive real axis: summability lost."""


@dataclass(frozen=True)
class BorelSeries:
    """Coefficients b_n = c_n / n! of a Borel-transformed series, n >= 1."""

    coeffs: tuple  # exact Fractions, b_1..b_N

    def __len__(self) -> int:
        return len(self.coeffs)

    def taylor(self) -> list:
        """Float Taylor coefficients [b_0=0, b_1, ..., b_N] around the origin."""
        return [0.0] + [float(b) for b in self.coeffs]


def borel_transform(c: Union[CECoefficients, Sequence[Fraction]]) -> BorelSeries:
    """Divide the n-th coefficient by n! (n = 1..N), exactly.

    Accepts either a CECoefficients bundle or any bare coefficient
    sequence (c_1, c_2, ...).
    """
    values = c.values if isinstance(c, CECoefficients) else tuple(c)
    if not values:
        raise ValueError("need at least one coefficient")
    return BorelSeries(
        tuple(Fraction(a) / math.factorial(n) for n, a in enumerate(values, 1))
    )


@dataclass(frozen=True)
class PadeApproximant:
    """Rational function matching a Taylor series through order L + M.

    ``num``/``den`` are ascending-power float coefficient arrays with
    den[0] = 1.  ``poles`` holds all M denominator roots; ``residues`` the
    matching residues, used to separate genuine poles from Froissart
    doublets.
    """

    num: np.ndarray
    den: np.ndarray
    poles: np.ndarray
    residues: np.ndarray

    @property
    def L(self) -> int:
        return len(self.num) - 1

    @property
    def M(self) -> int:
        return len(self.den) - 1

    @property
    def physical(self) -> np.ndarray:
        """Mask of the genuine poles, those not flagged as Froissart doublets."""
        return np.abs(self.residues) > _SPURIOUS_RESIDUE

    @property
    def physical_poles(self) -> np.ndarray:
        return self.poles[self.physical]

    def __call__(self, s):
        num = np.polyval(self.num[::-1], s)
        den = np.polyval(self.den[::-1], s)
        return num / den


def pade(series: Sequence[float], L: int, M: int) -> PadeApproximant:
    """[L/M] Pade approximant of a Taylor series c_0, c_1, ...

    Solves the M x M Toeplitz system for the denominator, then convolves
    for the numerator.  Raises SingularPadeSystem when the linear system is
    rank-deficient beyond tolerance (a blocked Pade table entry).
    """
    if L < 0 or M < 0:
        raise ValueError("L and M must be non-negative")
    c = np.asarray(series, dtype=float)
    if len(c) < L + M + 1:
        raise ValueError(f"[{L}/{M}] needs {L + M + 1} coefficients, got {len(c)}")

    if M == 0:
        den = np.array([1.0])
    else:
        A = np.zeros((M, M))
        for m in range(M):
            for j in range(M):
                idx = L + m - j
                A[m, j] = c[idx] if idx >= 0 else 0.0
        rhs = -c[L + 1 : L + M + 1]
        try:
            # high-order Toeplitz systems are routinely ill-conditioned;
            # acceptability is decided by the residual check below, not rcond
            with np.errstate(invalid="ignore", divide="ignore"):
                sol = np.linalg.solve(A, rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularPadeSystem(str(exc)) from exc
        resid = np.max(np.abs(A @ sol - rhs))
        scale = max(np.max(np.abs(rhs)), 1.0)
        if not np.all(np.isfinite(sol)) or resid > 1e-8 * scale:
            raise SingularPadeSystem(
                f"Toeplitz solve residual {resid:.3e} exceeds tolerance"
            )
        den = np.concatenate(([1.0], sol))

    num = np.array(
        [sum(c[i - j] * den[j] for j in range(min(i, M) + 1)) for i in range(L + 1)]
    )

    if M > 0:
        poles = np.roots(den[::-1])
        dden = np.polyder(den[::-1])
        residues = np.array(
            [
                np.polyval(num[::-1], p) / np.polyval(dden, p)
                for p in poles
            ]
        )
    else:
        poles = np.zeros(0, dtype=complex)
        residues = np.zeros(0, dtype=complex)
    return PadeApproximant(num, den, poles, residues)


# Gauss-Laguerre nodes of the Laplace integral
_LAGUERRE_NODES = 80


@functools.cache
def _laguerre_rule():
    # built on first use: laggauss(80) costs a few ms that import need not pay
    return laggauss(_LAGUERRE_NODES)


def laplace_resum(p: PadeApproximant, x: float) -> float:
    """int_0^inf e^{-t} p(x t) dt by Gauss-Laguerre quadrature.

    With p approximating the Borel transform B(sigma) = sum (c_n/n!) sigma^n
    this reconstructs sum c_n x^n.  Genuine poles on the positive real axis
    (within the quadrature support) abort with PoleOnContour; poles near it
    switch to a Gauss-Legendre rule graded toward them.
    """
    if x <= 0:
        raise ValueError("x must be positive")
    t, w = _laguerre_rule()
    support = x * t[-1]
    near_contour = False
    for pole in p.physical_poles:
        if 0 < pole.real < support:
            d = abs(pole.imag)
        else:
            d = min(abs(pole), abs(pole - support))
        if d < _CONTOUR_TOL:
            raise PoleOnContour(
                f"Pade pole at sigma = {pole:.6g} obstructs the Laplace contour"
            )
        if d < 1e-3 * max(x, 1.0):
            near_contour = True
    if near_contour:
        return _graded_laplace(p, x)
    return float(np.sum(w * p(x * t)))


# the graded rule integrates u in [0, 40]: the e^{-40} tail is below double
# precision for bounded p
_GRADED_U_MAX = 40.0
# Gauss-Legendre nodes per panel, and the width ratio of neighbouring panels
# around a pole.  The worst panel is the central one, with the pole a
# half-width above its midpoint; its error is about (1 + sqrt(2))^(-2 nodes)
# ~ 5e-16 of the integrand's scale there
_GRADED_NODES = 20
_GRADED_RATIO = 3.0
# e^{-u} changes on a unit scale, so the panels away from poles double in
# width from [0, 1]
_GRADED_BASE_EDGES = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, _GRADED_U_MAX)


def _graded_laplace(p: PadeApproximant, x: float) -> float:
    """int_0^40 e^{-u} Re p(x u) du by composite Gauss-Legendre.

    For poles too close to the contour for Gauss-Laguerre to see past.  Each
    pole z = sigma/x (spurious ones too, so no node lands on a doublet) is
    nearest the point c of [0, 40]; panel edges sit at c +- h, 3h, 9h, ...
    with h = |z - c|, so every panel lies about its own half-width or more
    from the pole.
    """
    edges = set(_GRADED_BASE_EDGES)
    for pole in p.poles:
        z = complex(pole) / x
        c = min(max(z.real, 0.0), _GRADED_U_MAX)
        h = max(abs(z - c), 1e-12)
        while h < _GRADED_U_MAX:
            edges.update((c - h, c + h))
            h *= _GRADED_RATIO
    e = np.array(sorted(v for v in edges if 0.0 <= v <= _GRADED_U_MAX))
    t, w = leggauss(_GRADED_NODES)
    mid = 0.5 * (e[1:] + e[:-1])[:, None]
    half = 0.5 * (e[1:] - e[:-1])[:, None]
    u = (mid + half * t).ravel()
    return float(np.sum((half * w).ravel() * np.exp(-u) * p(x * u).real))


@dataclass(frozen=True)
class ResummedDispersion:
    """k -> omega evaluator built from Borel transform + Pade + Laplace."""

    approximant: PadeApproximant

    def __call__(self, k: float) -> float:
        if k == 0:
            return 0.0
        return laplace_resum(self.approximant, k * k)


def resum_dispersion(c: CECoefficients, L: int, M: int) -> ResummedDispersion:
    """Borel-Pade resummation of the gradient series omega(k) = sum a_{2n} k^{2n}.

    The [L/M] approximant is built from Taylor orders 0..L+M of the Borel
    transform; any further supplied coefficients are left for consistency
    checks, not used in construction.
    """
    b = borel_transform(c)
    taylor = b.taylor()
    if len(taylor) < L + M + 1:
        raise ValueError(
            f"[{L}/{M}] needs {L + M} coefficients a_2..a_{2 * (L + M)}; got {len(c)}"
        )
    return ResummedDispersion(pade(taylor[: L + M + 1], L, M))


def ce_truncation_eval(c: CECoefficients, order: int, k: float) -> float:
    """Partial sum of the gradient series through k^order."""
    if order > 2 * len(c):
        raise ValueError(f"order {order} exceeds available coefficients")
    return float(
        sum(float(a) * k ** (2 * n) for n, a in enumerate(c.values, 1) if 2 * n <= order)
    )
