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


def borel_transform(c: Union[CECoefficients, Sequence[Fraction]]) -> tuple:
    """The exact Fractions b_n = c_n / n!, n = 1..N.

    Accepts either a CECoefficients bundle or any bare coefficient
    sequence (c_1, c_2, ...).  The transform's Taylor series around the
    origin is 0, b_1, ..., b_N.
    """
    values = c.values if isinstance(c, CECoefficients) else tuple(c)
    if not values:
        raise ValueError("need at least one coefficient")
    return tuple(Fraction(a) / math.factorial(n) for n, a in enumerate(values, 1))


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


def _contour_distance(pole: complex, support: float) -> float:
    """Distance of a pole from the Laplace contour [0, support]."""
    if 0 < pole.real < support:
        return abs(pole.imag)
    return min(abs(pole), abs(pole - support))


def laplace_resum(p: PadeApproximant, x):
    """int_0^inf e^{-t} p(x t) dt by Gauss-Laguerre quadrature, at one x > 0
    or at each of a sequence of them.

    With p approximating the Borel transform B(sigma) = sum (c_n/n!) sigma^n
    this reconstructs sum c_n x^n.  A genuine pole on the positive real axis
    (within the quadrature support of x) obstructs the contour: a single x
    raises PoleOnContour, and a sequence gives NaN there.  Poles near the
    contour switch that x to a Gauss-Legendre rule graded toward them.  The
    other points of a sequence share one Gauss-Laguerre evaluation.
    """
    scalar = np.ndim(x) == 0
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(xs <= 0):
        raise ValueError("x must be positive")
    t, w = _laguerre_rule()
    t_max = float(t[-1])
    poles = [complex(z) for z in p.physical_poles]
    out = np.empty(len(xs))
    regular = []
    for i, v in enumerate(xs.tolist()):
        d, pole = min(
            ((_contour_distance(z, v * t_max), z) for z in poles),
            key=lambda e: e[0], default=(math.inf, None),
        )
        if d < _CONTOUR_TOL:
            if scalar:
                raise PoleOnContour(
                    f"Pade pole at sigma = {pole:.6g} obstructs the Laplace contour"
                )
            out[i] = math.nan
        elif d < 1e-3 * max(v, 1.0):
            out[i] = _graded_laplace(p, v)
        else:
            regular.append(i)
    if regular:
        out[regular] = np.sum(w * p(xs[regular, None] * t).real, axis=1)
    return float(out[0]) if scalar else out


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

    def __call__(self, k):
        """omega at one k >= 0, or an array of omega at each of a sequence
        of them; 0 where k^2 is 0, also by underflow.  Where a pole
        obstructs the Laplace contour a single k raises PoleOnContour and a
        sequence gives NaN."""
        ks = np.asarray(k, dtype=float)
        q = ks * ks
        if q.ndim == 0:
            return laplace_resum(self.approximant, float(q)) if q else 0.0
        out = np.zeros(q.shape)
        moving = q != 0
        out[moving] = laplace_resum(self.approximant, q[moving])
        return out


def resum_dispersion(c: CECoefficients, L: int, M: int) -> ResummedDispersion:
    """Borel-Pade resummation of the gradient series omega(k) = sum a_{2n} k^{2n}.

    The [L/M] approximant is built from Taylor orders 0..L+M of the Borel
    transform; any further supplied coefficients are left for consistency
    checks, not used in construction.
    """
    b = borel_transform(c)
    if len(b) < L + M:
        raise ValueError(
            f"[{L}/{M}] needs {L + M} coefficients a_2..a_{2 * (L + M)}; got {len(c)}"
        )
    return ResummedDispersion(pade([0.0] + [float(v) for v in b[: L + M]], L, M))


def ce_truncation_eval(c: CECoefficients, order: int, k: float) -> float:
    """Partial sum of the gradient series through k^order."""
    if order > 2 * len(c):
        raise ValueError(f"order {order} exceeds available coefficients")
    return float(
        sum(float(a) * k ** (2 * n) for n, a in enumerate(c.values, 1) if 2 * n <= order)
    )
