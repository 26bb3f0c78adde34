"""Borel transform, diagonal Pade approximants, and Laplace resummation.

Convention: the transform divides the n-th coefficient by n!, and the
inverse is the Laplace integral int_0^inf e^{-t} B(x t) dt, so the pair is
self-consistent term by term (int e^{-t} t^n dt = n!).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from . import _gauss_rules

# residues below this are Froissart doublets (pole cancelled by a nearby
# zero); they carry no analytic information and are excluded from
# contour checks and singularity diagnostics.  A residue that is not finite
# shows no doublet, so its pole counts as genuine
_SPURIOUS_RESIDUE = 1e-8

_CONTOUR_TOL = 1e-8


class SingularPadeSystem(Exception):
    """The Toeplitz denominator system is rank-deficient (blocked Pade entry)."""


class PoleOnContour(Exception):
    """A genuine Pade pole sits on the positive real axis: summability lost."""


def borel_transform(c: Sequence[Fraction]) -> tuple:
    """The exact Fractions b_n = c_n / n!, n = 1..N, of any sequence
    (c_1, c_2, ...).  The transform's Taylor series around the origin is 0,
    b_1, ..., b_N.
    """
    values = tuple(c)
    if not values:
        raise ValueError("need at least one coefficient")
    return tuple(Fraction(a) / math.factorial(n) for n, a in enumerate(values, 1))


class PadeApproximant(NamedTuple):
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
    def physical(self) -> np.ndarray:
        """Mask of the genuine poles, those not flagged as Froissart doublets."""
        return ~(np.abs(self.residues) <= _SPURIOUS_RESIDUE)

    @property
    def physical_poles(self) -> np.ndarray:
        return self.poles[self.physical]

    def __call__(self, s):
        # np.polyval can overflow far out at a high order; laplace_resum
        # turns a sum that is then not finite into NaN
        with np.errstate(over="ignore", invalid="ignore"):
            return np.polyval(self.num[::-1], s) / np.polyval(self.den[::-1], s)


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
        # A[m, j] = c[L + m - j], and 0 where that index is negative
        idx = L + np.subtract.outer(np.arange(M), np.arange(M))
        A = np.where(idx >= 0, c[np.maximum(idx, 0)], 0.0)
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

    poles = np.roots(den[::-1])
    # np.polyval can overflow at a far pole of a high order (see `physical`)
    with np.errstate(over="ignore", invalid="ignore"):
        residues = np.polyval(num[::-1], poles) / np.polyval(np.polyder(den[::-1]), poles)
    return PadeApproximant(num, den, poles, residues)


def summability(p: PadeApproximant) -> tuple:
    """The nearest genuine pole of ``p`` and the verdict "strict" when every
    genuine pole has Re < 0, off the Laplace contour [0, inf), else
    "obstructed"; (None, None) when no pole is genuine."""
    poles = p.physical_poles
    if not poles.size:
        return None, None
    return complex(min(poles, key=abs)), "strict" if np.all(poles.real < 0) else "obstructed"


# the 80-node Gauss-Laguerre rule of the Laplace integral
_LAGUERRE_T = np.array(_gauss_rules.LAGUERRE_NODES)
_LAGUERRE_W = np.array(_gauss_rules.LAGUERRE_WEIGHTS)


def laplace_resum(p: PadeApproximant, x):
    """int_0^inf e^{-t} p(x t) dt by Gauss-Laguerre quadrature, at one finite
    x > 0 or at each of a sequence of them.

    With p approximating the Borel transform B(sigma) = sum (c_n/n!) sigma^n
    this reconstructs sum c_n x^n.  A genuine pole on the positive real axis
    (within the quadrature support of x) obstructs the contour: a single x
    raises PoleOnContour, and a sequence gives NaN there.  Poles near the
    contour switch that x to a Gauss-Legendre rule graded toward them.  The
    other points of a sequence share one Gauss-Laguerre evaluation.  Where
    the sum is not finite, as where p overflows at the nodes of a high
    order, the value is NaN.
    """
    scalar = np.ndim(x) == 0
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all((0 < xs) & (xs < math.inf)):
        raise ValueError("x must be positive and finite")
    t, w = _LAGUERRE_T, _LAGUERRE_W
    # distance of each genuine pole (columns) from each x's contour
    # [0, x t_max] (rows): |Im| above the segment, else the nearer end
    poles = p.physical_poles
    support = (xs * t[-1])[:, None]
    over = (0 < poles.real) & (poles.real < support)
    dist = np.where(over, np.abs(poles.imag),
                    np.minimum(np.abs(poles), np.abs(poles - support)))
    d = dist.min(axis=1, initial=math.inf)
    out = np.empty(len(xs))
    obstructed = d < _CONTOUR_TOL
    if scalar and obstructed[0]:
        pole = complex(poles[np.argmin(dist[0])])
        raise PoleOnContour(
            f"Pade pole at sigma = {pole:.6g} obstructs the Laplace contour"
        )
    out[obstructed] = math.nan
    near = ~obstructed & (d < 1e-3 * np.maximum(xs, 1.0))
    for i in np.flatnonzero(near).tolist():
        out[i] = _graded_laplace(p, float(xs[i]))
    regular = ~(obstructed | near)
    if regular.any():
        out[regular] = np.sum(w * p(xs[regular, None] * t).real, axis=1)
    out[~np.isfinite(out)] = math.nan
    return float(out[0]) if scalar else out


# the graded rule integrates u in [0, 40]: the e^{-40} tail is below double
# precision for bounded p
_GRADED_U_MAX = 40.0
# 20 Gauss-Legendre nodes per panel, and the width ratio of neighbouring
# panels around a pole.  The worst panel is the central one, with the pole a
# half-width above its midpoint; its error is about (1 + sqrt(2))^(-2 nodes)
# ~ 5e-16 of the integrand's scale there
_LEGENDRE_T = np.array(_gauss_rules.LEGENDRE_NODES)
_LEGENDRE_W = np.array(_gauss_rules.LEGENDRE_WEIGHTS)
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
    t, w = _LEGENDRE_T, _LEGENDRE_W
    mid = 0.5 * (e[1:] + e[:-1])[:, None]
    half = 0.5 * (e[1:] - e[:-1])[:, None]
    u = (mid + half * t).ravel()
    return float(np.sum((half * w).ravel() * np.exp(-u) * p(x * u).real))


class ResummedDispersion(NamedTuple):
    """k -> omega evaluator built from Borel transform + Pade + Laplace:
    ``approximant`` of the exact Borel coefficients ``borel``."""

    approximant: PadeApproximant
    borel: tuple

    def __call__(self, k):
        """omega at one finite k >= 0, or an array of omega at each of a
        sequence of them; 0 where k^2 is 0, also by underflow.  Where a pole
        obstructs the Laplace contour a single k raises PoleOnContour and a
        sequence gives NaN; where the Laplace sum overflows it is NaN."""
        ks = np.asarray(k, dtype=float)
        if not np.all((0 <= ks) & (ks < math.inf)):
            raise ValueError("k must be a finite non-negative number")
        q = ks * ks
        if q.ndim == 0:
            return laplace_resum(self.approximant, float(q)) if q else 0.0
        out = np.zeros(q.shape)
        moving = q != 0
        out[moving] = laplace_resum(self.approximant, q[moving])
        return out


def resum_dispersion(c: Sequence[Fraction], L: int, M: int) -> ResummedDispersion:
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
    return ResummedDispersion(pade([0.0] + [float(v) for v in b[: L + M]], L, M), b)


def ce_truncation_eval(c: Sequence, order: int, k: float) -> float:
    """Partial sum of the gradient series sum a_{2n} k^{2n} through k^order,
    from exact coefficients or their floats, which give the same sum."""
    if not 0 <= order <= 2 * len(c):
        raise ValueError(f"order {order} is outside 0..{2 * len(c)}")
    return float(sum(float(a) * k ** (2 * n) for n, a in enumerate(c[: order // 2], 1)))
