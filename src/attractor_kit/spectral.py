"""Spectral branches of the truncated moment hierarchy and their folds.

Truncating the hierarchy at order n gives P_n(w, k^2) = det(w I + D +
ik J_2n), with D = diag(0, 1, ..., 1) and J_2n the Hermite Jacobi matrix
(off-diagonals sqrt(j)).  With s = 1 + w and q = k^2 it factors as
P_n = R K_1 K_2 ... K_{2n-1}, where

    K_{2n-1} = s,   K_j = s + (j+1) q / K_{j+1},   R = w + q / K_1.

This is the Hermite Jacobi fraction cut at depth 2n (Golub & Welsch, Math.
Comp. 23 (1969) 221), or the BGK relation of the 2n-point Gauss-Hermite
velocity set (Shan, Yuan & Chen, J. Fluid Mech. 550 (2006) 413).  For
w > -1 every K_j >= s > 0, so R has the sign and the roots of P_n, and the
fraction summed bottom-up needs no rescaling.  R is w + q/K_1 rather than
K_0 - 1, so w keeps its relative accuracy at small k.

The root branch of R through (k, w) = (0, 0) approximates the hydrodynamic
dispersion relation and ends at a fold k_c(n), where R = R_w = 0.  R + 1 =
s + q/K_1 is homogeneous of degree 1 in (s, k), so the minimiser of
R(., k^2) is s = u k with u fixed by n, and M(k) = min_s R(s, k^2) =
k / k_c - 1 is linear in k.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Optional


class CorrectorDiverged(Exception):
    """Newton corrector failed even after step halving."""


class DegenerateTangent(Exception):
    """Null tangent: singular point that is not a simple fold."""


class NoFoldFound(Exception):
    """The fold solve's brackets failed their sign checks, or its inner
    solve did not converge."""


class NoBranchPoint(Exception):
    """No branch root at the requested wavenumber (past the fold)."""


def _eval_state(n: int, w: float, q: float):
    """(R, R_w, R_q) at (w, k^2 = q), for w > -1.

    The fraction is summed from K_{2n-1} down to K_1 together with its
    derivatives in s (which are those in w) and in q.  The inputs become
    plain floats on entry, so numpy scalars do not slow every step down.
    """
    w, q = float(w), float(q)
    s = w + 1.0
    K, Ks, Kq = s, 1.0, 0.0
    c = 2.0 * n - 1.0  # j + 1 as a float, which multiplies faster than an int
    while c > 1.0:
        inv = 1.0 / K
        # c q / K, not c q * inv: one rounding fewer halves the worst error
        # of the branch values
        t = c * q / K
        K, Ks, Kq = s + t, 1.0 - t * Ks * inv, (c - t * Kq) * inv
        c -= 1.0
    inv = 1.0 / K
    t = q / K
    return w + t, 1.0 - t * Ks * inv, (1.0 - t * Kq) * inv


@dataclass(frozen=True)
class FoldPoint:
    """Location where the branch turns back: R = R_w = 0."""

    k_c: float
    omega_c: float
    residual: float


@dataclass(frozen=True)
class BranchSample:
    """A point of the branch with its slope d(omega)/dk there."""

    k: float
    omega: float
    slope: float


def _hermite(a: BranchSample, b: BranchSample, k: float) -> float:
    """Cubic Hermite of omega(k) through samples a and b and their slopes;
    exactly b.omega at k = b.k, and an extrapolation past b."""
    dk = b.k - a.k
    t = (k - a.k) / dk
    s = 1 - t
    return (
        (a.omega * (1 + 2 * t) + a.slope * dk * t) * s * s
        + (b.omega * (3 - 2 * t) - b.slope * dk * s) * t * t
    )


class NoRootInInterval(Exception):
    """The safeguarded bracket contains no sign change."""


def _newton_done(step: float, prev: float) -> bool:
    """Stopping test of the fold's inner secant, the branch polish and
    `_safeguarded_newton`, on the size of the last update and the one before
    it: below 1e-14, or below 1e-9 and no longer halving.  A converging
    Newton at least halves its update; one that stops halving is moving by
    rounding noise, which from n of about 100 on lies above 1e-14."""
    return step < 1e-14 or (step < 1e-9 and step > 0.5 * prev)


def _safeguarded_newton(fg, lo, hi, x0):
    """Newton iteration that falls back to bisection on a sign-change
    bracket, stopped by `_newton_done`.  ``fg(x)`` returns the value and
    the slope at x from one evaluation."""
    flo, fhi = fg(lo)[0], fg(hi)[0]
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise NoRootInInterval(
            f"no sign change on [{lo:.6g}, {hi:.6g}] (f = {flo:.3g}, {fhi:.3g})"
        )
    x = min(max(x0, lo), hi)
    prev = math.inf
    for _ in range(100):
        fx, d = fg(x)
        if fx == 0.0:
            return x
        if fx * flo < 0:
            hi = x
        else:
            lo, flo = x, fx
        x_new = x - fx / d if d != 0 else math.nan
        if not (lo < x_new < hi):
            x_new = 0.5 * (lo + hi)
        step = abs(x_new - x)
        if _newton_done(step, prev):
            return x_new
        x, prev = x_new, step
    return x


@dataclass
class BranchCurve:
    """Arc of the R = 0 root branch from the origin up to its fold.

    The samples rise strictly in k, each with the branch's slope there;
    the fold lies past the last one.
    """

    n: int
    samples: list = field(default_factory=list)
    fold: Optional[FoldPoint] = None

    def omega_at(self, k: float) -> float:
        """Branch value at wavenumber k, for 0 <= k < k_c.

        Up to the last sample: Newton polish seeded on the cubic Hermite
        through the two samples that bracket k, stopped by `_newton_done` and
        accepted only with a normalised residual within _RESIDUAL_TOL.
        Between that sample and the fold: the root of R(., k^2) bracketed
        by omega_c and the last sample's omega, seeded on the square-root
        law of the branch near its fold; below k_c the two roots merging at
        the fold straddle omega_c, so the branch root is the only one in the
        bracket, and where rounding hides the sign change (k within rounding
        of k_c) the root is omega_c.  At k_c itself the branch root has
        merged with its partner into a double root, and the branch has
        ended.
        """
        last = self.samples[-1]
        past_samples = k > last.k + 1e-12
        if past_samples and (self.fold is None or k >= self.fold.k_c):
            raise NoBranchPoint(f"n={self.n} branch does not reach k={k}")
        if k == 0:
            return 0.0
        q = k * k
        if past_samples:
            k_c, lo = self.fold.k_c, self.fold.omega_c
            seed = lo + (last.omega - lo) * math.sqrt((k_c - k) / (k_c - last.k))
            try:
                return _safeguarded_newton(
                    lambda w: _eval_state(self.n, w, q)[:2], lo, last.omega, seed
                )
            except NoRootInInterval:
                return lo
        i = bisect.bisect_left(self.samples, k, key=lambda s: s.k)
        if i == len(self.samples):
            w = last.omega
        else:
            w = _hermite(self.samples[i - 1], self.samples[i], k)
        prev = math.inf
        for _ in range(50):
            if not w > -1:
                break
            st = _eval_state(self.n, w, q)
            if st[1] == 0:
                break
            step = st[0] / st[1]
            w -= step
            if _newton_done(abs(step), prev):
                if _normalized_residual(st[0], st[1]) <= _RESIDUAL_TOL:
                    return w
                break
            prev = abs(step)
        raise NoBranchPoint(f"Newton polish failed at k={k} for n={self.n}")


_RESIDUAL_TOL = 1e-10

# pseudo-arclength continuation: initial, smallest and largest step, budget
_STEP = 0.01
_STEP_MIN = 1e-4
_STEP_MAX = 0.05
_MAX_ARCLENGTH = 4.0


def _normalized_residual(R: float, Rw: float, Rk: float = 0.0) -> float:
    """|R| scaled by the local gradient where that exceeds 1: an estimate of
    the distance to the zero set."""
    return abs(R) / max(1.0, math.hypot(Rw, Rk))


def _tangent(st, k: float, prev=None):
    """Unit tangent (dk/ds, dw/ds) of the implicit curve R(w, k^2) = 0,
    from the state (R, R_w, R_q) at wavenumber k."""
    tk, tw = st[1], -(st[2] * 2 * k)
    norm = math.hypot(tk, tw)
    if norm < 1e-300:
        raise DegenerateTangent(f"null tangent at k = {k}")
    tk, tw = tk / norm, tw / norm
    if (tk if prev is None else tk * prev[0] + tw * prev[1]) < 0:
        tk, tw = -tk, -tw
    return tk, tw


def _correct(n: int, pred, t):
    """Newton on {R = 0, t . (v - pred) = 0} from the predictor ``pred``.

    Returns ((k, w), updates, state), or None when the iteration fails.
    The last evaluation only confirms convergence, so ``updates`` counts the
    Newton updates before it; ``state`` is that last evaluation, within
    1e-10 of (k, w), from which the caller takes the tangent.
    """
    (k0, w0), (tk, tw) = pred, t
    k, w = pred
    for iters in range(1, 26):
        if not w > -1:
            # outside the fraction's domain: a failed step, as a singular one
            return None
        R, Rw, Rq = _eval_state(n, w, k * k)
        Rk = Rq * 2 * k
        g = tk * (k - k0) + tw * (w - w0)
        # Cramer's rule for [[Rk, Rw], [tk, tw]] (dk, dw) = -(R, g)
        det = Rk * tw - Rw * tk
        if det == 0 or not math.isfinite(det):
            return None
        dk = (Rw * g - R * tw) / det
        dw = (R * tk - Rk * g) / det
        k += dk
        w += dw
        if _normalized_residual(R, Rw, Rk) < _RESIDUAL_TOL and max(abs(dk), abs(dw)) < 1e-10:
            return (k, w), iters - 1, (R, Rw, Rq)
    return None


# the fold lies below k* = sqrt(pi/2), where the exact Gaussian branch
# reaches omega = -1 and every k_c(n) stays below it
_K_STAR = math.sqrt(math.pi / 2)


def _fold(n: int, k: float, s: float) -> FoldPoint:
    """Fold of the order-n branch from a seed below it: k < k_c, and s =
    1 + w above the minimiser of R(., k^2), as at a branch point before the
    turn.

    Inner solve: the minimiser of R(., k^2) on (0, 1] is the root of R_w,
    bracketed by [k / (2 sqrt(n)), s]; the minimiser's s sqrt(n) / k rises
    from 1 at n = 1 (2.13 at n = 3200).  Secant on s^2 R_w in y = s^2,
    which is linear in y for n = 1, with bisection where the secant leaves
    the bracket.  It stops after a secant step by `_newton_done`, or on the
    bracket's width, and keeps the state of its last evaluation, within that
    step of the minimiser.

    Outer solve: Newton on M(k) = min_s R(s, k^2), whose slope at the
    minimiser, 2k R_q, is (M + 1)/k since R + 1 is homogeneous of degree 1
    in (s, k).  M is linear in k, so the step k -> k / (1 + M) lands on k_c
    and the minimiser, scaled with k, on the fold's.  One evaluation there
    gives the residual max(|R|, |R_w|), and a last Newton step in k and
    secant step in y that take up the first step's rounding.

    Raises NoFoldFound where R_w has the wrong sign at an end of the inner
    bracket, or M at an end of the outer one, [k, sqrt(pi/2)] (for a linear
    M the second end is k_c < sqrt(pi/2)), or the residual exceeds
    _RESIDUAL_TOL.
    """
    q = k * k
    (y0, f0), (y1, f1) = [(x * x, x * x * _eval_state(n, x - 1, q)[1])
                          for x in (k / (2 * math.sqrt(n)), s)]
    if not f0 < 0 < f1:
        raise NoFoldFound(f"R_w does not change sign on [{y0**0.5:.6g}, {s:.6g}] for n={n}")
    lo, hi = y0, y1
    st = None  # the state at y1, once y1 is an iterate
    prev = math.inf
    for _ in range(100):
        y = y1 - f1 * (y1 - y0) / (f1 - f0) if f1 != f0 else math.nan
        secant = lo < y < hi
        if not secant:
            y = 0.5 * (lo + hi)
        step = abs(y - y1)
        if st is not None and (secant and _newton_done(step, prev) or hi - lo < 1e-15):
            break
        st = _eval_state(n, math.sqrt(y) - 1, q)
        f = y * st[1]
        if f == 0:
            break
        lo, hi = (y, hi) if f < 0 else (lo, y)
        y0, f0, y1, f1, prev = y1, f1, y, f, step
    else:
        raise NoFoldFound(f"the minimiser of R did not converge for n={n}")
    slope = (f1 - f0) / (y1 - y0)  # d(s^2 R_w)/dy, unchanged as s scales with k
    M = st[0]
    if not M < 0:
        raise NoFoldFound(f"the seed k = {k:.6g} is not below the fold of n={n}")
    k_c = k / (1 + M)
    if not k_c < _K_STAR:
        raise NoFoldFound(f"the fold of n={n} is not below sqrt(pi/2)")
    s = math.sqrt(y) * k_c / k
    R, Rw, _ = _eval_state(n, s - 1, k_c * k_c)
    residual = max(abs(R), abs(Rw))
    if not residual <= _RESIDUAL_TOL:
        raise NoFoldFound(f"fold residual {residual:.3g} for n={n}")
    k_f = k_c / (1 + R)
    s_f = math.sqrt(s * s * (1 - Rw / slope)) * k_f / k_c
    return FoldPoint(k_f, s_f - 1, residual)


def trace_branch(n: int) -> BranchCurve:
    """Trace the physical root branch by pseudo-arclength continuation.

    Predictor: the cubic Hermite through the last two samples and their
    unit tangents, parametrised by arclength with the chord between them
    standing for it (Euler on the first step).  Corrector: Newton
    on {R = 0, orthogonality to the tangent}; the next tangent comes from
    the corrector's last evaluation.  The step doubles after at most three
    Newton updates and halves after more than eight, between 1e-4 and
    0.05.  The trace ends at the first step over which dk/ds turns
    negative, and the fold is solved for from its last sample.
    """
    if n < 1:
        raise ValueError("n must be >= 1")

    u = (0.0, 0.0)  # (k, omega)
    t = _tangent(_eval_state(n, 0.0, 0.0), 0.0)
    samples = [BranchSample(0.0, 0.0, t[1] / t[0])]
    curve = BranchCurve(n, samples)
    # u + s t + s^2 a2 + s^3 a3: the cubic through the last two samples
    a2 = a3 = (0.0, 0.0)
    h = _STEP
    arclength = 0.0

    while arclength < _MAX_ARCLENGTH:
        for _halving in range(7):
            pred = (
                u[0] + h * (t[0] + h * (a2[0] + h * a3[0])),
                u[1] + h * (t[1] + h * (a2[1] + h * a3[1])),
            )
            corrected = _correct(n, pred, t)
            if corrected is not None:
                break
            h = max(h / 2, _STEP_MIN)
        else:
            raise CorrectorDiverged(
                f"corrector failed near (k, w) = ({u[0]:.4f}, {u[1]:.4f}) for n={n}"
            )
        v, updates, st = corrected

        t_new = _tangent(st, v[0], prev=t)
        if t_new[0] <= 0:
            # the step passed the fold, or ended on it, where the slope is
            # infinite; the last sample lies below it
            curve.fold = _fold(n, u[0], 1 + u[1])
            break
        # the chord is at least h > 0: the corrector moves orthogonally to t
        chord = math.hypot(v[0] - u[0], v[1] - u[1])
        ck, cw = (t_new[0] - t[0]) / chord, (t_new[1] - t[1]) / chord
        # Hermite conditions: (u, t) at s = -chord, (v, t_new) at s = 0
        ek = (t_new[0] - (v[0] - u[0]) / chord) / chord
        ew = (t_new[1] - (v[1] - u[1]) / chord) / chord
        a2 = (3 * ek - ck, 3 * ew - cw)
        a3 = ((2 * ek - ck) / chord, (2 * ew - cw) / chord)
        arclength += chord
        u, t = v, t_new
        samples.append(BranchSample(*u, t[1] / t[0]))

        # adapt on corrector effort
        if updates <= 3:
            h = min(h * 2, _STEP_MAX)
        elif updates > 8:
            h = max(h / 2, _STEP_MIN)

    return curve


def find_fold(n: int) -> FoldPoint:
    """Fold of the order-n branch, where R = R_w = 0, without a trace.

    The seed k = 1/4 lies below every fold (k_c(1) = 1/2 is the lowest), and
    s = 1/2 above the minimiser u/4 <= 1/4 of R(., 1/16).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return _fold(n, 0.25, 0.5)
