"""Spectral polynomials of the truncated moment hierarchy.

P_0 = 1, P_1 = w(w+1) + k^2, and for n >= 2

    P_n = [(w+1)^2 + (4n-3) k^2] P_{n-1} - k^4 (2n-2)(2n-3) P_{n-2}.

The branch of P_n(w, k^2) = 0 through (k, w) = (0, 0) approximates the
hydrodynamic dispersion relation and terminates at a fold k_c(n).

Evaluation is normalized: each recurrence step divides the whole state by a
positive factor and accumulates its log, so magnitudes stay O(1) for n up
to a few hundred while root locations are preserved.  The recurrence is
linear in (P_{n-1}, P_{n-2}), so partial derivatives propagated alongside
share the same scale and ratios like P/P_w are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np


class CorrectorDiverged(Exception):
    """Newton corrector failed even after step halving."""


class DegenerateTangent(Exception):
    """Null tangent: singular point that is not a simple fold."""


class NoFoldFound(Exception):
    """Branch stayed monotone in k within the arclength budget."""


class NoBranchPoint(Exception):
    """No branch root at the requested wavenumber (past the fold)."""


@dataclass(frozen=True)
class SpectralEval:
    """Normalized value of P_n and its w-derivative at one point.

    sign(value) * exp(log_scale) * |value| reconstructs P_n; the
    normalization factors are strictly positive so sign changes and roots
    are those of the true polynomial.
    """

    n: int
    value: float
    log_scale: float
    derivative_omega: float


def _eval_state(n: int, w: float, q: float):
    """Scaled (P, P_w, P_q, P_ww, P_wq) at (w, k^2=q), plus log scale."""
    # state for P_{j-1} and P_j, five derivative slots each
    s0 = (1.0, 0.0, 0.0, 0.0, 0.0)
    s1 = (w * (w + 1) + q, 2 * w + 1, 1.0, 2.0, 0.0)
    if n == 0:
        return s0, 0.0
    log_scale = 0.0
    for j in range(2, n + 1):
        A = (w + 1) ** 2 + (4 * j - 3) * q
        B = q * q * (2 * j - 2) * (2 * j - 3)
        Bq = 2 * q * (2 * j - 2) * (2 * j - 3)
        P, Pw, Pq, Pww, Pwq = s1
        Q, Qw, Qq, Qww, Qwq = s0
        s2 = (
            A * P - B * Q,
            2 * (w + 1) * P + A * Pw - B * Qw,
            (4 * j - 3) * P + A * Pq - Bq * Q - B * Qq,
            2 * P + 4 * (w + 1) * Pw + A * Pww - B * Qww,
            (4 * j - 3) * Pw + 2 * (w + 1) * Pq + A * Pwq - Bq * Qw - B * Qwq,
        )
        scale = max(abs(s2[0]), abs(s1[0]), 1.0)
        log_scale += math.log(scale)
        s0 = tuple(v / scale for v in s1)
        s1 = tuple(v / scale for v in s2)
    return s1, log_scale


def eval_P(n: int, omega: float, k2: float) -> SpectralEval:
    """Normalized evaluation of P_n(omega, k^2) with its omega-derivative."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if k2 < 0:
        raise ValueError("k2 must be non-negative")
    state, log_scale = _eval_state(n, omega, k2)
    return SpectralEval(n, state[0], log_scale, state[1])


@dataclass(frozen=True)
class FoldPoint:
    """Location where the branch turns back: P_n = dP_n/dw = 0."""

    k_c: float
    omega_c: float
    residual: float


@dataclass(frozen=True)
class BranchSample:
    k: float
    omega: float
    physical: bool  # False past the fold


@dataclass
class BranchCurve:
    """Arc of the P_n = 0 root branch through the origin, with its fold."""

    n: int
    samples: list = field(default_factory=list)
    fold: Optional[FoldPoint] = None

    def omega_at(self, k: float) -> float:
        """Branch value at wavenumber k, for 0 <= k < k_c.

        Up to the last physical sample: nearest-sample seed + Newton polish.
        Between that sample and the fold: the root of P_n(., k^2) bracketed
        by omega_c and the last sample's omega.  At k_c itself the branch
        root has merged with its partner into a double root, and the branch
        has ended.
        """
        phys = [s for s in self.samples if s.physical]
        if not phys:
            raise NoBranchPoint(f"n={self.n} branch has no physical samples")
        last = max(phys, key=lambda s: s.k)
        past_samples = k > last.k + 1e-12
        if past_samples and (self.fold is None or k >= self.fold.k_c):
            raise NoBranchPoint(f"n={self.n} branch does not reach k={k}")
        if k == 0:
            return 0.0
        if past_samples:
            return self._root_before_fold(k, last.omega)
        seed = min(phys, key=lambda s: abs(s.k - k)).omega
        w = seed
        for _ in range(50):
            st, _ls = _eval_state(self.n, w, k * k)
            if st[1] == 0:
                break
            step = st[0] / st[1]
            w -= step
            if abs(step) < 1e-14:
                return w
        raise NoBranchPoint(f"Newton polish failed at k={k} for n={self.n}")

    def _root_before_fold(self, k: float, omega_last: float) -> float:
        """Root of P_n(., k^2) on [omega_c, omega_last], last_k < k < k_c.

        Newton steps kept inside a shrinking sign-change bracket, bisection
        when they leave it.  Below k_c the two roots merging at the fold
        straddle omega_c, so the physical one is the only root in the
        bracket; where rounding hides the sign change (k within rounding of
        k_c) the root is omega_c.
        """
        q = k * k
        lo, hi = self.fold.omega_c, omega_last
        p_lo = _eval_state(self.n, lo, q)[0][0]
        if p_lo == 0 or p_lo * _eval_state(self.n, hi, q)[0][0] > 0:
            return lo
        w = 0.5 * (lo + hi)
        for _ in range(200):
            st, _ls = _eval_state(self.n, w, q)
            if st[0] == 0:
                return w
            if st[0] * p_lo > 0:
                lo, p_lo = w, st[0]
            else:
                hi = w
            w_new = w - st[0] / st[1] if st[1] != 0 else math.nan
            if not (lo < w_new < hi):
                w_new = 0.5 * (lo + hi)
            if abs(w_new - w) < 1e-15 or hi - lo < 1e-15:
                return w_new
            w = w_new
        raise NoBranchPoint(f"bracketed solve failed at k={k} for n={self.n}")


_RESIDUAL_TOL = 1e-10


def _normalized_residual(P: float, Pw: float, Pk: float = 0.0) -> float:
    """|P| scaled by the local gradient: an estimate of the distance to the
    zero set, which is the meaningful residual when P itself spans many
    orders of magnitude along the branch."""
    return abs(P) / max(1.0, math.hypot(Pw, Pk))


def _tangent(n: int, w: float, q: float, k: float, prev=None):
    """Unit tangent of the implicit curve P_n(w, k^2) = 0 in the (k, w) plane."""
    st, _ = _eval_state(n, w, q)
    Pk = st[2] * 2 * k
    Pw = st[1]
    t = np.array([Pw, -Pk])
    norm = np.hypot(*t)
    if norm < 1e-300:
        raise DegenerateTangent(f"null tangent at (k, w) = ({k}, {w})")
    t /= norm
    if prev is None:
        if t[0] < 0:
            t = -t
    elif float(np.dot(t, prev)) < 0:
        t = -t
    return t


def trace_branch(n: int, step: float = 0.01, max_arclength: float = 4.0) -> BranchCurve:
    """Trace the physical root branch by pseudo-arclength continuation.

    Predictor: Euler step along the unit tangent.  Corrector: Newton on
    {P_n = 0, orthogonality to the tangent}.  The step adapts between
    1e-4 and 0.05 on corrector iteration count.  Past the fold the branch
    is followed for an extra 0.3 of arclength and flagged unphysical.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not (0 < step <= 0.05):
        raise ValueError("step must lie in (0, 0.05]")

    curve = BranchCurve(n, [BranchSample(0.0, 0.0, True)])
    u = np.array([0.0, 0.0])  # (k, omega)
    t = _tangent(n, u[1], u[0] ** 2, u[0])
    h = step
    arclength = 0.0
    fold_arclength = None
    k_max_seen = 0.0

    while arclength < max_arclength:
        accepted = False
        for _halving in range(7):
            pred = u + h * t
            v = pred.copy()
            iters = 0
            converged = False
            for iters in range(1, 26):
                st, _ = _eval_state(n, v[1], v[0] ** 2)
                P, Pw = st[0], st[1]
                Pk = st[2] * 2 * v[0]
                G = np.array([P, float(t @ (v - pred))])
                J = np.array([[Pk, Pw], [t[0], t[1]]])
                try:
                    d = np.linalg.solve(J, -G)
                except np.linalg.LinAlgError:
                    break
                v += d
                if (
                    _normalized_residual(P, Pw, Pk) < _RESIDUAL_TOL
                    and np.max(np.abs(d)) < 1e-10
                ):
                    converged = True
                    break
            if converged:
                accepted = True
                break
            h = max(h / 2, 1e-4)
        if not accepted:
            raise CorrectorDiverged(
                f"corrector failed near (k, w) = ({u[0]:.4f}, {u[1]:.4f}) for n={n}"
            )

        t_new = _tangent(n, v[1], v[0] ** 2, v[0], prev=t)
        arclength += float(np.hypot(*(v - u)))
        u_prev, u = u, v

        past_fold = fold_arclength is not None
        if not past_fold and t[0] > 0 and t_new[0] < 0:
            # dk/ds changed sign: refine from the pre-fold side first, since
            # a long post-fold step can drop into the basin of the kinetic
            # root w = -1
            last_err = None
            for seed in (u_prev, 0.5 * (u_prev + u), u):
                try:
                    curve.fold = find_fold(n, seed=(float(seed[0]), float(seed[1])))
                    break
                except NoFoldFound as exc:
                    last_err = exc
            else:
                raise NoFoldFound(
                    f"fold refinement failed near k = {u[0]:.4f} for n={n}"
                ) from last_err
            fold_arclength = arclength
            past_fold = True
        curve.samples.append(BranchSample(float(u[0]), float(u[1]), not past_fold))
        k_max_seen = max(k_max_seen, float(u[0]))
        t = t_new

        if fold_arclength is not None:
            if u[0] < k_max_seen - 0.2 or arclength > fold_arclength + 0.3:
                break

        # adapt on corrector effort
        if iters <= 3:
            h = min(h * 2, 0.05)
        elif iters > 8:
            h = max(h / 2, 1e-4)

    return curve


def find_fold(n: int, seed: Optional[tuple] = None, bracket_hint: Optional[tuple] = None) -> FoldPoint:
    """Refine the fold of the P_n branch: Newton on {P_n = 0, dP_n/dw = 0}.

    ``seed`` is a (k, omega) starting point; without one the branch is
    traced first and its maximal-k sample used.  ``bracket_hint`` =
    (k_lo, k_hi) restricts the admissible k_c.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if seed is None:
        curve = trace_branch(n)
        if curve.fold is not None:
            fp = curve.fold
            if bracket_hint is not None and not (
                bracket_hint[0] <= fp.k_c <= bracket_hint[1]
            ):
                raise NoFoldFound(
                    f"fold k_c={fp.k_c:.6f} outside hint {bracket_hint} for n={n}"
                )
            return fp
        best = max(curve.samples, key=lambda s: s.k)
        seed = (best.k, best.omega)

    k, w = float(seed[0]), float(seed[1])
    for _ in range(100):
        st, _ = _eval_state(n, w, k * k)
        P, Pw, Pq, Pww, Pwq = st
        Pk = Pq * 2 * k
        Pwk = Pwq * 2 * k
        J = np.array([[Pw, Pk], [Pww, Pwk]])
        try:
            d = np.linalg.solve(J, [-P, -Pw])
        except np.linalg.LinAlgError as exc:
            raise NoFoldFound(f"singular fold system for n={n}") from exc
        w += d[0]
        k += d[1]
        if np.max(np.abs(d)) < 1e-14:
            break

    st, _ = _eval_state(n, w, k * k)
    P, Pw, Pq, Pww, Pwq = st
    residual = max(
        _normalized_residual(P, Pw, Pq * 2 * k),
        _normalized_residual(Pw, Pww, Pwq * 2 * k),
    )
    if not (math.isfinite(k) and math.isfinite(w)) or residual > _RESIDUAL_TOL:
        raise NoFoldFound(f"fold refinement did not converge for n={n}")
    if bracket_hint is not None and not (bracket_hint[0] <= k <= bracket_hint[1]):
        raise NoFoldFound(
            f"fold k_c={k:.6f} outside hint {bracket_hint} for n={n}"
        )
    return FoldPoint(float(k), float(w), float(residual))
