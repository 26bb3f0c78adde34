"""Spectral polynomials of the truncated moment hierarchy.

P_0 = 1, P_1 = w(w+1) + k^2, and for n >= 2

    P_n = [(w+1)^2 + (4n-3) k^2] P_{n-1} - k^4 (2n-2)(2n-3) P_{n-2}.

The branch of P_n(w, k^2) = 0 through (k, w) = (0, 0) approximates the
hydrodynamic dispersion relation and terminates at a fold k_c(n).

Evaluation is normalized: the whole state is multiplied by 2^-200 (exact in
binary floating point) whenever P_j passes 2^200, by 2^200 whenever both
P_j and P_{j-1} fall below 2^-200, and divided once by
max(|P_n|, |P_{n-1}|, 1) at the end, so magnitudes stay O(1) while signs and
roots are those of the unscaled recurrence.  The recurrence is linear in
(P_{n-1}, P_{n-2}), so derivatives propagated alongside share the scale.
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
    """Branch stayed monotone in k within the arclength budget, or the fold
    it turned at could not be refined."""


class NoBranchPoint(Exception):
    """No branch root at the requested wavenumber (past the fold)."""


# |P_j| past 2^200 rescales the state by 2^-200, and |P_j|, |P_{j-1}| both
# below 2^-200 by 2^200: far from both ends of the float range, so
# derivative slots a few powers of n larger stay finite
_RESCALE_AT, _RESCALE_BY = 2.0**200, 2.0**-200


def _eval_state(n: int, w: float, q: float, second: bool = False):
    """Scaled (P, P_w, P_q) at (w, k^2=q).

    With ``second`` the state also carries (P_ww, P_wq), which only the fold
    Newton reads.  The inputs become plain floats on entry, so numpy scalars
    do not slow every step down.  Every slot is the true one times the same
    positive factor: powers of 2^200, which are exact, and the final
    division by max(|P_n|, |P_{n-1}|, 1), the only rounding the
    normalization adds.
    """
    if n == 0:
        return (1.0, 0.0, 0.0, 0.0, 0.0) if second else (1.0, 0.0, 0.0)
    w, q = float(w), float(q)
    # P.. is the state of P_j, Q.. that of P_{j-1}
    Q, Qw, Qq, Qww, Qwq = 1.0, 0.0, 0.0, 0.0, 0.0
    P, Pw, Pq, Pww, Pwq = w * (w + 1) + q, 2 * w + 1, 1.0, 2.0, 0.0
    w1sq = (w + 1) ** 2
    w1x2 = 2 * (w + 1)
    w1x4 = 4 * (w + 1)
    qq = q * q
    qx2 = 2 * q
    big, by = _RESCALE_AT, _RESCALE_BY
    # 4j - 3, 2j - 2 and 2j - 3 as floats, which multiply faster than ints
    c, a, b = 5.0, 2.0, 1.0
    for _ in range(n - 1):
        A = w1sq + c * q
        B = qq * a * b
        Bq = qx2 * a * b
        P2 = A * P - B * Q
        Pw2 = w1x2 * P + A * Pw - B * Qw
        Pq2 = c * P + A * Pq - Bq * Q - B * Qq
        if second:
            Pww2 = 2 * P + w1x4 * Pw + A * Pww - B * Qww
            Pwq2 = c * Pw + w1x2 * Pq + A * Pwq - Bq * Qw - B * Qwq
            Pww, Pwq, Qww, Qwq = Pww2, Pwq2, Pww, Pwq
        Q, Qw, Qq = P, Pw, Pq
        P, Pw, Pq = P2, Pw2, Pq2
        # abs(P) > big, spelled out: faster than the builtin abs
        if P > big or P < -big:
            P, Pw, Pq, Q, Qw, Qq = P * by, Pw * by, Pq * by, Q * by, Qw * by, Qq * by
            if second:
                Pww, Pwq, Qww, Qwq = Pww * by, Pwq * by, Qww * by, Qwq * by
        elif -by < P < by and -by < Q < by and (P or Q):
            # the mirror image where the state decays (w near -1, small q);
            # an exactly zero pair (q = 0 on a root of P_1) is left alone
            P, Pw, Pq, Q, Qw, Qq = P * big, Pw * big, Pq * big, Q * big, Qw * big, Qq * big
            if second:
                Pww, Pwq, Qww, Qwq = Pww * big, Pwq * big, Qww * big, Qwq * big
        c += 4.0
        a += 2.0
        b += 2.0
    scale = max(abs(P), abs(Q), 1.0)
    if second:
        return (P / scale, Pw / scale, Pq / scale, Pww / scale, Pwq / scale)
    return (P / scale, Pw / scale, Pq / scale)


@dataclass(frozen=True)
class FoldPoint:
    """Location where the branch turns back: P_n = dP_n/dw = 0."""

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
    """Stopping test of the fold Newton, the branch polish and
    `_safeguarded_newton`, on the size of the last update and the one before
    it: below 1e-14, or below 1e-9 and no longer halving.  A converging
    Newton at least halves its update; one that stops halving is moving by
    rounding noise, which from n of about 100 on lies above 1e-14."""
    return step < 1e-14 or (step < 1e-9 and step > 0.5 * prev)


def _safeguarded_newton(f, fprime, lo, hi, x0):
    """Newton iteration that falls back to bisection on a sign-change
    bracket, stopped by `_newton_done`."""
    flo, fhi = f(lo), f(hi)
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
        fx = f(x)
        if fx == 0.0:
            return x
        if fx * flo < 0:
            hi = x
        else:
            lo, flo = x, fx
        d = fprime(x)
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
    """Arc of the P_n = 0 root branch from the origin up to its fold.

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
        Between that sample and the fold: the root of P_n(., k^2) bracketed
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
            # Newton asks for P and then P_w at the same iterate: one
            # recurrence serves both
            memo = [None, None]

            def state(w):
                if memo[0] != w:
                    memo[:] = w, _eval_state(self.n, w, q)
                return memo[1]

            seed = lo + (last.omega - lo) * math.sqrt((k_c - k) / (k_c - last.k))
            try:
                return _safeguarded_newton(
                    lambda w: state(w)[0], lambda w: state(w)[1], lo, last.omega, seed
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


def _normalized_residual(P: float, Pw: float, Pk: float = 0.0) -> float:
    """|P| scaled by the local gradient: an estimate of the distance to the
    zero set, which is the meaningful residual when P itself spans many
    orders of magnitude along the branch."""
    return abs(P) / max(1.0, math.hypot(Pw, Pk))


def _tangent(st, k: float, prev=None):
    """Unit tangent (dk/ds, dw/ds) of the implicit curve P_n(w, k^2) = 0,
    from the state (P, P_w, P_q) at wavenumber k."""
    tk, tw = st[1], -(st[2] * 2 * k)
    norm = math.hypot(tk, tw)
    if norm < 1e-300:
        raise DegenerateTangent(f"null tangent at k = {k}")
    tk, tw = tk / norm, tw / norm
    if (tk if prev is None else tk * prev[0] + tw * prev[1]) < 0:
        tk, tw = -tk, -tw
    return tk, tw


def _correct(n: int, pred, t):
    """Newton on {P_n = 0, t . (v - pred) = 0} from the predictor ``pred``.

    Returns ((k, w), updates, state), or None when the iteration fails.
    The last evaluation only confirms convergence, so ``updates`` counts the
    Newton updates before it; ``state`` is that last evaluation, within
    1e-10 of (k, w), from which the caller takes the tangent.
    """
    (k0, w0), (tk, tw) = pred, t
    k, w = pred
    for iters in range(1, 26):
        st = _eval_state(n, w, k * k)
        P, Pw = st[0], st[1]
        Pk = st[2] * 2 * k
        g = tk * (k - k0) + tw * (w - w0)
        # Cramer's rule for [[Pk, Pw], [tk, tw]] (dk, dw) = -(P, g)
        det = Pk * tw - Pw * tk
        if det == 0 or not math.isfinite(det):
            return None
        dk = (Pw * g - P * tw) / det
        dw = (P * tk - Pk * g) / det
        k += dk
        w += dw
        if _normalized_residual(P, Pw, Pk) < _RESIDUAL_TOL and max(abs(dk), abs(dw)) < 1e-10:
            return (k, w), iters - 1, st
    return None


def _refine_fold(n: int, u, t, h: float, tk_end: float, curvature=(0.0, 0.0)) -> FoldPoint:
    """Fold inside the continuation step of length h from u along t.

    dk/ds is t[0] > 0 at u and tk_end < 0 at the step's end: bracket its
    root in the step's arclength by regula falsi (Illinois) down to the
    smallest continuation step, then Newton on {P_n = 0, dP_n/dw = 0} from
    the last bracketing point.  Each bracketing point is predicted from the
    last corrected point with dk/ds > 0, along that point's own tangent plus
    the second-order term of its dt/ds: ``curvature`` at u, then the
    difference quotient between the last two such points.  The Newton stops
    once its update falls below 1e-14 or, below 1e-9, stops halving:
    rounding noise then sets its size.
    """
    lo, hi, flo, fhi = 0.0, h, t[0], tk_end
    side = 0  # bracket end the last point replaced: -1 lo, +1 hi
    base, tb, (ck, cw) = u, t, curvature  # lo end: place, tangent, dt/ds
    k, w = u
    while hi - lo > _STEP_MIN:
        s = (lo * fhi - hi * flo) / (fhi - flo)
        d = s - lo
        pred = (base[0] + d * tb[0] + 0.5 * d * d * ck, base[1] + d * tb[1] + 0.5 * d * d * cw)
        corrected = _correct(n, pred, tb)
        if corrected is None:
            raise NoFoldFound(f"corrector failed while bracketing the fold for n={n}")
        (k, w), _updates, st = corrected
        t_new = _tangent(st, k, prev=tb)
        f = t_new[0]
        if f == 0:
            # s is the fold; regula falsi would land on it again and again
            break
        if f > 0:
            chord = math.hypot(k - base[0], w - base[1])
            ck, cw = (t_new[0] - tb[0]) / chord, (t_new[1] - tb[1]) / chord
            base, tb = (k, w), t_new
            lo, flo = s, f
            if side == -1:
                fhi *= 0.5
            side = -1
        else:
            hi, fhi = s, f
            if side == 1:
                flo *= 0.5
            side = 1

    prev = math.inf
    for _ in range(100):
        st = _eval_state(n, w, k * k, second=True)
        P, Pw, Pq, Pww, Pwq = st
        Pk, Pwk = Pq * 2 * k, Pwq * 2 * k
        # Cramer's rule for [[Pw, Pk], [Pww, Pwk]] (dw, dk) = -(P, Pw)
        det = Pw * Pwk - Pk * Pww
        if det == 0 or not math.isfinite(det):
            raise NoFoldFound(f"singular fold system for n={n}")
        dw = (Pk * Pw - P * Pwk) / det
        dk = (P * Pww - Pw * Pw) / det
        w += dw
        k += dk
        step = max(abs(dw), abs(dk))
        if _newton_done(step, prev):
            break
        prev = step

    st = _eval_state(n, w, k * k, second=True)
    P, Pw, Pq, Pww, Pwq = st
    residual = max(
        _normalized_residual(P, Pw, Pq * 2 * k),
        _normalized_residual(Pw, Pww, Pwq * 2 * k),
    )
    if not (math.isfinite(k) and math.isfinite(w)) or residual > _RESIDUAL_TOL:
        raise NoFoldFound(f"fold refinement did not converge for n={n}")
    return FoldPoint(k, w, residual)


def trace_branch(n: int) -> BranchCurve:
    """Trace the physical root branch by pseudo-arclength continuation.

    Predictor: the cubic Hermite through the last two samples and their
    unit tangents, parametrised by arclength with the chord between them
    standing for it (Euler on the first step).  Corrector: Newton
    on {P_n = 0, orthogonality to the tangent}; the next tangent comes from
    the corrector's last evaluation.  The step doubles after at most three
    Newton updates and halves after more than eight, between 1e-4 and
    0.05.  The trace ends at the first step over which dk/ds turns
    negative, with the fold bracketed by regula falsi inside that step and
    refined by Newton.
    """
    if n < 1:
        raise ValueError("n must be >= 1")

    u = (0.0, 0.0)  # (k, omega)
    t = _tangent(_eval_state(n, 0.0, 0.0), 0.0)
    samples = [BranchSample(0.0, 0.0, t[1] / t[0])]
    curve = BranchCurve(n, samples)
    ck, cw = 0.0, 0.0  # dt/ds over the last step
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
            # infinite.  dt/ds across a step that turns at the fold
            # overshoots, so the bracket starts from the last step's
            curve.fold = _refine_fold(n, u, t, h, t_new[0], (ck, cw))
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
    """Fold of the P_n branch, where P_n = dP_n/dw = 0, from its trace."""
    fold = trace_branch(n).fold
    if fold is None:
        raise NoFoldFound(f"n={n} branch stayed monotone in k up to arclength {_MAX_ARCLENGTH}")
    return fold
