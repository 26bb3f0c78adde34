"""Spectral branches of the truncated moment hierarchy and their folds.

Truncating the hierarchy at order n gives P_n(w, k^2) = det(w I + D +
ik J_2n), with D = diag(0, 1, ..., 1) and J_2n the Hermite Jacobi matrix
(off-diagonals sqrt(j)).  With s = 1 + w and q = k^2 it factors as
P_n = R K_1 K_2 ... K_{2n-1}, where

    K_{2n-1} = s,   K_j = s + beta_{j+1} q / K_{j+1},   R = w + beta_1 q / K_1,

with the Hermite levels beta_j = j.  This is the Hermite Jacobi fraction cut
at depth 2n (Golub & Welsch, Math. Comp. 23 (1969) 221), or the BGK relation
of the 2n-point Gauss-Hermite velocity set (Shan, Yuan & Chen, J. Fluid
Mech. 550 (2006) 413).  Any symmetric weight has such a fraction, R + 1 =
1/<1/(s + ikv)>, with its own levels: `_eval_state` sums it for any tuple
of levels, and `dispersion` solves a custom weight with it.  For w > -1
every K_j >= s > 0, so R has the sign and the roots of P_n, and the
fraction summed bottom-up needs no rescaling.  R is w + beta_1 q/K_1 rather
than K_0 - 1, so w keeps its relative accuracy at small k.

The root branch of R through (k, w) = (0, 0) approximates the hydrodynamic
dispersion relation and ends at a fold k_c(n), where R = R_w = 0.  R + 1 =
s + beta_1 q/K_1 is homogeneous of degree 1 in (s, k), so the minimiser of
R(., k^2) is s = u k with u fixed by n, and M(k) = min_s R(s, k^2) =
k / k_c - 1 is linear in k.  So once the fold is known, the branch value
at every k < k_c is the root of R(., k^2) on (u k - 1, 0], a bracket
whose signs are known without evaluating its ends.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple


class NoFoldFound(Exception):
    """The fold solve's brackets failed their sign checks, or its inner
    solve did not converge."""


@functools.lru_cache
def _hermite_levels(n: int) -> tuple:
    """The levels beta_j = j, j = 1..2n-1, of the order-n Hermite fraction,
    as floats, which multiply faster than ints."""
    return tuple(map(float, range(1, 2 * n)))


def _eval_state(levels: tuple, w: float, q: float):
    """(R, R_w, R_q) at (w, k^2 = q), for w > -1, of the fraction whose
    levels beta_1, beta_2, ... are ``levels``.

    Summed from K_d = s down to K_1 with K_s = dK_1/ds = dK_1/dw; K_1 is
    homogeneous of degree 1 in (s, k), so R_q = beta_1 (1 + s K_s/K_1)/(2 K_1).
    Plain floats on entry, so numpy scalars do not slow every step down.
    """
    w, q = float(w), float(q)
    s = w + 1.0
    K, Ks = s, 1.0
    for c in levels[:0:-1]:
        inv = 1.0 / K
        # c q / K, not c q * inv: one rounding fewer halves the worst error
        # of the branch values
        t = c * q / K
        K, Ks = s + t, 1.0 - t * Ks * inv
    inv = 1.0 / K
    b = levels[0]
    t = b * q / K
    # R_q from K_1 itself: 2q R_q = R + 1 - s R_w would cancel at small k
    return w + t, 1.0 - t * Ks * inv, b * (1.0 + s * Ks * inv) / (2.0 * K)


class FoldPoint(NamedTuple):
    """Location where the branch turns back: R = R_w = 0."""

    k_c: float
    omega_c: float
    residual: float


def _newton_done(step: float, prev: float) -> bool:
    """Stopping test of the fold's inner secant and of `_bracketed_newton`,
    on the size of the last update and the one before it: below 1e-14, or
    below 1e-9 and no longer halving.  A converging Newton at least halves
    its update; one that stops halving is moving by rounding noise, which
    from n of about 100 on lies above 1e-14."""
    return step < 1e-14 or (step < 1e-9 and step > 0.5 * prev)


def _bracketed_newton(fg, lo: float, hi: float, x: float) -> tuple:
    """Root of fg in (lo, hi], where fg(lo) < 0 <= fg(hi), from the seed x,
    and fg's tuple (value, slope, ...) at the last iterate evaluated.

    Newton, with bisection wherever the seed or an iterate leaves the
    bracket that the iterates narrow, or the slope is not positive.  It
    stops by `_newton_done`, or once the bracket is narrower than 1e-15
    relative to the iterate: within rounding of a double root, as at a fold,
    the sign of fg is noise and Newton's update is not small, while a root
    far below 1 keeps its relative accuracy.  ArithmeticError after 100
    iterations.
    """
    prev = math.inf
    for _ in range(100):
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
        st = fg(x)
        lo, hi = (x, hi) if st[0] < 0 else (lo, x)
        if hi - lo < 1e-15 * abs(x):
            return x, st
        step = st[0] / st[1] if st[1] > 0 else math.inf
        x -= step
        if _newton_done(abs(step), prev):
            return x, st
        prev = abs(step)
    raise ArithmeticError(f"Newton did not converge on ({lo:.17g}, {hi:.17g}]")


_RESIDUAL_TOL = 1e-10


def _normalized_residual(R: float, Rw: float) -> float:
    """|R| scaled by |R_w| where that exceeds 1: an estimate of the distance
    to the root."""
    return abs(R) / max(1.0, abs(Rw))


def _hermite(a: tuple, b: tuple, t: float) -> float:
    """Cubic Hermite through the samples a and b, each (t, omega,
    d(omega)/dt), at t: exactly b's omega at b's t."""
    dt = b[0] - a[0]
    x = (t - a[0]) / dt
    y = 1 - x
    return (a[1] * (1 + 2 * x) + a[2] * dt * x) * y * y + (
        b[1] * (3 - 2 * x) - b[2] * dt * y
    ) * x * x


class BranchCurve:
    """The order-n root branch of R from the origin up to its fold, which
    ``fold`` holds: ``find_fold(n)``, raising where that does.  Immutable."""

    __slots__ = ("n", "fold")

    def __init__(self, n: int):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "fold", find_fold(n))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return f"BranchCurve(n={self.n!r}, fold={self.fold!r})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.fold) == (other.n, other.fold)

    def __hash__(self) -> int:
        return hash((self.n, self.fold))

    def __reduce__(self):
        return BranchCurve, (self.n,)

    def omega_at(self, ks) -> list:
        """Branch value at every wavenumber of ``ks``, in the order given.

        NaN for k >= k_c, where the branch has ended: at k_c itself its
        root has merged with its partner into a double root.  0.0 where
        k^2 is 0.  Otherwise the `_fraction_root` of the Hermite levels,
        accepted only with a normalised residual within _RESIDUAL_TOL, and
        ArithmeticError where it is not or Newton does not converge.  The
        first two roots are seeded at -k^2, every later one on the cubic
        Hermite through the two previous roots in t = sqrt(1 - k / k_c), in
        which the branch is analytic through its fold.  Each root's slope
        comes from its last evaluation: d(omega)/dk = -2k R_q / R_w, and
        dk/dt = -2 k_c t.
        """
        n, k_c = self.n, self.fold.k_c
        levels = _hermite_levels(n)
        out = []
        roots = []  # the last two roots, as (t, omega, d(omega)/dt)
        for k in ks:
            k = float(k)
            if not k >= 0:
                raise ValueError(f"k = {k} is not a non-negative number")
            if not k < k_c:
                out.append(math.nan)
                continue
            if k * k == 0:
                out.append(0.0)
                continue
            t = math.sqrt(1 - k / k_c)
            seed = _hermite(*roots, t) if len(roots) == 2 else None
            w, (R, Rw, Rq) = _fraction_root(levels, k, self.fold, seed)
            residual = _normalized_residual(R, Rw)
            if not residual <= _RESIDUAL_TOL:
                raise ArithmeticError(
                    f"branch root of n={n} at k={k}: normalised residual "
                    f"{residual:.3g} above {_RESIDUAL_TOL}"
                )
            out.append(w)
            if roots and roots[-1][0] == t:
                roots.pop()
            if Rw > 0:
                roots = roots[-1:] + [(t, w, 4 * k * k_c * t * Rq / Rw)]
        return out


# the fold lies below k* = sqrt(pi/2), where the exact Gaussian branch
# reaches omega = -1 and every k_c(n) stays below it
_K_STAR = math.sqrt(math.pi / 2)


def _fold(levels: tuple, x_lo: float, name: str) -> FoldPoint:
    """Fold of the fraction of ``levels``, where R = R_w = 0, for an odd
    level count: a Gauss rule with no node at v = 0, whose R grows without
    bound as s -> 0, so that R has a minimum in s.

    Inner solve, at k = 1/4: the minimiser of R(., k^2) on (0, 1] is the
    root of R_w, bracketed by [x_lo k, 1/2].  There <1/(s + ikv)> = 1/(R + 1)
    peaks in s, at an s/k between the rule's smallest and largest positive
    nodes; x_lo is the caller's bound on s/k below it.  Secant on s^2 R_w in
    y = s^2, which is linear in y for a single level, with bisection where
    the secant leaves the bracket.  It stops after a secant step by `_newton_done`, or
    on the bracket's width, and keeps the state of its last evaluation,
    within that step of the minimiser.

    Closed form in k: M(k) = min_s R(s, k^2) = k / k_c - 1 is linear in k,
    since R + 1 is homogeneous of degree 1 in (s, k), so k_c = k / (1 + M)
    for any k > 0 (1 + M = s + beta_1 q/K_1 > 0), and the minimiser, scaled
    with k, is the fold's.  One evaluation there gives the residual
    max(|R|, |R_w|), and a last step of the closed form in k and secant step
    in y that take up the first one's rounding.

    Raises NoFoldFound, which names the fraction by ``name``, where R_w has
    the wrong sign at an end of the inner bracket, or the residual exceeds
    _RESIDUAL_TOL.
    """
    k, s = 0.25, 0.5
    q = k * k
    (y0, f0), (y1, f1) = [(x * x, x * x * _eval_state(levels, x - 1, q)[1])
                          for x in (x_lo * k, s)]
    if not f0 < 0 < f1:
        raise NoFoldFound(f"R_w does not change sign on [{y0**0.5:.6g}, {s:.6g}] for {name}")
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
        st = _eval_state(levels, math.sqrt(y) - 1, q)
        f = y * st[1]
        if f == 0:
            break
        lo, hi = (y, hi) if f < 0 else (lo, y)
        y0, f0, y1, f1, prev = y1, f1, y, f, step
    else:
        raise NoFoldFound(f"the minimiser of R did not converge for {name}")
    slope = (f1 - f0) / (y1 - y0)  # d(s^2 R_w)/dy, unchanged as s scales with k
    k_c = k / (1 + st[0])
    s = math.sqrt(y) * k_c / k
    R, Rw, _ = _eval_state(levels, s - 1, k_c * k_c)
    residual = max(abs(R), abs(Rw))
    if not residual <= _RESIDUAL_TOL:
        raise NoFoldFound(f"fold residual {residual:.3g} for {name}")
    k_f = k_c / (1 + R)
    s_f = math.sqrt(s * s * (1 - Rw / slope)) * k_f / k_c
    return FoldPoint(k_f, s_f - 1, residual)


def _fraction_root(levels: tuple, k: float, fold: FoldPoint | None = None,
                   seed: float | None = None) -> tuple:
    """The hydrodynamic root of R(., k^2) for the fraction of ``levels``, and
    (R, R_w, R_q) at the last iterate, by one `_bracketed_newton` from
    ``seed``, by default -beta_1 k^2; (None, None) past the fold.

    An even level count is a Gauss rule with a node at v = 0: R -> -1 as
    1 + w -> 0 and R > 0 at w = 0, so (-1, 0] brackets a root at every k.
    An odd count has none, and its branch ends at its fold: ``fold``, or
    `_fold` of the levels with s/k from 2^-28, below the minimiser of every
    rule with a positive node above 2^-28.  Below the fold R = k / k_c - 1
    < 0 at its minimiser u k - 1, u = (1 + omega_c) / k_c, R > 0 at 0, and
    R rises in between, so (u k - 1, 0] holds one root and neither end is
    evaluated.  No level at all is the one-point rule at v = 0: R = w.
    """
    if not levels:
        return 0.0, (0.0, 1.0, 0.0)
    q = k * k
    lo = -1.0
    if len(levels) % 2:
        fold = fold or _fold(levels, 2.0**-28, f"the {len(levels)}-level fraction")
        if not k < fold.k_c:
            return None, None
        lo = (1 + fold.omega_c) / fold.k_c * k - 1
    seed = -levels[0] * q if seed is None else seed
    return _bracketed_newton(lambda w: _eval_state(levels, w, q), lo, 0.0, seed)


def find_fold(n: int) -> FoldPoint:
    """Fold of the order-n branch, where R = R_w = 0: `_fold` of the
    Hermite levels, with s/k bounded below by 1 / (2 sqrt(n)).  The
    minimiser's s sqrt(n) / k rises from 1 at n = 1 (2.13 at n = 3200),
    and s / k = u <= 1, as u = 1 at n = 1 and falls with n.  Raises
    NoFoldFound where `_fold` does, or k_c is not below sqrt(pi/2).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    fold = _fold(_hermite_levels(n), 1 / (2 * math.sqrt(n)), f"n={n}")
    if not fold.k_c < _K_STAR:
        raise NoFoldFound(f"the fold of n={n} is not below sqrt(pi/2)")
    return fold
