"""Exact dispersion relation omega(k) of the BGK hydrodynamic branch.

The Gaussian case solves (w+1) = I(A), A = (1+w)^2/k^2, where I is the
velocity-space resolvent averaged over the Maxwellian: from u = sqrt(A/2) = 2
on, R(w, k^2) = 0 for the spectral branches' R (see `_resolvent`).  The
bounded-support case solves the analogous condition on [-1, 1]: the uniform
weight in closed form, a custom weight as R = 0 of its own Jacobi fraction,
over the levels the weight keeps, by the `spectral._fraction_root` that
also gives the branch values.  These are the ground truth the resummation and
the spectral branches are checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .borel import ce_truncation_eval, resum_dispersion
from .ce import InsufficientData, WeightKind, WeightModel, ce_coefficients
from .spectral import (_K_STAR, BranchCurve, _bracketed_newton, _eval_state,
                       _fraction_root, _hermite_levels)


# largest wavenumber of a comparison grid; it stays below k* = sqrt(pi/2)
# ~ 1.2533, where the exact Gaussian root reaches omega = -1 and the
# hydrodynamic branch ends
K_GRID_MAX = 1.2

# rounding that a grid point k_min + i k_step may carry past K_GRID_MAX; the
# CLI allows as much in its step count, 1.2 / 0.05 = 23.999999999999996
_GRID_ROUNDING = 1e-9


def _on_grid(k: float) -> bool:
    """Whether a comparison grid may hold k, up to _GRID_ROUNDING."""
    return 0 <= k <= K_GRID_MAX + _GRID_ROUNDING


class NoRootInInterval(Exception):
    """The exact solver's condition has the same sign at both ends of its
    bracket, so the interval holds no hydrodynamic root."""


@dataclass(frozen=True)
class DispersionSample:
    k: float
    omega: float
    residual: float


# below this u the resolvent comes from exp(u^2) erfc(u); from it on, from
# the spectral fraction, with room for _CF_TERMS + 240/u^2 Laplace terms
_CF_MIN = 2.0
_CF_TERMS = 12


def _cf_depth(inv_u2: float) -> int:
    """Order n whose 2n - 1 levels hold those terms, at 1/u^2 = inv_u2."""
    return (_CF_TERMS + int(240.0 * inv_u2)) // 2 + 1


def _resolvent(A: float) -> tuple:
    """(I, 1 - I, dI/dA) at A > 0, with I(A) = sqrt(pi) u exp(u^2) erfc(u)
    and u = sqrt(A/2).

    Below u = _CF_MIN: erfcx(u) = exp(u^2) erfc(u) from the C library, and
    dI/du = sqrt(pi) (1 + 2u^2) erfcx(u) - 2u.  From it on, the spectral R,
    whose fraction is Laplace's for erfcx (Cody, Math. Comp. 23 (1969) 631):
    R + 1 = (1+w)/I is homogeneous of degree 1 in (1+w, k), so at w = 0 and
    q = 1/A, I = 1/(1 + R), 1 - I = R/(1 + R) and dI/dA = R_q/(A (1 + R))^2,
    free of cancellation.  12 + 240/u^2 Laplace terms reach double precision.
    """
    u = math.sqrt(A / 2.0)
    if u < _CF_MIN:
        e = math.exp(u * u) * math.erfc(u)
        I = math.sqrt(math.pi) * u * e
        dI_du = math.sqrt(math.pi) * (e + 2 * u * u * e) - 2 * u
        return I, 1.0 - I, dI_du / (4 * u)
    R, _, R_q = _eval_state(_hermite_levels(_cf_depth(1.0 / (u * u))), 0.0, 1.0 / A)
    return 1.0 / (1.0 + R), R / (1.0 + R), R_q / (A * (1.0 + R)) ** 2


def gaussian_resolvent(A: float) -> float:
    """I(A) = sqrt(pi A/2) exp(A/2) erfc(sqrt(A/2)).

    Closed form of the Maxwellian average of A/(A + v^2), finite at large A.
    """
    if not A > 0:
        raise ValueError("A must be positive")
    return _resolvent(A)[0]


def solve_exact_gaussian(k: float) -> DispersionSample:
    """Root of (w+1) - I((1+w)^2/k^2) on the hydrodynamic interval (-1, 0].

    One `_bracketed_newton` on [-1 + 1e-9, 0], once the condition's sign at
    the lower end passes; at 0 it is positive and left unevaluated.  Where
    it does not pass, within about 6e-10 (relative) below sqrt(pi/2), any
    root lies in (-1, -1 + 1e-9), and NoRootInInterval says so.  Starts
    from the 4th-order gradient estimate -k^2 + k^4 for small k.
    From u = _CF_MIN on, the residual is R(w, k^2), recorded as |R|, and A,
    which overflows where k^2 is subnormal, is never formed.  Below, once
    1 - I < 1/2, it is w + (1 - I), for relative accuracy where |w| << 1.
    The kinetic eigenvalue w = -1 is excluded; where k^2 is 0, so is the root.
    """
    if not k >= 0:
        raise ValueError("k must be non-negative")
    if k >= _K_STAR:
        raise NoRootInInterval(f"the root reaches w = -1 at k = {k:.6g} >= sqrt(pi/2)")
    q = k * k
    if q == 0:
        return DispersionSample(k, 0.0, 0.0)

    def fg(w):
        s = 1 + w
        if s * s >= 2 * _CF_MIN**2 * q:
            return _eval_state(_hermite_levels(_cf_depth(2 * q / (s * s))), w, q)[:2]
        I, one_minus_I, dI_dA = _resolvent(s**2 / q)
        r = w + one_minus_I if one_minus_I < 0.5 else s - I
        return r, 1 - dI_dA * 2 * s / q

    x0 = -q + k**4 if k <= 0.5 else -0.2
    lo = -1 + 1e-9
    f_lo = fg(lo)[0]
    if f_lo > 0:
        raise NoRootInInterval(f"no sign change on [{lo!r}, 0] (f = {f_lo:.3g} at the lower "
                               f"end): any root lies in (-1, {lo!r})")
    w = lo if f_lo == 0.0 else _bracketed_newton(fg, lo, 0.0, x0)[0]
    return DispersionSample(k, w, abs(fg(w)[0]))


def solve_exact_bounded(k: float, w: WeightModel) -> DispersionSample:
    """Hydrodynamic root for a bounded-support weight.

    The uniform weight's condition arctan(k/(1+w)) = k (the imaginary part
    cancels by symmetry) has the root w = k cot k - 1, in (-1, 0) for
    0 < k < pi/2.

    A custom weight's condition is R = 0 of its Jacobi fraction, solved by
    `spectral._fraction_root` over ``w.levels``, one per supplied moment.  Where
    a level is 0 the fraction is exact and its root is returned, or
    NoRootInInterval past the fold of an odd level count.  Otherwise the
    roots of the last two level counts lie on either side of the weight's
    root (the Pade bounds of a Stieltjes series: Baker & Graves-Morris, Pade
    Approximants, 2nd ed. 1996, ch. 5), and the root is returned where they
    agree within 1e-15.  Where they do not, InsufficientData gives the
    interval between them, or, past the fold of the odd count, that any
    root lies in (-1, r].  An empty moment list raises InsufficientData.
    """
    if w.kind is WeightKind.GAUSSIAN:
        raise ValueError("use solve_exact_gaussian for the Gaussian weight")
    if not k >= 0:
        raise ValueError("k must be non-negative")
    if k * k == 0:
        return DispersionSample(k, 0.0, 0.0)

    if w.kind is WeightKind.BOUNDED_UNIFORM:
        if k >= math.pi / 2:
            raise NoRootInInterval(f"k cot k - 1 <= -1 at k = {k:.6g} >= pi/2")
        # k cot k - 1 = (k cos k - sin k)/sin k, with the numerator summed as
        # sum_n (-1)^n 2n k^(2n+1)/(2n+1)!: k/tan(k) - 1 would cancel to an
        # absolute 1e-16 at small k, while 14 terms of the sum keep 5e-16
        # relative accuracy on all of (0, pi/2)
        num, term = 0.0, k
        for n in range(1, 15):
            term *= -k * k / ((2 * n) * (2 * n + 1))
            num += 2 * n * term
        root = num / math.sin(k)
        return DispersionSample(k, root, abs(math.atan(k / (1 + root)) - k))

    if not w.moments:
        raise InsufficientData("custom weight supplies no moments; mu_2 requested")
    levels = tuple(map(float, w.levels))
    exact = len(levels) < len(w.moments)  # the levels ended at a zero
    root = _fraction_root(levels, k)[0]
    other = root if exact else _fraction_root(levels[:-1], k)[0]
    if exact and root is None:
        raise NoRootInInterval(
            f"k = {k:.6g} is past the fold of the weight's {len(levels)}-level fraction"
        )
    if root is None or other is None:
        claim = f"any root at k = {k:.6g} in (-1, {root if other is None else other!r}]"
    elif abs(root - other) > 1e-15:
        claim = "the root at k = {:.6g} in [{!r}, {!r}]".format(k, *sorted((root, other)))
    else:
        return DispersionSample(k, root, abs(_eval_state(levels, root, k * k)[0]))
    raise InsufficientData(
        f"{len(levels)} moments leave {claim}: the fraction's last two level counts disagree"
    )


def compare_methods(
    k_grid: Sequence[float], branch_orders: Iterable[int], pade_L: int, pade_M: int
) -> dict:
    """Evaluate every method of reconstructing omega(k) on a common grid.

    Returns the columns by name: k, omega_exact, omega_resummed,
    omega_branch_n{X} with a physical_n{X} companion flag, omega_ce2,
    omega_ce4, and dev_* columns relative to the exact solver.  A cell is
    NaN where a branch has ended at its fold, a Pade pole obstructs the
    Laplace contour, or the Laplace sum overflows; any other failure raises.
    """
    ks = [float(k) for k in k_grid]
    if not all(map(_on_grid, ks)):
        raise ValueError(f"grid must lie within [0, {K_GRID_MAX}]")
    # omega_ce4 reads a_2 and a_4 even where the approximant needs fewer
    coeffs = ce_coefficients(WeightModel.gaussian(), max(pade_L + pade_M + 1, 2))
    resum = resum_dispersion(coeffs, pade_L, pade_M)

    cols: dict = {"k": ks}
    exact = [solve_exact_gaussian(k).omega for k in ks]
    cols["omega_exact"] = exact
    cols["omega_resummed"] = [float(v) for v in resum(ks)]
    for n in branch_orders:
        vals = BranchCurve(n).omega_at(ks)
        cols[f"omega_branch_n{n}"] = vals
        cols[f"physical_n{n}"] = [not math.isnan(v) for v in vals]
    cols["omega_ce2"] = [ce_truncation_eval(coeffs, 2, k) for k in ks]
    cols["omega_ce4"] = [ce_truncation_eval(coeffs, 4, k) for k in ks]

    for name in list(cols):
        if name.startswith("omega_") and name != "omega_exact":
            cols["dev_" + name[len("omega_"):]] = [
                v - e for v, e in zip(cols[name], exact)
            ]
    return cols
