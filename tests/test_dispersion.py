import math
import re
from fractions import Fraction as Fr

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from attractor_kit import ce, spectral
from attractor_kit.borel import laplace_resum, resum_dispersion
from attractor_kit.ce import InsufficientData, WeightModel, _jacobi_levels, ce_coefficients
from attractor_kit.dispersion import (
    _CF_MIN,
    K_GRID_MAX,
    NoRootInInterval,
    _cf_depth,
    _resolvent,
    compare_methods,
    gaussian_resolvent,
    solve_exact_bounded,
    solve_exact_gaussian,
)

# I(1), frozen from 30-digit adaptive quadrature of the defining integral
RESOLVENT_AT_ONE = 0.65567954241879847154


def resolvent_quadrature(A):
    """Adaptive quadrature of the defining Maxwellian average."""
    val, _ = quad(
        lambda v: (A / (A + v * v)) * math.exp(-v * v / 2) / math.sqrt(2 * math.pi),
        -np.inf,
        np.inf,
        epsabs=1e-14,
        epsrel=1e-14,
        limit=400,
    )
    return val


# --- resolvent -----------------------------------------------------------------

def test_resolvent_equilibrium_limit():
    assert gaussian_resolvent(1e5) > 0.999
    assert gaussian_resolvent(1e8) > 0.99995


def test_resolvent_at_one():
    assert gaussian_resolvent(1.0) == pytest.approx(RESOLVENT_AT_ONE, abs=1e-14)
    assert gaussian_resolvent(1.0) == pytest.approx(
        resolvent_quadrature(1.0), abs=1e-12
    )


def test_resolvent_small_A_asymptotics():
    A = 1e-6
    assert gaussian_resolvent(A) == pytest.approx(
        math.sqrt(math.pi * A / 2), rel=1e-2
    )
    assert gaussian_resolvent(A) == pytest.approx(resolvent_quadrature(A), abs=1e-12)


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_resolvent_matches_quadrature_on_log_grid():
    for A in np.logspace(-4, 4, 25):
        assert abs(gaussian_resolvent(A) - resolvent_quadrature(A)) < 1e-12


def test_resolvent_rejects_nonpositive():
    with pytest.raises(ValueError):
        gaussian_resolvent(0.0)


def mp_resolvent(A):
    """I(A) = sqrt(pi A/2) exp(A/2) erfc(sqrt(A/2)) at the working precision."""
    u = mpmath.sqrt(mpmath.mpf(A) / 2)
    return mpmath.sqrt(mpmath.pi) * u * mpmath.exp(u * u) * mpmath.erfc(u)


def test_resolvent_matches_mpmath():
    # I and 1 - I, on both sides of the continued-fraction switch at u = 2
    split = _CF_MIN
    us = [float(u) for u in np.logspace(-4, math.log10(80.0), 2000)]
    us += [split, math.nextafter(split, 0.0), split * (1 - 1e-6), split * (1 + 1e-6)]
    worst_I = worst_rest = 0.0
    with mpmath.workdps(40):
        for u in us:
            A = 2 * u * u
            ref = mp_resolvent(A)
            I, one_minus_I, _ = _resolvent(A)
            worst_I = max(worst_I, float(abs(I - ref) / ref))
            worst_rest = max(worst_rest, float(abs(one_minus_I - (1 - ref)) / (1 - ref)))
    assert worst_I <= 1e-15
    assert worst_rest <= 1e-14


def test_resolvent_derivative_matches_mpmath_diff():
    # u = sqrt(A/2) crosses the continued-fraction switch at A = 2 u_min^2
    switch = 2 * _CF_MIN**2
    grid = list(np.logspace(-6, 4, 41)) + [switch * (1 - 1e-12), switch, switch * (1 + 1e-12)]
    with mpmath.workdps(40):
        for A in grid:
            ref = mpmath.diff(mp_resolvent, mpmath.mpf(float(A)))
            assert abs(_resolvent(float(A))[2] - ref) <= 1e-13 * abs(ref)


# --- Gaussian solver -------------------------------------------------------------

def test_exact_gaussian_small_k():
    s = solve_exact_gaussian(0.1)
    assert -0.01 < s.omega < -0.0099
    # where k^2 underflows to 0, so does the root -k^2 + O(k^4)
    tiny = solve_exact_gaussian(1e-200)
    assert (tiny.omega, tiny.residual) == (0.0, 0.0)
    # where k^2 is subnormal, (1 + w)^2 / k^2 overflows: the root is -k^2,
    # its k^4 term far below the smallest subnormal
    for k in (1e-155, 7.5e-155, 1e-158, 1e-161):
        assert solve_exact_gaussian(k).omega == -(k * k)
    # bisection oracle on the same condition
    from scipy.optimize import brentq

    ref = brentq(
        lambda w: (w + 1) - gaussian_resolvent((1 + w) ** 2 / 0.01),
        -1 + 1e-12,
        0.0,
        xtol=1e-14,
    )
    assert s.omega == pytest.approx(ref, abs=1e-10)


def test_exact_gaussian_relative_accuracy_at_small_k():
    # 12 exact terms of the gradient expansion leave a relative error below
    # 1e-30 for k <= 1e-2, far under the solver's rounding
    a = ce_coefficients(WeightModel.gaussian(), 12).values
    with mpmath.workdps(50):
        for e in range(-12, -1):
            q = mpmath.mpf(10.0**e) ** 2
            ref = sum(mpmath.mpf(c.numerator) / c.denominator * q**n for n, c in enumerate(a, 1))
            w = solve_exact_gaussian(10.0**e).omega
            assert abs(w - ref) <= 5e-16 * abs(ref), (e, w)


def mp_gaussian_root(k, w0):
    """Root of (1 + w) - sqrt(pi) u exp(u^2) erfc(u), u = (1 + w)/(k sqrt(2)),
    from w0 at the working precision, and u there."""
    k = mpmath.mpf(k)

    def condition(w):
        u = (1 + w) / (k * mpmath.sqrt(2))
        return (1 + w) - mpmath.sqrt(mpmath.pi) * u * mpmath.exp(u * u) * mpmath.erfc(u)

    w = mpmath.findroot(condition, mpmath.mpf(w0))
    return w, (1 + w) / (k * mpmath.sqrt(2))


def test_exact_gaussian_matches_high_precision_roots():
    # 50-digit roots on k = 0.05..1.2; where u >= 2 at the root the residual
    # is the spectral fraction's R, elsewhere the one of exp(u^2) erfc(u)
    worst = {True: 0.0, False: 0.0}
    with mpmath.workdps(50):
        for i in range(1, 25):
            k = 0.05 * i
            w = solve_exact_gaussian(k).omega
            ref, u = mp_gaussian_root(k, w)
            worst[u >= 2] = max(worst[u >= 2], float(abs(w - ref) / abs(ref)))
    assert worst[True] <= 5e-16
    assert worst[False] <= 1e-14


def test_exact_root_is_the_branch_root_at_the_solvers_depth():
    # where u >= 2 at the root, the exact solver finds the root of the
    # order-n spectral R: the order-n branch value at the same k, with n
    # the depth the solver sums there; u falls to 2 at k = 0.32009
    curves = {}
    for k in np.geomspace(1e-10, 0.32, 144):
        k = float(k)
        w = solve_exact_gaussian(k).omega
        assert (1 + w) ** 2 >= 8 * k * k
        n = _cf_depth(2 * k * k / (1 + w) ** 2)
        if n not in curves:
            curves[n] = spectral.BranchCurve(n)
        (branch,) = curves[n].omega_at([k])
        assert abs(branch - w) <= 1e-15 * abs(w), (k, n, branch, w)
    assert min(curves) == 7 and max(curves) >= 30


def test_exact_gaussian_leading_diffusion():
    for k in (0.02, 0.01):
        s = solve_exact_gaussian(k)
        assert s.omega / (-k * k) == pytest.approx(1.0, abs=5e-4)


def test_exact_gaussian_residual_recorded():
    s = solve_exact_gaussian(0.7)
    assert s.residual < 1e-12
    assert -1 < s.omega < 0


def test_exact_gaussian_monotone_decreasing():
    ks = np.arange(0.05, 1.2001, 0.05)
    omegas = [solve_exact_gaussian(k).omega for k in ks]
    assert all(b < a for a, b in zip(omegas, omegas[1:]))


def test_exact_gaussian_no_root_at_large_k():
    # beyond k = sqrt(pi/2) the condition keeps one sign on (-1, 0]
    with pytest.raises(NoRootInInterval):
        solve_exact_gaussian(2.0)


def test_exact_gaussian_root_below_the_bracket():
    # within about 6e-10 (relative) below sqrt(pi/2), 1 + w falls under the
    # bracket's lower end 1e-9: the refusal prints that end in full and says
    # where the root is, and at 50 digits s - I(s^2/k^2) changes sign
    # between s = 1.5e-12 and 1.6e-12
    k = math.sqrt(math.pi / 2) * (1 - 1e-12)
    with pytest.raises(NoRootInInterval) as info:
        solve_exact_gaussian(k)
    assert str(info.value).startswith("no sign change on [-0.999999999, 0]")
    assert str(info.value).endswith("any root lies in (-1, -0.999999999)")
    with mpmath.workdps(50):
        def condition(s):
            u = mpmath.mpf(s) / (mpmath.sqrt(2) * k)  # sqrt(A/2), A = s^2/k^2
            return s - mpmath.sqrt(mpmath.pi) * u * mpmath.exp(u * u) * mpmath.erfc(u)

        assert condition(1.5e-12) < 0 < condition(1.6e-12)


def test_exact_gaussian_input_validation():
    with pytest.raises(ValueError):
        solve_exact_gaussian(-0.1)


def resummed():
    return resum_dispersion(ce_coefficients(WeightModel.gaussian(), 29), 14, 14)


@pytest.mark.parametrize("call, error, match", [
    pytest.param(lambda: solve_exact_gaussian(math.nan), ValueError, "non-negative",
                 id="gaussian-nan"),
    pytest.param(lambda: solve_exact_gaussian(math.inf), NoRootInInterval, "sqrt",
                 id="gaussian-inf"),
    pytest.param(lambda: solve_exact_gaussian(1e154), NoRootInInterval, "sqrt",
                 id="gaussian-1e154"),
    pytest.param(lambda: gaussian_resolvent(math.nan), ValueError, "positive",
                 id="resolvent-nan"),
    pytest.param(lambda: solve_exact_bounded(math.nan, WeightModel.bounded_uniform()),
                 ValueError, "non-negative", id="bounded-nan"),
    pytest.param(lambda: compare_methods([math.nan], (1,), 2, 2), ValueError, "grid",
                 id="compare-nan"),
    pytest.param(lambda: spectral.BranchCurve(1).omega_at([math.nan]),
                 ValueError, "non-negative", id="branch-nan"),
    pytest.param(lambda: resummed()(math.nan), ValueError, "finite non-negative",
                 id="resummed-nan"),
    pytest.param(lambda: resummed()(math.inf), ValueError, "finite non-negative",
                 id="resummed-inf"),
    pytest.param(lambda: resummed()([0.5, math.nan]), ValueError, "finite non-negative",
                 id="resummed-grid-nan"),
    pytest.param(lambda: laplace_resum(resummed().approximant, math.nan), ValueError,
                 "positive and finite", id="laplace-nan"),
])
def test_nan_and_inf_wavenumbers_are_refused(call, error, match):
    # NaN fails every comparison, so each check is written as the negated
    # test of the valid range; where (1 + w)^2 / k^2 underflows, as for an
    # infinite k, the root has long left (-1, 0]
    with pytest.raises(error, match=match):
        call()


def test_exact_solvers_share_the_zero_sample():
    for s in (solve_exact_gaussian(0.0), solve_exact_bounded(0.0, WeightModel.bounded_uniform())):
        assert (s.k, s.omega, s.residual) == (0.0, 0.0, 0.0)


def test_series_integral_equivalence_small_k():
    # 10-term partial sums at the solved root stay within the first
    # omitted term of zero
    from attractor_kit.ce import build_source_series

    F = build_source_series(WeightModel.gaussian(), 11)
    for k in (0.05, 0.1, 0.2):
        w = solve_exact_gaussian(k).omega
        x = k * k / (1 + w) ** 2
        partial = sum(float(F[m]) * x**m for m in range(1, 11))
        omitted = abs(float(F[11])) * x**11
        assert abs(w - partial) <= omitted + 1e-15  # solver tolerance floor


# --- bounded solver ----------------------------------------------------------------

def test_bounded_uniform_matches_mpmath_root():
    # the root of arctan(k/(1+w)) = k, found by mpmath from the solver's
    # value, to its relative accuracy also where w is far below 1
    for k in (1e-6, 1e-3, 0.1, 0.5, 0.9, 1.5):
        s = solve_exact_bounded(k, WeightModel.bounded_uniform())
        with mpmath.workdps(50):
            ref = mpmath.findroot(lambda w: mpmath.atan(k / (1 + w)) - k, s.omega)
        assert abs(s.omega - ref) <= 1e-15 * abs(ref)
    for k in (math.pi / 2, 2.0):
        with pytest.raises(NoRootInInterval):
            solve_exact_bounded(k, WeightModel.bounded_uniform())


def test_bounded_uniform_small_k():
    k = 0.02
    s = solve_exact_bounded(k, WeightModel.bounded_uniform())
    assert s.omega == pytest.approx(-k * k / 3, rel=1e-3)


def test_bounded_weaker_damping_than_gaussian():
    k = 0.5
    s = solve_exact_bounded(k, WeightModel.bounded_uniform())
    assert abs(s.omega) < 0.5 * k * k


def test_bounded_equilibrium_at_zero():
    s = solve_exact_bounded(0.0, WeightModel.bounded_uniform())
    assert s.omega == 0.0 and s.residual == 0.0


def test_bounded_custom_matches_uniform():
    w = WeightModel.bounded_custom([Fr(1, 2 * m + 1) for m in range(1, 61)])
    for k in (0.2, 0.5):
        ref = solve_exact_bounded(k, WeightModel.bounded_uniform())
        s = solve_exact_bounded(k, w)
        assert s.omega == pytest.approx(ref.omega, abs=1e-9)


def uniform_moments(n):
    return WeightModel.bounded_custom([Fr(1, 2 * m + 1) for m in range(1, n + 1)])


def k_cot_k(k):
    """The uniform weight's root k cot k - 1 at 40 digits."""
    with mpmath.workdps(40):
        return k / mpmath.tan(k) - 1


def refused_interval(k, w):
    """The root interval that the solver's refusal reports, as floats."""
    with pytest.raises(InsufficientData, match="level counts disagree") as info:
        solve_exact_bounded(k, w)
    lo, hi = re.search(r"in [\[(](\S+), (\S+)\]", str(info.value)).groups()
    return float(lo), float(hi)


def test_bounded_custom_sums_every_supplied_moment():
    # 30 moments of the uniform weight give the 60-moment root to the last
    # bit at k = 0.3, and both give k cot k - 1 at k = 0.6; at k = 1.2 the
    # roots of 30 and 29 levels are 5.6e-10 apart, and the root is refused
    # rather than read past the list, with an interval that holds it
    w30, w60 = uniform_moments(30), uniform_moments(60)
    assert solve_exact_bounded(0.3, w30) == solve_exact_bounded(0.3, w60)
    for w in (w30, w60):
        assert abs(solve_exact_bounded(0.6, w).omega - k_cot_k(0.6)) <= 1e-16
    lo, hi = refused_interval(1.2, w30)
    assert lo <= k_cot_k(1.2) <= hi and hi - lo < 1e-9


def test_bounded_custom_answers_past_the_moment_series_radius():
    # at k = 0.9 the root has x = k^2/(1+w)^2 > 1, outside the radius of
    # the moment series sum_m (-1)^m mu_2m x^m; the Jacobi fraction of the
    # same 60 moments has no radius and gives k cot k - 1
    s = solve_exact_bounded(0.9, uniform_moments(60))
    assert abs(s.omega - k_cot_k(0.9)) <= 1e-16


def test_bounded_custom_matches_closed_form():
    # mu_2m = 3/(2m+3) is the weight 3v^2/2 on [-1, 1], whose condition is
    # w = (3/x)(1 - arctan(sqrt(x))/sqrt(x)) - 1 with sqrt(x) = k/(1+w)
    w = WeightModel.bounded_custom([Fr(3, 2 * m + 3) for m in range(1, 61)])
    for k in [i / 20 for i in range(1, 12)] + [0.60, 0.65]:
        s = solve_exact_bounded(k, w)
        with mpmath.workdps(40):

            def condition(om):
                r = k / (1 + om)
                return 3 / r**2 * (1 - mpmath.atan(r) / r) - 1 - om

            ref = mpmath.findroot(condition, s.omega)
        assert abs(s.omega - ref) <= 1e-15
    # at k = 0.9 the weight's branch has ended: the 59 levels are past their
    # fold, and the 60 levels, a rule with a light node at v = 0, have a
    # spurious root 5.8e-5 above -1; the counts disagree, and the solver
    # refuses
    lo, hi = refused_interval(0.9, w)
    assert lo == -1 and 0 < hi + 1 < 1e-4
    # that root is not the weight's, so the refusal claims none
    with pytest.raises(InsufficientData, match=re.escape(
            "60 moments leave any root at k = 0.9 in (-1, -0.99994")):
        solve_exact_bounded(0.9, w)


def test_bounded_custom_seed_below_bracket():
    # mu_2m = r^2m, r^2 = 1/4, is the two-point weight at v = +-r, whose
    # condition is w = -r^2 k^2 / ((1+w)^2 + r^2 k^2).  Its fraction has the
    # one level r^2, and its root lies between R's minimiser r k - 1 and 0,
    # where the seed -r^2 k^2 also lies; at these k, x = k^2/(1+w)^2 rises
    # from 0.96 to 0.998, next to the moment series' radius 1
    w = WeightModel.bounded_custom([Fr(1, 4) ** m for m in range(1, 61)])
    for k in (0.79, 0.795, 0.7995):
        s = solve_exact_bounded(k, w)
        with mpmath.workdps(40):
            q = mpmath.mpf(k) ** 2 / 4
            ref = mpmath.findroot(lambda om: om + q / ((1 + om) ** 2 + q), s.omega)
        assert abs(s.omega - ref) <= 1e-15


def test_bounded_custom_answers_k_from_one():
    # x = k^2/(1+w)^2 >= 1 on the whole hydrodynamic interval, past the
    # moment series' radius; the fraction of 60 moments gives k cot k - 1
    for k in (1.0, 1.2):
        s = solve_exact_bounded(k, uniform_moments(60))
        assert abs(s.omega - k_cot_k(k)) <= 1.1e-16


def test_jacobi_levels_of_the_uniform_weight_are_legendre():
    # the moments 1/(2m + 1) give Legendre's recurrence j^2/(4j^2 - 1)
    levels = _jacobi_levels([Fr(1, 2 * m + 1) for m in range(1, 61)])
    assert levels == [Fr(j * j, 4 * j * j - 1) for j in range(1, 61)]


def test_jacobi_levels_stop_at_a_finite_support():
    # the three-point weight (delta(v+1) + 2 delta(v) + delta(v-1))/4 is the
    # three-point Gauss rule of itself: two levels, then beta_3 = 0
    assert _jacobi_levels([Fr(1, 2)] * 20) == [Fr(1, 2), Fr(1, 2)]


def test_bounded_custom_reads_the_levels_of_its_weight(monkeypatch):
    # the levels are found once, when the weight is built; every solve of
    # that weight reads them
    calls = []

    def counted(moments):
        calls.append(len(moments))
        return _jacobi_levels(moments)

    monkeypatch.setattr(ce, "_jacobi_levels", counted)
    w = uniform_moments(60)
    for k in (0.3, 0.6, 0.9):
        assert abs(solve_exact_bounded(k, w).omega - k_cot_k(k)) <= 1e-16
    assert calls == [60]


def test_bounded_custom_needs_a_moment():
    with pytest.raises(InsufficientData):
        solve_exact_bounded(0.5, WeightModel.bounded_custom([]))


def test_bounded_custom_one_moment_meets_the_zero_level_fraction():
    # one moment gives one level, beta_1 = 1/3, and the fraction one level
    # shorter has none: the one-point rule at v = 0, whose root is 0.  So the
    # interval runs from the one-level root, (-1 + sqrt(1 - 4k^2/3))/2, to
    # 0, and past the one-level fold at k = sqrt(3)/2 from -1 to 0
    w = WeightModel.bounded_custom([Fr(1, 3)])
    lo, hi = refused_interval(0.5, w)
    with mpmath.workdps(40):
        ref = (mpmath.sqrt(1 - mpmath.mpf(0.5) ** 2 * 4 / 3) - 1) / 2
    assert abs(lo - ref) <= 1e-16 and hi == 0.0
    with pytest.raises(InsufficientData, match=re.escape("any root at k = 0.9 in (-1, 0.0]")):
        solve_exact_bounded(0.9, w)


def test_bounded_custom_three_point_cubic():
    # the three-point weight's exact fraction, levels (1/2, 1/2), makes
    # s = 1 + w solve 2s^3 + 2s k^2 - 2s^2 - k^2 = 0; it has a root at every
    # k, and it tends to -1/2
    w = WeightModel.bounded_custom([Fr(1, 2)] * 20)
    for k, ref in ((0.5, -0.12256116687665), (0.99, -0.34909326909915),
                   (2.0, -0.46682316506908), (10.0, -0.49874687505894)):
        om = solve_exact_bounded(k, w).omega
        s, q = Fr(1 + om), Fr(k) ** 2
        assert abs(2 * s**3 + 2 * s * q - 2 * s**2 - q) <= 1e-14
        assert om == pytest.approx(ref, abs=1e-14)


def test_bounded_custom_two_point_closed_form():
    # mu_2m = r^2m with r = 1/2 is the two-point weight at v = +-r: one
    # level, no node at v = 0, and s = (1 + sqrt(1 - 4r^2 k^2))/2 up to
    # its fold k = 1/(2r) = 1; from the fold on the root is refused
    w = WeightModel.bounded_custom([Fr(1, 4) ** m for m in range(1, 21)])
    for k in (0.5, 0.8, 0.9, 0.99, 0.999):
        with mpmath.workdps(40):
            ref = (mpmath.sqrt(1 - mpmath.mpf(k) ** 2) - 1) / 2
        assert abs(solve_exact_bounded(k, w).omega - ref) <= 1e-15
    for k in (1.0, 3.0):
        with pytest.raises(NoRootInInterval, match="past the fold"):
            solve_exact_bounded(k, w)


def test_bounded_custom_interval_holds_the_root():
    # at k = 1.5, 1 + w = 0.106 nears the fraction's small nodes: the
    # roots of 59 and 60 Legendre levels lie 1.7e-3 apart, on either side
    # of k cot k - 1.  30 moments leave 29 levels past their fold, so the
    # interval runs from -1 to the 30-level root
    ref = k_cot_k(1.5)
    for n in (60, 30):
        lo, hi = refused_interval(1.5, uniform_moments(n))
        assert lo < ref < hi
    assert lo == -1


def test_bounded_rejects_gaussian():
    with pytest.raises(ValueError):
        solve_exact_bounded(0.5, WeightModel.gaussian())


# --- method comparison ----------------------------------------------------------------

@pytest.fixture(scope="module")
def table():
    # 1e-200 squares to 0 in floats: its row is the k = 0 row
    ks = [0.0, 1e-200, 0.2, 0.4, 0.8, 1.1]
    return compare_methods(ks, (1, 50), 14, 14)


def test_compare_zero_row(table):
    for name, col in table.items():
        if name.startswith(("omega_", "dev_")):
            assert col[:2] == [0.0, 0.0]


def test_compare_truncations_diverge(table):
    i = table["k"].index(0.8)
    exact = table["omega_exact"][i]
    assert abs(table["omega_ce4"][i] - exact) > abs(table["omega_resummed"][i] - exact)
    assert abs(table["omega_ce2"][i] - exact) > abs(table["omega_resummed"][i] - exact)


def test_compare_branch_ends_at_fold(table):
    col = table["omega_branch_n50"]
    i = table["k"].index(1.1)
    assert math.isnan(col[i])
    assert not table["physical_n50"][i]
    assert not math.isnan(col[table["k"].index(0.8)])


def test_compare_raises_where_a_branch_root_fails(monkeypatch):
    # an empty branch cell means k >= k_c and nothing else.  Stand-in: R
    # pushed 1e-6 away from 0 at k = 0.3 alone, where no fold solve
    # evaluates, so no iterate there meets the residual tolerance, and the
    # comparison raises rather than leave the cell empty
    real = spectral._eval_state

    def stand_in(levels, w, q):
        R, Rw, Rq = real(levels, w, q)
        if q == 0.3 * 0.3:
            R += math.copysign(1e-6, R)
        return R, Rw, Rq

    monkeypatch.setattr(spectral, "_eval_state", stand_in)
    with pytest.raises(ArithmeticError, match="n=20 at k=0.3: normalised residual 1e-06"):
        compare_methods([0.2, 0.3], (20,), 14, 14)


def test_compare_deviation_columns(table):
    dev = table["dev_resummed"]
    assert max(abs(d) for d in dev if not math.isnan(d)) < 1e-5


def test_compare_rejects_out_of_range_grid():
    with pytest.raises(ValueError):
        compare_methods([1.5], (1,), 14, 14)


def test_compare_fills_ce4_at_the_smallest_pade_orders():
    # [0/0] needs a_2 alone; omega_ce4 still reads a_4
    table = compare_methods([0.5], (1,), 0, 0)
    assert table["omega_ce4"] == [-0.25 + 0.0625]
    assert table["omega_resummed"] == [0.0]


def test_exact_column_finite_on_the_finest_accepted_grid():
    # every k of the largest grid the CLI accepts (step 1e-4, 12001 points)
    # has a hydrodynamic root in (-1, 0), so no exact cell is left empty
    ks = [1e-4 * i for i in range(1, 12001)]
    assert ks[-1] <= K_GRID_MAX + 1e-9
    for k in ks:
        w = solve_exact_gaussian(k).omega
        assert -1 < w < 0


def test_exact_bracket_changes_sign_at_the_grid_edge():
    # the solver brackets the root by [-1 + 1e-9, 0]; at the largest k a
    # grid may hold the condition still changes sign across it
    k = K_GRID_MAX + 1e-9

    def f(w):
        return (w + 1) - gaussian_resolvent((1 + w) ** 2 / (k * k))

    assert f(-1 + 1e-9) < 0 < f(0.0)
    # the solver does not evaluate the upper end: there the fraction half's
    # R = q / K_1 stays positive also where k^2 is subnormal
    q = 1e-161 * 1e-161
    assert 0 < spectral._eval_state(spectral._hermite_levels(_cf_depth(2 * q)), 0.0, q)[0]
