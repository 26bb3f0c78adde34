import math
from fractions import Fraction as Fr

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from attractor_kit.ce import WeightModel
from attractor_kit.dispersion import (
    _DERIV_CF_MIN,
    _ERFCX_SPLIT,
    Method,
    NoRootInInterval,
    SeriesDivergent,
    compare_methods,
    _erfcx,
    _gaussian_resolvent_dA,
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


def test_erfcx_matches_mpmath():
    split = _ERFCX_SPLIT
    us = [float(u) for u in np.logspace(-4, math.log10(80.0), 2000)]
    us += [0.0, split, math.nextafter(split, 0.0), split * (1 - 1e-6), split * (1 + 1e-6)]
    worst = 0.0
    with mpmath.workdps(40):
        for u in us:
            ref = mpmath.exp(mpmath.mpf(u) ** 2) * mpmath.erfc(u)
            worst = max(worst, float(abs(_erfcx(u) - ref) / ref))
    assert _erfcx(0.0) == 1.0
    assert worst <= 1e-15


def test_resolvent_derivative_matches_mpmath_diff():
    # u = sqrt(A/2) crosses the continued-fraction switch at A = 2 u_min^2
    switch = 2 * _DERIV_CF_MIN**2
    grid = list(np.logspace(-6, 4, 41)) + [switch * (1 - 1e-12), switch, switch * (1 + 1e-12)]
    with mpmath.workdps(40):
        for A in grid:
            ref = mpmath.diff(mp_resolvent, mpmath.mpf(float(A)))
            assert abs(_gaussian_resolvent_dA(float(A)) - ref) <= 1e-13 * abs(ref)


# --- Gaussian solver -------------------------------------------------------------

def test_exact_gaussian_small_k():
    s = solve_exact_gaussian(0.1)
    assert s.method is Method.EXACT_GAUSSIAN
    assert -0.01 < s.omega < -0.0099
    # bisection oracle on the same condition
    from scipy.optimize import brentq

    ref = brentq(
        lambda w: (w + 1) - gaussian_resolvent((1 + w) ** 2 / 0.01),
        -1 + 1e-12,
        0.0,
        xtol=1e-14,
    )
    assert s.omega == pytest.approx(ref, abs=1e-10)


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


def test_exact_gaussian_input_validation():
    with pytest.raises(ValueError):
        solve_exact_gaussian(-0.1)
    with pytest.raises(ValueError):
        solve_exact_gaussian(0.5, tol=1e-20)


def test_series_integral_equivalence_small_k():
    # 10-term partial sums at the solved root stay within the first
    # omitted term of zero
    from attractor_kit.ce import build_source_series

    F = build_source_series(WeightModel.gaussian(), 11)
    for k in (0.05, 0.1, 0.2):
        w = solve_exact_gaussian(k).omega
        x = k * k / (1 + w) ** 2
        partial = sum(float(F.coeffs[m]) * x**m for m in range(1, 11))
        omitted = abs(float(F.coeffs[11])) * x**11
        assert abs(w - partial) <= omitted + 1e-15  # solver tolerance floor


# --- bounded solver ----------------------------------------------------------------

def test_bounded_uniform_matches_closed_form():
    # arctan(k/(1+w)) = k has the closed solution w = k cot k - 1
    for k in (0.1, 0.5, 0.9):
        s = solve_exact_bounded(k, WeightModel.bounded_uniform())
        assert s.omega == pytest.approx(k / math.tan(k) - 1, abs=1e-12)
        assert s.method is Method.EXACT_BOUNDED


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


def test_bounded_custom_series_divergence():
    # at k = 0.9 the solved point has x = k^2/(1+w)^2 > 1, outside the
    # moment series' radius; the solver must flag it, not extrapolate
    w = WeightModel.bounded_custom([Fr(1, 2 * m + 1) for m in range(1, 61)])
    with pytest.raises(SeriesDivergent):
        solve_exact_bounded(0.9, w)


# solve_exact_bounded for mu_2m = 3/(2m+3) at k = 0.05, 0.10, ..., 0.65, as
# computed when the Fraction source series was rebuilt on every residual call
BOUNDED_CUSTOM_PINNED = (
    -0.001501826170275155, -0.00602944934917501, -0.01365108598960557,
    -0.02448672064376583, -0.03871889213913746, -0.05661103975281841,
    -0.07853829553679181, -0.10504069950357206, -0.13692080509700674,
    -0.17543983426322293, -0.22276962071190246, -0.28328850937846606,
    -0.3471711245232637,
)


def test_bounded_custom_bit_identical_on_grid():
    # the float moments are built once per solve; the sums, and so the roots,
    # must not change by a single bit
    w = WeightModel.bounded_custom([Fr(3, 2 * m + 3) for m in range(1, 61)])
    got = tuple(solve_exact_bounded(i / 20, w).omega for i in range(1, 14))
    assert got == BOUNDED_CUSTOM_PINNED


def test_bounded_rejects_gaussian():
    with pytest.raises(ValueError):
        solve_exact_bounded(0.5, WeightModel.gaussian())


# --- method comparison ----------------------------------------------------------------

@pytest.fixture(scope="module")
def table():
    ks = [0.0, 0.2, 0.4, 0.8, 1.1]
    return compare_methods(ks, branch_orders=(1, 50))


def test_compare_zero_row(table):
    for name, col in table.columns.items():
        if name.startswith("omega_"):
            assert col[0] == 0.0


def test_compare_truncations_diverge(table):
    i = table.k_grid.index(0.8)
    exact = table.columns["omega_exact"][i]
    assert abs(table.columns["omega_ce4"][i] - exact) > abs(
        table.columns["omega_resummed"][i] - exact
    )
    assert abs(table.columns["omega_ce2"][i] - exact) > abs(
        table.columns["omega_resummed"][i] - exact
    )


def test_compare_branch_ends_at_fold(table):
    col = table.columns["omega_branch_n50"]
    i = table.k_grid.index(1.1)
    assert math.isnan(col[i])
    assert not table.columns["physical_n50"][i]
    assert not math.isnan(col[table.k_grid.index(0.8)])


def test_compare_deviation_columns(table):
    dev = table.columns["dev_resummed"]
    assert max(abs(d) for d in dev if not math.isnan(d)) < 1e-5


def test_compare_rejects_out_of_range_grid():
    with pytest.raises(ValueError):
        compare_methods([1.5])
