import math
from fractions import Fraction as Fr

import mpmath
import numpy as np
import pytest

from attractor_kit.borel import (
    PadeApproximant,
    PoleOnContour,
    SingularPadeSystem,
    borel_transform,
    ce_truncation_eval,
    laplace_resum,
    pade,
    resum_dispersion,
)
from attractor_kit.ce import WeightModel, ce_coefficients
from attractor_kit.dispersion import solve_exact_gaussian

# int_0^inf e^{-t} / (1 + 0.2 t) dt, frozen from 30-digit adaptive quadrature
LAPLACE_GEOMETRIC_X01 = 0.85211088142366100906


@pytest.fixture(scope="module")
def gaussian_30():
    return ce_coefficients(WeightModel.gaussian(), 30)


# --- Borel transform -------------------------------------------------------

def test_borel_of_gradient_coefficients(gaussian_30):
    b = borel_transform(gaussian_30)
    assert b[0] == -1
    assert b[6] == Fr(-38232, 5040)


def test_borel_of_factorials_is_all_ones():
    b = borel_transform([Fr(math.factorial(n)) for n in range(1, 9)])
    assert b == (1,) * 8


def central_binomial(m):
    return math.comb(2 * m, m)


def test_borel_of_source_series_matches_sqrt_closed_form():
    # Taylor of 1/sqrt(1+2s) - 1 via the independent binomial identity
    # sum C(2m,m) y^m = (1-4y)^(-1/2) evaluated at y = -s/2:
    # coefficient of s^m is (-1)^m C(2m,m) / 2^m
    mu = 1
    source = []
    for m in range(1, 31):
        mu *= 2 * m - 1
        source.append(Fr((-1) ** m * mu))
    b = borel_transform(source)
    for m in range(1, 31):
        assert b[m - 1] == Fr((-1) ** m * central_binomial(m), 2**m)


# --- Pade ------------------------------------------------------------------

def test_pade_recovers_simple_pole():
    taylor = [(-2.0) ** n for n in range(5)]  # 1/(1+2s)
    p = pade(taylor, 0, 1)
    assert p.den == pytest.approx([1.0, 2.0], abs=1e-12)
    assert p.poles == pytest.approx([-0.5], abs=1e-12)


def test_pade_constant():
    p = pade([3.5, 0.0, 0.0], 0, 0)
    assert p(17.0) == 3.5
    assert len(p.poles) == 0


def test_pade_taylor_match_through_L_plus_M(gaussian_30):
    taylor = [0.0] + [float(b) for b in borel_transform(gaussian_30)[:28]]
    p = pade(taylor, 14, 14)
    # numerator = denominator * series through order L+M
    conv = np.convolve(p.den, taylor)[:29]
    conv[:15] -= p.num
    assert np.max(np.abs(conv)) < 1e-6 * max(abs(t) for t in taylor)


def test_pade_pole_count_and_sqrt_branch_cut():
    # genuine poles of [14/14] to 1/sqrt(1+2s) - 1 line the cut s <= -1/2
    mu = 1
    taylor = [0.0]
    for m in range(1, 29):
        mu *= 2 * m - 1
        taylor.append((-1) ** m * mu / math.factorial(m))
    p = pade(taylor, 14, 14)
    assert len(p.poles) == 14
    genuine = p.physical_poles
    assert len(genuine) >= 10
    assert all(abs(z.imag) < 1e-6 for z in genuine)
    assert all(z.real < -0.5 for z in genuine)


def test_pade_singular_system_raises():
    with pytest.raises(SingularPadeSystem):
        pade([0.0, 0.0, 1.0], 0, 1)


def test_pade_rejects_short_input():
    with pytest.raises(ValueError):
        pade([1.0, 2.0], 1, 1)


# --- Laplace resummation ----------------------------------------------------

def test_laplace_resum_of_zero_is_zero():
    p = pade([0.0, 0.0, 0.0], 0, 0)
    for x in (0.01, 0.5, 3.0):
        assert laplace_resum(p, x) == 0.0


def test_laplace_resum_geometric_kernel_vs_quadrature_oracle():
    taylor = [(-2.0) ** n for n in range(5)]
    p = pade(taylor, 0, 1)
    assert laplace_resum(p, 0.1) == pytest.approx(
        LAPLACE_GEOMETRIC_X01, abs=1e-10
    )


def test_laplace_resum_detects_positive_axis_pole():
    p = pade([1.0, 1.0, 1.0], 0, 1)  # 1/(1-s), genuine pole at +1
    with pytest.raises(PoleOnContour):
        laplace_resum(p, 0.5)


def single_pole(sigma0, residue):
    """residue / (sigma - sigma0) as an approximant.

    Complex coefficients keep 1 - sigma/sigma0 well conditioned next to the
    pole, where a real quadratic denominator loses its digits to
    cancellation.
    """
    s0 = complex(sigma0)
    return PadeApproximant(
        np.array([-residue / s0]), np.array([1.0, -1.0 / s0]),
        np.array([s0]), np.array([complex(residue)]),
    )


def laplace_oracle(p, x, split):
    """mpmath.quad of int_0^40 e^{-u} Re p(x u) du, from p's own coefficients."""
    with mpmath.workdps(30):
        num = [mpmath.mpc(complex(c)) for c in p.num[::-1]]
        den = [mpmath.mpc(complex(c)) for c in p.den[::-1]]

        def f(u):
            s = x * u
            return mpmath.exp(-u) * mpmath.re(mpmath.polyval(num, s) / mpmath.polyval(den, s))

        return float(mpmath.quad(f, [0, split, 40]))


def gauss_laguerre(p, x):
    t, w = np.polynomial.laguerre.laggauss(80)
    return float(np.sum(w * p(x * t).real))


@pytest.mark.parametrize("offset", [1e-4, 1e-6, 1e-7])
@pytest.mark.parametrize("residue", [1.0, 1j, 0.3 - 2j])
def test_laplace_resum_pole_near_contour_vs_mpmath(offset, residue):
    # u = a/x = 0.6 lies inside the graded rule's first base panel [0, 1]
    x, a = 0.5, 0.3
    p = single_pole(a + 1j * offset, residue)
    oracle = laplace_oracle(p, x, a / x)
    assert abs(gauss_laguerre(p, x) - oracle) > 1e-3  # the pole defeats the default rule
    assert abs(laplace_resum(p, x) - oracle) <= 1e-8


def test_laplace_resum_real_pade_pair_near_contour_vs_mpmath():
    # 1/(sigma - s0) + 1/(sigma - conj(s0)), s0 = a + ib, with real coefficients
    a, b, x = 1.0, 1e-4, 0.5
    d = a * a + b * b
    p = PadeApproximant(
        np.array([-2 * a / d, 2 / d]), np.array([1.0, -2 * a / d, 1 / d]),
        np.array([a + 1j * b, a - 1j * b]), np.array([1.0 + 0j, 1.0 + 0j]),
    )
    oracle = laplace_oracle(p, x, a / x)
    assert abs(gauss_laguerre(p, x) - oracle) > 1e-3
    assert abs(laplace_resum(p, x) - oracle) <= 1e-8


def test_laplace_resum_requires_positive_x(gaussian_30):
    r = resum_dispersion(gaussian_30, 14, 14)
    with pytest.raises(ValueError):
        laplace_resum(r.approximant, 0.0)
    with pytest.raises(ValueError):
        laplace_resum(r.approximant, [0.5, 0.0])


def test_laplace_resum_grid_equals_one_point_calls(gaussian_30):
    # the README grid's x = k^2: one Gauss-Laguerre sum over the whole grid
    # gives the one-point values bit for bit, and those are the sum over the
    # 80 nodes of one x
    r = resum_dispersion(gaussian_30, 14, 14)
    p = r.approximant
    ks = [i / 100 for i in range(121)]
    xs = [k * k for k in ks[1:]]
    grid = laplace_resum(p, xs)
    assert isinstance(grid, np.ndarray)
    assert grid.tolist() == [laplace_resum(p, x) for x in xs]
    t, w = np.polynomial.laguerre.laggauss(80)
    assert grid.tolist() == [float(np.sum(w * p(x * t))) for x in xs]
    assert r(ks).tolist() == [0.0] + grid.tolist() == [r(k) for k in ks]


def test_laplace_resum_grid_mixes_regular_near_and_obstructed_x():
    # 1/(sigma - s1) + 1/(sigma - s2): s1 is the near-contour pole of
    # test_laplace_resum_pole_near_contour_vs_mpmath, s2 a genuine pole on
    # the positive axis as in test_laplace_resum_detects_positive_axis_pole,
    # moved from 1 to 200.  The largest Gauss-Laguerre node is about 297,
    # so x < 0.3/297 keeps both poles beyond the support, x = 0.5 reaches s1
    # only, and x = 1 reaches s2.
    s1, s2 = 0.3 + 1e-4j, 200.0
    p = PadeApproximant(
        np.array([-(s1 + s2), 2.0]) / (s1 * s2),
        np.array([1.0, -(s1 + s2) / (s1 * s2), 1 / (s1 * s2)]),
        np.array([s1, s2]), np.array([1.0 + 0j, 1.0 + 0j]),
    )
    near, obstructed = 0.5, 1.0
    xs = [1e-4, obstructed, near, 5e-4]
    grid = laplace_resum(p, xs)
    assert math.isnan(grid[1])
    with pytest.raises(PoleOnContour):
        laplace_resum(p, obstructed)
    for i in (0, 2, 3):
        assert grid[i] == laplace_resum(p, xs[i])
    # the near-contour point took the graded rule: Gauss-Laguerre misses
    # the pole, and the value matches quadrature
    oracle = laplace_oracle(p, near, s1.real / near)
    assert abs(gauss_laguerre(p, near) - oracle) > 1e-3
    assert abs(grid[2] - oracle) <= 1e-8


# --- resummed dispersion -----------------------------------------------------

def test_resummation_is_zero_at_origin(gaussian_30):
    r = resum_dispersion(gaussian_30, 14, 14)
    assert r(0.0) == 0.0
    # also where k^2 underflows to 0, which laplace_resum would refuse as x
    assert r(1e-200) == 0.0
    assert list(r([1e-200, 0.0, 0.5])) == [0.0, 0.0, r(0.5)]


def test_resummation_matches_exact_solver(gaussian_30):
    r = resum_dispersion(gaussian_30, 14, 14)
    for k in (0.2, 0.5, 0.9):
        assert r(k) == pytest.approx(solve_exact_gaussian(k).omega, abs=1e-6)


def test_low_order_resummation_beats_ce4(gaussian_30):
    k = 0.3
    exact = solve_exact_gaussian(k).omega
    r11 = resum_dispersion(gaussian_30, 1, 1)
    ce4 = -(k**2) + k**4
    assert abs(r11(k) - exact) < abs(ce4 - exact)


def test_resummation_within_first_omitted_term_of_ce10(gaussian_30):
    r = resum_dispersion(gaussian_30, 14, 14)
    for k in (0.1, 0.2, 0.3):
        partial = ce_truncation_eval(gaussian_30, 10, k)
        omitted = abs(float(gaussian_30.values[5])) * k**12
        assert abs(r(k) - partial) <= omitted


# --- truncations --------------------------------------------------------------

def test_ce_truncations(gaussian_30):
    assert ce_truncation_eval(gaussian_30, 2, 0.5) == -0.25
    assert ce_truncation_eval(gaussian_30, 4, 0.5) == -0.1875
    assert ce_truncation_eval(gaussian_30, 0, 0.7) == 0.0


def test_ce_truncation_order_bound(gaussian_30):
    with pytest.raises(ValueError):
        ce_truncation_eval(gaussian_30, 62, 0.5)
