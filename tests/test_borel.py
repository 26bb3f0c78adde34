import math
import warnings
from fractions import Fraction as Fr

import mpmath
import numpy as np
import pytest

from attractor_kit import borel
from attractor_kit._gauss_rules import (
    LAGUERRE_NODES,
    LAGUERRE_WEIGHTS,
    LEGENDRE_NODES,
    LEGENDRE_WEIGHTS,
)
from attractor_kit.borel import (
    PadeApproximant,
    PoleOnContour,
    SingularPadeSystem,
    borel_transform,
    ce_truncation_eval,
    laplace_resum,
    pade,
    resum_dispersion,
    summability,
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


def test_pade_records_keep_their_public_behaviour():
    p = pade([0.0, 1.0, -0.5], 1, 1)
    assert repr(p) == ("PadeApproximant(num=array([0., 1.]), den=array([1. , 0.5]), "
                       "poles=array([-2.]), residues=array([-4.]))")
    r = borel.ResummedDispersion(p, (Fr(-1),))
    assert repr(r) == f"ResummedDispersion(approximant={p!r}, borel=(Fraction(-1, 1),))"
    for record, name in ((p, "num"), (p, "residues"), (r, "approximant"), (r, "borel")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)


def test_pade_constant():
    p = pade([3.5, 0.0, 0.0], 0, 0)
    assert p(17.0) == 3.5
    assert len(p.poles) == 0
    # a degree-0 denominator has no roots, so none to take residues at
    p = pade([0.0, 1.0, -2.0, 6.0], 3, 0)
    assert p.num.tolist() == [0.0, 1.0, -2.0, 6.0]
    assert p.poles.size == p.residues.size == 0


def test_pade_taylor_match_through_L_plus_M(gaussian_30):
    taylor = [0.0] + [float(b) for b in borel_transform(gaussian_30)[:28]]
    p = pade(taylor, 14, 14)
    # numerator = denominator * series through order L+M
    conv = np.convolve(p.den, taylor)[:29]
    conv[:15] -= p.num
    assert np.max(np.abs(conv)) < 1e-6 * max(abs(t) for t in taylor)


def test_pade_recovers_rational_below_the_diagonal():
    # [1/4] of 1/((1 - x/2)(1 - x/3)(1 - x/5)(1 - x/7)): with L < M - 1 the
    # Toeplitz matrix holds zeros above its diagonal, where L + m - j < 0
    roots = [2.0, 3.0, 5.0, 7.0]
    den = np.polynomial.polynomial.polyfromroots(roots) / np.prod(roots)
    series = [1.0]
    for i in range(1, 6):  # den * series = 1, term by term
        series.append(-sum(den[j] * series[i - j] for j in range(1, min(i, 4) + 1)))
    p = pade(series, 1, 4)
    assert np.allclose(p.den, den, rtol=0, atol=1e-12)
    assert np.allclose(p.num, [1.0, 0.0], rtol=0, atol=1e-12)


def test_borel_takes_any_sequence_of_coefficients(gaussian_30):
    r = resum_dispersion(gaussian_30, 14, 14)
    plain = resum_dispersion(list(gaussian_30.values), 14, 14)
    assert plain.borel == r.borel == borel_transform(gaussian_30)
    assert np.array_equal(plain.approximant.den, r.approximant.den)
    for order in (0, 2, 4, 10):
        assert (ce_truncation_eval(gaussian_30.values, order, 0.3)
                == ce_truncation_eval(gaussian_30, order, 0.3))


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


def test_pade_at_an_overflowing_order_warns_nothing():
    # at [129/47] np.polyval overflows at a far pole of the Gaussian's Borel
    # series; the residue is then not finite, and its pole counts as genuine
    b = borel_transform(ce_coefficients(WeightModel.gaussian(), 176))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = pade([0.0] + [float(v) for v in b], 129, 47)
    assert p.physical[~np.isfinite(p.residues)].all()


# --- Summability verdict ----------------------------------------------------

def test_mis_coefficients_first_terms(mis_coefficients):
    for c_eta, c_tau in ((1, 1), (1, 2), (3, Fr(1, 2)), (Fr(2, 7), 5)):
        f = mis_coefficients(c_eta, c_tau, 2)
        assert f == [Fr(4, 9) * c_eta, Fr(8, 27) * c_eta * c_tau]


@pytest.mark.parametrize("c_tau", [1, 2])
@pytest.mark.parametrize("order", [14, 20])
def test_temporal_foil_is_not_borel_summable(mis_coefficients, c_tau, order):
    # the Borel ratios of the MIS series tend to +2 C_tau/3 with one sign:
    # its singularity sits on the Laplace contour, at sigma = 3/(2 C_tau)
    f = mis_coefficients(1, c_tau, 60)
    nearest, verdict = summability(resum_dispersion(f, order, order).approximant)
    assert verdict == "obstructed"
    if order == 20:
        assert abs(nearest - 3 / (2 * c_tau)) <= 0.01 * 3 / (2 * c_tau)


def test_gaussian_series_is_strictly_summable(gaussian_30):
    nearest, verdict = summability(resum_dispersion(gaussian_30, 14, 14).approximant)
    assert verdict == "strict"
    assert nearest == pytest.approx(-0.5, abs=0.01)


@pytest.mark.parametrize("residue", [math.nan, complex(math.nan, math.nan), math.inf])
def test_summability_counts_a_nonfinite_residue_as_genuine(residue):
    # an overflowed residue cannot show its pole to be a doublet
    p = PadeApproximant(np.array([1.0]), np.array([1.0, 0.5, -0.5]),
                        np.array([-1.0 + 0j, 2.0 + 0j]), np.array([1.0, residue]))
    assert p.physical.all()
    assert summability(p) == (-1.0, "obstructed")


def test_summability_without_a_genuine_pole():
    assert summability(pade([0.0, 1.0, 0.5], 2, 0)) == (None, None)
    doublet = PadeApproximant(np.array([1.0]), np.array([1.0, 1.0]),
                              np.array([-1.0 + 0j]), np.array([1e-12]))
    assert summability(doublet) == (None, None)


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
    t, w = np.array(LAGUERRE_NODES), np.array(LAGUERRE_WEIGHTS)
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


def test_laplace_sum_that_overflows_is_nan():
    # at [129/47] p overflows at the Laplace nodes from k = 0.8 on: the
    # resummed value there is NaN, one k or a grid, with no numpy warning
    resum = resum_dispersion(ce_coefficients(WeightModel.gaussian(), 177), 129, 47)
    ks = [0.8, 0.9, 1.0, 1.1, 1.2]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grid = resum(ks)
        single = [resum(k) for k in ks]
    assert np.isnan(grid).all() and np.isnan(single).all()


def test_laplace_resum_grid_equals_one_point_calls(gaussian_30):
    # the README grid's x = k^2: one Gauss-Laguerre sum over the whole grid
    # gives the one-point values bit for bit, and those are the sum over the
    # 80 stored nodes of one x
    r = resum_dispersion(gaussian_30, 14, 14)
    p = r.approximant
    ks = [i / 100 for i in range(121)]
    xs = [k * k for k in ks[1:]]
    grid = laplace_resum(p, xs)
    assert isinstance(grid, np.ndarray)
    assert grid.tolist() == [laplace_resum(p, x) for x in xs]
    t, w = np.array(LAGUERRE_NODES), np.array(LAGUERRE_WEIGHTS)
    assert grid.tolist() == [float(np.sum(w * p(x * t))) for x in xs]
    assert r(ks).tolist() == [0.0] + grid.tolist() == [r(k) for k in ks]


def reference_class(poles, x):
    """Class of x by the one-x-at-a-time rule: the nearest genuine pole's
    distance from the contour [0, x t_max] picks NaN, the graded rule or the
    shared Gauss-Laguerre sum.  Returns the class and that pole."""
    support = x * LAGUERRE_NODES[-1]

    def distance(pole):
        if 0 < pole.real < support:
            return abs(pole.imag)
        return min(abs(pole), abs(pole - support))

    d, pole = min(((distance(z), z) for z in poles), key=lambda e: e[0])
    if d < 1e-8:
        return "nan", pole
    if d < 1e-3 * max(x, 1.0):
        return "graded", pole
    return "regular", pole


def test_laplace_resum_grid_mixes_regular_near_and_obstructed_x(monkeypatch):
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

    # a dense sweep across every threshold of both poles: the contour end
    # x t_max within 1e-3 of s1 (graded), within 1e-3 of s2 (graded) and
    # within 1e-8 of it (NaN), and past s2.  s2 alone shows its own graded
    # threshold, which s1 hides in the pair; a pole just left of 0 obstructs
    # every contour from its start
    t_max = LAGUERRE_NODES[-1]
    ends = [
        (s1.real - math.sqrt(1e-6 - s1.imag**2), 1e-7),
        (s1.real, 1e-7),
        (s2 - 1e-3, 1e-5),
        (s2 - 1e-8, 1e-10),
        (s2, 1e-10),
    ]
    sweep = set()
    for end, h in ends:
        for i in range(-20, 21):
            sweep.add((end + i * h) / t_max)
        x = end / t_max
        sweep.update((np.nextafter(x, 0.0), x, np.nextafter(x, 1.0)))
    sweep = sorted(float(x) for x in sweep)
    graded_xs = []
    graded = borel._graded_laplace
    monkeypatch.setattr(
        borel, "_graded_laplace", lambda q, x: graded_xs.append(x) or graded(q, x)
    )
    seen = set()
    for approximant in (p, single_pole(s2, 1.0), single_pole(-2e-9, 1.0)):
        poles = [complex(z) for z in approximant.physical_poles]
        expected = [reference_class(poles, x) for x in sweep]
        graded_xs.clear()
        grid = laplace_resum(approximant, sweep)
        assert graded_xs == [x for x, (c, _) in zip(sweep, expected) if c == "graded"]
        for x, value, (c, pole) in zip(sweep, grid.tolist(), expected):
            seen.add(c)
            if c == "nan":
                assert math.isnan(value)
                with pytest.raises(PoleOnContour) as exc:
                    laplace_resum(approximant, x)
                assert str(exc.value) == (
                    f"Pade pole at sigma = {pole:.6g} obstructs the Laplace contour"
                )
            else:
                assert value == laplace_resum(approximant, x)
    assert seen == {"nan", "graded", "regular"}


# --- stored quadrature rules -------------------------------------------------

def dyadic(values):
    """Integers m_i and one power of two d with values[i] = m_i / d exactly."""
    ratios = [Fr(v) for v in values]
    d = max(r.denominator for r in ratios)
    return [r.numerator * (d // r.denominator) for r in ratios], d


def test_stored_laguerre_rule_integrates_monomials():
    # 80 nodes integrate t^j e^{-t} over [0, inf), which is j!, exactly
    # through j = 159; the sums of the stored floats are taken exactly
    t, t_den = dyadic(LAGUERRE_NODES)
    w, w_den = dyadic(LAGUERRE_WEIGHTS)
    for j in range(160):
        s = Fr(sum(wi * ti**j for ti, wi in zip(t, w)), w_den * t_den**j)
        assert abs(s / math.factorial(j) - 1) <= 1e-12


def test_stored_legendre_rule_integrates_monomials():
    # 20 nodes integrate u^j over [-1, 1] exactly through j = 39
    for j in range(40):
        s = sum(Fr(w) * Fr(u) ** j for u, w in zip(LEGENDRE_NODES, LEGENDRE_WEIGHTS))
        assert abs(s - (Fr(2, j + 1) if j % 2 == 0 else 0)) <= 1e-14


def test_stored_rules_match_numpy():
    # not bit for bit: another LAPACK may round the eigenvalues differently
    from numpy.polynomial.laguerre import laggauss
    from numpy.polynomial.legendre import leggauss

    for stored, built in (
        ((LAGUERRE_NODES, LAGUERRE_WEIGHTS), laggauss(80)),
        ((LEGENDRE_NODES, LEGENDRE_WEIGHTS), leggauss(20)),
    ):
        for a, b in zip(stored, built):
            np.testing.assert_allclose(a, b, rtol=1e-14, atol=0)


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
    with pytest.raises(ValueError):
        ce_truncation_eval(gaussian_30, -2, 0.5)
