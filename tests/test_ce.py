import copy
import functools
import importlib.util
import math
import pickle
import sys
from fractions import Fraction as Fr

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import attractor_kit.ce
from attractor_kit.ce import (
    CECoefficients,
    InsufficientData,
    InvalidWeight,
    RadiusEstimate,
    WeightKind,
    WeightModel,
    _jacobi_levels,
    _lagrange_kernel,
    build_source_series,
    ce_coefficients,
    radius_estimate,
    ratio_sequence,
)
from attractor_kit.exactseries import lagrange_coefficient

REFERENCE_SEQUENCE = (-1, 1, -4, 27, -248, 2830, -38232)


def test_gaussian_source_series():
    # mu_2m = (2m-1)!!
    s = build_source_series(WeightModel.gaussian(), 4)
    assert s == (0, -1, 3, -15, 105)


def test_uniform_source_series():
    s = build_source_series(WeightModel.bounded_uniform(), 2)
    assert s == (0, Fr(-1, 3), Fr(1, 5))


def test_source_series_single_term():
    assert build_source_series(WeightModel.gaussian(), 1) == (0, -1)
    assert build_source_series(WeightModel.bounded_uniform(), 1) == (0, Fr(-1, 3))


def test_gaussian_coefficients_match_known_sequence():
    c = ce_coefficients(WeightModel.gaussian(), 7)
    assert c.values == tuple(Fr(v) for v in REFERENCE_SEQUENCE)


def test_gaussian_leading_coefficient_is_classical_diffusion():
    assert ce_coefficients(WeightModel.gaussian(), 1).values == (Fr(-1),)


def test_uniform_coefficients():
    c = ce_coefficients(WeightModel.bounded_uniform(), 2)
    assert c.values == (Fr(-1, 3), Fr(-1, 45))


# non-geometric moments with unrelated denominators, so the common
# denominator of each power of (1+F)^{-2} changes and is reduced
def unrelated_denominators(n):
    return WeightModel.bounded_custom(
        [Fr(1, m + 2) + Fr(1, 7 * (3 * m + 1)) for m in range(1, n + 1)]
    )


def test_every_path_equals_per_order_lagrange():
    custom = unrelated_denominators(9)
    for w in (WeightModel.gaussian(), WeightModel.bounded_uniform(), custom):
        c = ce_coefficients(w, 9)
        F = build_source_series(w, 9)
        assert c.values == tuple(
            lagrange_coefficient(F, n) for n in range(1, 10)
        )


def test_baby_giant_steps_equal_per_order_lagrange():
    # N < 4 has b = 1, and every giant step n = b i + 1 is met: b = 3 at
    # N = 9..12 and 15, b = 4 at 16, 17, 24, b = 5 at 25, 26
    w = unrelated_denominators(26)
    F = build_source_series(w, 26)
    oracle = tuple(lagrange_coefficient(F, n) for n in range(1, 27))
    for n_max in [*range(1, 13), 15, 16, 17, 24, 25, 26]:
        assert ce_coefficients(w, n_max).values == oracle[:n_max], n_max


def test_kernel_makes_about_two_sqrt_n_products(monkeypatch):
    # b - 1 baby steps and ceil(N/b) - 1 giant steps, b = isqrt(N): 27 at
    # N = 200, where one power per order made 199
    calls = []
    mul_reduced = attractor_kit.ce._mul_reduced

    def counted(*args):
        calls.append(1)
        return mul_reduced(*args)

    monkeypatch.setattr(attractor_kit.ce, "_mul_reduced", counted)
    # the two-point weight at +-1: small integers, so the call is cheap
    w = WeightModel.bounded_custom([1] * 200)
    c = ce_coefficients(w, 200)
    b = math.isqrt(200)
    assert len(calls) == b - 1 + -(-200 // b) - 1 == 27
    # w (1 + w) + k^2 = 0
    assert c[199] == -Fr(math.comb(398, 199), 200)


def test_arcsine_weight_matches_square_root():
    # mu_2m = C(2m, m)/4^m, the massless gas in two dimensions, gives
    # 1 + w = sqrt(1 - k^2), so a_2n = -C(2n, n)/((2n - 1) 4^n)
    w = WeightModel.bounded_custom([Fr(math.comb(2 * m, m), 4**m) for m in range(1, 121)])
    assert ce_coefficients(w, 120).values == tuple(
        -Fr(math.comb(2 * n, n), (2 * n - 1) * 4**n) for n in range(1, 121)
    )


# --- closed-form paths against the Lagrange kernel ------------------------------

@pytest.mark.parametrize("w", [WeightModel.gaussian(), WeightModel.bounded_uniform()],
                         ids=lambda w: w.kind.value)
@pytest.mark.parametrize("n_max", [1, 2, 80])
def test_closed_form_equals_lagrange_kernel(w, n_max):
    # the kernel is fed the weight's own moments; the Gaussian ones exceed 1,
    # which bounded_custom would reject, so the kernel is called directly
    source = build_source_series(w, n_max)
    assert ce_coefficients(w, n_max).values == tuple(_lagrange_kernel(source))


# --- closed forms, independent of the Lagrange kernel ---------------------------

def connected_chord_diagrams(n_max):
    """A000699: a(1) = 1, a(n) = (n-1) sum_{i=1}^{n-1} a(i) a(n-i)."""
    a = [0, 1]
    for n in range(2, n_max + 1):
        a.append((n - 1) * sum(a[i] * a[n - i] for i in range(1, n)))
    return a[1:]


def bernoulli_numbers(m_max):
    """B_0..B_{m_max} from sum_{j=0}^{m} C(m+1, j) B_j = 0."""
    B = [Fr(1)]
    for m in range(1, m_max + 1):
        B.append(-sum(math.comb(m + 1, j) * B[j] for j in range(m)) / (m + 1))
    return B


def test_gaussian_matches_connected_chord_diagrams():
    c = ce_coefficients(WeightModel.gaussian(), 60)
    chords = connected_chord_diagrams(60)
    assert c.values == tuple(Fr((-1) ** n * a) for n, a in enumerate(chords, 1))


def test_uniform_matches_k_cot_k():
    # arctan(k/(1+w)) = k gives w = k cot k - 1 = sum (-1)^n 2^2n B_2n k^2n/(2n)!
    c = ce_coefficients(WeightModel.bounded_uniform(), 30)
    B = bernoulli_numbers(60)
    expected = tuple(
        (-1) ** n * 2 ** (2 * n) * B[2 * n] / math.factorial(2 * n)
        for n in range(1, 31)
    )
    assert c.values == expected


def test_two_point_weight_matches_catalan():
    # mu_2m = r^2m gives w(1+w) + r^2 k^2 = 0, so a_2n = -C_{n-1} r^2n
    r = Fr(93, 97)
    w = WeightModel.bounded_custom([r ** (2 * m) for m in range(1, 41)])
    c = ce_coefficients(w, 40)
    expected = tuple(
        -Fr(math.comb(2 * n - 2, n - 1), n) * r ** (2 * n) for n in range(1, 41)
    )
    assert c.values == expected


def test_gaussian_signs_alternate():
    c = ce_coefficients(WeightModel.gaussian(), 20)
    for n, a in enumerate(c.values, 1):
        assert a * (-1) ** n > 0


def test_ratio_sequence_first_values():
    c = ce_coefficients(WeightModel.gaussian(), 4)
    assert ratio_sequence(c) == [1.0, 4.0, 6.75]


def test_ratio_sequence_rejects_zero_coefficient():
    # a_4 = 0 leaves r_2 undefined, not the weight degenerate
    r = ratio_sequence(CECoefficients((Fr(1), Fr(0), Fr(3))))
    assert r[0] == 0.0 and math.isnan(r[1])
    # the three-point weight (delta(v+1) + 2 delta(v) + delta(v-1))/4 has
    # mu_2m = 1/2 and a_4 = 0; the radius fit still refuses it
    c = ce_coefficients(WeightModel.bounded_custom([Fr(1, 2)] * 40), 40)
    assert c.values[:4] == (Fr(-1, 2), 0, Fr(1, 8), Fr(1, 8))
    with pytest.raises(ZeroDivisionError, match="a_4 = 0"):
        radius_estimate(c)


def test_ratio_sequence_needs_two_values():
    with pytest.raises(InsufficientData):
        ratio_sequence(ce_coefficients(WeightModel.gaussian(), 1))


def test_gaussian_growth_is_factorial_times_2n():
    # |a_2n| / (n! 2^n) drifts slowly once the asymptotic regime sets in
    c = ce_coefficients(WeightModel.gaussian(), 41)
    growth = [
        float(abs(Fr(a)) / (math.factorial(n) * 2**n))
        for n, a in enumerate(c.values, start=1)
    ]
    logs = [math.log(g) for g in growth[9:41]]
    steps = [abs(b - a) for a, b in zip(logs, logs[1:])]
    assert max(steps) < 0.2


def test_bounded_ratios_bounded_and_monotone():
    c = ce_coefficients(WeightModel.bounded_uniform(), 41)
    r = ratio_sequence(c)
    assert max(r) < 1.2
    assert all(b >= a - 1e-12 for a, b in zip(r, r[1:]))


def test_radius_gaussian_flags_divergence():
    est = radius_estimate(ce_coefficients(WeightModel.gaussian(), 30))
    assert est.divergent
    assert est.radius < 1e-2


def test_radius_bounded_uniform_is_positive():
    est = radius_estimate(ce_coefficients(WeightModel.bounded_uniform(), 30))
    assert not est.divergent
    # the k^2 series converges out to pi^2
    assert est.radius == pytest.approx(math.pi**2, rel=0.05)


def test_radius_geometric_input():
    vals = tuple(Fr(-1, 2) ** n for n in range(1, 13))
    est = radius_estimate(CECoefficients(vals))
    assert est.radius == pytest.approx(2.0, rel=0.05)


def test_ce_loads_without_numpy(monkeypatch):
    # None in sys.modules makes `import numpy` raise ImportError
    monkeypatch.setitem(sys.modules, "numpy", None)
    spec = importlib.util.spec_from_file_location("ce_without_numpy", attractor_kit.ce.__file__)
    ce = importlib.util.module_from_spec(spec)
    # run without being registered in sys.modules: no class of ce looks its
    # module up there
    spec.loader.exec_module(ce)
    est = ce.radius_estimate(ce.ce_coefficients(ce.WeightModel.bounded_uniform(), 30))
    ref = radius_estimate(ce_coefficients(WeightModel.bounded_uniform(), 30))
    assert est.radius == ref.radius


def test_radius_needs_eight_coefficients():
    with pytest.raises(InsufficientData):
        radius_estimate(ce_coefficients(WeightModel.gaussian(), 7))


def test_custom_weight_matches_uniform_moments():
    w = WeightModel.bounded_custom([Fr(1, 3), Fr(1, 5), Fr(1, 7)])
    c = ce_coefficients(w, 3)
    ref = ce_coefficients(WeightModel.bounded_uniform(), 3)
    assert c.values == ref.values


def test_custom_weight_rejects_increasing_moments():
    with pytest.raises(InvalidWeight):
        WeightModel.bounded_custom([Fr(1, 3), Fr(1, 2)])


def test_custom_weight_rejects_out_of_range():
    with pytest.raises(InvalidWeight):
        WeightModel.bounded_custom([Fr(3, 2)])
    with pytest.raises(InvalidWeight):
        WeightModel.bounded_custom([Fr(1, 3), Fr(0)])


@pytest.mark.parametrize("build", [WeightModel.bounded_custom,
                                   lambda mus: WeightModel(WeightKind.BOUNDED_CUSTOM, tuple(mus))],
                         ids=["bounded_custom", "constructor"])
def test_custom_weight_rejects_moments_no_weight_has(build):
    # each mu lies in (0, 1] and the list does not rise, but mu_4 = mu_2
    # puts every v^2 at 0 or 1, so mu_6 would be 1/2: beta_3 = -2/3.  A zero
    # level ends the fraction only where the later moments agree with it
    for moments, level in (([Fr(1, 2), Fr(1, 2), Fr(1, 3)], "beta_3 = -2/3"),
                           ([Fr(1, 2)] * 3 + [Fr(1, 3)], "beta_3 = 0")):
        with pytest.raises(InvalidWeight, match=level):
            build(moments)


# a symmetric weight on the nodes 0 (when drawn) and +-x for each drawn x
# > 0, with positive masses: the node values, and the masses before they
# are normalised to total 1
_nodes = st.lists(st.one_of(st.just(Fr(1)), st.fractions(Fr(1, 8), Fr(3, 2), max_denominator=8)),
                  max_size=4, unique=True)
_mass = st.fractions(Fr(1, 10), Fr(1), max_denominator=10)


@settings(deadline=None, max_examples=200)
@given(_nodes, st.booleans(), st.data(), st.integers(0, 2))
def test_custom_weight_accepted_exactly_on_unit_support(xs, at_zero, data, extra):
    at_zero = at_zero or not xs  # no node at all is delta(v)
    masses = data.draw(st.lists(_mass, min_size=len(xs) + at_zero, max_size=len(xs) + at_zero))
    total = sum(masses)
    points = 2 * len(xs) + at_zero
    moments = [sum(w * x ** (2 * m) for w, x in zip(masses, xs)) / total
               for m in range(1, points + extra + 1)]
    if max(xs, default=0) <= 1:
        assert len(WeightModel.bounded_custom(moments).levels) == points - 1
    else:
        with pytest.raises(InvalidWeight, match=r"pi_\d+\(1\) = -"):
            WeightModel.bounded_custom(moments)


def test_moments_past_unit_speed_refused_as_both_oracles_say():
    # each mu lies in (0, 1] and none rises, yet the 4-point Gauss rule of
    # the levels has nodes at +-1.2441, and the (1 - v^2)-weighted Hankel
    # matrix [[1/2, 1/5], [1/5, 1/20]] has determinant -3/200 < 0
    moments = [Fr(1, 2), Fr(3, 10), Fr(1, 4)]
    off = np.sqrt([float(b) for b in _jacobi_levels(moments)])
    nodes = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    assert nodes[-1] == pytest.approx(1.2441, abs=1e-4)
    mu = [Fr(1), *moments]
    a, b, c = (mu[i] - mu[i + 1] for i in range(3))
    assert a * c - b * b == Fr(-3, 200)
    with pytest.raises(InvalidWeight, match=r"pi_4\(1\) = -3/10: no weight on \[-1, 1\]"):
        WeightModel.bounded_custom(moments)


def test_unit_and_zero_speed_weights_are_accepted():
    # all mass at +-1, whose pi_2(1) is 0, and all at v = 0, delta(v), whose
    # every moment and every coefficient is 0
    assert WeightModel.bounded_custom([1] * 200).levels == (Fr(1),)
    delta = WeightModel.bounded_custom([0] * 5)
    assert delta.levels == ()
    assert ce_coefficients(delta, 5).values == (0,) * 5


def test_custom_weight_keeps_its_levels():
    # the levels follow from the moments: equal moments give equal weights
    # and hashes
    w = WeightModel.bounded_custom([Fr(1, 2)] * 20)
    assert w.levels == (Fr(1, 2), Fr(1, 2))
    assert WeightModel.gaussian().levels == WeightModel.bounded_uniform().levels == ()
    twin = WeightModel(WeightKind.BOUNDED_CUSTOM, tuple([Fr(1, 2)] * 20))
    assert twin == w and hash(twin) == hash(w) and twin.levels == w.levels


def test_custom_weight_reports_missing_moments():
    w = WeightModel.bounded_custom([Fr(1, 3)])
    with pytest.raises(InsufficientData):
        ce_coefficients(w, 2)


def test_weight_is_its_moments():
    third, fifth = (WeightModel.bounded_custom([Fr(1, m)]) for m in (3, 5))
    assert third != fifth
    assert hash(third) != hash(fifth)
    assert third == WeightModel.bounded_custom([Fr(1, 3)])
    assert WeightModel.gaussian() == WeightModel.gaussian()
    assert WeightModel.gaussian() != WeightModel.bounded_uniform()
    for w in (WeightModel.gaussian(), WeightModel.bounded_uniform(), third):
        assert "function" not in repr(w)


def test_records_keep_their_public_behaviour():
    # the repr names every field but the levels; assigning to a field of a
    # weight or of a radius estimate raises
    w = WeightModel.bounded_custom([Fr(1, 4), Fr(1, 16)])
    assert repr(w) == ("WeightModel(kind=<WeightKind.BOUNDED_CUSTOM: 'bounded-custom'>, "
                       "moments=(Fraction(1, 4), Fraction(1, 16)))")
    assert repr(WeightModel.gaussian()) == (
        "WeightModel(kind=<WeightKind.GAUSSIAN: 'gaussian'>, moments=())")
    est = RadiusEstimate(0.0, True)
    assert repr(est) == "RadiusEstimate(radius=0.0, divergent=True)"
    for record, name in ((w, "kind"), (w, "moments"), (w, "levels"), (est, "radius"),
                         (est, "divergent")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    c = CECoefficients((Fr(-1), Fr(2)))
    assert repr(c) == "CECoefficients(values=(Fraction(-1, 1), Fraction(2, 1)))"
    assert len(c) == 2 and c[1] == Fr(2) and c[-1] == 2 and c[:1] == (Fr(-1),)
    assert c.values == (Fr(-1), Fr(2))
    assert c == CECoefficients((Fr(-1), Fr(2))) != CECoefficients((Fr(-1),))
    # a copy and a pickle rebuild the record, a weight's levels included
    for record in (w, c):
        assert copy.copy(record) == record
        assert pickle.loads(pickle.dumps(record)) == record
    assert pickle.loads(pickle.dumps(w)).levels == w.levels


def test_cached_coefficients_tell_custom_weights_apart():
    cached = functools.lru_cache(ce_coefficients)
    assert cached(WeightModel.bounded_custom([Fr(1, 3)]), 1).values == (Fr(-1, 3),)
    assert cached(WeightModel.bounded_custom([Fr(1, 5)]), 1).values == (Fr(-1, 5),)


def test_invalid_weight_is_a_value_error():
    assert issubclass(InvalidWeight, ValueError)
