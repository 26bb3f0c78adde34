import math
from fractions import Fraction as Fr

import pytest

from attractor_kit.ce import (
    CECoefficients,
    InsufficientData,
    InvalidWeight,
    WeightModel,
    _lagrange_kernel,
    build_source_series,
    ce_coefficients,
    double_factorial,
    radius_estimate,
    ratio_sequence,
)
from attractor_kit.exactseries import lagrange_coefficient

REFERENCE_SEQUENCE = (-1, 1, -4, 27, -248, 2830, -38232)


def test_double_factorial():
    assert [double_factorial(m) for m in range(5)] == [1, 1, 3, 15, 105]


def test_gaussian_source_series():
    s = build_source_series(WeightModel.gaussian(), 3)
    assert s == (0, -1, 3, -15)


def test_uniform_source_series():
    s = build_source_series(WeightModel.bounded_uniform(), 2)
    assert s == (0, Fr(-1, 3), Fr(1, 5))


def test_source_series_single_term():
    for w in (WeightModel.gaussian(), WeightModel.bounded_uniform()):
        s = build_source_series(w, 1)
        assert s == (0, -w.moment(1))


def test_gaussian_coefficients_match_known_sequence():
    c = ce_coefficients(WeightModel.gaussian(), 7)
    assert c.values == tuple(Fr(v) for v in REFERENCE_SEQUENCE)


def test_gaussian_leading_coefficient_is_classical_diffusion():
    assert ce_coefficients(WeightModel.gaussian(), 1).values == (Fr(-1),)


def test_uniform_coefficients():
    c = ce_coefficients(WeightModel.bounded_uniform(), 2)
    assert c.values == (Fr(-1, 3), Fr(-1, 45))


def test_incremental_path_equals_per_order_lagrange():
    # the last weight has non-geometric moments with unrelated denominators,
    # so the common denominator of (1+F)^{-2n} changes and is reduced
    custom = WeightModel.bounded_custom(
        [Fr(1, m + 2) + Fr(1, 7 * (3 * m + 1)) for m in range(1, 10)]
    )
    for w in (WeightModel.gaussian(), WeightModel.bounded_uniform(), custom):
        c = ce_coefficients(w, 9)
        F = build_source_series(w, 9)
        assert c.values == tuple(
            lagrange_coefficient(F, n) for n in range(1, 10)
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
    degenerate = CECoefficients((Fr(1), Fr(0), Fr(3)), WeightModel.gaussian())
    with pytest.raises(ZeroDivisionError):
        ratio_sequence(degenerate)


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
    est = radius_estimate(CECoefficients(vals, WeightModel.gaussian()))
    assert est.radius == pytest.approx(2.0, rel=0.05)


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


def test_custom_weight_reports_missing_moments():
    w = WeightModel.bounded_custom([Fr(1, 3)])
    with pytest.raises(InsufficientData):
        ce_coefficients(w, 2)
