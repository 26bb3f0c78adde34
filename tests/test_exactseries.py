from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attractor_kit.exactseries import lagrange_coefficient


# --- independent oracles -------------------------------------------------

def mul_oracle(a, b):
    """Brute-force double-loop convolution, truncated to the shorter operand."""
    n = min(len(a), len(b)) - 1
    out = [Fr(0)] * (n + 1)
    for k in range(n + 1):
        for i in range(k + 1):
            out[k] += a[i] * b[k - i]
    return out


def recip_oracle(a):
    """Term-by-term long division."""
    n = len(a) - 1
    c = [1 / Fr(a[0])] + [Fr(0)] * n
    for m in range(1, n + 1):
        c[m] = -sum(a[j] * c[m - j] for j in range(1, m + 1)) / a[0]
    return c


def compose_oracle(outer, inner):
    """outer(inner(x)) by Horner evaluation, for inner(0) = 0."""
    n = min(len(outer), len(inner)) - 1
    acc = [Fr(outer[n])] + [Fr(0)] * n
    for m in range(n - 1, -1, -1):
        acc = mul_oracle(acc, inner[: n + 1])
        acc[0] += outer[m]
    return acc


small_fraction = st.fractions(
    min_value=-10, max_value=10, max_denominator=6
)


# --- Lagrange inversion ----------------------------------------------------

def gaussian_source(order):
    mu, coeffs = 1, [Fr(0)]
    for m in range(1, order + 1):
        mu *= 2 * m - 1  # (2m-1)!!
        coeffs.append(Fr((-1) ** m * mu))
    return tuple(coeffs)


def uniform_source(order):
    return (Fr(0),) + tuple(Fr((-1) ** m, 2 * m + 1) for m in range(1, order + 1))


def test_lagrange_gaussian_first():
    assert lagrange_coefficient(gaussian_source(1), 1) == -1


def test_lagrange_gaussian_fourth():
    assert lagrange_coefficient(gaussian_source(4), 4) == 27


def test_lagrange_uniform_second():
    # frozen from the undetermined-coefficients oracle:
    # substituting w = a1 k^2 + a2 k^4 into w = F(k^2 (1+w)^-2) gives
    # a1 = -1/3 and, at order k^4, a2 = 2 a1/3 + 1/5 = -1/45
    assert lagrange_coefficient(uniform_source(2), 2) == Fr(-1, 45)


def test_lagrange_validates_input():
    with pytest.raises(ValueError):
        lagrange_coefficient((1, -1), 1)
    with pytest.raises(ValueError):
        lagrange_coefficient(gaussian_source(2), 3)


def inversion_residual(F, n_max):
    """w(x) from Lagrange coefficients, substituted back into w = F(x(1+w)^-2).

    Returns the coefficient-wise residual series; exact zero means the
    implicit relation is satisfied through the retained order.
    """
    w = [Fr(0)] + [lagrange_coefficient(F, n) for n in range(1, n_max + 1)]
    recip = recip_oracle([Fr(1)] + w[1:])  # 1/(1+w)
    inv2 = mul_oracle(recip, recip)
    # multiply by x: shift up one slot, keep the order
    x_of = [Fr(0)] + inv2[:-1]
    return [a - b for a, b in zip(w, compose_oracle(F[: n_max + 1], x_of))]


@pytest.mark.parametrize("source", [gaussian_source, uniform_source])
def test_inversion_residual_exactly_zero(source):
    res = inversion_residual(source(8), 8)
    assert all(c == 0 for c in res)


@settings(deadline=None, max_examples=25)
@given(st.lists(small_fraction, min_size=5, max_size=7))
def test_inversion_residual_random_sources(tail):
    # F(0) = 0 and F'(0) != 0 so the inversion is well posed
    F = (Fr(0), Fr(-1)) + tuple(tail)
    res = inversion_residual(F, len(F) - 1)
    assert all(c == 0 for c in res)
