"""Bounded-velocity equilibria: the gradient expansion converges.

Replacing the Gaussian with a weight supported on [-1, 1] (a causal,
relativistic-style equilibrium) bounds every velocity moment by 1.  The
same Lagrange-inversion machinery then produces a series with a strictly
positive radius of convergence instead of a divergent one.
"""

import math
from fractions import Fraction

from attractor_kit import (
    WeightModel,
    ce_coefficients,
    radius_estimate,
    ratio_sequence,
    solve_exact_bounded,
)
from attractor_kit.ce import InsufficientData

uniform = WeightModel.bounded_uniform()
coeffs = ce_coefficients(uniform, 41)

print("Uniform weight on [-1, 1], moments mu_2m = 1/(2m+1):")
for n, a in enumerate(coeffs.values[:4], 1):
    print(f"  a_{2*n} = {a}")

ratios = ratio_sequence(coeffs)
print("\nCoefficient ratios stay bounded (divergent case grew like 2n):")
for n in (1, 5, 10, 20, 30, 40):
    print(f"  n = {n:<3d}  r_n = {ratios[n - 1]:.6f}")
print(f"  limit 1/pi^2 = {1 / math.pi**2:.6f}")

est = radius_estimate(coeffs)
print(f"\nEstimated radius of convergence in k^2: {est.radius:.4f} "
      f"(pi^2 = {math.pi**2:.4f}), divergent = {est.divergent}")

# Partial sums at a fixed wavenumber are Cauchy: the series genuinely sums.
k = 0.5
partial = 0.0
print(f"\nPartial sums of omega(k) at k = {k}:")
for n, a in enumerate(coeffs.values[:10], 1):
    partial += float(a) * k ** (2 * n)
    if n in (1, 2, 4, 6, 8, 10):
        print(f"  order {2 * n:>2d}: {partial:.12f}")
exact = solve_exact_bounded(k, uniform).omega
print(f"  exact:    {exact:.12f}  (k cot k - 1)")

# Custom moment sequences work too; here a weight ~ (1 - v^2) on [-1, 1].
moments = [Fraction(3, (2 * m + 1) * (2 * m + 3)) for m in range(1, 61)]
custom = WeightModel.bounded_custom(moments)
s = solve_exact_bounded(k, custom)
print(f"\nCustom weight 3(1 - v^2)/4: omega({k}) = {s.omega:.10f} "
      f"(residual {s.residual:.1e})")

# A custom weight is solved through its own Jacobi fraction, whose levels
# come from the moments, so the root is found wherever it exists, also
# where the moment series in k^2/(1+w)^2 diverges.  The three-point weight
# (delta(v+1) + 2 delta(v) + delta(v-1))/4 has an exact two-level fraction
# and a root at every k.
three_point = WeightModel.bounded_custom([Fraction(1, 2)] * 20)
print("\nThree-point weight, s = 1 + omega solves 2s^3 + 2s k^2 - 2s^2 - k^2 = 0:")
for k in (2.0, 10.0):
    omega = solve_exact_bounded(k, three_point).omega
    s, q = Fraction(1 + omega), Fraction(k) ** 2  # the residual without rounding
    print(f"  k = {k:>4}: omega = {omega:.14f}  (cubic residual "
          f"{float(2 * s**3 + 2 * s * q - 2 * s * s - q):.1e})")

# 60 uniform moments: the roots of 59 and 60 levels bracket k cot k - 1,
# and the root is returned where they agree within 1e-15.
uniform60 = WeightModel.bounded_custom([Fraction(1, 2 * m + 1) for m in range(1, 61)])
k = 1.2
print(f"\n60 uniform moments at k = {k}: omega = "
      f"{solve_exact_bounded(k, uniform60).omega:.15f}, "
      f"k cot k - 1 = {k / math.tan(k) - 1:.15f}")
k = 1.5
try:
    solve_exact_bounded(k, uniform60)
except InsufficientData as refusal:
    print(f"at k = {k} the root is refused: {refusal}")
    print(f"  (k cot k - 1 = {k / math.tan(k) - 1:.15f})")
