"""Borel-Pade resummation of the divergent gradient expansion.

Dividing a_2n by n! gives a series with a finite radius of convergence.
A Pade approximant continues it past that radius and exposes the singularity
structure; the Laplace integral back along the positive axis then rebuilds
omega(k) to high accuracy where the raw series is useless.
"""

from attractor_kit import (
    WeightModel,
    borel_transform,
    ce_coefficients,
    ce_truncation_eval,
    resum_dispersion,
    solve_exact_gaussian,
    summability,
)

coeffs = ce_coefficients(WeightModel.gaussian(), 30)
b = borel_transform(coeffs)

print("Borel coefficients b_n = a_2n / n! (exact):")
for n, bn in enumerate(b[:6], 1):
    print(f"  b_{n} = {bn}")

omega = resum_dispersion(coeffs, 14, 14)
approx = omega.approximant
nearest, verdict = summability(approx)
print(f"\n[14/14] Pade approximant of the Borel transform: {len(approx.poles)} poles, "
      f"{len(approx.physical_poles)} with non-negligible residue")
print(f"Nearest genuine pole: {nearest.real:+.6f}{nearest.imag:+.2e}j, summability: {verdict}")
print('("strict": every genuine pole has Re < 0, off the Laplace contour [0, inf)).')

print("\nResummed omega(k) against the exact solver and raw truncations:")
print(f"  {'k':>4s}  {'exact':>12s}  {'resummed':>12s}  "
      f"{'CE order 2':>12s}  {'CE order 4':>12s}")
for k in (0.1, 0.3, 0.5, 0.8, 1.0):
    exact = solve_exact_gaussian(k).omega
    print(f"  {k:>4.1f}  {exact:>12.8f}  {omega(k):>12.8f}  "
          f"{ce_truncation_eval(coeffs, 2, k):>12.6f}  "
          f"{ce_truncation_eval(coeffs, 4, k):>12.6f}")

print("\nBy k = 0.8 both low-order truncations have lost the curve while")
print("the resummation still tracks the exact value to ~1e-7.")
