"""Spectral branches of the truncated moment hierarchy and their folds.

Truncating the hierarchy at order n gives a polynomial P_n(omega, k^2)
whose root branch through the origin approximates the attractor.  Each
branch ends at a fold where two real roots merge; the fold wavenumber
k_c(n) creeps outward as n grows.
"""

from attractor_kit import find_fold, solve_exact_gaussian, trace_branch

print("Fold points k_c(n) where the order-n branch turns back:")
print(f"  {'n':>3s}  {'k_c':>10s}  {'omega_c':>10s}")
for n in (1, 2, 5, 10, 20, 50):
    fp = find_fold(n)
    print(f"  {n:>3d}  {fp.k_c:>10.6f}  {fp.omega_c:>10.6f}")
print("\nn = 1 is the closed-form case: P_1 = omega(omega+1) + k^2 has")
print("discriminant zero exactly at k = 1/2.")

# Convergence of the branches toward the exact dispersion relation.
ks = [0.1, 0.2, 0.3, 0.4]
exact = {k: solve_exact_gaussian(k).omega for k in ks}
print("\nMax |omega_branch - omega_exact| on k <= 0.4 by truncation order:")
for n in (2, 5, 10, 20, 50):
    curve = trace_branch(n)
    dev = max(abs(curve.omega_at(k) - exact[k]) for k in ks)
    print(f"  n = {n:<3d}  {dev:.3e}")

# The continuation stops at the first step that turns back; the fold, solved
# for from its last sample without further tracing, lies just past it.
curve = trace_branch(5)
last = curve.samples[-1]
print(f"\nOrder-5 branch: fold at (k_c, omega_c) = "
      f"({curve.fold.k_c:.6f}, {curve.fold.omega_c:.6f}), "
      f"last sample at (k, omega) = ({last.k:.6f}, {last.omega:.6f})")
