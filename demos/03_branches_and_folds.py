"""Spectral branches of the truncated moment hierarchy and their folds.

Truncating the hierarchy at order n gives a polynomial P_n(omega, k^2)
whose root branch through the origin approximates the attractor.  Each
branch ends at a fold where two real roots merge; the fold wavenumber
k_c(n) creeps outward as n grows.
"""

from attractor_kit import BranchCurve, find_fold, solve_exact_gaussian

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
    values = BranchCurve(n).omega_at(ks)
    dev = max(abs(w - exact[k]) for k, w in zip(ks, values))
    print(f"  n = {n:<3d}  {dev:.3e}")

# Below the fold each branch value is the one root of R(omega, k^2) between
# the minimiser of R and 0; at k_c it merges with its partner, and from k_c
# on the branch has no value.
curve = BranchCurve(5)
k_c, omega_c = curve.fold.k_c, curve.fold.omega_c
below, at_fold = curve.omega_at([k_c - 1e-4, k_c])
print(f"\nOrder-5 branch: fold at (k_c, omega_c) = ({k_c:.6f}, {omega_c:.6f}); "
      f"omega(k_c - 1e-4) = {below:.6f}, omega(k_c) = {at_fold}")
