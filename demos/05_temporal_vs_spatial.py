"""The paper's contrast: a temporal gradient series that is not Borel
summable next to the spatial one, which is.

The temporal foil is the Mueller-Israel-Stewart attractor of Bjorken flow
(Heller & Spalinski, Phys. Rev. Lett. 115 (2015) 072501), f(w) =
sum_n f_n w^-n.  Its Borel ratios b_{n+1}/b_n tend to +2 C_tau/3 with one
sign, so the Borel singularity sits on the Laplace contour, at
sigma = 3/(2 C_tau).  The Gaussian BGK ratios tend to -2 and alternate: the
singularity sits at sigma = -1/2, off the contour.  The package covers only
the spatial series, so the MIS recurrence is written out here.
"""

from fractions import Fraction

from attractor_kit import (
    WeightModel,
    borel_transform,
    ce_coefficients,
    resum_dispersion,
    summability,
)

C_ETA, C_TAU = Fraction(1), Fraction(1)
N = 30


def mis_coefficients(c_eta, c_tau, n):
    """f_1..f_n from f_0 = 2/3 and
    f_{m+1} = -C_tau sum_{a+b=m} (4 - b) f_a f_b + (16 C_tau/3) f_m,
    plus 4 C_eta/9 - 16 C_tau/9 at m = 0."""
    f = [Fraction(2, 3)]
    for m in range(n):
        step = 16 * c_tau / 3 * f[m] - c_tau * sum(
            (4 - b) * f[m - b] * f[b] for b in range(m + 1))
        f.append(step + (4 * c_eta / 9 - 16 * c_tau / 9 if m == 0 else 0))
    return f[1:]


series = {
    "temporal (MIS)": mis_coefficients(C_ETA, C_TAU, N),
    "spatial (Gaussian BGK)": ce_coefficients(WeightModel.gaussian(), N).values,
}
borel = {name: borel_transform(c) for name, c in series.items()}

print(f"Borel ratios b_(n+1)/b_n; MIS at C_eta = {C_ETA}, C_tau = {C_TAU}:")
print(f"  {'n':>3s}  {'temporal (MIS)':>16s}  {'spatial (Gaussian)':>18s}")
for n in (1, 2, 3, 5, 10, 15, 20, 25, N - 1):
    mis, gauss = (float(b[n] / b[n - 1]) for b in borel.values())
    print(f"  {n:>3d}  {mis:>+16.6f}  {gauss:>+18.6f}")
print(f"  {'lim':>3s}  {float(2 * C_TAU / 3):>+16.6f}  {-2.0:>+18.6f}")

print("\n[14/14] Borel-Pade verdicts:")
for name, c in series.items():
    nearest, verdict = summability(resum_dispersion(c, 14, 14).approximant)
    print(f"  {name:<24s} nearest genuine pole {nearest.real:+.5f}"
          f"{nearest.imag:+.1e}j  summability: {verdict}")
print(f"\nThe MIS pole sits at +3/(2 C_tau) = {float(3 / (2 * C_TAU)):.5f}, on the")
print("Laplace contour [0, inf): the temporal series is not Borel summable.")
print("The Gaussian pole sits at -1/2: the spatial series is strictly summable.")
