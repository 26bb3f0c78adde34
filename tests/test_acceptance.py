"""Acceptance gate: ten numbered criteria, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they happen; without -s they appear in the captured-output section.
Criterion 9 (closed-form resolvent vs adaptive quadrature) is a prerequisite
for criteria 4-7: those fixtures pull it in, so an oracle failure errors the
dependent tests instead of letting them pass against a bad reference.
"""

import math
import time
from fractions import Fraction as Fr
from math import comb, factorial

import numpy as np
import pytest
from scipy.integrate import quad

from attractor_kit.borel import borel_transform, ce_truncation_eval, resum_dispersion
from attractor_kit.ce import (
    WeightModel,
    build_source_series,
    ce_coefficients,
    radius_estimate,
    ratio_sequence,
)
from attractor_kit.cli import main as cli_main
from attractor_kit.dispersion import gaussian_resolvent, solve_exact_gaussian
from attractor_kit.spectral import BranchCurve, find_fold


ACCEPTANCE_REPORT_LINES = []  # echoed by conftest after capture ends


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    line = f"acceptance {num:02d} {name}: {status}{suffix}"
    print(line)
    ACCEPTANCE_REPORT_LINES.append(line)
    return ok


# --- shared expensive state -------------------------------------------------------

@pytest.fixture(scope="module")
def gaussian_50():
    t0 = time.perf_counter()
    coeffs = ce_coefficients(WeightModel.gaussian(), 50)
    return coeffs, time.perf_counter() - t0


@pytest.fixture(scope="module")
def resolvent_check():
    """Criterion 9 computation, shared by its test and by criteria 4-7."""

    def quadrature(A):
        val, _ = quad(
            lambda v: (A / (A + v * v))
            * math.exp(-v * v / 2)
            / math.sqrt(2 * math.pi),
            -np.inf,
            np.inf,
            epsabs=1e-14,
            epsrel=1e-14,
            limit=400,
        )
        return val

    import warnings
    from scipy.integrate import IntegrationWarning

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        dev = max(
            abs(gaussian_resolvent(A) - quadrature(A))
            for A in np.logspace(-4, 4, 100)
        )
    return dev


@pytest.fixture(scope="module")
def oracle_gate(resolvent_check):
    # hard gate: criteria 4-7 may not run against an unvalidated solver
    assert resolvent_check < 1e-12
    return True


@pytest.fixture(scope="module")
def exact_grid(oracle_gate):
    ks = [round(0.01 * i, 10) for i in range(101)]
    omega = {k: (0.0 if k == 0 else solve_exact_gaussian(k).omega) for k in ks}
    return ks, omega


@pytest.fixture(scope="module")
def resummed(gaussian_50):
    coeffs, _ = gaussian_50
    t0 = time.perf_counter()
    fn = resum_dispersion(coeffs, 14, 14)
    return fn, coeffs, t0


# --- criteria ----------------------------------------------------------------------

def test_criterion_01_exact_coefficient_sequence():
    t0 = time.perf_counter()
    got = ce_coefficients(WeightModel.gaussian(), 7).values
    dt = time.perf_counter() - t0
    expected = tuple(Fr(v) for v in (-1, 1, -4, 27, -248, 2830, -38232))
    ok = got == expected and dt < 1.0
    assert report(1, "exact coefficient sequence", ok, f"runtime {dt:.3f}s")


def test_criterion_02_borel_closed_form():
    t0 = time.perf_counter()
    F = build_source_series(WeightModel.gaussian(), 30)
    b = borel_transform(F[1:])
    target = [Fr((-1) ** m * comb(2 * m, m), 2**m) for m in range(1, 31)]
    dt = time.perf_counter() - t0
    ok = list(b) == target and dt < 1.0
    assert report(2, "Borel transform closed form", ok, f"runtime {dt:.3f}s")


def test_criterion_03_large_order_growth(gaussian_50):
    coeffs, dt = gaussian_50
    ratios = ratio_sequence(coeffs)
    vals = [ratios[n - 1] / (2 * (n + 1)) for n in range(30, 50)]
    ok = all(0.93 <= v <= 1.0 for v in vals) and dt < 30.0
    detail = f"range [{min(vals):.4f}, {max(vals):.4f}], runtime {dt:.1f}s"
    assert report(3, "large-order ratio growth", ok, detail)


def test_criterion_04_resummation_reconstructs_attractor(resummed, exact_grid):
    fn, _, t0 = resummed
    ks, exact = exact_grid
    dev = max(abs(fn(k) - exact[k]) for k in ks if k <= 1.0 + 1e-12)
    dt = time.perf_counter() - t0
    ok = dev < 1e-6 and dt < 10.0
    assert report(4, "resummed dispersion accuracy", ok,
                  f"max dev {dev:.2e}, runtime {dt:.1f}s")


def test_criterion_05_fold_points(oracle_gate, tmp_path):
    t0 = time.perf_counter()
    folds = {n: find_fold(n) for n in (1, 2, 20, 50)}

    out = tmp_path / "folds.csv"
    cli_main(["folds", "--n-list", "1", "--out", str(out)])
    note_row = out.read_text().splitlines()[1]
    note_ok = "k_c = 1/2" in note_row

    n1_ok = abs(folds[1].k_c - 0.5) < 1e-10
    # n = 2: k_c^2 is the positive root of the cubic factor of the
    # discriminant of P_2 in w (derivation in test_spectral.py)
    cubic_roots = np.roots([6912, -864, -387, -125])
    k2 = math.sqrt(max(r.real for r in cubic_roots if abs(r.imag) < 1e-12))
    n2_ok = abs(folds[2].k_c - k2) < 1e-10
    targets = {20: 0.94, 50: 1.03}
    windows = {n: abs(folds[n].k_c - t) <= 0.02 for n, t in targets.items()}
    dt = time.perf_counter() - t0
    detail = ", ".join(
        f"n={n}: k_c={folds[n].k_c:.6f} vs {t}+-0.02 "
        f"{'ok' if windows[n] else 'MISS'}"
        for n, t in targets.items()
    )
    ok = n1_ok and n2_ok and note_ok and all(windows.values()) and dt < 60.0
    assert report(5, "fold point locations", ok,
                  f"n=1 exact {'ok' if n1_ok else 'MISS'}, "
                  f"n=2 closed form {'ok' if n2_ok else 'MISS'} "
                  f"(k_c={folds[2].k_c:.12f} vs {k2:.12f}), {detail}")


def test_criterion_06_branch_convergence(exact_grid):
    ks, exact = exact_grid
    grid = [k for k in ks if 0 < k <= 0.4 + 1e-12]
    devs = []
    for n in (2, 5, 10, 20, 50):
        values = BranchCurve(n).omega_at(grid)
        devs.append(max(abs(w - exact[k]) for k, w in zip(grid, values)))
    ok = all(b < a for a, b in zip(devs, devs[1:]))
    assert report(6, "branch convergence in truncation order", ok,
                  "devs " + ", ".join(f"{d:.2e}" for d in devs))


def test_criterion_07_truncation_divergence(resummed, exact_grid):
    fn, coeffs, _ = resummed
    _, exact = exact_grid
    k = 0.8
    e_res = abs(fn(k) - exact[k])
    e2 = abs(ce_truncation_eval(coeffs, 2, k) - exact[k])
    e4 = abs(ce_truncation_eval(coeffs, 4, k) - exact[k])
    ok = e2 >= 10 * e_res and e4 >= 10 * e_res
    assert report(7, "truncation error exceeds resummed", ok,
                  f"ce2 {e2:.2e}, ce4 {e4:.2e}, resummed {e_res:.2e}")


def test_criterion_08_bounded_weight_convergence():
    coeffs = ce_coefficients(WeightModel.bounded_uniform(), 41)
    ratios = ratio_sequence(coeffs)
    bounded = all(r <= 1.2 for r in ratios[:40])

    est = radius_estimate(coeffs)
    positive = est.radius > 0 and not est.divergent

    # partial sums at k = 0.5: successive differences shrink geometrically
    k = 0.5
    terms = [float(a) * k ** (2 * n) for n, a in enumerate(coeffs.values, 1)]
    sums = list(np.cumsum(terms))
    diffs = [abs(b - a) for a, b in zip(sums, sums[1:])]
    diffs = [d for d in diffs if d > 0]
    geometric = all(b < 0.5 * a for a, b in zip(diffs[2:], diffs[3:]))
    cauchy = diffs[-1] < 1e-12

    ok = bounded and positive and geometric and cauchy
    assert report(8, "bounded-weight series convergence", ok,
                  f"max ratio {max(ratios[:40]):.4f}, radius {est.radius:.4f}, "
                  f"last diff {diffs[-1]:.1e}")


def test_criterion_09_resolvent_oracle(resolvent_check):
    ok = resolvent_check < 1e-12
    assert report(9, "resolvent closed form vs quadrature", ok,
                  f"max dev {resolvent_check:.2e}")


def test_criterion_10_cli_determinism(tmp_path):
    cases = [
        ["ce-coeffs", "--n-max", "12"],
        ["folds", "--n-list", "1,2,5"],
        ["borel", "--n-max", "20", "--format", "json"],
    ]
    ok = True
    for i, argv in enumerate(cases):
        a, b = tmp_path / f"a{i}", tmp_path / f"b{i}"
        assert cli_main(argv + ["--out", str(a)]) == 0
        assert cli_main(argv + ["--out", str(b)]) == 0
        ok = ok and a.read_bytes() == b.read_bytes()
    assert report(10, "deterministic CLI output", ok)
