import math
from fractions import Fraction as Fr

import mpmath
import numpy as np
import pytest

from attractor_kit import spectral
from attractor_kit.cli import N_LIST_MAX
from attractor_kit.dispersion import K_GRID_MAX, solve_exact_gaussian
from attractor_kit.spectral import (
    NoBranchPoint,
    NoFoldFound,
    _correct,
    _eval_state,
    _normalized_residual,
    _refine_fold,
    find_fold,
    trace_branch,
)


def exact_P(n, w, q):
    """Exact-rational evaluation of the recurrence."""
    w, q = Fr(w), Fr(q)
    p0, p1 = Fr(1), w * (w + 1) + q
    if n == 0:
        return p0
    for j in range(2, n + 1):
        p0, p1 = p1, ((w + 1) ** 2 + (4 * j - 3) * q) * p1 - q**2 * (
            2 * j - 2
        ) * (2 * j - 3) * p0
    return p1


def assert_common_factor(state, exact, rel):
    """One factor c > 0 maps every slot of the scaled state onto the exact
    Fraction in the same slot, to ``rel``; c is read off the state's
    largest slot, and returned."""
    i = max(range(len(state)), key=lambda j: abs(state[j]))
    c = Fr(exact[i]) / Fr(state[i])
    assert c > 0
    for got, want in zip(state, exact):
        assert abs(Fr(got) * c - want) <= Fr(rel) * abs(want)
    return c


def mp_state(n, w, q):
    """(P, P_w, P_q, P_ww, P_wq) of P_n at (w, q) in mpmath, unscaled: the
    recurrence with its product-rule derivatives, at the working precision."""
    w, q = mpmath.mpf(w), mpmath.mpf(q)
    prev = (mpmath.mpf(1), 0, 0, 0, 0)
    cur = (w * (w + 1) + q, 2 * w + 1, mpmath.mpf(1), mpmath.mpf(2), 0)
    if n == 0:
        return prev
    for j in range(2, n + 1):
        P, Pw, Pq, Pww, Pwq = cur
        Q, Qw, Qq, Qww, Qwq = prev
        A, Aw, Aq = (w + 1) ** 2 + (4 * j - 3) * q, 2 * (w + 1), 4 * j - 3
        B, Bq = q**2 * (2 * j - 2) * (2 * j - 3), 2 * q * (2 * j - 2) * (2 * j - 3)
        prev, cur = cur, (
            A * P - B * Q,
            Aw * P + A * Pw - B * Qw,
            Aq * P + A * Pq - Bq * Q - B * Qq,
            2 * P + 2 * Aw * Pw + A * Pww - B * Qww,
            Aq * Pw + Aw * Pq + A * Pwq - Bq * Qw - B * Qwq,
        )
    return cur


# --- _eval_state ---------------------------------------------------------------

def test_eval_P0_is_one():
    for w, q in [(0.3, 0.1), (-0.9, 1.4), (2.0, 0.0)]:
        assert _eval_state(0, w, q)[0] == 1.0


def test_eval_P1_vanishes_at_origin():
    assert _eval_state(1, 0.0, 0.0)[0] == 0.0


def test_eval_P2_hand_value():
    # [(1)^2 + 5*0.01]*0.01 - (0.0001)(2)(1)(1) = 0.0103; |P_2| and |P_1|
    # stay below 1, so the state is not scaled
    assert _eval_state(2, 0.0, 0.01)[0] == pytest.approx(0.0103, rel=1e-12)


def test_eval_matches_exact_rational_oracle_on_grid():
    # sign, and one positive factor onto the exact (P, P_w, P_q) for n <= 10
    for n in (3, 7, 10):
        P = _integer_polynomial(n)
        polys = (P, _differentiate(P, 0), _differentiate(P, 1))
        for i in range(8):
            for j in range(8):
                w = -0.95 + 0.125 * i
                q = 0.02 + 0.15 * j
                exact = [_evaluate(p, Fr(w), Fr(q)) for p in polys]
                state = _eval_state(n, w, q)
                assert math.copysign(1, state[0]) == math.copysign(1, exact[0])
                assert_common_factor(state, exact, 1e-10)


def test_eval_P_no_overflow_at_large_order():
    # at the largest order and wavenumber the CLI accepts, P_n is far past
    # the float range (log|P_n| ~ 2400); the normalized value stays O(1) and
    # agrees in sign and P_w/P with the unscaled recurrence in mpmath
    for w in (-0.99, -0.5, 0.0):
        value, derivative = _eval_state(N_LIST_MAX, w, K_GRID_MAX**2)[:2]
        assert math.isfinite(value) and math.isfinite(derivative)
        assert 0 < abs(value) <= 1
        with mpmath.workdps(30):
            P, Pw = mp_state(N_LIST_MAX, w, mpmath.mpf(K_GRID_MAX) ** 2)[:2]
            assert abs(P) > mpmath.mpf(10) ** 1000
            assert mpmath.sign(P) == math.copysign(1, value)
            assert derivative / value == pytest.approx(float(Pw / P), rel=1e-10)


def test_eval_P_no_underflow_where_the_state_decays():
    # at w = -1 each step multiplies P_j by about (4j - 3) q < 1, so without
    # rescaling upwards P_400 underflows to an exact zero: a false root
    for w in (-1.0, -0.999):
        value, derivative = _eval_state(400, w, 1e-4)[:2]
        assert value != 0 and math.isfinite(derivative)
        assert 0 < abs(value) <= 1
        with mpmath.workdps(30):
            P, Pw = mp_state(400, w, 1e-4)[:2]
            assert abs(P) < mpmath.mpf(10) ** -400
            assert mpmath.sign(P) == math.copysign(1, value)
            assert derivative / value == pytest.approx(float(Pw / P), rel=1e-10)


def test_eval_P_derivative_matches_difference_quotient():
    # the factor that maps the scaled P onto the exact one maps P_w onto the
    # exact polynomial's difference quotient
    n, w, q, h = 12, -0.4, 0.3, 1e-6
    value, derivative = _eval_state(n, w, q)[:2]
    c = exact_P(n, w, q) / Fr(value)
    assert c > 0
    dnum = (exact_P(n, w + h, q) - exact_P(n, w - h, q)) / Fr(2 * h)
    assert float(Fr(derivative) * c) == pytest.approx(float(dnum), rel=1e-6)


def _integer_polynomial(n):
    """P_n as {(i, m): c}, the integer coefficient of w^i q^m, built from the
    value recurrence on polynomials (no derivative slots)."""
    p0, p1 = {(0, 0): 1}, {(2, 0): 1, (1, 0): 1, (0, 1): 1}
    if n == 0:
        return p0
    for j in range(2, n + 1):
        nxt = {}
        # [(w+1)^2 + (4j-3) q] P_{j-1}
        factor = (((2, 0), 1), ((1, 0), 2), ((0, 0), 1), ((0, 1), 4 * j - 3))
        for (i, m), c in p1.items():
            for (di, dm), f in factor:
                nxt[i + di, m + dm] = nxt.get((i + di, m + dm), 0) + f * c
        # - (2j-2)(2j-3) q^2 P_{j-2}
        for (i, m), c in p0.items():
            nxt[i, m + 2] = nxt.get((i, m + 2), 0) - (2 * j - 2) * (2 * j - 3) * c
        p0, p1 = p1, nxt
    return p1


def _differentiate(poly, var):
    """Symbolic partial derivative in w (var 0) or q (var 1)."""
    out = {}
    for (i, m), c in poly.items():
        e = (i, m)[var]
        if e:
            key = (i - 1, m) if var == 0 else (i, m - 1)
            out[key] = out.get(key, 0) + e * c
    return out


def _evaluate(poly, w, q):
    """poly(w, q) exactly, for Fractions w and q."""
    return sum(c * w**i * q**m for (i, m), c in poly.items())


def _evaluate_at_eighths(poly, a, b):
    """poly(a/8, b/8) exactly, through one integer numerator."""
    I = max((i for i, _ in poly), default=0)
    M = max((m for _, m in poly), default=0)
    num = sum(c * a**i * 8 ** (I - i) * b**m * 8 ** (M - m) for (i, m), c in poly.items())
    return Fr(num, 8 ** (I + M))


@pytest.mark.parametrize("n", [1, 2, 5, 50, 100])
def test_eval_state_matches_exact_polynomial_derivatives(n):
    # independent oracle: the exact bivariate polynomial, differentiated
    # symbolically; one positive factor maps both the 3-slot and the 5-slot
    # state onto it.  At n = 100, q = 10/8 the state is rescaled by 2^-200
    # two or three times.
    P = _integer_polynomial(n)
    Pw = _differentiate(P, 0)
    polys = (P, Pw, _differentiate(P, 1), _differentiate(Pw, 0), _differentiate(Pw, 1))
    for a in (-10, -6, -2, 4):  # w = a/8
        for b in (1, 6, 10):  # q = b/8
            exact = [_evaluate_at_eighths(p, a, b) for p in polys]
            st5 = _eval_state(n, a / 8, b / 8, second=True)
            st3 = _eval_state(n, a / 8, b / 8)
            assert len(st5) == 5 and len(st3) == 3
            assert st3 == st5[:3]
            c = assert_common_factor(st5, exact, 1e-12)
            if n == 100 and b == 10:
                # max(|P_n|, |P_{n-1}|, 1) stays below 2^201 after the last
                # rescaling, so at least two rescalings fired
                assert c > 2**600


def test_eval_state_numpy_scalars_give_plain_floats():
    for n, w, q in [(0, -0.3, 0.2), (1, -0.3, 0.2), (7, -0.45, 0.61), (120, -0.8, 1.1)]:
        for second in (False, True):
            ref = _eval_state(n, w, q, second=second)
            got = _eval_state(n, np.float64(w), np.float64(q), second=second)
            assert got == ref
            assert all(type(v) is float for v in got)


# --- branch tracing -----------------------------------------------------------

@pytest.fixture(scope="module")
def branch_1():
    return trace_branch(1)


@pytest.fixture(scope="module")
def branch_50():
    return trace_branch(50)


def test_branch_starts_at_origin(branch_1):
    first = branch_1.samples[0]
    assert (first.k, first.omega) == (0.0, 0.0)


def test_branch_n1_closed_form(branch_1):
    # P_1 = 0: w = (-1 + sqrt(1 - 4 k^2)) / 2
    assert branch_1.omega_at(0.3) == pytest.approx(-0.1, abs=1e-12)
    for k in (0.05, 0.2, 0.45):
        expected = (-1 + math.sqrt(1 - 4 * k * k)) / 2
        assert branch_1.omega_at(k) == pytest.approx(expected, abs=1e-10)


def test_branch_n1_small_k_diffusion_slope(branch_1):
    k = 0.02
    assert branch_1.omega_at(k) == pytest.approx(-k * k, abs=1e-6)


def test_branch_samples_satisfy_residual(branch_50):
    for s in branch_50.samples:
        st = _eval_state(50, s.omega, s.k**2)
        assert _normalized_residual(st[0], st[1], st[2] * 2 * s.k) < 1e-10


def test_branch_excludes_kinetic_root(branch_50):
    assert all(s.omega > -1.0 for s in branch_50.samples)


def test_branch_n50_tracks_exact_dispersion(branch_50):
    for k in [0.1 * i for i in range(1, 9)]:
        exact = solve_exact_gaussian(k).omega
        assert abs(branch_50.omega_at(k) - exact) < 2e-3


def test_branch_no_point_past_fold(branch_1):
    with pytest.raises(NoBranchPoint):
        branch_1.omega_at(0.7)


def test_branch_reaches_fold_past_last_sample(branch_1):
    # the last continuation sample lies at k = 0.4998 < k_c = 1/2;
    # the branch itself reaches the fold
    last = branch_1.samples[-1].k
    for k in (0.4999, 0.499999):
        assert k > last
        expected = (-1 + math.sqrt(1 - 4 * k * k)) / 2
        assert branch_1.omega_at(k) == pytest.approx(expected, abs=1e-10)
    # at k_c the root is the double root -1/2, shared with the kinetic partner
    for k in (branch_1.fold.k_c, branch_1.fold.k_c + 1e-9):
        with pytest.raises(NoBranchPoint):
            branch_1.omega_at(k)


def test_branch_n2_between_last_sample_and_fold():
    curve = trace_branch(2)
    last, k_c = curve.samples[-1].k, curve.fold.k_c
    # inside the gap (about 5e-4 wide) wherever the trace ends its samples
    for k in (last + 0.1 * (k_c - last), last + 0.7 * (k_c - last)):
        assert last < k < k_c
        w = curve.omega_at(k)
        q = k * k
        quartic = [1, 3, 3 + 6 * q, 1 + 7 * q, q * (1 + 3 * q)]
        # a root of the explicit P_2 (Newton distance), and the physical one:
        # the largest real root, above the partner it merges with at the fold
        newton_dist = np.polyval(quartic, w) / np.polyval(np.polyder(quartic), w)
        assert abs(newton_dist) < 1e-12
        real = [r.real for r in np.roots(quartic) if abs(r.imag) < 1e-9]
        assert w == pytest.approx(max(real), abs=1e-9)
    with pytest.raises(NoBranchPoint):
        curve.omega_at(curve.fold.k_c + 1e-9)


def test_branch_n50_between_last_sample_and_fold(branch_50):
    last = branch_50.samples[-1].k
    assert last < 1.03 < branch_50.fold.k_c
    w = branch_50.omega_at(1.03)
    assert branch_50.fold.omega_c < w < -0.5
    st = _eval_state(50, w, 1.03**2)
    assert _normalized_residual(st[0], st[1]) < 1e-12


def _record_eval_state(monkeypatch):
    calls = []
    real = spectral._eval_state

    def recorder(n, w, q, **kwargs):
        calls.append((float(w), float(q)))
        return real(n, w, q, **kwargs)

    monkeypatch.setattr(spectral, "_eval_state", recorder)
    return calls


def test_omega_at_one_recurrence_per_newton_iterate(branch_50, monkeypatch):
    # past the last sample, Newton reads P and P_w at each iterate from one
    # evaluation of the recurrence.  Seeded at the bracket's midpoint with a
    # 1e-15 stop it took 12 evaluations here; seeded on the square-root law
    # of the fold and stopped at the rounding floor it takes 7, two of them
    # the bracket's ends
    assert branch_50.samples[-1].k < 1.03
    calls = _record_eval_state(monkeypatch)
    branch_50.omega_at(1.03)
    assert 3 <= len(calls) <= 8
    assert all(a != b for a, b in zip(calls, calls[1:]))


def test_omega_at_seeds_on_the_hermite_cubic(branch_50, monkeypatch):
    # Newton polish starts on the cubic through the two samples that
    # bracket k with their slopes; at a sample's own k, at that sample
    samples = branch_50.samples
    mids = [0.5 * (a.k + b.k) for a, b in zip(samples, samples[1:])]
    mids += [0.5 * samples[-1].k * (1 + i / 97) for i in range(97)]
    calls = _record_eval_state(monkeypatch)
    for s in samples[1:]:
        calls.clear()
        branch_50.omega_at(s.k)
        assert calls[0] == (s.omega, s.k * s.k)
    for k in mids:
        calls.clear()
        branch_50.omega_at(k)
        b = next(s for s in samples if s.k >= k)
        a = samples[samples.index(b) - 1]
        # the Hermite basis on [a.k, b.k], in the local coordinate x
        dk, x = b.k - a.k, (k - a.k) / (b.k - a.k)
        cubic = (
            (2 * x**3 - 3 * x**2 + 1) * a.omega
            + (x**3 - 2 * x**2 + x) * dk * a.slope
            + (-2 * x**3 + 3 * x**2) * b.omega
            + (x**3 - x**2) * dk * b.slope
        )
        assert calls[0][1] == k * k
        assert calls[0][0] == pytest.approx(cubic, rel=0, abs=1e-15)


def test_branch_sample_slopes_match_closed_forms(branch_1):
    # n = 1: w = (-1 + sqrt(1 - 4k^2)) / 2, so dw/dk = -2k / sqrt(1 - 4k^2)
    assert branch_1.samples[0].slope == 0
    for s in branch_1.samples[1:]:
        expected = -2 * s.k / math.sqrt(1 - 4 * s.k**2)
        assert s.slope == pytest.approx(expected, rel=1e-8)
    # n = 2: the implicit derivative of the explicit quartic of
    # test_fold_n2_closed_form, dw/dk = -2k P_q / P_w
    for s in trace_branch(2).samples[1:]:
        w, q = s.omega, s.k**2
        P_w = 4 * w**3 + 9 * w**2 + 2 * (3 + 6 * q) * w + 1 + 7 * q
        P_q = 6 * w**2 + 7 * w + 1 + 6 * q
        assert s.slope == pytest.approx(-2 * s.k * P_q / P_w, rel=1e-8)


def test_omega_at_recurrence_budget_on_readme_grid(branch_50, monkeypatch):
    # the README grid's k = 0.01..1.03 below k_c(50) = 1.0307: a polish
    # seeded on the chord between samples took 409 recurrences, one seeded
    # on the Hermite cubic takes 260
    ks = [i / 100 for i in range(1, 121) if i / 100 < branch_50.fold.k_c]
    assert len(ks) == 103
    calls = _record_eval_state(monkeypatch)
    for k in ks:
        branch_50.omega_at(k)
    assert len(calls) <= 280


def test_omega_at_n400_below_fold_matches_eigenvalues():
    # at n = 400 rounding keeps the polish's update above 1e-14, so a stop
    # at 1e-14 alone ran out of iterations here and reported no branch
    # point below k_c = 1.1528.  Independent oracle: the branch value is an
    # eigenvalue of -(D + ik J_2n), D = diag(0, 1, ..., 1); the similarity
    # diag(i^j) makes that matrix real, with ik J_2n -> k (L - L^T), L the
    # lower off-diagonal sqrt(j), which eigvals handles four times faster.
    n, k = 400, 1.104
    curve = trace_branch(n)
    assert k < curve.fold.k_c
    w = curve.omega_at(k)
    off = k * np.sqrt(np.arange(1, 2 * n))
    D = np.diag([0.0] + [1.0] * (2 * n - 1))
    ev = np.linalg.eigvals(-(D + np.diag(off, -1) - np.diag(off, 1)))
    # the branch root is the largest real eigenvalue, above its partner
    real = sorted(e.real for e in ev if abs(e.imag) < 1e-9)
    assert w == pytest.approx(real[-1], abs=1e-11)
    assert real[-2] < curve.fold.omega_c < w


def test_trace_input_validation():
    with pytest.raises(ValueError):
        trace_branch(0)


def test_branch_convergence_to_attractor():
    # max deviation over k <= 0.4 decreases with truncation order
    ks = [0.05 * i for i in range(1, 9)]
    exact = {k: solve_exact_gaussian(k).omega for k in ks}
    devs = []
    for n in (2, 5, 10, 20, 50):
        curve = trace_branch(n)
        devs.append(max(abs(curve.omega_at(k) - exact[k]) for k in ks))
    assert all(b < a for a, b in zip(devs, devs[1:]))


# --- folds ---------------------------------------------------------------------

def test_fold_n1_exact():
    fp = find_fold(1)
    assert fp.k_c == pytest.approx(0.5, abs=1e-10)
    assert fp.omega_c == pytest.approx(-0.5, abs=1e-10)


def test_fold_n2_closed_form():
    # With q = k^2 the recurrence gives
    #   P_2 = ((w+1)^2 + 5q)(w(w+1) + q) - 2q^2
    #       = w^4 + 3w^3 + (3+6q) w^2 + (1+7q) w + q(1+3q),
    # the determinant of diag(w, w+1, w+1, w+1) + ik J_4 (J_4 the 4x4 Hermite
    # Jacobi matrix, off-diagonals 1, sqrt 2, sqrt 3).  Its discriminant in w
    # is 4q^3 (6912q^3 - 864q^2 - 387q - 125); the fold is where two real
    # roots merge, at the single positive root q* of the cubic factor.
    cubic_roots = np.roots([6912, -864, -387, -125])
    q = max(r.real for r in cubic_roots if abs(r.imag) < 1e-12)
    quartic = [1, 3, 3 + 6 * q, 1 + 7 * q, q * (1 + 3 * q)]
    # the double root of P_2 is a simple root of dP_2/dw
    stationary = [
        r.real for r in np.roots(np.polyder(quartic)) if abs(r.imag) < 1e-12
    ]
    w_double = min(stationary, key=lambda w: abs(np.polyval(quartic, w)))
    assert abs(np.polyval(quartic, w_double)) < 1e-12

    fp = find_fold(2)
    assert fp.k_c == pytest.approx(math.sqrt(q), abs=1e-10)
    assert fp.omega_c == pytest.approx(w_double, abs=1e-10)


def test_fold_residuals_small():
    for n in (2, 10, 118, 200):
        fp = find_fold(n)
        assert fp.residual < 1e-10


def test_fold_n20_n50_locations():
    assert find_fold(20).k_c == pytest.approx(0.94, abs=0.02)
    assert find_fold(50).k_c == pytest.approx(1.03, abs=0.02)


def test_fold_monotone_in_truncation_order():
    kcs = [find_fold(n).k_c for n in (1, 2, 5, 10, 20, 50, 118, 200)]
    assert all(b >= a for a, b in zip(kcs, kcs[1:]))


def _hermite_jacobi(m):
    """m x m Jacobi matrix of the Hermite recurrence: off-diagonals sqrt(j)."""
    off = np.sqrt(np.arange(1, m))
    return np.diag(off, 1) + np.diag(off, -1)


@pytest.mark.parametrize("n", [118, 200])
def test_fold_is_where_two_real_eigenvalues_merge(n):
    # Independent oracle: P_n(w, k^2) = det(w I + D + ik J_2n), D = diag(0, 1,
    # ..., 1), so the branch values are the eigenvalues of -(D + ik J_2n).
    # Just below k_c two real ones sit near omega_c; just above they have
    # left the real axis.
    fp = find_fold(n)
    D = np.diag([0.0] + [1.0] * (2 * n - 1))
    J = _hermite_jacobi(2 * n)

    def real_near_fold(k):
        ev = np.linalg.eigvals(-(D + 1j * k * J))
        return [e for e in ev if abs(e.imag) < 1e-6 and abs(e.real - fp.omega_c) < 0.05]

    assert len(real_near_fold(fp.k_c * (1 - 1e-4))) == 2
    assert len(real_near_fold(fp.k_c * (1 + 1e-4))) == 0


@pytest.mark.parametrize("n", [10, 50, 100, 200, 400])
def test_folds_match_high_precision_oracle(n):
    # Newton on {P_n = 0, dP_n/dw = 0} in (w, q = k^2) at 60 digits, on the
    # unscaled recurrence, seeded from the float fold
    fp = find_fold(n)
    with mpmath.workdps(60):
        w, q = mpmath.mpf(fp.omega_c), mpmath.mpf(fp.k_c) ** 2
        for _ in range(20):
            P, Pw, Pq, Pww, Pwq = mp_state(n, w, q)
            det = Pw * Pwq - Pq * Pww
            dw, dq = (Pq * Pw - P * Pwq) / det, (P * Pww - Pw * Pw) / det
            w, q = w + dw, q + dq
            if max(abs(dw), abs(dq)) < mpmath.mpf(10) ** -45:
                break
        else:
            pytest.fail(f"oracle Newton did not converge for n={n}")
        k_c, omega_c = float(mpmath.sqrt(q)), float(w)
    assert abs(fp.k_c - k_c) <= 1e-12
    assert abs(fp.omega_c - omega_c) <= 1e-12


def test_singular_newton_systems():
    # n = 1 at the origin: P_k = 2k P_q = 0, so with t = (0, 1) the corrector
    # system [[P_k, P_w], [t_k, t_w]] has det = -t_k = 0, and the fold system
    # [[P_w, P_k], [P_ww, P_wk]] has det = P_w * 0 - 0 * P_ww = 0
    assert _correct(1, (0.0, 0.0), (0.0, 1.0)) is None
    # a step of _STEP_MIN goes straight to the fold Newton; a longer one is
    # bracketed first, through the corrector.  With dk/ds = t_k = 0 at the
    # step's start, regula falsi puts its first point there, at the origin
    with pytest.raises(NoFoldFound, match="singular fold system"):
        _refine_fold(1, (0.0, 0.0), (0.0, 1.0), spectral._STEP_MIN, -1.0)
    with pytest.raises(NoFoldFound, match="corrector failed"):
        _refine_fold(1, (0.0, 0.0), (0.0, 1.0), 0.01, -1.0)


def test_find_fold_recurrence_budget(branch_50, monkeypatch):
    # the recurrence work of one fold, in steps (n per _eval_state call):
    # a cubic predictor through the last two samples, bracket points
    # predicted from the bracket's lo end and a fold Newton that stops at
    # the rounding floor take find_fold(200) to 131 recurrences (26,200
    # steps); a second-order predictor took 148 (29,600), and an Euler
    # predictor from the step's start and a 1e-14 stop alone 278 (55,600)
    calls = _record_eval_state(monkeypatch)
    find_fold(200)
    assert 200 * len(calls) <= 27_000
    # the chord of a continuation step is at least its predictor step h,
    # since the corrector moves orthogonally to the tangent
    chords = [
        math.hypot(b.k - a.k, b.omega - a.omega)
        for a, b in zip(branch_50.samples, branch_50.samples[1:])
    ]
    assert max(chords) >= spectral._STEP_MAX - 1e-12


@pytest.mark.parametrize("n", [180, 250, 400])
def test_fold_newton_stops_at_rounding_floor(n, monkeypatch):
    # from n of about 100 rounding keeps the fold Newton's update near
    # 1e-13, so a stop at 1e-14 alone took 39, 65 and 41 second-order
    # evaluations here; the Newton converges quadratically in 3 or 4
    flags = []
    real = spectral._eval_state

    def recorder(n, w, q, second=False):
        flags.append(second)
        return real(n, w, q, second=second)

    monkeypatch.setattr(spectral, "_eval_state", recorder)
    fp = find_fold(n)
    assert fp.residual <= 1e-10
    assert sum(flags) <= 8


def test_fold_attached_to_trace(branch_50):
    fp = find_fold(50)
    assert branch_50.fold.k_c == pytest.approx(fp.k_c, abs=1e-12)
