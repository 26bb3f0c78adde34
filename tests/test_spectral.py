import copy
import math
import pickle
import random
from decimal import Decimal, localcontext
from fractions import Fraction as Fr

import mpmath
import numpy as np
import pytest

from attractor_kit import spectral
from attractor_kit.ce import WeightModel
from attractor_kit.cli import N_LIST_MAX
from attractor_kit.dispersion import K_GRID_MAX, solve_exact_gaussian
from attractor_kit.spectral import (
    BranchCurve,
    FoldPoint,
    NoFoldFound,
    _eval_state,
    _hermite_levels,
    _normalized_residual,
    find_fold,
)


def exact_fraction(n, w, q):
    """R and [K_{2n-1}, ..., K_1] of the depth-2n fraction, over Fractions."""
    w, q = Fr(w), Fr(q)
    s = w + 1
    K = [s]
    for c in range(2 * n - 1, 1, -1):
        K.append(s + c * q / K[-1])
    return w + q / K[-1], K


def mp_state(n, w, q):
    """(P, P_w, P_q, P_ww, P_wq) of P_n at (w, q) in mpmath, unscaled: the
    recurrence with its product-rule derivatives, at the working precision."""
    w, q = mpmath.mpf(w), mpmath.mpf(q)
    prev = (mpmath.mpf(1), 0, 0, 0, 0)
    cur = (w * (w + 1) + q, 2 * w + 1, mpmath.mpf(1), mpmath.mpf(2), 0)
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


def decimal_state(n, w, q):
    """(P, P_w) of P_n at Decimals (w, q), unscaled, at the context's
    precision: the first two slots of `mp_state`.  The standard library's
    decimal runs this recurrence about eight times faster than mpmath, which
    the many-point oracles below need."""
    Q, Qw = Decimal(1), Decimal(0)
    P, Pw = w * (w + 1) + q, 2 * w + 1
    w1sq, w1x2, qq = (w + 1) ** 2, 2 * (w + 1), q * q
    for j in range(2, n + 1):
        A = w1sq + (4 * j - 3) * q
        B = qq * ((2 * j - 2) * (2 * j - 3))
        P, Pw, Q, Qw = A * P - B * Q, w1x2 * P + A * Pw - B * Qw, P, Pw
    return P, Pw


def branch_root(n, w, k):
    """The root of P_n(., k^2) next to w, by Newton at 50 digits on the
    unscaled recurrence, with k^2 exact."""
    with localcontext() as ctx:
        ctx.prec = 50
        w, q = Decimal(w), Decimal(k) ** 2
        for _ in range(10):
            P, Pw = decimal_state(n, w, q)
            w -= P / Pw
            if abs(P / Pw) < Decimal("1e-40"):
                return float(w)
    pytest.fail(f"oracle Newton did not converge for n={n}, k={k}")


# --- _eval_state ---------------------------------------------------------------

def test_eval_P1_vanishes_at_origin():
    assert _eval_state(_hermite_levels(1), 0.0, 0.0)[0] == 0.0


def test_eval_P2_hand_value():
    # at (w, q) = (0, 0.01): K_3 = 1, K_2 = 1.03, K_1 = 1 + 0.02/1.03, and
    # R = 0.01/K_1 = 0.0103/1.05, so that R K_1 K_2 K_3 is the hand value
    # P_2 = [(1)^2 + 5*0.01]*0.01 - (0.0001)(2)(1)(1) = 0.0103
    assert _eval_state(_hermite_levels(2), 0.0, 0.01)[0] == pytest.approx(0.0103 / 1.05, rel=1e-14, abs=0)


def test_eval_matches_exact_rational_oracle_on_grid():
    # R against the fraction summed over Fractions, to the rounding of its
    # last sum w + q/K_1; and P_n, from the forward recurrence as an exact
    # integer polynomial, is R K_1 ... K_{2n-1}, every K_j >= 1 + w > 0, so
    # sign(R) = sign(P_n)
    for n in (3, 7, 10):
        P = _integer_polynomial(n)
        for i in range(8):
            for j in range(8):
                w = -0.95 + 0.125 * i
                q = 0.02 + 0.15 * j
                R, K = exact_fraction(n, w, q)
                assert min(K) > 0
                assert _evaluate(P, Fr(w), Fr(q)) == R * math.prod(K)
                value = _eval_state(_hermite_levels(n), w, q)[0]
                assert abs(Fr(value) - R) <= Fr(1e-15) * (abs(Fr(w)) + abs(R - Fr(w)))
                assert (value > 0) == (R > 0)


def test_eval_P_no_overflow_at_large_order():
    # at the largest order and wavenumber the CLI accepts, P_n is far past
    # the float range (log|P_n| ~ 2400); R = w + q/K_1 stays within
    # 0 < q/K_1 <= q/(1 + w) of w, with the sign of the unscaled recurrence
    # in mpmath
    q = K_GRID_MAX**2
    n = N_LIST_MAX["dispersion"]
    for w in (-0.99, -0.5, 0.0):
        state = _eval_state(_hermite_levels(n), w, q)
        assert all(math.isfinite(v) for v in state)
        assert w < state[0] <= w + q / (1 + w)
        with mpmath.workdps(30):
            P = mp_state(n, w, mpmath.mpf(K_GRID_MAX) ** 2)[0]
            assert abs(P) > mpmath.mpf(10) ** 1000
            assert mpmath.sign(P) == math.copysign(1, state[0])


def test_eval_P_no_underflow_where_the_state_decays():
    # near w = -1 each step of the recurrence multiplies P_j by about
    # (4j - 3) q < 1, so P_400 lies far below the float range; R is no
    # false zero and has P_400's sign
    for w in (-0.999, -1 + 1e-9):
        state = _eval_state(_hermite_levels(400), w, 1e-4)
        assert state[0] != 0 and all(math.isfinite(v) for v in state)
        with mpmath.workdps(30):
            P = mp_state(400, w, 1e-4)[0]
            assert abs(P) < mpmath.mpf(10) ** -400
            assert mpmath.sign(P) == math.copysign(1, state[0])


def test_eval_P_derivative_matches_difference_quotient():
    # R_w and R_q against exact difference quotients of the fraction over
    # Fractions, with a step of 1e-30 that leaves them exact to ~1e-29
    n, w, q, h = 12, -0.4, 0.3, Fr(1, 10**30)
    R, Rw, Rq = _eval_state(_hermite_levels(n), w, q)
    R0 = exact_fraction(n, w, q)[0]
    assert float(Fr(R) - R0) == pytest.approx(0, abs=1e-16)
    assert Rw == pytest.approx(float((exact_fraction(n, Fr(w) + h, q)[0] - R0) / h), rel=1e-14)
    assert Rq == pytest.approx(float((exact_fraction(n, w, Fr(q) + h)[0] - R0) / h), rel=1e-14)


def test_sign_of_R_is_sign_of_P():
    # every K_j >= 1 + w > 0, so R = P_n / (K_1 ... K_{2n-1}) has the sign
    # of P_n; checked against the unscaled recurrence at 50 digits at 400
    # random points n <= 400, w > -1, q in (0, 2]
    rng = random.Random(2006)
    with localcontext() as ctx:
        ctx.prec = 50
        for _ in range(400):
            n, w, q = rng.randint(1, 400), rng.uniform(-1, 0.5), 2 - rng.uniform(0, 2)
            if w == -1:
                continue
            P = decimal_state(n, Decimal(w), Decimal(q))[0]
            assert P != 0
            assert (_eval_state(_hermite_levels(n), w, q)[0] > 0) == (P > 0), (n, w, q)


def _integer_polynomial(n):
    """P_n as {(i, m): c}, the integer coefficient of w^i q^m, built from the
    value recurrence on polynomials (no derivative slots)."""
    p0, p1 = {(0, 0): 1}, {(2, 0): 1, (1, 0): 1, (0, 1): 1}
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


def _tail_polynomials(n):
    """D_1 and D_2 as {(i, m): c}, where D_j = K_j K_{j+1} ... K_{2n-1} is the
    determinant of the rows and columns j..2n-1 of w I + D + ik J_2n:
    D_2n = 1, D_{2n-1} = s and D_j = s D_{j+1} + (j+1) q D_{j+2}, s = w + 1."""
    lower, D = {(0, 0): 1}, {(1, 0): 1, (0, 0): 1}
    for j in range(2 * n - 2, 0, -1):
        nxt = {}
        for (i, m), c in D.items():
            nxt[i + 1, m] = nxt.get((i + 1, m), 0) + c
            nxt[i, m] = nxt.get((i, m), 0) + c
        for (i, m), c in lower.items():
            nxt[i, m + 1] = nxt.get((i, m + 1), 0) + (j + 1) * c
        lower, D = D, nxt
    return D, lower


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
    A = [a**i * 8 ** (I - i) for i in range(I + 1)]
    B = [b**m * 8 ** (M - m) for m in range(M + 1)]
    return Fr(sum(c * A[i] * B[m] for (i, m), c in poly.items()), 8 ** (I + M))


@pytest.mark.parametrize("n", [1, 2, 5, 50, 100])
def test_eval_state_matches_exact_polynomial_derivatives(n):
    # independent oracle: R = P_n / D_1, both exact integer polynomials, P_n
    # from the forward recurrence and D_1 = K_1 ... K_{2n-1} from the
    # bottom-up determinant, with P_n = w D_1 + q D_2 checked term by term;
    # R_w and R_q by the quotient rule on the symbolic partial derivatives
    P = _integer_polynomial(n)
    D1, D2 = _tail_polynomials(n)
    wD1 = {(i + 1, m): c for (i, m), c in D1.items()}
    for (i, m), c in D2.items():
        wD1[i, m + 1] = wD1.get((i, m + 1), 0) + c
    assert {key: c for key, c in wD1.items() if c} == P
    polys = (P, _differentiate(P, 0), _differentiate(P, 1),
             D1, _differentiate(D1, 0), _differentiate(D1, 1))
    # w = -7/8 puts s = 1/8 and q/s^2 up to 80, where 1 + s K_s/K_1 in R_q
    # is smallest
    for a in (-7, -6, -2, 4):  # w = a/8
        for b in (1, 6, 10):  # q = b/8
            p, pw, pq, d, dw, dq = (_evaluate_at_eighths(f, a, b) for f in polys)
            exact = (p / d, (pw * d - p * dw) / d**2, (pq * d - p * dq) / d**2)
            state = _eval_state(_hermite_levels(n), a / 8, b / 8)
            for got, want in zip(state, exact):
                assert abs(Fr(got) - want) <= Fr(1e-13) * max(1, abs(want))


def test_eval_state_numpy_scalars_give_plain_floats():
    for n, w, q in [(1, -0.3, 0.2), (7, -0.45, 0.61), (120, -0.8, 1.1)]:
        ref = _eval_state(_hermite_levels(n), w, q)
        got = _eval_state(_hermite_levels(n), np.float64(w), np.float64(q))
        assert got == ref
        assert all(type(v) is float for v in got)


# --- branch values ------------------------------------------------------------

@pytest.fixture(scope="module")
def branch_1():
    return BranchCurve(1)


@pytest.fixture(scope="module")
def branch_50():
    return BranchCurve(50)


# the README grid, and every 7th point of the CI grid with step 0.001, as the
# CLI spells them
README_GRID = [0.01 * i for i in range(121)]
FINE_GRID = [0.001 * i for i in range(0, 1201, 7)]


def test_branch_starts_at_origin(branch_1):
    # 1e-200 squares to 0 in floats: its value is the k = 0 value
    assert branch_1.omega_at([0.0, 1e-200]) == [0.0, 0.0]


def test_branch_n1_closed_form(branch_1):
    # P_1 = 0: w = (-1 + sqrt(1 - 4 k^2)) / 2
    ks = [0.3, 0.05, 0.2, 0.45]
    values = branch_1.omega_at(ks)
    assert values[0] == pytest.approx(-0.1, abs=1e-12)
    for k, w in zip(ks, values):
        assert w == pytest.approx((-1 + math.sqrt(1 - 4 * k * k)) / 2, abs=1e-10)


def test_branch_n1_small_k_diffusion_slope(branch_1):
    k = 0.02
    assert branch_1.omega_at([k])[0] == pytest.approx(-k * k, abs=1e-6)


def test_branch_samples_satisfy_residual(branch_50):
    # every value of the README grid below the fold is a root of R well
    # within the acceptance tolerance of 1e-10
    k_c = branch_50.fold.k_c
    values = branch_50.omega_at(README_GRID)
    for k, w in zip(README_GRID, values):
        if k < k_c:
            R, Rw, _ = _eval_state(_hermite_levels(50), w, k * k)
            assert _normalized_residual(R, Rw) < 1e-14, (k, w)


@pytest.mark.parametrize("n", [1, 2, 20, 50, 200, 400])
def test_branch_values_match_high_precision_oracle(n):
    # every branch value of the README grid (the fine grid from n = 200 on),
    # to within 2e-15 of the root of the unscaled recurrence at 50 digits.
    # The normalised recurrence's Newton left up to 3.8e-14 at n = 50,
    # k = 1.03 and 2.2e-13 at n = 200, k = 1.12
    grid = FINE_GRID if n >= 200 else README_GRID
    curve = BranchCurve(n)
    errors = {}
    for k, w in zip(grid, curve.omega_at(grid)):
        if math.isnan(w):
            assert k >= curve.fold.k_c
            continue
        errors[k] = abs(w - branch_root(n, w, k))
    assert len(errors) > len(grid) // 3
    worst = max(errors, key=errors.get)
    assert errors[worst] <= 2e-15, (worst, errors[worst])


def rounding_bound(n, w, k):
    """First-order bound on the rounding error of the branch value w at k:
    the running error bound of R, summed in the order of `_eval_state`'s
    operations, and the rounding of q = k*k through R_q, both over the
    conditioning R_w of the root, plus the 1e-15 relative bracket width at
    which `_bracketed_newton` stops.  For w in [-1, -1/2], s = 1 + w is exact,
    and so is the last sum w + q/K_1 near its root (Sterbenz)."""
    u = 2.0**-53
    q = k * k
    s = w + 1.0
    K, rho = s, 0.0  # K_j and a bound on its relative error
    c = 2.0 * n - 1.0
    while c > 1.0:
        t = c * q / K  # rounds c q and the quotient
        K = s + t
        rho = u + t / K * (2 * u + rho)
        c -= 1.0
    _, Rw, Rq = _eval_state(_hermite_levels(n), w, q)
    return (q / K * (u + rho) + abs(Rq) * u * q) / Rw + 1e-15 * abs(w)


def test_branch_values_near_the_fold_within_their_conditioning():
    # the 2e-15 above holds away from the fold: the root's conditioning 1/R_w
    # grows as (k_c - k)^(-1/2) towards it.  At n = 400 the 1e-4 grid's cell
    # k = 1.1528, 6.5e-6 below k_c, has R_w = 0.019 and lies 3.6e-14 from
    # the 50-digit root (P_n and R share their roots, as every K_j > 0)
    n = 400
    curve = BranchCurve(n)
    k_c = curve.fold.k_c
    # the CLI's cells of `--k-step 0.0001` from k = 1.1 on: each root is
    # seeded from the two before it
    grid = [0.0001 * i for i in range(11000, 12001)]
    near = [(k, w) for k, w in zip(grid, curve.omega_at(grid)) if k_c - 1e-5 < k < k_c]
    assert near
    for k, w in near:
        assert abs(w - branch_root(n, w, k)) <= rounding_bound(n, w, k), k


def test_single_point_values_within_rounding_of_grid_values():
    # each root is seeded from the two before it, so a cell's last bits
    # depend on the grid around it: at n = 400, 39 of the 116 cells of the
    # 0.01 grid differ from omega_at([k]).  Away from the fold the two agree
    # within 2.5e-15 relative (worst 2.3e-15, on the 1e-4 grid above
    # k = 1.1); within 0.01 of it, within the rounding bound over R_w that
    # each keeps from the root (worst 7 % of it)
    n = 400
    curve = BranchCurve(n)
    k_c = curve.fold.k_c
    for grid in (README_GRID, [0.0001 * i for i in range(11000, 12001)]):
        for k, w in zip(grid, curve.omega_at(grid)):
            (single,) = curve.omega_at([k])
            if k >= k_c:
                assert math.isnan(w) and math.isnan(single), k
            elif k < k_c - 0.01:
                assert abs(single - w) <= 2.5e-15 * abs(w), k
            else:
                assert abs(single - w) <= rounding_bound(n, w, k), k


@pytest.mark.parametrize("n", [1, 2, 20, 50])
def test_branch_values_independent_of_grid_order(n):
    # each root seeds the next, so the grid's order changes every seed but
    # the first; in rising, falling and shuffled order every value stays
    # within 2e-15 of the 50-digit oracle, and the empty cells are exactly
    # the k >= k_c, k = k_c(1) = 1/2 among them
    curve = BranchCurve(n)
    k_c = curve.fold.k_c
    assert (0.5 in README_GRID) and (n > 1 or k_c == 0.5)
    shuffled = random.Random(n).sample(README_GRID, len(README_GRID))
    for grid in (README_GRID, README_GRID[::-1], shuffled):
        values = curve.omega_at(grid)
        empty = {k for k, w in zip(grid, values) if math.isnan(w)}
        assert empty == {k for k in grid if k >= k_c}
        for k, w in zip(grid, values):
            if not math.isnan(w):
                assert abs(w - branch_root(n, w, k)) <= 2e-15, (k, w)


def _fraction_Rw(n, w, q):
    """R_w of the depth-2n fraction at numpy arrays w and q, by the
    operations of `_eval_state` in its order: element by element the same
    floats."""
    s = w + 1.0
    K, Ks = s, np.ones_like(s)
    c = 2.0 * n - 1.0
    while c > 1.0:
        inv = 1.0 / K
        t = c * q / K
        K, Ks = s + t, 1.0 - t * Ks * inv
        c -= 1.0
    inv = 1.0 / K
    t = q / K
    return 1.0 - t * Ks * inv


def test_R_rises_on_the_branch_bracket():
    # omega_at evaluates neither end of its bracket (u k - 1, 0]: R is
    # k/k_c - 1 < 0 at the minimiser u k - 1 and q/K_1 > 0 at 0, and R_w > 0
    # in between makes the root in it unique.  Checked at 49 k below each
    # fold and 199 w across the bracket, 0 included
    for n in (1, 2, 3, 5, 10, 50, 200, 400, 1000):
        fp = find_fold(n)
        u = (1 + fp.omega_c) / fp.k_c
        k = fp.k_c * np.arange(1, 50)[:, None] / 50
        lo = u * k - 1
        w = lo - lo * np.arange(1, 200) / 199
        q = np.broadcast_to(k * k, w.shape)
        Rw = _fraction_Rw(n, w, q)
        assert (Rw > 0).all(), n
        for i, j in ((0, 0), (24, 100), (48, 0), (48, 198)):
            assert Rw[i, j] == _eval_state(_hermite_levels(n), w[i, j], q[i, j])[1]


@pytest.mark.parametrize("n", [2, 50])
def test_branch_keeps_relative_accuracy_at_small_k(n):
    # w = -k^2 + k^4 + O(k^6) for n >= 2.  R = w + q/K_1 keeps the relative
    # accuracy of w = -1e-12; K_0 - 1 would round it at 1e-16 absolute, 1e-4
    # of w
    k = 1e-6
    assert BranchCurve(n).omega_at([k])[0] == pytest.approx(-k * k + k**4, rel=1e-15, abs=0)
    # Newton's width stop is relative to the iterate: an absolute 1e-15 fired
    # as soon as the iterates straddled a root far below it, 155 % off at
    # k = 9e-16 for n = 2 and 2.9e-5 off at k = 9e-10 for n = 50.  Each grid
    # is one call, so from its third k on the seeds come from the Hermite
    for h in (1e-16, 1e-10):
        ks = [i * h for i in range(11)]
        for k, w in zip(ks, BranchCurve(n).omega_at(ks)):
            exact = solve_exact_gaussian(k).omega
            assert abs(w - exact) <= 1e-15 * abs(exact), (k, w, exact)


def test_branch_convergence_law():
    # paper claims 2 and 3: the order-n branch approaches the exact root as
    # |w_n(k) - w(k)| ~ C(k) exp(-2 sqrt(2) (1 + w(k)) sqrt(n) / k), the
    # truncation error of the Jacobi fraction at depth 2n.  The rate is the
    # formula's, not a fit; the log-ratios between consecutive orders match it
    # within 2 % (0.44 % at most when written)
    for k, orders in ((0.6, (25, 50, 100)), (0.9, (50, 100, 200, 400))):
        exact = solve_exact_gaussian(k).omega
        rate = 2 * math.sqrt(2) * (1 + exact) / k
        errors = [abs(BranchCurve(n).omega_at([k])[0] - exact) for n in orders]
        for n1, n2, e1, e2 in zip(orders, orders[1:], errors, errors[1:]):
            predicted = rate * (math.sqrt(n2) - math.sqrt(n1))
            assert math.log(e1 / e2) == pytest.approx(predicted, rel=0.02), (k, n1, n2)


def test_branch_excludes_kinetic_root(branch_50):
    values = [w for w in branch_50.omega_at(README_GRID) if not math.isnan(w)]
    assert all(w > branch_50.fold.omega_c > -1.0 for w in values)


def test_branch_n50_tracks_exact_dispersion(branch_50):
    ks = [0.1 * i for i in range(1, 9)]
    for k, w in zip(ks, branch_50.omega_at(ks)):
        assert abs(w - solve_exact_gaussian(k).omega) < 2e-3


def _poly_add(a, b):
    return [x + y for x, y in zip(a + [0] * (len(b) - len(a)), b + [0] * (len(a) - len(b)))]


def _poly_mul(a, b):
    out = [Fr(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_der(a):
    return [i * c for i, c in enumerate(a)][1:] or [Fr(0)]


def fold_oracle(levels):
    """(k_c, omega_c) of the fraction of exact ``levels``, from polynomials.

    R + 1 = s G(zeta), zeta = k^2 / s^2, where G = P/Q is the fraction at
    s = 1, built bottom-up from K_d = 1, K_j = 1 + beta_{j+1} zeta / K_{j+1}.
    R = R_s = 0 is G = 1/s and G = 2 zeta G', so zeta is a root of E = PQ -
    2 zeta (P'Q - PQ'), s = Q/P and k^2 = zeta (Q/P)^2: the fold is the
    smallest such k^2 over E's positive real roots, found in mpmath.
    """
    P, Q = [Fr(1)], [Fr(1)]
    for beta in reversed(levels):
        P, Q = _poly_add(P, [Fr(0)] + [beta * c for c in Q]), P
    wronskian = _poly_add(_poly_mul(_poly_der(P), Q), [-c for c in _poly_mul(P, _poly_der(Q))])
    E = _poly_add(_poly_mul(P, Q), [Fr(0)] + [-2 * c for c in wronskian])
    while E[-1] == 0:
        E.pop()
    with mpmath.workdps(50):
        def mp(poly):  # highest degree first, as mpmath takes it
            return [mpmath.mpf(c.numerator) / c.denominator for c in poly[::-1]]

        P, Q, folds = mp(P), mp(Q), []
        for z in mpmath.polyroots(mp(E), maxsteps=500, extraprec=200):
            z = mpmath.mpc(z)
            if abs(z.imag) < 1e-30 and z.real > 0:
                s = mpmath.polyval(Q, z.real) / mpmath.polyval(P, z.real)
                folds.append((z.real * s * s, s - 1))
        q, omega_c = min(folds)
        return float(mpmath.sqrt(q)), float(omega_c)


@pytest.mark.parametrize("n", range(1, 11))
def test_find_fold_matches_polynomial_oracle(n):
    k_c, omega_c = fold_oracle([Fr(j) for j in range(1, 2 * n)])
    fp = find_fold(n)
    assert abs(fp.k_c - k_c) <= 1e-12 and abs(fp.omega_c - omega_c) <= 1e-12
    if n == 1:
        assert (k_c, omega_c) == (0.5, -0.5)


@pytest.mark.parametrize("d", [1, 3, 5, 9])
def test_uniform_truncation_fold_matches_polynomial_oracle(d):
    # the d levels of the uniform weight's first d moments 1/(2m+1); its
    # 1- and 3-level folds have closed forms
    levels = WeightModel.bounded_custom([Fr(1, 2 * m + 1) for m in range(1, d + 1)]).levels
    k_c, omega_c = fold_oracle(levels)
    fp = spectral._fold(tuple(map(float, levels)), 2.0**-28, f"{d} uniform levels")
    assert abs(fp.k_c - k_c) <= 1e-12 and abs(fp.omega_c - omega_c) <= 1e-12
    closed = {1: (math.sqrt(3) / 2, -1 / 2), 3: (5 * math.sqrt(7) / 12, -7 / 12)}
    if d in closed:
        assert (k_c, omega_c) == pytest.approx(closed[d], abs=1e-15)


@pytest.mark.parametrize("k, n", [(1.0, 4), (1.4, 16)])
def test_uniform_truncations_converge_geometrically(k, n):
    """The uniform weight's order-m truncation, its first 2m - 1 levels
    j^2/(4j^2 - 1), is the N = 2m point Gauss-Legendre rule, and its root
    reaches k cot k - 1 geometrically, like rho^(-4m), where the Gaussian's
    error falls like exp(-c sqrt(m)).

    At the root s = 1 + omega = k cot k, <1/(s + ikv)> = arctan(k/s)/k = 1
    and R_w = 1/(s^2 + k^2).  The rule's error for the pole at v = iy,
    y = s/k, is (1/k)|Q_N/P_N| = (pi/k) rho^(-2N-1) (1 + eps), with
    rho = y + sqrt(1 + y^2) = cot(k/2) the Bernstein ellipse through the
    pole (Trefethen, Approximation Theory and Approximation Practice, 2013,
    ch. 19) and eps = -(rho^2 - 1)/(4N (rho^2 + 1)) + O(N^-2).  Over R_w the
    root is off by e_m = C rho^(-4m) (1 + eps_m), C = pi (s^2 + k^2)/(k rho).
    The first-order eps is below 1/(4N) = 1/(8m); the bound 1/(4m) leaves
    as much again for the O(N^-2) terms and for the rho of the truncation's
    root, which moves e_m by about 4m e_m/(k sqrt(1 + y^2)).  The per-order
    factor (e_2n/e_n)^(1/n) is rho^-4 ((1 + eps_2n)/(1 + eps_n))^(1/n), so
    those two bounds bound it.  The orders stay clear of rounding, which
    the error reaches at n = 16 for k = 1.0 (5.6e-17) and at n = 64 for
    k = 1.4 (1.1e-16).
    """
    s = k / math.tan(k)
    y = s / k
    rho = y + math.sqrt(1 + y * y)
    C = math.pi * (s * s + k * k) / (k * rho)
    errors = {}
    for m in (n, 2 * n):
        levels = tuple(j * j / (4 * j * j - 1) for j in range(1, 2 * m))
        omega, _ = spectral._fraction_root(levels, k)
        errors[m] = abs(omega - (s - 1))
        assert errors[m] > 1e-12
        assert abs(errors[m] / (C * rho ** (-4 * m)) - 1) <= 1 / (4 * m)
    factor = (errors[2 * n] / errors[n]) ** (1 / n)
    lo = ((1 - 1 / (8 * n)) / (1 + 1 / (4 * n))) ** (1 / n)
    hi = ((1 + 1 / (8 * n)) / (1 - 1 / (4 * n))) ** (1 / n)
    assert lo * rho**-4 <= factor <= hi * rho**-4


def test_branch_finds_its_own_fold():
    # the curve computes the fold of its own order, so no other order's fold
    # can end it early: the n = 20 branch has values past the n = 5 fold and
    # up to k_c(20) = 0.9455
    with pytest.raises(TypeError):
        BranchCurve(20, find_fold(5))
    curve = BranchCurve(20)
    assert curve.fold == find_fold(20)
    assert find_fold(5).k_c < 0.8
    values = curve.omega_at([0.8, 0.9, curve.fold.k_c, 1.0])
    assert all(-1 < w < 0 for w in values[:2])
    assert all(math.isnan(w) for w in values[2:])


def test_fold_and_branch_keep_their_public_behaviour():
    fold = FoldPoint(0.5, -0.5, 0.0)
    assert repr(fold) == "FoldPoint(k_c=0.5, omega_c=-0.5, residual=0.0)"
    curve = BranchCurve(1)
    assert repr(curve) == f"BranchCurve(n=1, fold={fold!r})"
    for record, name in ((fold, "k_c"), (fold, "residual"), (curve, "n"), (curve, "fold")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    for n in (1, 2, 20):
        assert BranchCurve(n).fold == find_fold(n)
    assert BranchCurve(2) == BranchCurve(2) != curve
    assert hash(BranchCurve(2)) == hash(BranchCurve(2))
    assert pickle.loads(pickle.dumps(curve)) == curve


def test_branch_is_the_tuple_of_its_order_and_fold(monkeypatch):
    # the curve is (n, fold): it equals, hashes like and iterates as that
    # plain tuple, and has no NamedTuple method that could pair an order
    # with another order's fold
    curve = BranchCurve(2)
    assert curve == (2, find_fold(2)) and hash(curve) == hash((2, find_fold(2)))
    assert tuple(curve) == (curve.n, curve.fold)
    assert not hasattr(curve, "_replace") and not hasattr(curve, "_make")
    # a copy and a pickle run the constructor again, which looks find_fold
    # up when it runs: the fold is recomputed, not copied
    calls = []

    def fold(n):
        calls.append(n)
        return find_fold(n)

    monkeypatch.setattr(spectral, "find_fold", fold)
    for rebuilt in (copy.copy(curve), copy.deepcopy(curve), pickle.loads(pickle.dumps(curve))):
        assert rebuilt == curve and type(rebuilt) is BranchCurve
    assert calls == [2, 2, 2]


def test_branch_no_point_past_fold(branch_1):
    assert math.isnan(branch_1.omega_at([0.7])[0])


def test_branch_n1_reaches_fold(branch_1):
    # at k_c = 1/2 the root is the double root -1/2, shared with the kinetic
    # partner, and the branch has ended
    ks = [0.4999, 0.499999, 0.5, 0.5 + 1e-9]
    values = branch_1.omega_at(ks)
    for k, w in zip(ks[:2], values):
        assert w == pytest.approx((-1 + math.sqrt(1 - 4 * k * k)) / 2, abs=1e-10)
    assert all(math.isnan(w) for w in values[2:])


@pytest.mark.parametrize("n", [1, 215, 400])
def test_branch_value_one_float_below_the_fold(n):
    # at the last float below k_c the root lies about 1e-8 above omega_c
    # (k_c - k ~ 1e-16 and the branch is omega_c + O(sqrt(k_c - k))), where
    # the sign of R is rounding noise and Newton's update stays large; the
    # solve stops when its bracket is narrower than 1e-15 relative to the
    # iterate.  At n = 215 and
    # 400 a solve stopped by the size of the update alone ran out of
    # iterations
    curve = BranchCurve(n)
    k_c, omega_c = curve.fold.k_c, curve.fold.omega_c
    w, at_fold = curve.omega_at([math.nextafter(k_c, 0), k_c])
    assert omega_c - 1e-15 <= w < omega_c + 1e-7
    assert math.isnan(at_fold)


def test_branch_n2_just_below_fold():
    curve = BranchCurve(2)
    k_c = curve.fold.k_c
    ks = [k_c - 5e-4, k_c - 1e-6]
    for k, w in zip(ks, curve.omega_at(ks)):
        q = k * k
        quartic = [1, 3, 3 + 6 * q, 1 + 7 * q, q * (1 + 3 * q)]
        # a root of the explicit P_2 (Newton distance), and the physical one:
        # the largest real root, above the partner it merges with at the fold
        newton_dist = np.polyval(quartic, w) / np.polyval(np.polyder(quartic), w)
        assert abs(newton_dist) < 1e-12
        real = [r.real for r in np.roots(quartic) if abs(r.imag) < 1e-9]
        assert w == pytest.approx(max(real), abs=1e-9)
    assert math.isnan(curve.omega_at([k_c + 1e-9])[0])


def test_branch_n50_just_below_fold(branch_50):
    assert 1.03 < branch_50.fold.k_c
    w = branch_50.omega_at([1.03])[0]
    assert branch_50.fold.omega_c < w < -0.5
    st = _eval_state(_hermite_levels(50), w, 1.03**2)
    assert _normalized_residual(st[0], st[1]) < 1e-12


def _record_eval_state(monkeypatch):
    calls = []
    real = spectral._eval_state

    def recorder(levels, w, q):
        calls.append((float(w), float(q)))
        return real(levels, w, q)

    monkeypatch.setattr(spectral, "_eval_state", recorder)
    return calls


def test_omega_at_one_recurrence_per_newton_iterate(branch_50, monkeypatch):
    # Newton reads R and R_w at each iterate from one evaluation, and every
    # iterate lies inside the bracket: its ends are never evaluated.  At
    # k = 1.03, 7e-4 below the fold, the seed -k^2 lies below the bracket,
    # so the first iterate is its midpoint
    fp = branch_50.fold
    lo = (1 + fp.omega_c) / fp.k_c * 1.03 - 1
    calls = _record_eval_state(monkeypatch)
    branch_50.omega_at([1.03])
    assert calls[0][0] == 0.5 * lo
    assert 3 <= len(calls) <= 8
    assert all(a != b for a, b in zip(calls, calls[1:]))
    assert all(lo < w < 0 for w, _ in calls)


def _hermite_basis(a, b, t):
    """The cubic Hermite through (t, omega, d(omega)/dt) samples a and b,
    in the local coordinate x of the basis functions."""
    dt, x = b[0] - a[0], (t - a[0]) / (b[0] - a[0])
    return (
        (2 * x**3 - 3 * x**2 + 1) * a[1]
        + (x**3 - 2 * x**2 + x) * dt * a[2]
        + (-2 * x**3 + 3 * x**2) * b[1]
        + (x**3 - x**2) * dt * b[2]
    )


def _first_iterates(calls):
    """The first w of each run of evaluations at one q: the seed of each
    root, for a grid with no k twice in a row."""
    return [w for i, (w, q) in enumerate(calls) if i == 0 or q != calls[i - 1][1]]


def test_omega_at_seeds_on_the_hermite_cubic(branch_1, monkeypatch):
    # n = 1 in t = sqrt(1 - 2k): k = (1 - t^2)/2, the branch is
    # w = (-1 + t sqrt(2 - t^2))/2 and dw/dt = (1 - t^2)/sqrt(2 - t^2).
    # The first two roots are seeded at -k^2; each later one on the cubic
    # Hermite in t through the two roots before it
    def sample(k):
        t = math.sqrt(1 - 2 * k)
        return t, (-1 + t * math.sqrt(2 - t * t)) / 2, (1 - t * t) / math.sqrt(2 - t * t)

    ks = [0.1, 0.3, 0.45, 0.2, 0.35]
    calls = _record_eval_state(monkeypatch)
    branch_1.omega_at(ks)
    seeds = _first_iterates(calls)
    assert len(seeds) == len(ks)
    assert seeds[:2] == [-0.1 * 0.1, -0.3 * 0.3]
    for i in range(2, len(ks)):
        want = _hermite_basis(sample(ks[i - 2]), sample(ks[i - 1]), sample(ks[i])[0])
        assert seeds[i] == pytest.approx(want, rel=0, abs=1e-13)
    # a k twice in a row replaces its own root, so that the cubic through
    # the last two never has a zero width
    values = branch_1.omega_at([0.3, 0.3, 0.2])
    assert values[1] == pytest.approx(values[0], rel=0, abs=1e-16)
    assert values[2] == pytest.approx(sample(0.2)[1], rel=0, abs=1e-15)


def test_branch_sample_slopes_match_closed_forms(monkeypatch):
    # each root carries its slope from its last evaluation: for n = 2,
    # dw/dk = -2k P_q / P_w from the explicit quartic of
    # test_fold_n2_closed_form, and dw/dt = -2 k_c t dw/dk; the seed of a
    # third root shows the slopes of the two before it
    curve = BranchCurve(2)
    k_c = curve.fold.k_c
    ks = [0.2, 0.5, 0.6]
    values = curve.omega_at(ks)

    def sample(k, w):
        q, t = k * k, math.sqrt(1 - k / k_c)
        P_w = 4 * w**3 + 9 * w**2 + 2 * (3 + 6 * q) * w + 1 + 7 * q
        P_q = 6 * w**2 + 7 * w + 1 + 6 * q
        return t, w, -2 * k_c * t * (-2 * k * P_q / P_w)

    calls = _record_eval_state(monkeypatch)
    curve.omega_at(ks)
    seed = _first_iterates(calls)[2]
    a, b = sample(ks[0], values[0]), sample(ks[1], values[1])
    assert seed == pytest.approx(_hermite_basis(a, b, math.sqrt(1 - ks[2] / k_c)), rel=0, abs=1e-13)


def test_omega_at_recurrence_budget_on_readme_grid(branch_50, monkeypatch):
    # the README grid's 103 wavenumbers k = 0.01..1.03 below k_c(50) =
    # 1.0307 take 220 recurrences, about two per root, each seeded on the
    # two roots before it
    calls = _record_eval_state(monkeypatch)
    values = branch_50.omega_at(README_GRID)
    assert sum(not math.isnan(w) for w in values) == 104
    assert len(calls) <= 240


def test_omega_at_n400_below_fold_matches_eigenvalues():
    # at n = 400 rounding keeps the Newton update above 1e-14, so a stop
    # at 1e-14 alone ran out of iterations here and reported no branch
    # point below k_c = 1.1528.  Independent oracle: the branch value is an
    # eigenvalue of -(D + ik J_2n), D = diag(0, 1, ..., 1); the similarity
    # diag(i^j) makes that matrix real, with ik J_2n -> k (L - L^T), L the
    # lower off-diagonal sqrt(j), which eigvals handles four times faster.
    n, k = 400, 1.104
    curve = BranchCurve(n)
    assert k < curve.fold.k_c
    w = curve.omega_at([k])[0]
    off = k * np.sqrt(np.arange(1, 2 * n))
    D = np.diag([0.0] + [1.0] * (2 * n - 1))
    ev = np.linalg.eigvals(-(D + np.diag(off, -1) - np.diag(off, 1)))
    # the branch root is the largest real eigenvalue, above its partner
    real = sorted(e.real for e in ev if abs(e.imag) < 1e-9)
    assert w == pytest.approx(real[-1], abs=1e-11)
    assert real[-2] < curve.fold.omega_c < w


def test_branch_input_validation(branch_1):
    with pytest.raises(ValueError):
        find_fold(0)
    with pytest.raises(ValueError):
        branch_1.omega_at([0.1, -0.1])


def test_branch_convergence_to_attractor():
    # max deviation over k <= 0.4 decreases with truncation order
    ks = [0.05 * i for i in range(1, 9)]
    exact = [solve_exact_gaussian(k).omega for k in ks]
    devs = []
    for n in (2, 5, 10, 20, 50):
        values = BranchCurve(n).omega_at(ks)
        devs.append(max(abs(w - e) for w, e in zip(values, exact)))
    assert all(b < a for a, b in zip(devs, devs[1:]))


# --- folds ---------------------------------------------------------------------

def test_fold_n1_exact():
    # exactly: a k_c one ulp above 1/2 would give the README grid a branch
    # value at k = 0.50, the fold's double root
    fp = find_fold(1)
    assert (fp.k_c, fp.omega_c) == (0.5, -0.5)


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


def test_fold_checks_its_brackets(monkeypatch):
    # R_w < 0 everywhere, so also at both ends of the inner bracket
    monkeypatch.setattr(spectral, "_eval_state", lambda levels, w, q: (w, -1.0, 0.0))
    with pytest.raises(NoFoldFound, match="does not change sign"):
        find_fold(50)
    # R = w + q / (10 s), with its minimiser at s = k / sqrt(10) and its fold
    # at k_c = sqrt(10)/2, past sqrt(pi/2)
    monkeypatch.setattr(
        spectral, "_eval_state",
        lambda levels, w, q: (w + q / (10 * (1 + w)), 1 - q / (10 * (1 + w) ** 2), 1 / (10 * (1 + w))),
    )
    with pytest.raises(NoFoldFound, match="not below sqrt"):
        find_fold(4)


def test_find_fold_evaluation_budget(monkeypatch):
    # find_fold(200) solves for the fold without a trace: two inner bracket
    # ends, the secant on s^2 R_w and one evaluation at the fold, 11 in all
    # (the trace and the fold bracketing it replaced took 131 recurrences of
    # depth 200)
    calls = _record_eval_state(monkeypatch)
    find_fold(200)
    assert len(calls) <= 12


@pytest.mark.parametrize("n", [180, 250, 400])
def test_fold_newton_stops_at_rounding_floor(n, monkeypatch):
    # at these orders rounding held the update of the fold Newton this solve
    # replaced near 1e-13, so a stop at 1e-14 alone took it 39 to 65
    # evaluations; the secant in y = s^2 has its floor near 1e-18, and its
    # update falls through 1e-14 within 11 evaluations
    calls = _record_eval_state(monkeypatch)
    fp = find_fold(n)
    assert fp.residual <= 1e-10
    assert len(calls) <= 12
