"""Output checks against computations made apart from the program.

Nothing here imports `attractor_kit`: every expected value comes from a
closed form, an integer recurrence, an eigenvalue problem or mpmath.  Each
check returns a `Verdict` for the operations one command performed: a CLI
command is one operation, except `folds`, where each requested n is one.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import mpmath
import numpy as np

CE_COLUMNS = ["n", "a_2n", "abs_log10", "r_n", "r_n_over_2np1"]
FOLD_COLUMNS = ["n", "k_c", "omega_c", "residual", "note"]
FLOAT_RTOL = 1e-12


@dataclass
class Verdict:
    """Operations one command output stands for, and what went wrong."""

    ops: int
    failed: int = 0  # operations the program reported as failed
    items: int = 0  # work finished: coefficients, grid rows or folds
    errors: list = field(default_factory=list)  # outputs that are wrong

    @property
    def wrong(self) -> int:
        return min(self.ops - self.failed, len(self.errors))


# --- closed forms -----------------------------------------------------------


def a000699(n_max: int) -> list:
    """Connected chord diagrams: a(1) = 1, a(n) = (n-1) sum a(i) a(n-i)."""
    a = [0, 1]
    for n in range(2, n_max + 1):
        a.append((n - 1) * sum(a[i] * a[n - i] for i in range(1, n)))
    return a[1:]


def bernoulli(m_max: int) -> list:
    """B_0..B_m_max from sum_{j<=m} C(m+1, j) B_j = 0 (B_1 = -1/2)."""
    B = [Fraction(1)]
    for m in range(1, m_max + 1):
        B.append(-sum(math.comb(m + 1, j) * B[j] for j in range(m)) / (m + 1))
    return B


def catalan(n_max: int) -> list:
    """C_0..C_n_max."""
    return [math.comb(2 * n, n) // (n + 1) for n in range(n_max + 1)]


def gaussian_coefficients(n_max: int) -> list:
    """a_2n = (-1)^n A000699(n)."""
    return [Fraction((-1) ** n * a) for n, a in enumerate(a000699(n_max), 1)]


def uniform_coefficients(n_max: int) -> list:
    """a_2n of k cot k - 1 = sum (-1)^n 2^(2n) B_2n k^(2n) / (2n)!.

    The uniform weight's dispersion relation arctan(k/(1+w)) = k gives
    1 + w = k cot k.
    """
    B = bernoulli(2 * n_max)
    return [(-1) ** n * 2 ** (2 * n) * B[2 * n] / math.factorial(2 * n)
            for n in range(1, n_max + 1)]


def two_point_coefficients(r: Fraction, n_max: int) -> list:
    """a_2n = -C_(n-1) r^(2n), from w(1+w) + r^2 k^2 = 0."""
    C = catalan(n_max)
    return [-C[n - 1] * r ** (2 * n) for n in range(1, n_max + 1)]


@lru_cache(maxsize=None)
def fold_k2() -> float:
    """k_c(2) = sqrt(q*), q* the positive root of 6912q^3 - 864q^2 - 387q - 125."""
    f = lambda q: ((6912 * q - 864) * q - 387) * q - 125  # noqa: E731
    lo, hi = Fraction(0), Fraction(1)  # f(0) < 0 < f(1); the cubic has one positive root
    for _ in range(80):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if f(mid) < 0 else (lo, mid)
    return math.sqrt(float(lo))


def closed_folds() -> dict:
    """k_c(n) for the truncations whose fold has a closed form."""
    return {1: 0.5, 2: fold_k2()}


def resolvent(A: float) -> float:
    """I(A) = sqrt(pi A/2) e^(A/2) erfc(sqrt(A/2)), in 30-digit arithmetic."""
    with mpmath.workdps(30):
        u = mpmath.sqrt(mpmath.mpf(A) / 2)
        return float(mpmath.sqrt(mpmath.pi) * u * mpmath.exp(u * u) * mpmath.erfc(u))


@lru_cache(maxsize=None)
def _hierarchy(n: int):
    """D = diag(0, 1, ..., 1) and the 2n x 2n Hermite Jacobi matrix J."""
    off = np.sqrt(np.arange(1, 2 * n, dtype=float))
    J = np.diag(off, 1) + np.diag(off, -1)
    D = np.eye(2 * n)
    D[0, 0] = 0.0
    return D, J


def hierarchy_eigenvalues(n: int, k: float) -> np.ndarray:
    """Eigenvalues of -(D + ik J_2n): the roots w of P_n(w, k^2)."""
    D, J = _hierarchy(n)
    return np.linalg.eigvals(-(D + 1j * k * J))


# --- CSV helpers ------------------------------------------------------------


def _rows(text: str):
    table = list(csv.reader(io.StringIO(text)))
    if not table:
        raise ValueError("empty output")
    return table[0], table[1:]


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= FLOAT_RTOL * max(abs(want), 1e-300)


def _log10_abs(x: Fraction) -> float:
    return math.log10(abs(x.numerator)) - math.log10(x.denominator)


# --- per-command checks -----------------------------------------------------


def check_ce_coeffs(text: str, expected: list) -> Verdict:
    """`ce-coeffs`: every a_2n exact, and the float columns derived from them."""
    v = Verdict(ops=1)
    try:
        header, rows = _rows(text)
    except ValueError as exc:
        v.errors.append(str(exc))
        return v
    if header != CE_COLUMNS:
        v.errors.append(f"ce-coeffs columns {header}")
        return v
    if len(rows) != len(expected):
        v.errors.append(f"ce-coeffs: {len(rows)} rows, expected {len(expected)}")
        return v
    for i, (row, a) in enumerate(zip(rows, expected)):
        n = i + 1
        if row[0] != str(n) or Fraction(row[1]) != a:
            v.errors.append(f"a_{2 * n} = {row[1]}, expected {a}")
            break
        if not _close(float(row[2]), _log10_abs(a)):
            v.errors.append(f"abs_log10 at n={n}: {row[2]}")
            break
        if n < len(expected):
            r = abs(float(expected[i + 1] / a))
            if not (_close(float(row[3]), r) and _close(float(row[4]), r / (2 * (n + 1)))):
                v.errors.append(f"r_n at n={n}: {row[3]}, expected {r!r}")
                break
        elif row[3] or row[4]:
            v.errors.append(f"r_n at the last row n={n} should be empty")
    v.items = 0 if v.errors else len(rows)
    return v


def check_borel(text: str, a: list) -> Verdict:
    """`borel --weight gaussian`: b_n = a_n / n! exactly, verdict and nearest pole."""
    v = Verdict(ops=1)
    try:
        header, rows = _rows(text)
    except ValueError as exc:
        v.errors.append(str(exc))
        return v
    coeffs = [r for r in rows if r[0] == "coeff"]
    if len(coeffs) != len(a):
        v.errors.append(f"borel: {len(coeffs)} coefficients, expected {len(a)}")
        return v
    for n, (row, an) in enumerate(zip(coeffs, a), 1):
        if row[1] != str(n) or Fraction(row[2]) != an / math.factorial(n):
            v.errors.append(f"b_{n} = {row[2]}, expected {an / math.factorial(n)}")
            return v
    notes = [r[6] for r in rows if r[0] == "summary"]
    if "summability: strict" not in notes:
        v.errors.append(f"borel verdict {notes}")
    nearest = [r for r in rows if r[0] == "summary" and r[6].startswith("nearest pole")]
    if len(nearest) != 1 or abs(complex(float(nearest[0][3]), float(nearest[0][4])) + 0.5) > 0.01:
        v.errors.append(f"nearest physical pole not within 0.01 of -1/2: {nearest}")
    v.items = 0 if v.errors else len(coeffs)
    return v


def _cell(row: dict, name: str):
    s = row[name]
    return float(s) if s != "" else None


def check_dispersion(text: str, k_min: float, k_step: float, points: int,
                     orders: tuple) -> Verdict:
    """`dispersion`: exact root, resummation, branches, truncations, deviations.

    Each grid row is one operation.  A row where some branch still exists but
    reads `physical_n* = 0` with an empty cell has failed: the program could
    not evaluate the branch there.  The branch exists for k <= k_c(n) where
    k_c has a closed form; for other n, while -(D + ik J_2n) has a real
    eigenvalue.  Past the fold the branch's pair of real roots is complex,
    and for n = 20 and 50 on k <= 1.2 no other real root is left.
    """
    v = Verdict(ops=points)
    rows = list(csv.DictReader(io.StringIO(text)))
    if len(rows) != points:
        v.errors.append(f"dispersion: {len(rows)} rows, expected {points}")
        return v
    kc = closed_folds()
    err = v.errors
    failed_rows = set()
    for i, row in enumerate(rows):
        k = float(row["k"])
        if abs(k - (k_min + i * k_step)) > 1e-9:
            err.append(f"row {i}: k = {k}")
            break
        exact, resummed = _cell(row, "omega_exact"), _cell(row, "omega_resummed")
        if exact is None or resummed is None:
            err.append(f"empty exact or resummed cell at k={k}")
            continue
        if k == 0:  # (w+1) = I(inf) = 1
            if exact != 0:
                err.append(f"omega_exact = {exact!r} at k=0")
        elif not (-1 < exact <= 0) or abs((exact + 1) - resolvent((1 + exact) ** 2 / k**2)) > 1e-10:
            err.append(f"omega_exact = {exact!r} fails (w+1) = I((1+w)^2/k^2) at k={k}")
        if k <= 1 and abs(resummed - exact) > 1e-6:
            err.append(f"omega_resummed off exact by {resummed - exact:.3g} at k={k}")
        if abs(_cell(row, "omega_ce2") + k * k) > 1e-15:
            err.append(f"omega_ce2 at k={k}")
        if abs(_cell(row, "omega_ce4") - (-k * k + k**4)) > 1e-15:
            err.append(f"omega_ce4 at k={k}")
        for n in orders:
            w, phys = _cell(row, f"omega_branch_n{n}"), row[f"physical_n{n}"] == "1"
            if phys != (w is not None):
                err.append(f"physical_n{n} = {phys} but branch cell {w} at k={k}")
                continue
            if w is None:
                exists = k <= kc[n] if n in kc else _real_count(hierarchy_eigenvalues(n, k)) > 0
                if exists:
                    failed_rows.add(i)
                continue
            if n in kc and k > kc[n]:
                err.append(f"physical_n{n} = 1 at k={k}, fold at {kc[n]!r}")
                continue
            if n == 1 and abs(w - (-1 + math.sqrt(1 - 4 * k * k)) / 2) > 1e-10:
                err.append(f"omega_branch_n1 = {w!r} at k={k}")
            if np.min(np.abs(hierarchy_eigenvalues(n, k) - w)) > 1e-9:
                err.append(f"omega_branch_n{n} = {w!r} is no eigenvalue at k={k}")
        for name in row:
            if name.startswith("omega_") and name != "omega_exact":
                dev, val = _cell(row, "dev_" + name[len("omega_"):]), _cell(row, name)
                if (dev is None) != (val is None) or (
                    dev is not None and abs(dev - (val - exact)) > 1e-15
                ):
                    err.append(f"dev column of {name} at k={k}")
    for n in orders:
        flags = [row[f"physical_n{n}"] for row in rows]
        if "".join(flags).lstrip("1").strip("0"):
            err.append(f"physical_n{n} does not flip exactly once: {''.join(flags)}")
    v.failed = len(failed_rows)
    v.items = 0 if err else points - v.failed
    return v


def check_folds(text: str, n_list: tuple) -> Verdict:
    """`folds`: one operation per requested n; 'no fold' rows are failures."""
    v = Verdict(ops=len(n_list))
    try:
        header, rows = _rows(text)
    except ValueError as exc:
        v.errors.append(str(exc))
        return v
    if header != FOLD_COLUMNS or [r[0] for r in rows] != [str(n) for n in n_list]:
        v.errors.append(f"folds rows {[r[0] for r in rows]} for n = {list(n_list)}")
        return v
    closed = closed_folds()
    last_kc = -math.inf
    for n, row in zip(n_list, rows):
        if row[1] == "":
            if row[4].startswith("no fold"):
                v.failed += 1
            else:
                v.errors.append(f"n={n}: empty k_c without a 'no fold' note")
            continue
        k_c, w_c, residual = float(row[1]), float(row[2]), float(row[3])
        problem = None
        if not residual <= 1e-10:
            problem = f"residual {residual!r}"
        elif n in closed and abs(k_c - closed[n]) > 1e-10:
            problem = f"k_c = {k_c!r}, closed form {closed[n]!r}"
        elif k_c <= last_kc:
            problem = f"k_c = {k_c!r} does not increase with n"
        else:
            below = _real_near(hierarchy_eigenvalues(n, k_c * (1 - 1e-4)), w_c)
            above = _real_near(hierarchy_eigenvalues(n, k_c * (1 + 1e-4)), w_c)
            if below != 2 or above != 0:
                problem = f"{below} real roots near w_c below k_c, {above} above"
        if problem:
            v.errors.append(f"fold n={n}: {problem}")
        else:
            v.items += 1
            last_kc = k_c
    return v


def _real_count(eigs: np.ndarray) -> int:
    return int(np.sum(np.abs(eigs.imag) < 1e-8))


def _real_near(eigs: np.ndarray, w: float) -> int:
    return int(np.sum((np.abs(eigs.imag) < 1e-8) & (np.abs(eigs.real - w) < 0.05)))
