"""Each output check accepts the program's output and rejects a mutated copy.

    PYTHONPATH=src python3 -m pytest -q bench/test_checks.py
"""

import csv
import io
import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from attractor_kit.cli import main as cli_main  # noqa: E402

N = 12
R = Fraction(83, 97)
GRID = dict(k_min=workloads.GRID_K_MIN, k_step=workloads.GRID_STEP,
            points=workloads.GRID_POINTS, orders=workloads.BRANCH_ORDERS)
GRID_ARGV = ("dispersion", "--k-min", "0", "--k-max", "1.2", "--k-step", "0.01",
             "--n-list", "1,2,20,50")
# rows where a branch exists but the program reads physical_n* = 0
FAILED_K = (0.50, 1.03)
FOLD_N = (1, 2, 10, 120)


def run_cli(tmp_path, *argv) -> str:
    out = tmp_path / "out.csv"
    assert cli_main([*argv, "--out", str(out)]) == 0
    return out.read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("outputs")
    weight = tmp / "w.txt"
    weight.write_text("\n".join(str(R ** (2 * m)) for m in range(1, N + 1)) + "\n")
    return {
        "gaussian": run_cli(tmp, "ce-coeffs", "--weight", "gaussian", "--n-max", str(N)),
        "uniform": run_cli(tmp, "ce-coeffs", "--weight", "bounded-uniform", "--n-max", str(N)),
        "two-point": run_cli(tmp, "ce-coeffs", "--weight", f"bounded-custom={weight}",
                             "--n-max", str(N)),
        "borel": run_cli(tmp, "borel", "--weight", "gaussian"),
        "dispersion": run_cli(tmp, *GRID_ARGV),
        "folds": run_cli(tmp, "folds", "--n-list", ",".join(map(str, FOLD_N))),
    }


def expected_ce(kind):
    return {
        "gaussian": checks.gaussian_coefficients(N),
        "uniform": checks.uniform_coefficients(N),
        "two-point": checks.two_point_coefficients(R, N),
    }[kind]


def edit(text: str, row: int, col, fn) -> str:
    """Apply fn to one cell; row counts data rows from 0, col is an index or a name."""
    table = list(csv.reader(io.StringIO(text)))
    j = table[0].index(col) if isinstance(col, str) else col
    table[row + 1][j] = fn(table[row + 1][j])
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(table)
    return buf.getvalue()


def shift(d):
    return lambda s: repr(float(s) + d)


def find_row(text: str, pred) -> int:
    return next(i for i, r in enumerate(csv.DictReader(io.StringIO(text))) if pred(r))


# --- the closed forms -------------------------------------------------------


def test_closed_forms_first_terms():
    assert checks.a000699(6) == [1, 1, 4, 27, 248, 2830]
    assert checks.uniform_coefficients(3) == [Fraction(-1, 3), Fraction(-1, 45), Fraction(-2, 945)]
    assert checks.two_point_coefficients(Fraction(1, 2), 3) == [
        Fraction(-1, 4), Fraction(-1, 16), Fraction(-2, 64)]
    assert abs(checks.fold_k2() - 0.62347364453507) < 1e-13


def test_hierarchy_eigenvalues_n1_closed_form():
    k = 0.3
    want = sorted([(-1 + math.sqrt(1 - 4 * k * k)) / 2, (-1 - math.sqrt(1 - 4 * k * k)) / 2])
    got = sorted(checks.hierarchy_eigenvalues(1, k).real)
    assert max(abs(a - b) for a, b in zip(got, want)) < 1e-14


# --- ce-coeffs and borel ----------------------------------------------------


@pytest.mark.parametrize("kind", ["gaussian", "uniform", "two-point"])
def test_ce_coeffs_accepts_program_output(outputs, kind):
    v = checks.check_ce_coeffs(outputs[kind], expected_ce(kind))
    assert (v.errors, v.items, v.failed) == ([], N, 0)


@pytest.mark.parametrize("kind", ["gaussian", "uniform", "two-point"])
def test_ce_coeffs_rejects_numerator_off_by_one(outputs, kind):
    def bump(s):
        a = Fraction(s)
        return str(Fraction(a.numerator + 1, a.denominator))

    bad = edit(outputs[kind], N - 3, "a_2n", bump)
    v = checks.check_ce_coeffs(bad, expected_ce(kind))
    assert v.errors and v.wrong == 1


def test_ce_coeffs_rejects_ratio_and_log_columns(outputs):
    exp = expected_ce("gaussian")
    for col in ("r_n", "abs_log10", "r_n_over_2np1"):
        bad = edit(outputs["gaussian"], 4, col, lambda s: repr(float(s) * (1 + 1e-9)))
        assert checks.check_ce_coeffs(bad, exp).errors, col
    bad = edit(outputs["gaussian"], N - 1, "r_n", lambda s: "1.5")
    assert checks.check_ce_coeffs(bad, exp).errors


def test_borel_accepts_and_rejects(outputs):
    a = checks.gaussian_coefficients(30)
    text = outputs["borel"]
    v = checks.check_borel(text, a)
    assert (v.errors, v.items) == ([], 30)
    bumped = edit(text, 6, 2, lambda s: str(Fraction(Fraction(s).numerator + 1,
                                                       Fraction(s).denominator)))
    assert checks.check_borel(bumped, a).errors
    assert checks.check_borel(text.replace("summability: strict", "summability: obstructed"), a).errors
    row = next(i for i, r in enumerate(csv.reader(io.StringIO(text))) if r[6].startswith("nearest")) - 1
    assert checks.check_borel(edit(text, row, 3, shift(0.02)), a).errors


# --- dispersion -------------------------------------------------------------


def check_disp(text):
    return checks.check_dispersion(text, **GRID)


def test_dispersion_accepts_program_output(outputs):
    v = check_disp(outputs["dispersion"])
    failed = len(FAILED_K)
    assert (v.errors, v.ops, v.failed, v.items) == ([], 121, failed, 121 - failed)


def empty_branch_from(text: str, n: int, k0: float) -> str:
    """Mark the n-branch non-physical, with empty cells, from k0 on."""
    for i, r in enumerate(csv.DictReader(io.StringIO(text))):
        if float(r["k"]) >= k0 - 1e-9:
            for col, value in ((f"physical_n{n}", "0"), (f"omega_branch_n{n}", ""),
                               (f"dev_branch_n{n}", "")):
                text = edit(text, i, col, lambda s, value=value: value)
    return text


@pytest.mark.parametrize("n, k0", [(2, 0.62), (20, 0.94), (2, 0.55), (50, 1.0)])
def test_dispersion_counts_branch_ended_early_as_failed(outputs, n, k0):
    # the signature of the known fault: the flag turns 0 while the branch exists
    v = check_disp(empty_branch_from(outputs["dispersion"], n, k0))
    assert v.errors == [] and v.failed > len(FAILED_K)


def set_branch(text: str, k: float, n: int, w: float) -> str:
    """Mark the n-branch physical at k with value w, its dev cell consistent."""
    row = find_row(text, lambda r: abs(float(r["k"]) - k) < 1e-9)
    exact = float(list(csv.DictReader(io.StringIO(text)))[row]["omega_exact"])
    for col, value in ((f"physical_n{n}", "1"), (f"omega_branch_n{n}", repr(w)),
                       (f"dev_branch_n{n}", repr(w - exact))):
        text = edit(text, row, col, lambda s, value=value: value)
    return text


@pytest.mark.parametrize("n, k, w", [(1, 0.51, -0.5), (20, 0.95, -0.719), (2, 0.63, -0.53)])
def test_dispersion_rejects_branch_past_fold(outputs, n, k, w):
    # the flag may turn 0 late only if the value is no real eigenvalue
    assert check_disp(set_branch(outputs["dispersion"], k, n, w)).errors


@pytest.mark.parametrize("col, k, delta", [
    ("omega_branch_n20", 0.8, 1e-8),
    ("omega_branch_n50", 0.3, 1e-8),
    ("omega_branch_n1", 0.2, 1e-8),
    ("omega_resummed", 0.9, 1e-5),
    ("omega_exact", 0.7, 1e-9),
    ("omega_exact", 0.0, 1e-9),
    ("omega_ce4", 0.6, 1e-12),
    ("dev_branch_n2", 0.4, 1e-12),
])
def test_dispersion_rejects_moved_value(outputs, col, k, delta):
    text = outputs["dispersion"]
    row = find_row(text, lambda r: abs(float(r["k"]) - k) < 1e-9)
    v = check_disp(edit(text, row, col, shift(delta)))
    assert v.errors and v.items == 0


def test_dispersion_rejects_wrong_flag_and_empty_cell(outputs):
    text = outputs["dispersion"]
    row = find_row(text, lambda r: abs(float(r["k"]) - 0.61) < 1e-9)
    assert check_disp(edit(text, row, "physical_n2", lambda s: "0")).errors
    assert check_disp(edit(text, 10, "omega_resummed", lambda s: "")).errors


def outputs_text(tmp_path):
    return run_cli(tmp_path, *GRID_ARGV)


def test_dispersion_unreadable_output_counts_every_row(tmp_path):
    import run
    from workloads import make_workload

    check = run.make_checker(make_workload("dispersion-figure", 1, tmp_path))
    v = check("dispersion", edit(outputs_text(tmp_path), 3, "k", lambda s: "abc"))
    assert v.errors and v.ops == 121 and v.wrong == 1


# --- folds ------------------------------------------------------------------


def test_folds_counts_no_fold_rows_as_failed(outputs):
    v = checks.check_folds(outputs["folds"], FOLD_N)
    assert (v.errors, v.failed, v.items, v.ops) == ([], 1, 3, 4)


@pytest.mark.parametrize("row, col, delta", [
    (1, "k_c", 1e-9),  # n = 2 against sqrt(q*)
    (0, "k_c", 1e-9),  # n = 1 against 1/2
    (2, "omega_c", 0.1),  # n = 10: no real pair near the moved w_c
    (2, "k_c", 1e-3),  # n = 10: the fold moved off the eigenvalue collision
])
def test_folds_rejects_moved_fold(outputs, row, col, delta):
    bad = edit(outputs["folds"], row, col, shift(delta))
    v = checks.check_folds(bad, FOLD_N)
    assert v.errors and v.wrong == 1


def test_folds_rejects_large_residual_and_order(outputs):
    text = outputs["folds"]
    assert checks.check_folds(edit(text, 2, "residual", lambda s: "1e-9"), FOLD_N).errors
    assert checks.check_folds(edit(text, 2, "k_c", lambda s: "0.6"), FOLD_N).errors


# --- tracing ----------------------------------------------------------------


def test_layer_metrics_self_time_and_recursion():
    # find_fold -> trace_branch -> find_fold (failed), then emit; 1 s per unit
    spans = [
        ["cli.cmd_folds", 0.0, 10.0, -1, False, None],
        ["spectral.find_fold", 1.0, 7.0, 0, True, None],
        ["spectral.trace_branch", 2.0, 6.0, 1, True, None],
        ["spectral.find_fold", 3.0, 4.0, 2, True, None],
        ["cli.emit", 8.0, 9.0, 0, False, None],
    ]
    m = tracing.layer_metrics(spans, scale=2.0)
    assert m["spectral.find_fold_s"] == 12.0  # the nested call is not counted twice
    assert (m["spectral.find_fold_calls"], m["spectral.find_fold_failed"]) == (2, 2)
    assert m["spectral.trace_branch_s"] == 8.0
    assert m["cli.command_s"] == 2.0 * (10 - 6 - 1)
    assert m["cli.emit_s"] == 2.0
    assert m["exactseries.coeffs_used_ratio"] == 0.0


def test_unreadable_output_counts_as_wrong(tmp_path):
    import run
    from workloads import make_workload

    check = run.make_checker(make_workload("coeffs-deep", 1, tmp_path))
    v = check("ce-gaussian", "n,a_2n,abs_log10,r_n,r_n_over_2np1\n1,abc,0,1,1\n")
    assert v.errors and v.wrong == 1
