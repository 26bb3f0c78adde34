import argparse
import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import attractor_kit
from attractor_kit import cli, dispersion
from attractor_kit.cli import main


def run(tmp_path, *argv, name="out"):
    out = tmp_path / name
    code = main(list(argv) + ["--out", str(out)])
    return code, out


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


@pytest.fixture(scope="module")
def schema():
    ref = resources.files("attractor_kit") / "schemas" / "output.schema.json"
    return json.loads(ref.read_text())


# --- ce-coeffs -----------------------------------------------------------------

def test_ce_coeffs_gaussian_sequence(tmp_path):
    code, out = run(tmp_path, "ce-coeffs", "--weight", "gaussian", "--n-max", "7")
    assert code == 0
    header, rows = read_csv(out)
    assert header[:2] == ["n", "a_2n"]
    assert [r[1] for r in rows] == ["-1", "1", "-4", "27", "-248", "2830", "-38232"]


def test_ce_coeffs_bounded_exact_strings(tmp_path):
    code, out = run(
        tmp_path, "ce-coeffs", "--weight", "bounded-uniform", "--n-max", "2"
    )
    assert code == 0
    _, rows = read_csv(out)
    assert [r[1] for r in rows] == ["-1/3", "-1/45"]


def test_ce_coeffs_gaussian_past_float_range(tmp_path):
    # |a_2n| exceeds the largest float from n = 151 on; abs_log10 is still
    # printed, from the exact value's integer logarithms
    code, out = run(tmp_path, "ce-coeffs", "--weight", "gaussian", "--n-max", "155")
    assert code == 0
    _, rows = read_csv(out)
    for row in rows[149:]:
        num = abs(int(row[1].split("/")[0]))
        assert float(row[2]) == pytest.approx(math.log10(num), rel=1e-14)
    assert float(rows[150][2]) > 308.3


def log10_reference(a):
    """log10|a| of a nonzero rational from its integers, to 40 digits."""
    with localcontext() as ctx:
        ctx.prec = 40
        return float(Decimal(abs(a.numerator)).log10() - Decimal(a.denominator).log10())


def test_log10_abs_where_the_float_is_subnormal(tmp_path):
    # below the smallest normal float, 2.2250738585072014e-308, float(a)
    # keeps too few bits for its log10, and none below 5e-324
    for a in (Fraction(-3, 10**322), Fraction(1, 2**1074), Fraction(7, 10**310),
              Fraction(1, 10**400), Fraction(10**400 + 1, 3), Fraction(-2, 3)):
        assert cli._log10_abs(a) == pytest.approx(log10_reference(a), rel=0, abs=1e-12)
    # the two-point weight at +-1/100: |a_2n| is subnormal from n = 90 to 94
    weight = tmp_path / "two_point.txt"
    weight.write_text("".join(f"1/{100 ** (2 * m)}\n" for m in range(1, 201)))
    code, out = run(tmp_path, "ce-coeffs", "--weight", f"bounded-custom={weight}",
                    "--n-max", "100")
    assert code == 0
    _, rows = read_csv(out)
    values = [Fraction(row[1]) for row in rows]
    assert sum(0 < abs(float(a)) < sys.float_info.min for a in values) == 5
    for row, a in zip(rows, values):
        assert float(row[2]) == pytest.approx(log10_reference(a), rel=0, abs=1e-12)


def test_ce_coeffs_rejects_zero_order(tmp_path):
    code, _ = run(tmp_path, "ce-coeffs", "--n-max", "0")
    assert code == 2


def test_ce_coeffs_n_max_bound(tmp_path, capsys):
    code, _ = run(tmp_path, "ce-coeffs", "--n-max", str(cli.N_MAX_MAX + 1))
    assert code == 2
    assert f"--n-max must be in 1..{cli.N_MAX_MAX}\n" in capsys.readouterr().err
    args = cli.build_parser().parse_args(["borel", "--n-max", str(cli.N_MAX_MAX)])
    cli.validate(args)


def test_ce_coeffs_rejects_unknown_weight(tmp_path, capsys):
    code, _ = run(tmp_path, "ce-coeffs", "--weight", "cauchy")
    assert code == 2
    assert capsys.readouterr().err == (
        "attractor-kit: invalid configuration: unknown weight 'cauchy'; "
        "use gaussian, bounded-uniform, or bounded-custom=FILE\n"
    )


# --- custom weight file -----------------------------------------------------------

def test_bounded_custom_file(tmp_path):
    mom = tmp_path / "moments.txt"
    mom.write_text("1/3\n1/5\n")
    code, out = run(
        tmp_path, "ce-coeffs", "--weight", f"bounded-custom={mom}", "--n-max", "2"
    )
    assert code == 0
    _, rows = read_csv(out)
    assert [r[1] for r in rows] == ["-1/3", "-1/45"]


@pytest.mark.parametrize("command", ["ce-coeffs", "borel"])
def test_weight_file_is_read_once(tmp_path, monkeypatch, command):
    mom = tmp_path / "moments.txt"
    mom.write_text("".join(f"1/{2 * m + 1}\n" for m in range(1, 31)))
    calls, parse = [], cli.parse_weight

    def parse_weight(spec):
        calls.append(spec)
        return parse(spec)

    monkeypatch.setattr(cli, "parse_weight", parse_weight)
    code, out = run(tmp_path, command, "--weight", f"bounded-custom={mom}",
                    "--format", "json")
    assert code == 0
    assert calls == [f"bounded-custom={mom}"]
    assert json.loads(out.read_text())["config"]["weight"] == f"bounded-custom={mom}"


def test_bounded_custom_file_invalid_moments(tmp_path):
    mom = tmp_path / "moments.txt"
    mom.write_text("1/3\n1/2\n")  # increasing: not a bounded-support sequence
    code, _ = run(
        tmp_path, "ce-coeffs", "--weight", f"bounded-custom={mom}", "--n-max", "2"
    )
    assert code == 2


@pytest.mark.parametrize("command", ["ce-coeffs", "borel"])
def test_moments_no_weight_has_are_config_error(tmp_path, monkeypatch, capsys, command):
    # mu_4 = mu_2 puts every v^2 at 0 or 1, so mu_6 must be 1/2 and no
    # weight has 1/3; the file is refused while the weight is built, before
    # any coefficient
    mom = tmp_path / "moments.txt"
    mom.write_text("1/2\n1/2\n1/3\n")
    monkeypatch.setattr(cli, "ce_coefficients", None)
    code, out = run(tmp_path, command, "--weight", f"bounded-custom={mom}", "--n-max", "3")
    assert code == 2
    assert "beta_3 = -2/3: no weight has these moments" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["ce-coeffs", "borel"])
@pytest.mark.parametrize("text, message", [("1/2\n3/10\n1/4\n", "pi_4(1) = -3/10"),
                                           ("1/3\n1/2\n", "pi_3(1) = -1/2"),
                                           ("3/2\n", "pi_2(1) = -1/2")])
def test_moments_past_unit_speed_are_config_error(tmp_path, monkeypatch, capsys,
                                                  command, text, message):
    # a Gauss node of the levels lies past |v| = 1: refused while the weight
    # is built, before any coefficient
    mom = tmp_path / "moments.txt"
    mom.write_text(text)
    monkeypatch.setattr(cli, "ce_coefficients", None)
    code, out = run(tmp_path, command, "--weight", f"bounded-custom={mom}", "--n-max", "3")
    assert code == 2
    assert f"{message}: no weight on [-1, 1] has these moments" in capsys.readouterr().err
    assert not out.exists()


def test_zero_moments_are_delta(tmp_path, capsys):
    # all mass at v = 0: every a_2n is 0, so no ratio is defined, and the
    # Borel series of zeros has no Pade approximant
    mom = tmp_path / "zero.txt"
    mom.write_text("0\n" * 30)
    code, out = run(tmp_path, "ce-coeffs", "--weight", f"bounded-custom={mom}")
    assert code == 0
    _, rows = read_csv(out)
    assert rows == [[str(n), "0", "", "", ""] for n in range(1, 31)]
    code, out = run(tmp_path, "borel", "--weight", f"bounded-custom={mom}", name="borel")
    assert code == 3
    assert "SingularPadeSystem" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, text, options, message", [
    pytest.param("ce-coeffs", "1/3\n", ["--n-max", "5"], "supplies 1 moments; mu_4 requested",
                 id="ce-coeffs"),
    # borel's default 30 coefficients
    pytest.param("borel", "1/3\n1/5\n1/7\n", [], "supplies 3 moments; mu_8 requested",
                 id="borel"),
])
def test_bounded_custom_too_few_moments_is_config_error(tmp_path, capsys, monkeypatch,
                                                        command, text, options, message):
    # refused by build_source_series, before the kernel runs
    monkeypatch.setattr(attractor_kit.ce, "_lagrange_kernel", None)
    mom = tmp_path / "moments.txt"
    mom.write_text(text)
    code, out = run(tmp_path, command, "--weight", f"bounded-custom={mom}", *options)
    assert code == 2
    assert f"invalid configuration: custom weight {message}" in capsys.readouterr().err
    assert not out.exists()


def test_bounded_custom_vanishing_coefficient(tmp_path):
    # mu_2m = 1/2 is (delta(v+1) + 2 delta(v) + delta(v-1))/4, with a_4 = 0:
    # its row prints the zero and leaves the cells that divide by it empty
    mom = tmp_path / "three_point.txt"
    mom.write_text("1/2\n" * 10)
    code, out = run(
        tmp_path, "ce-coeffs", "--weight", f"bounded-custom={mom}", "--n-max", "10"
    )
    assert code == 0
    _, rows = read_csv(out)
    assert rows[0][1:] == ["-1/2", "-0.3010299956639812", "0", "0"]
    assert rows[1] == ["2", "0", "", "", ""]
    assert rows[2][3] == "1"


def test_bounded_custom_zero_denominator_is_config_error(tmp_path, capsys):
    mom = tmp_path / "moments.txt"
    mom.write_text("1/3\n1/0\n")
    code, _ = run(
        tmp_path, "ce-coeffs", "--weight", f"bounded-custom={mom}", "--n-max", "2"
    )
    assert code == 2
    assert "invalid configuration" in capsys.readouterr().err


def test_bounded_custom_indented_comment(tmp_path):
    mom = tmp_path / "moments.txt"
    mom.write_text("  # mu_2 = 1/3\n1/3\n\t# mu_4\n1/5\n")
    code, out = run(
        tmp_path, "ce-coeffs", "--weight", f"bounded-custom={mom}", "--n-max", "2"
    )
    assert code == 0
    _, rows = read_csv(out)
    assert [r[1] for r in rows] == ["-1/3", "-1/45"]


# --- folds ---------------------------------------------------------------------

def test_folds_table(tmp_path):
    code, out = run(tmp_path, "folds", "--n-list", "1,2")
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["n", "k_c", "omega_c", "residual", "note"]
    assert float(rows[0][1]) == pytest.approx(0.5, abs=1e-10)
    assert "k_c = 1/2" in rows[0][4]
    assert float(rows[1][1]) == pytest.approx(0.6235, abs=1e-3)
    assert rows[1][4] == ""


def test_folds_rejects_zero(tmp_path):
    for n_list in ("0", str(cli.N_LIST_MAX["folds"] + 1)):
        code, _ = run(tmp_path, "folds", "--n-list", n_list)
        assert code == 2


def test_folds_accepts_its_own_bound(tmp_path):
    # folds reaches further than dispersion: one find_fold per order
    bound = cli.N_LIST_MAX["folds"]
    assert bound > cli.N_LIST_MAX["dispersion"]
    code, out = run(tmp_path, "folds", "--n-list", str(bound))
    assert code == 0
    _, rows = read_csv(out)
    assert rows[0][0] == str(bound)
    assert float(rows[0][1]) < math.sqrt(math.pi / 2)
    assert float(rows[0][3]) <= 1e-10


def test_dispersion_rejects_order_past_its_bound(tmp_path):
    n = str(cli.N_LIST_MAX["dispersion"] + 1)
    code, _ = run(tmp_path, "dispersion", "--k-max", "0.1", "--n-list", n)
    assert code == 2


# the folds output for these orders, byte for byte: any change in the last
# bits of the spectral kernel shows here.  The values are checked against a
# 60-digit oracle in test_spectral.py::test_folds_match_high_precision_oracle
FOLDS_PINNED = (
    "n,k_c,omega_c,residual,note\n"
    "1,0.5,-0.5,0,n=1 fold is exactly k_c = 1/2 (discriminant of w^2 + w + k^2); the commonly quoted 0.47 appears to be a figure-read value\n"
    "2,0.62347364453507226,-0.53030534384913075,5.5511151231257827e-16,\n"
    "10,0.86521475530841618,-0.66000857102423027,1.7763568394002505e-15,\n"
    "50,1.0307459661532934,-0.78681209840592414,2.4424906541753444e-15,\n"
    "100,1.0811562827206207,-0.83061598951547022,1.5543122344752192e-15,\n"
    "200,1.1212851264563186,-0.86719521289256185,2.2204460492503131e-16,\n"
)


def test_folds_bytes_pinned(tmp_path):
    code, out = run(tmp_path, "folds", "--n-list", "1,2,10,50,100,200")
    assert code == 0
    assert out.read_text() == FOLDS_PINNED


def test_folds_at_largest_order_approach_gaussian_endpoint(tmp_path):
    # the folds rise towards k* = sqrt(pi/2), where the exact Gaussian branch
    # reaches omega = -1, and 1 + omega_c shrinks with n
    code, out = run(tmp_path, "folds", "--n-list", "50,200,400")
    assert code == 0
    _, rows = read_csv(out)
    k_c = [float(r[1]) for r in rows]
    gap = [1 + float(r[2]) for r in rows]
    assert k_c[1] < k_c[2] < math.sqrt(math.pi / 2)
    assert gap[0] > gap[1] > gap[2] > 0


# --- dispersion --------------------------------------------------------------------

# the exact and branch cells of `dispersion --k-min 0.1 --k-max 1.1 --k-step
# 0.2 --n-list 1,2,50,400`, as float.hex: the exact root from the spectral
# fraction (k = 0.1, 0.3, where u = (1 + w)/(k sqrt 2) > 2) and from erfc (k
# >= 0.5), and the branch values of four orders, the empty ones past their
# folds left out
DISPERSION_PINNED = {
    "omega_exact": ["-0x1.4486b21f25508p-7", "-0x1.573ed7fd1acf0p-4", "-0x1.b66af029d11f9p-3",
                    "-0x1.8a6b8ebc1709cp-2", "-0x1.2c906bd201522p-1", "-0x1.a051b3b65785ep-1"],
    "omega_branch_n1": ["-0x1.4b0626492f6b5p-7", "-0x1.999999999999cp-4"],
    "omega_branch_n2": ["-0x1.44888271d011ep-7", "-0x1.5a6bb5bd6a5cep-4", "-0x1.e8b3a9299e8eep-3"],
    "omega_branch_n50": ["-0x1.4486b21f25508p-7", "-0x1.573ed7fd1acf0p-4", "-0x1.b66af029d4a5dp-3",
                         "-0x1.8a6b98c9a7753p-2", "-0x1.2cc971994e98bp-1"],
    "omega_branch_n400": ["-0x1.4486b21f25508p-7", "-0x1.573ed7fd1acf0p-4", "-0x1.b66af029d11f7p-3",
                          "-0x1.8a6b8ebc1709fp-2", "-0x1.2c906bd23304bp-1", "-0x1.a07031abcde42p-1"],
}


def test_dispersion_cells_pinned(tmp_path):
    code, out = run(tmp_path, "dispersion", "--k-min", "0.1", "--k-max", "1.1",
                    "--k-step", "0.2", "--n-list", "1,2,50,400")
    assert code == 0
    header, rows = read_csv(out)
    for name, pinned in DISPERSION_PINNED.items():
        col = header.index(name)
        assert [float(r[col]).hex() for r in rows if r[col]] == pinned, name


def test_dispersion_table(tmp_path):
    code, out = run(
        tmp_path,
        "dispersion",
        "--k-min", "0", "--k-max", "0.4", "--k-step", "0.2",
        "--n-list", "1,2",
    )
    assert code == 0
    header, rows = read_csv(out)
    assert header[0] == "k"
    assert "omega_branch_n1" in header and "physical_n2" in header
    # k = 0 row is all zeros for the omega columns
    for name in ("omega_exact", "omega_resummed", "omega_ce2"):
        assert float(rows[0][header.index(name)]) == 0.0


def test_dispersion_rejects_oversized_grid_before_building_it(tmp_path, monkeypatch, capsys):
    # --k-step 1e-12 would ask for 1.2e12 points; validation refuses it from
    # the step count alone, before the command builds anything
    def fail(args):
        raise AssertionError("cmd_dispersion ran")

    monkeypatch.setattr(cli, "cmd_dispersion", fail)
    for step in ("1e-12", "9.99e-5"):
        code, _ = run(tmp_path, "dispersion", "--k-step", step, "--n-list", "1")
        assert code == 2
        assert f"{cli.K_POINTS_MAX} points" in capsys.readouterr().err
    # a step of 1e-4 over [0, 1.2] is exactly the largest grid accepted
    args = cli.build_parser().parse_args(["dispersion", "--k-step", "1e-4"])
    cli.validate(args)
    assert math.floor(cli._grid_steps(args)) + 1 == cli.K_POINTS_MAX


@pytest.mark.parametrize("k_min, k_max, k_step", [
    ("0.002", "1.2", "0.01"),  # one arange step past k_max is outside [0, 1.2]
    ("0.3", "0.9", "0.07"),  # one arange step past k_max is 0.93
])
def test_dispersion_grid_stops_at_k_max(tmp_path, k_min, k_max, k_step):
    code, out = run(
        tmp_path, "dispersion", "--k-min", k_min, "--k-max", k_max,
        "--k-step", k_step, "--n-list", "1",
    )
    assert code == 0
    header, rows = read_csv(out)
    ks = [float(r[header.index("k")]) for r in rows]
    assert ks[0] == float(k_min) and ks[-1] <= float(k_max)
    assert float(k_max) - ks[-1] < float(k_step)


def test_dispersion_k_squared_underflow(tmp_path):
    # k = 1e-200 squares to 0 in floats: the row is the k = 0 row
    code, out = run(
        tmp_path, "dispersion", "--k-min", "1e-200", "--k-max", "0.01",
        "--k-step", "0.01", "--n-list", "1",
    )
    assert code == 0
    header, rows = read_csv(out)
    assert len(rows) == 2
    for name in ("omega_exact", "omega_resummed"):
        assert rows[0][header.index(name)] == "0"
        assert float(rows[1][header.index(name)]) < 0


def test_dispersion_k_squared_subnormal(tmp_path):
    # k^2 = 1e-316 is subnormal and (1 + w)^2 / k^2 overflows, yet the exact
    # root is -k^2 to the last bit, as the n = 2 branch value is
    code, out = run(
        tmp_path, "dispersion", "--k-min", "1e-158", "--k-max", "1e-158",
        "--n-list", "2",
    )
    assert code == 0
    header, rows = read_csv(out)
    row = dict(zip(header, rows[0]))
    assert len(rows) == 1 and float(row["omega_exact"]) < 0
    assert row["omega_exact"] == row["omega_branch_n2"]
    assert row["dev_branch_n2"] == row["dev_resummed"] == "0"


def test_dispersion_rejects_bad_grid(tmp_path):
    code, _ = run(tmp_path, "dispersion", "--k-min", "0.5", "--k-max", "0.1")
    assert code == 2
    code, _ = run(tmp_path, "dispersion", "--k-max", "2.0")
    assert code == 2


def test_dispersion_rejects_last_point_past_the_cap(tmp_path, monkeypatch, capsys):
    # 1.2 / 1.20000000108 falls 9e-10 short of one step, within the step
    # count's rounding allowance, so the grid's second point would be
    # 1.20000000108, past K_GRID_MAX by more than compare_methods allows:
    # refused as a configuration, before the command runs
    def fail(args):
        raise AssertionError("cmd_dispersion ran")

    monkeypatch.setattr(cli, "cmd_dispersion", fail)
    code, _ = run(tmp_path, "dispersion", "--k-min", "0", "--k-max", "1.2",
                  "--k-step", "1.20000000108", "--n-list", "1")
    assert code == 2
    assert "--k-step 1.20000000108 ends the grid past 1.2" in capsys.readouterr().err
    # every grid near a whole number of steps that validation accepts lies
    # within the range that compare_methods accepts
    accepted = 0
    for steps in (1, 2, 3, 7, 120):
        for rel in (-3e-9, -1e-9, -9e-10, -1e-10, 0.0, 1e-10, 9e-10, 1e-9, 3e-9):
            k_step = 1.2 / steps * (1 + rel)
            args = cli.build_parser().parse_args(["dispersion", "--k-step", repr(k_step)])
            try:
                cli.validate(args)
            except ValueError:
                continue
            accepted += 1
            points = math.floor(cli._grid_steps(args)) + 1
            assert all(map(dispersion._on_grid, [k_step * i for i in range(points)]))
    assert accepted >= 40


@pytest.mark.parametrize(
    "option, value",
    [("--k-step", "inf"), ("--k-min", "nan"), ("--k-max", "nan"), ("--k-step", "nan")],
)
def test_dispersion_rejects_nonfinite_grid_value(tmp_path, monkeypatch, capsys, option, value):
    # refused by name before any other grid check: k_min + inf * 0 is NaN,
    # and a NaN step count is no oversized grid
    def fail(args):
        raise AssertionError("cmd_dispersion ran")

    monkeypatch.setattr(cli, "cmd_dispersion", fail)
    code, _ = run(tmp_path, "dispersion", option, value, "--n-list", "1")
    assert code == 2
    assert f"{option} must be finite" in capsys.readouterr().err


# --- borel ------------------------------------------------------------------------

def test_borel_pole_summary(tmp_path):
    code, out = run(tmp_path, "borel", "--n-max", "30")
    assert code == 0
    text = out.read_text()
    assert "summability: strict" in text
    header, rows = read_csv(out)
    summary = [r for r in rows if r[0] == "summary" and "nearest pole" in r[6]]
    assert len(summary) == 1
    assert float(summary[0][3]) == pytest.approx(-0.5, abs=0.02)


@pytest.mark.parametrize(
    "argv", [[], ["--n-max", "10"], ["--pade", "3", "2"], ["--pade", "3", "0"]]
)
def test_borel_builds_one_borel_transform(tmp_path, monkeypatch, argv):
    # the coeff rows list the coefficients the approximant was built from,
    # so one transform serves both; every binding of the function is counted
    real, calls = attractor_kit.borel.borel_transform, []

    def counted(c):
        calls.append(len(c))
        return real(c)

    for name, mod in list(sys.modules.items()):
        if name == "attractor_kit" or name.startswith("attractor_kit."):
            for bound, value in list(vars(mod).items()):
                if value is real:
                    monkeypatch.setattr(mod, bound, counted)
    code, out = run(tmp_path, "borel", *argv)
    assert code == 0
    _, rows = read_csv(out)
    coeff_rows = [r for r in rows if r[0] == "coeff"]
    assert calls == [len(coeff_rows)]


def test_borel_constant_approximant(tmp_path):
    code, out = run(tmp_path, "borel", "--n-max", "3", "--pade", "0", "0")
    assert code == 0
    _, rows = read_csv(out)
    assert not any(r[0] == "pole" for r in rows)


@pytest.mark.parametrize("command", ["borel", "dispersion"])
def test_pade_order_bound_checked_before_coefficients(tmp_path, monkeypatch, capsys, command):
    # [L/M] needs L + M + 1 coefficients; past N_MAX_MAX validation refuses
    # the orders before any coefficient is computed
    def fail(*args):
        raise AssertionError("coefficients computed")

    monkeypatch.setattr(cli, "ce_coefficients", fail)
    monkeypatch.setattr(cli, "compare_methods", fail)
    half = cli.N_MAX_MAX // 2
    code, _ = run(tmp_path, command, "--pade", str(half), str(half))
    assert code == 2
    assert f"L + M + 1 <= {cli.N_MAX_MAX}" in capsys.readouterr().err
    for orders in ((half, half - 1), (14, 14)):
        args = cli.build_parser().parse_args([command, "--pade", *map(str, orders)])
        cli.validate(args)


@pytest.mark.parametrize("command", ["borel", "dispersion"])
@pytest.mark.parametrize("M", [1, 3])
def test_pade_zero_numerator_is_config_error(tmp_path, monkeypatch, capsys, command, M):
    # the Borel series starts at c_0 = 0, so the [0/M] Toeplitz system is
    # singular for every M >= 1: refused before any coefficient is computed
    def fail(*args):
        raise AssertionError("coefficients computed")

    monkeypatch.setattr(cli, "ce_coefficients", fail)
    monkeypatch.setattr(cli, "compare_methods", fail)
    code, _ = run(tmp_path, command, "--pade", "0", str(M))
    assert code == 2
    assert "no [0/M] approximant" in capsys.readouterr().err


# --- parsing and dispatch -----------------------------------------------------------

def test_main_builds_no_parser(tmp_path, monkeypatch):
    # the parser is built once, at import
    def fail():
        raise AssertionError("build_parser called")

    monkeypatch.setattr(cli, "build_parser", fail)
    code, out = run(tmp_path, "folds", "--n-list", "1,2")
    assert code == 0
    assert out.read_text() == "".join(FOLDS_PINNED.splitlines(keepends=True)[:3])


def test_command_returns_its_table_and_writes_nothing(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    args = cli.build_parser().parse_args(["folds", "--n-list", "1,2", "--out", "folds.csv"])
    cli.validate(args)
    columns, rows, notes = cli.cmd_folds(args)
    assert columns == ["n", "k_c", "omega_c", "residual", "note"]
    assert [r[0] for r in rows] == [1, 2]
    assert notes == [cli.FOLD_N1_NOTE]
    assert list(tmp_path.iterdir()) == []


def test_command_is_looked_up_when_main_runs(tmp_path, monkeypatch):
    # a rebinding of cli.cmd_folds after import, as a tracer makes, is the
    # function that runs, once per main
    calls, real = [], cli.cmd_folds

    def wrapped(args):
        calls.append(args.n_list)
        return real(args)

    monkeypatch.setattr(cli, "cmd_folds", wrapped)
    for n_list in ("1", "2,3"):
        code, _ = run(tmp_path, "folds", "--n-list", n_list)
        assert code == 0
    assert calls == [[1], [2, 3]]


def test_defaults_survive_an_earlier_run(tmp_path):
    # every run in a process parses with one parser, which hands each the
    # same default objects: no run may change them
    _, first = run(tmp_path, "borel", "--pade", "3", "3", "--format", "json", name="a.json")
    _, second = run(tmp_path, "borel", "--format", "json", name="b.json")
    assert json.loads(first.read_text())["config"]["pade"] == [3, 3]
    assert json.loads(second.read_text())["config"]["pade"] == [14, 14]


# --- output handling ----------------------------------------------------------------

def test_out_in_missing_directory_is_config_error(tmp_path, monkeypatch, capsys):
    # refused by validation, before any fold is computed
    calls = []
    monkeypatch.setattr(cli, "find_fold", calls.append)
    out = tmp_path / "missing" / "x.csv"
    assert main(["folds", "--n-list", "400", "--out", str(out)]) == 2
    assert calls == []
    assert "no such directory" in capsys.readouterr().err
    assert not out.parent.exists()


def test_out_naming_a_directory_is_config_error(tmp_path, monkeypatch, capsys):
    # refused by validation, before any coefficient, and no temporary file
    # is left beside it
    out = tmp_path / "dir"
    out.mkdir()
    monkeypatch.setattr(cli, "ce_coefficients", None)
    assert main(["ce-coeffs", "--out", str(out)]) == 2
    assert "is a directory" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [out]
    assert list(out.iterdir()) == []


def test_out_file_takes_the_umask_mode(tmp_path):
    # the output is written to a temporary file and renamed into place; it
    # gets the mode open(path, "w") would give a new file, both where it
    # creates the file and where it replaces one
    old = os.umask(0o022)
    try:
        for _ in range(2):
            code, out = run(tmp_path, "folds", "--n-list", "1", name="perm.csv")
            assert code == 0
            assert out.stat().st_mode & 0o777 == 0o644
    finally:
        os.umask(old)


def test_out_file_leaves_the_umask_alone(tmp_path, monkeypatch):
    # os.umask sets the process umask to read it, so a file that another
    # thread creates meanwhile would escape it; the output never needs it
    def umask(mask):
        raise AssertionError(f"os.umask({mask:#o}) called")

    monkeypatch.setattr(os, "umask", umask)
    code, out = run(tmp_path, "folds", "--n-list", "1", name="folds.csv")
    assert code == 0 and out.read_text().startswith("n,k_c")
    assert [p.name for p in tmp_path.iterdir()] == ["folds.csv"]


def _command_table(*argv):
    args = cli.build_parser().parse_args([*argv, "--out", "-"])
    cli.validate(args)
    columns, rows, _ = getattr(cli, "cmd_" + args.command.replace("-", "_"))(args)
    return columns, rows


def _csv_writer_bytes(columns, rows):
    ref = io.StringIO()
    csv.writer(ref, lineterminator="\n").writerows(
        [columns] + [[cli._csv_cell(c) for c in row] for row in rows])
    return ref.getvalue().encode("utf-8")


@pytest.mark.parametrize("table", [
    # NaN, bool and float cells
    pytest.param(lambda: _command_table("dispersion", "--k-min", "0", "--k-max", "1.2",
                                        "--k-step", "0.01", "--n-list", "1,2,20,50"),
                 id="dispersion"),
    # Fraction, int and a NaN ratio
    pytest.param(lambda: _command_table("ce-coeffs", "--n-max", "30"), id="ce-coeffs"),
    # text row types and notes
    pytest.param(lambda: _command_table("borel"), id="borel"),
    # the n = 1 note is text
    pytest.param(lambda: _command_table("folds", "--n-list", "1,2,20"), id="folds"),
    pytest.param(lambda: (["name", "value"],
                          [["a,b", 1.5], ['say "hi"', None], ["x", math.nan]]),
                 id="quoted-text"),
    pytest.param(lambda: (["n", "k_c"], []), id="no-rows"),
    # csv.writer writes a lone empty field as ""
    pytest.param(lambda: (["k"], [[None], [0.5]]), id="one-column"),
])
def test_csv_is_what_csv_writer_writes(tmp_path, table):
    # every table is joined from its cells' texts without csv.writer, which
    # must not change a byte
    columns, rows = table()
    out = tmp_path / "t.csv"
    cli.emit(argparse.Namespace(format="csv", out=str(out)), columns, rows, [])
    assert out.read_bytes() == _csv_writer_bytes(columns, rows)


# csv.writer quotes "\r" only from Python 3.13 on, and no CLI text holds one
_TEXT = st.text(alphabet='a,"\n; ', max_size=6)


@settings(max_examples=200, deadline=None)
@given(columns=st.lists(_TEXT, min_size=1, max_size=3),
       rows=st.lists(st.lists(st.one_of(_TEXT, st.none(), st.floats(), st.integers()),
                              min_size=1, max_size=3), max_size=4))
def test_csv_quotes_text_as_csv_writer_does(columns, rows):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.emit(argparse.Namespace(format="csv", out="-"), columns, rows, [])
    assert out.getvalue().encode("utf-8") == _csv_writer_bytes(columns, rows)


def test_repeated_runs_are_byte_identical(tmp_path):
    argv = ["dispersion", "--k-min", "0", "--k-max", "0.3", "--k-step", "0.1",
            "--n-list", "1,2"]
    _, a = run(tmp_path, *argv, name="a.csv")
    _, b = run(tmp_path, *argv, name="b.csv")
    assert a.read_bytes() == b.read_bytes()


def _refuse_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def _check_ce_coeffs_cells(cells):
    assert all(type(c["n"]) is int and type(c["a_2n"]) is str
               and type(c["abs_log10"]) is float for c in cells)
    assert cells[-1]["r_n"] is None and cells[-1]["r_n_over_2np1"] is None


def _check_folds_cells(cells):
    assert [c["n"] for c in cells] == [1, 2]
    assert all(type(c["k_c"]) is float for c in cells)
    assert [c["note"] for c in cells] == [cli.FOLD_N1_NOTE, None]


def _check_dispersion_cells(cells):
    assert all(type(c["k"]) is float and type(c["physical_n1"]) is bool for c in cells)
    assert all((c["omega_resummed"] is None) == (c["dev_resummed"] is None) for c in cells)


def _check_borel_cells(cells):
    coeffs = [c for c in cells if c["row_type"] == "coeff"]
    poles = [c for c in cells if c["row_type"] == "pole"]
    assert [c["index"] for c in coeffs] == list(range(1, 9))
    assert all(type(c["b_n_exact"]) is str and c["re"] is None for c in coeffs)
    assert poles and all(c["index"] is None and type(c["re"]) is float for c in poles)


JSON_CELL_CHECKS = {"ce-coeffs": _check_ce_coeffs_cells, "folds": _check_folds_cells,
                    "dispersion": _check_dispersion_cells, "borel": _check_borel_cells}


@pytest.mark.parametrize(
    "argv",
    [
        ["ce-coeffs", "--n-max", "5"],
        ["folds", "--n-list", "1,2"],
        ["dispersion", "--k-min", "0", "--k-max", "0.2", "--k-step", "0.1",
         "--n-list", "1"],
        ["borel", "--n-max", "8", "--pade", "3", "3"],
        # the Laplace sum of [129/47] overflows from k = 0.8 on
        ["dispersion", "--k-min", "0.7", "--k-max", "1.2", "--k-step", "0.1",
         "--n-list", "1", "--pade", "129", "47"],
    ],
)
def test_json_validates_against_shipped_schema(tmp_path, schema, argv):
    # strict: NaN and Infinity are not JSON (RFC 8259, section 6)
    code, out = run(tmp_path, *argv, "--format", "json", name="out.json")
    assert code == 0
    payload = json.loads(out.read_text(), parse_constant=_refuse_constant)
    jsonschema.validate(payload, schema)
    assert payload["command"] == argv[0]
    JSON_CELL_CHECKS[argv[0]]([dict(zip(payload["columns"], row)) for row in payload["rows"]])


def test_json_config_echo_roundtrip(tmp_path):
    _, out = run(tmp_path, "ce-coeffs", "--n-max", "4", "--format", "json",
                 name="o.json")
    cfg = json.loads(out.read_text())["config"]
    assert cfg["n_max"] == 4
    assert cfg["weight"] == "gaussian"
    # the parsed weight, a tuple, is not an option's value
    assert "weight_model" not in cfg


def test_cli_import_loads_no_scipy(tmp_path):
    # a fresh interpreter: every CLI run pays this import before any work.
    # The import builds the parser, which loads argparse's gettext and
    # locale.  The Gauss rules of the Laplace sums are stored, so not even a
    # dispersion run loads numpy.polynomial.  Nor does the import load
    # what no command needs: json only for a JSON output, and csv,
    # dataclasses or statistics never
    src = str(Path(attractor_kit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    argv = ["dispersion", "--k-min", "0", "--k-max", "1.2", "--k-step", "0.01",
            "--n-list", "1,2,20,50", "--out", str(tmp_path / "readme.csv")]
    json_argv = ["folds", "--n-list", "1", "--format", "json", "--out", str(tmp_path / "f.json")]
    probe = (
        "import sys, attractor_kit.cli; "
        "imported = sorted(sys.modules); "
        f"code = attractor_kit.cli.main({argv!r}); "
        "after_run = sorted(sys.modules); "
        f"json_code = attractor_kit.cli.main({json_argv!r}); "
        "after_json = sorted(sys.modules); "
        "import json; "
        "print(json.dumps([imported, code, after_run, json_code, after_json]))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    )
    modules, code, after_run, json_code, after_json = json.loads(out.stdout)
    assert [m for m in modules if m.split(".")[0] == "scipy"] == []
    assert "locale" in modules
    assert code == json_code == 0
    assert [m for m in after_run if m.startswith("numpy.polynomial")] == []
    unused = {"csv", "dataclasses", "json", "statistics"}
    assert unused.intersection(modules) == set()
    assert unused.intersection(after_run) == set()
    assert "json" in after_json
