import json
import math
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import attractor_kit
from attractor_kit import cli
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


def test_ce_coeffs_rejects_zero_order(tmp_path):
    code, _ = run(tmp_path, "ce-coeffs", "--n-max", "0")
    assert code == 2


def test_ce_coeffs_n_max_bound(tmp_path, capsys):
    code, _ = run(tmp_path, "ce-coeffs", "--n-max", str(cli.N_MAX_MAX + 1))
    assert code == 2
    assert f"--n-max must be in 1..{cli.N_MAX_MAX}\n" in capsys.readouterr().err
    args = cli.build_parser().parse_args(["borel", "--n-max", str(cli.N_MAX_MAX)])
    cli.validate(args)


def test_ce_coeffs_rejects_unknown_weight(tmp_path):
    code, _ = run(tmp_path, "ce-coeffs", "--weight", "cauchy")
    assert code == 2


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


def test_bounded_custom_too_few_moments_is_compute_error(tmp_path):
    mom = tmp_path / "moments.txt"
    mom.write_text("1/3\n")
    code, _ = run(
        tmp_path, "ce-coeffs", "--weight", f"bounded-custom={mom}", "--n-max", "5"
    )
    assert code == 3


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
    for n_list in ("0", "401"):
        code, _ = run(tmp_path, "folds", "--n-list", n_list)
        assert code == 2


# the folds output for these orders, byte for byte: any change in the last
# bits of the spectral kernel shows here.  The values are checked against a
# 60-digit oracle in test_spectral.py::test_folds_match_high_precision_oracle
FOLDS_PINNED = (
    "n,k_c,omega_c,residual,note\n"
    "1,0.5,-0.5,0,n=1 fold is exactly k_c = 1/2 (discriminant of w^2 + w + k^2); the commonly quoted 0.47 appears to be a figure-read value\n"
    "2,0.62347364453507226,-0.53030534384913064,1.2164597925592282e-17,\n"
    "10,0.86521475530841663,-0.66000857102423049,5.201741341937577e-16,\n"
    "50,1.0307459661532892,-0.78681209840592148,4.2741618458870146e-15,\n"
    "100,1.0811562827206451,-0.83061598951548143,3.9921086639021436e-14,\n"
    "200,1.1212851264563313,-0.86719521289256019,1.5321309492298861e-14,\n"
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
    for step in ("1e-12", "9.99e-5", "nan"):
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


def test_dispersion_rejects_bad_grid(tmp_path):
    code, _ = run(tmp_path, "dispersion", "--k-min", "0.5", "--k-max", "0.1")
    assert code == 2
    code, _ = run(tmp_path, "dispersion", "--k-max", "2.0")
    assert code == 2


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


def test_repeated_runs_are_byte_identical(tmp_path):
    argv = ["dispersion", "--k-min", "0", "--k-max", "0.3", "--k-step", "0.1",
            "--n-list", "1,2"]
    _, a = run(tmp_path, *argv, name="a.csv")
    _, b = run(tmp_path, *argv, name="b.csv")
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["ce-coeffs", "--n-max", "5"],
        ["folds", "--n-list", "1,2"],
        ["dispersion", "--k-min", "0", "--k-max", "0.2", "--k-step", "0.1",
         "--n-list", "1"],
        ["borel", "--n-max", "8", "--pade", "3", "3"],
    ],
)
def test_json_validates_against_shipped_schema(tmp_path, schema, argv):
    code, out = run(tmp_path, *argv, "--format", "json", name="out.json")
    assert code == 0
    payload = json.loads(out.read_text())
    jsonschema.validate(payload, schema)
    assert payload["command"] == argv[0]


def test_json_config_echo_roundtrip(tmp_path):
    _, out = run(tmp_path, "ce-coeffs", "--n-max", "4", "--format", "json",
                 name="o.json")
    cfg = json.loads(out.read_text())["config"]
    assert cfg["n_max"] == 4
    assert cfg["weight"] == "gaussian"


def test_cli_import_loads_no_scipy():
    # a fresh interpreter: every CLI run pays this import before any work.
    # The modules a first command would otherwise load lazily (numpy's
    # Gauss-Laguerre rule, gettext's locale) come with the import instead
    src = str(Path(attractor_kit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = (
        "import sys, json, attractor_kit.cli; "
        "print(json.dumps(sorted(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    )
    modules = json.loads(out.stdout)
    assert [m for m in modules if m.split(".")[0] == "scipy"] == []
    assert "numpy.polynomial.laguerre" in modules
    assert "locale" in modules
