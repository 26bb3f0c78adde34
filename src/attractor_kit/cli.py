"""Command-line front-end: attractor-kit <ce-coeffs|dispersion|folds|borel>.

Emits deterministic CSV or JSON artifacts.  Exit codes: 0 success,
2 configuration error, 3 computation failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
# argparse translates its messages through gettext, which imports locale
# when the first parser is built; importing it here keeps that one-time
# cost in start-up rather than in the first command
import locale  # noqa: F401
import math
import os
import sys
import tempfile
from fractions import Fraction

from . import __version__
from .borel import borel_transform, pade
from .ce import (
    InvalidWeight,
    WeightModel,
    ce_coefficients,
    ratio_sequence,
)
from .dispersion import K_GRID_MAX, compare_methods
from .spectral import NoFoldFound, find_fold

EXIT_CONFIG = 2
EXIT_COMPUTE = 3

# largest truncation order `folds` and `dispersion` accept: a sweep of
# find_fold over every n up to it found a fold each time, with k_c rising
N_LIST_MAX = 400

# largest --n-max `ce-coeffs` and `borel` accept, and largest coefficient
# count L + M + 1 that --pade may ask for: a custom weight still runs the
# O(n^3) Lagrange kernel
N_MAX_MAX = 200

# most k-grid points `dispersion` accepts: a step of 1e-4 over [0, K_GRID_MAX]
K_POINTS_MAX = 12001

# truncation orders of `dispersion` and `folds` when not given
N_LIST_DEFAULT = [1, 2, 20, 50]

FOLD_N1_NOTE = (
    "n=1 fold is exactly k_c = 1/2 (discriminant of w^2 + w + k^2); "
    "the commonly quoted 0.47 appears to be a figure-read value"
)


def _fmt_float(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return ""
    return "%.17g" % float(x)


def _fmt_exact(x: Fraction) -> str:
    return str(x)  # Fraction renders as "p/q" or "p"


def _log10_abs(a: Fraction) -> float:
    """log10|a| for a nonzero rational, also where |a| leaves the float range."""
    try:
        return math.log10(abs(a))
    except (OverflowError, ValueError):
        return math.log10(abs(a.numerator)) - math.log10(a.denominator)


def parse_weight(spec: str) -> WeightModel:
    if spec == "gaussian":
        return WeightModel.gaussian()
    if spec == "bounded-uniform":
        return WeightModel.bounded_uniform()
    if spec.startswith("bounded-custom="):
        path = spec.split("=", 1)[1]
        with open(path, "r", encoding="utf-8") as fh:
            lines = [s for s in map(str.strip, fh) if s and not s.startswith("#")]
        try:
            moments = [Fraction(s) for s in lines]
        except ZeroDivisionError as exc:
            raise ValueError(f"a moment in {path} has a zero denominator") from exc
        return WeightModel.bounded_custom(moments)
    raise argparse.ArgumentTypeError(
        f"unknown weight {spec!r}; use gaussian, bounded-uniform, "
        "or bounded-custom=FILE"
    )


def _write_atomic(path: str, data: bytes) -> None:
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".attractor-kit-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def emit(args, command: str, columns: list, rows: list, notes: list) -> None:
    """Serialize one result table as CSV or JSON, atomically."""
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow(
                [c if isinstance(c, str) else _fmt_float(c) for c in row]
            )
        data = buf.getvalue().encode("utf-8")
    else:
        payload = {
            "command": command,
            "config": {
                k: v
                for k, v in sorted(vars(args).items())
                if k not in ("func", "out")  # out path is not part of the result
                and isinstance(v, (str, int, float, bool, list, type(None)))
            },
            "columns": columns,
            "rows": [
                [None if isinstance(c, float) and math.isnan(c) else c for c in row]
                for row in rows
            ],
            "notes": notes,
        }
        data = (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")
    if args.out == "-":
        sys.stdout.write(data.decode("utf-8"))
    else:
        _write_atomic(args.out, data)


def cmd_ce_coeffs(args) -> int:
    coeffs = ce_coefficients(args.weight_model, args.n_max)
    ratios = ratio_sequence(coeffs) if len(coeffs) >= 2 else []
    columns = ["n", "a_2n", "abs_log10", "r_n", "r_n_over_2np1"]
    rows = []
    for n, a in enumerate(coeffs.values, 1):
        r = ratios[n - 1] if n - 1 < len(ratios) else math.nan
        rows.append(
            [
                str(n),
                _fmt_exact(a),
                _fmt_float(_log10_abs(a) if a != 0 else math.nan),
                _fmt_float(r),
                _fmt_float(r / (2 * (n + 1)) if not math.isnan(r) else r),
            ]
        )
    emit(args, "ce-coeffs", columns, rows, [])
    return 0


def _grid_steps(args) -> float:
    """Steps of k_step that fit in [k_min, k_max]; the grid has floor() + 1
    points, k_min + i k_step.  The 1e-9 absorbs the rounding of the
    quotient: 1.2 / 0.05 = 23.999999999999996."""
    return (args.k_max - args.k_min) / args.k_step + 1e-9


def cmd_dispersion(args) -> int:
    points = math.floor(_grid_steps(args)) + 1
    ks = [args.k_min + args.k_step * i for i in range(points)]
    table = compare_methods(ks, args.n_list, *args.pade)
    emit(args, "dispersion", list(table), list(zip(*table.values())), [])
    return 0


def cmd_folds(args) -> int:
    columns = ["n", "k_c", "omega_c", "residual", "note"]
    rows, notes = [], []
    for n in args.n_list:
        note = FOLD_N1_NOTE if n == 1 else ""
        try:
            fp = find_fold(n)
            rows.append([str(n), fp.k_c, fp.omega_c, fp.residual, note])
        except NoFoldFound as exc:
            rows.append([str(n), math.nan, math.nan, math.nan, f"no fold: {exc}"])
        if note:
            notes.append(note)
    emit(args, "folds", columns, rows, notes)
    return 0


def cmd_borel(args) -> int:
    L, M = args.pade
    n_coeffs = max(args.n_max, L + M + 1)
    coeffs = ce_coefficients(args.weight_model, n_coeffs)
    b = borel_transform(coeffs)
    approx = pade([0.0] + [float(v) for v in b[: L + M]], L, M)

    columns = ["row_type", "index", "b_n_exact", "re", "im", "abs_residue", "note"]
    rows = []
    for n, bn in enumerate(b, 1):
        rows.append(["coeff", str(n), _fmt_exact(bn), "", "", "", ""])
    for p, r, genuine in zip(approx.poles, approx.residues, approx.physical):
        rows.append(
            [
                "pole",
                "",
                "",
                _fmt_float(p.real),
                _fmt_float(p.imag),
                _fmt_float(abs(r)),
                "" if genuine else "spurious",
            ]
        )
    notes = []
    physical = approx.physical_poles
    if physical.size:
        nearest = min(physical, key=abs)
        dist = abs(nearest - (-0.5))
        rows.append(
            ["summary", "", "", _fmt_float(nearest.real), _fmt_float(nearest.imag),
             "", f"nearest pole; |pole-(-1/2)| = {_fmt_float(dist)}"]
        )
        strict = all(p.real < 0 for p in physical)
        flag = "strict" if strict else "obstructed"
        rows.append(["summary", "", "", "", "", "", f"summability: {flag}"])
        notes.append(f"summability: {flag}")
    emit(args, "borel", columns, rows, notes)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="attractor-kit",
        description="Exact gradient-expansion coefficients, Borel-Pade "
        "resummation, and spectral branches of the 1D BGK attractor.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, weight=True, nmax=True, pade_opt=False, grid=False, nlist=False):
        if weight:
            p.add_argument("--weight", default="gaussian",
                           help="gaussian | bounded-uniform | bounded-custom=FILE")
        if nmax:
            p.add_argument("--n-max", type=int, default=30, dest="n_max")
        if pade_opt:
            p.add_argument("--pade", type=int, nargs=2, default=[14, 14],
                           metavar=("L", "M"))
        if grid:
            p.add_argument("--k-min", type=float, default=0.0, dest="k_min")
            p.add_argument("--k-max", type=float, default=K_GRID_MAX, dest="k_max")
            p.add_argument("--k-step", type=float, default=0.01, dest="k_step")
        if nlist:
            p.add_argument("--n-list", default=N_LIST_DEFAULT, dest="n_list",
                           type=lambda s: [int(v) for v in s.split(",")])
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default="-", help="output path ('-' = stdout)")

    p = sub.add_parser("ce-coeffs", help="exact coefficients a_2n and ratios")
    common(p)
    p.set_defaults(func=cmd_ce_coeffs)

    p = sub.add_parser("dispersion", help="omega(k) by every method")
    common(p, weight=False, nmax=False, pade_opt=True, grid=True, nlist=True)
    p.set_defaults(func=cmd_dispersion)

    p = sub.add_parser("folds", help="fold points k_c(n) of the branches")
    common(p, weight=False, nmax=False, nlist=True)
    p.set_defaults(func=cmd_folds)

    p = sub.add_parser("borel", help="Borel coefficients and Pade poles")
    common(p, pade_opt=True)
    p.set_defaults(func=cmd_borel)
    return parser


def validate(args) -> None:
    if args.out != "-" and not os.path.isdir(os.path.dirname(os.path.abspath(args.out))):
        raise ValueError(f"--out {args.out}: no such directory")
    if not 1 <= getattr(args, "n_max", 1) <= N_MAX_MAX:
        raise ValueError(f"--n-max must be in 1..{N_MAX_MAX}")
    if hasattr(args, "n_list") and (
        not args.n_list or min(args.n_list) < 1 or max(args.n_list) > N_LIST_MAX
    ):
        raise ValueError(f"--n-list entries must be in 1..{N_LIST_MAX}")
    if hasattr(args, "pade"):
        if args.pade[0] < 0 or args.pade[1] < 0:
            raise ValueError("--pade orders must be non-negative")
        if sum(args.pade) + 1 > N_MAX_MAX:
            raise ValueError(f"--pade L M needs L + M + 1 <= {N_MAX_MAX} coefficients")
    if hasattr(args, "k_step"):
        if args.k_step <= 0 or args.k_min < 0 or args.k_max < args.k_min:
            raise ValueError("k grid must satisfy 0 <= k-min <= k-max, k-step > 0")
        if args.k_max > K_GRID_MAX:
            raise ValueError(f"k-max capped at {K_GRID_MAX}")
        # floor(steps) + 1 > K_POINTS_MAX, without building the grid; the
        # negated test also refuses a NaN bound or step
        if not _grid_steps(args) < K_POINTS_MAX:
            raise ValueError(f"k grid capped at {K_POINTS_MAX} points; raise --k-step")
    if getattr(args, "weight", None) is not None:
        # parsed once, failing early on a bad spec; the commands read the model
        args.weight_model = parse_weight(args.weight)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        validate(args)
    except (ValueError, InvalidWeight, OSError, argparse.ArgumentTypeError) as exc:
        print(f"attractor-kit: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return args.func(args)
    except Exception as exc:
        print(f"attractor-kit: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
