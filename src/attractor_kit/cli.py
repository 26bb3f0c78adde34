"""Command-line front-end: attractor-kit <ce-coeffs|dispersion|folds|borel>.

Emits deterministic CSV or JSON artifacts.  Exit codes: 0 success,
2 configuration error, 3 computation failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import os
import sys
from fractions import Fraction

from . import __version__
from .borel import resum_dispersion, summability
from .ce import InsufficientData, WeightModel, ce_coefficients, ratio_sequence
from .dispersion import _GRID_ROUNDING, K_GRID_MAX, _on_grid, compare_methods
from .spectral import NoFoldFound, find_fold

EXIT_CONFIG = 2
EXIT_COMPUTE = 3

# largest truncation order each command accepts in --n-list.  For `folds`,
# a sweep of find_fold over every n up to it found a fold each time, with
# k_c rising.  `dispersion` costs about two fraction evaluations of depth
# 2n per grid point and order, so its bound stays lower
N_LIST_MAX = {"dispersion": 400, "folds": 3200}

# largest --n-max `ce-coeffs` and `borel` accept, and largest coefficient
# count L + M + 1 that --pade may ask for: a custom weight runs the
# Lagrange kernel, about n^{5/2} integer products whose integers grow with
# n, 4-5 s at n = 200 for the uniform and 3/(2m+3) moments (2-vCPU Xeon)
N_MAX_MAX = 200

# most k-grid points `dispersion` accepts: a step of 1e-4 over [0, K_GRID_MAX]
K_POINTS_MAX = 12001

# truncation orders of `dispersion` and `folds` when not given
N_LIST_DEFAULT = [1, 2, 20, 50]

FOLD_N1_NOTE = (
    "n=1 fold is exactly k_c = 1/2 (discriminant of w^2 + w + k^2); "
    "the commonly quoted 0.47 appears to be a figure-read value"
)


def _csv_cell(c) -> str:
    """A cell as CSV text; None and a non-finite float are empty.  A float,
    the common cell, is decided by its first type test."""
    if isinstance(c, float):
        return "%.17g" % c if math.isfinite(c) else ""
    if c is None:
        return ""
    if isinstance(c, bool):
        return "1" if c else "0"
    return str(c)


def _unquoted(columns: list, rows: list) -> bool:
    """Whether csv.writer would quote no field of the table: more than one
    column (a lone empty field is written as ""), identifiers for names, and
    no str cell, so every other cell is a number's text or empty."""
    return (len(columns) > 1 and all(map(str.isidentifier, columns))
            and not any(isinstance(c, str) for row in rows for c in row))


def _json_cell(c):
    """A cell as a JSON value: a Fraction as its string, and None and a
    non-finite float as null."""
    if isinstance(c, Fraction):
        return str(c)
    return None if isinstance(c, float) and not math.isfinite(c) else c


def _log10_abs(a: Fraction) -> float:
    """log10|a| for a nonzero rational, also where |a| leaves the normal
    float range: there the float keeps too few bits, or none, so the log
    comes from the integers."""
    try:
        x = abs(float(a))
    except OverflowError:
        x = math.inf
    if sys.float_info.min <= x < math.inf:
        return math.log10(x)
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
    raise ValueError(
        f"unknown weight {spec!r}; use gaussian, bounded-uniform, "
        "or bounded-custom=FILE"
    )


def _write_atomic(path: str, data: bytes) -> None:
    d = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(d, f".attractor-kit-{os.urandom(8).hex()}")
    # created 0o666, as open(path, "w") creates a file, so the kernel applies
    # the umask; O_EXCL never opens a file that is already there
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def emit(args, columns: list, rows: list, notes: list) -> None:
    """Serialize one result table as CSV or JSON, atomically."""
    if args.format == "csv" and _unquoted(columns, rows):
        # the bytes csv.writer would write, without its scan of every field
        # for characters to quote
        lines = [",".join(columns)] + [",".join(map(_csv_cell, row)) for row in rows]
        text = "\n".join(lines) + "\n"
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_csv_cell(c) for c in row] for row in rows)
        text = buf.getvalue()
    else:
        import json  # here, not at import: a CSV run never loads it

        payload = {
            "command": args.command,
            "config": {
                k: v
                for k, v in sorted(vars(args).items())
                if k != "out"  # the out path is not part of the result
                and isinstance(v, (str, int, float, bool, list, type(None)))
            },
            "columns": columns,
            "rows": [[_json_cell(c) for c in row] for row in rows],
            "notes": notes,
        }
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        _write_atomic(args.out, text.encode("utf-8"))


def cmd_ce_coeffs(args) -> tuple:
    coeffs = ce_coefficients(args.weight_model, args.n_max)
    # r_n for n < N, and NaN past the last pair
    ratios = (ratio_sequence(coeffs) if len(coeffs) >= 2 else []) + [math.nan]
    columns = ["n", "a_2n", "abs_log10", "r_n", "r_n_over_2np1"]
    rows = [[n, a, _log10_abs(a) if a else math.nan, r, r / (2 * (n + 1))]
            for n, (a, r) in enumerate(zip(coeffs.values, ratios), 1)]
    return columns, rows, []


def _grid_steps(args) -> float:
    """Steps of k_step that fit in [k_min, k_max]; the grid has floor() + 1
    points, k_min + i k_step.  _GRID_ROUNDING absorbs the rounding of the
    quotient, and so lets the last point pass k_max by k_step times as much."""
    return (args.k_max - args.k_min) / args.k_step + _GRID_ROUNDING


def cmd_dispersion(args) -> tuple:
    ks = [args.k_min + args.k_step * i for i in range(math.floor(_grid_steps(args)) + 1)]
    table = compare_methods(ks, args.n_list, *args.pade)
    return list(table), list(zip(*table.values())), []


def cmd_folds(args) -> tuple:
    columns = ["n", "k_c", "omega_c", "residual", "note"]
    rows, notes = [], []
    for n in args.n_list:
        note = FOLD_N1_NOTE if n == 1 else None
        try:
            fp = find_fold(n)
            rows.append([n, fp.k_c, fp.omega_c, fp.residual, note])
        except NoFoldFound as exc:
            rows.append([n, math.nan, math.nan, math.nan, f"no fold: {exc}"])
        if note:
            notes.append(note)
    return columns, rows, notes


def cmd_borel(args) -> tuple:
    L, M = args.pade
    coeffs = ce_coefficients(args.weight_model, max(args.n_max, L + M + 1))
    resum = resum_dispersion(coeffs, L, M)
    approx = resum.approximant

    columns = ["row_type", "index", "b_n_exact", "re", "im", "abs_residue", "note"]
    rows = [["coeff", n, bn, None, None, None, None]
            for n, bn in enumerate(resum.borel, 1)]
    rows += [["pole", None, None, p.real, p.imag, abs(r), None if genuine else "spurious"]
             for p, r, genuine in zip(approx.poles, approx.residues, approx.physical)]
    nearest, verdict = summability(approx)
    if verdict:
        rows.append(["summary", None, None, nearest.real, nearest.imag, None,
                     f"nearest pole; |pole-(-1/2)| = {_csv_cell(abs(nearest + 0.5))}"])
        rows.append(["summary", None, None, None, None, None, f"summability: {verdict}"])
    return columns, rows, [f"summability: {verdict}"] if verdict else []


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

    common(sub.add_parser("ce-coeffs", help="exact coefficients a_2n and ratios"))
    common(sub.add_parser("dispersion", help="omega(k) by every method"),
           weight=False, nmax=False, pade_opt=True, grid=True, nlist=True)
    common(sub.add_parser("folds", help="fold points k_c(n) of the branches"),
           weight=False, nmax=False, nlist=True)
    common(sub.add_parser("borel", help="Borel coefficients and Pade poles"), pade_opt=True)
    return parser


# built once, at import: every `main` in the process parses with it and
# gets the same default objects, so no command may mutate one
PARSER = build_parser()


def validate(args) -> None:
    if args.out != "-":
        if not os.path.isdir(os.path.dirname(os.path.abspath(args.out))):
            raise ValueError(f"--out {args.out}: no such directory")
        if os.path.isdir(args.out):
            raise ValueError(f"--out {args.out}: is a directory")
    if not 1 <= getattr(args, "n_max", 1) <= N_MAX_MAX:
        raise ValueError(f"--n-max must be in 1..{N_MAX_MAX}")
    if hasattr(args, "n_list"):
        bound = N_LIST_MAX[args.command]
        if not args.n_list or min(args.n_list) < 1 or max(args.n_list) > bound:
            raise ValueError(f"--n-list entries must be in 1..{bound}")
    if hasattr(args, "pade"):
        if args.pade[0] < 0 or args.pade[1] < 0:
            raise ValueError("--pade orders must be non-negative")
        if args.pade[0] == 0 < args.pade[1]:  # [0/M]'s Toeplitz diagonal is c_0
            raise ValueError("--pade 0 M needs M = 0: as c_0 = 0, no [0/M] approximant exists")
        if sum(args.pade) + 1 > N_MAX_MAX:
            raise ValueError(f"--pade L M needs L + M + 1 <= {N_MAX_MAX} coefficients")
    if hasattr(args, "k_step"):
        for opt in ("k_min", "k_max", "k_step"):
            if not math.isfinite(getattr(args, opt)):
                raise ValueError(f"--{opt.replace('_', '-')} must be finite")
        if args.k_step <= 0 or args.k_min < 0 or args.k_max < args.k_min:
            raise ValueError("k grid must satisfy 0 <= k-min <= k-max, k-step > 0")
        if args.k_max > K_GRID_MAX:
            raise ValueError(f"k-max capped at {K_GRID_MAX}")
        # floor(steps) + 1 > K_POINTS_MAX, without building the grid
        if _grid_steps(args) >= K_POINTS_MAX:
            raise ValueError(f"k grid capped at {K_POINTS_MAX} points; raise --k-step")
        if not _on_grid(args.k_min + args.k_step * math.floor(_grid_steps(args))):
            raise ValueError(f"--k-step {args.k_step!r} ends the grid past {K_GRID_MAX}")
    if getattr(args, "weight", None) is not None:
        # parsed once, failing early on a bad spec; the commands read the model
        args.weight_model = parse_weight(args.weight)


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    try:
        validate(args)
    except (ValueError, OSError) as exc:
        print(f"attractor-kit: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    # looked up at call time, so a rebinding of a cmd_* is the one that runs
    command = {"ce-coeffs": cmd_ce_coeffs, "dispersion": cmd_dispersion,
               "folds": cmd_folds, "borel": cmd_borel}[args.command]
    try:
        emit(args, *command(args))
    except InsufficientData as exc:  # a moment file too short for the request
        print(f"attractor-kit: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:
        print(f"attractor-kit: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    return 0


if __name__ == "__main__":
    sys.exit(main())
