"""The three benchmark workloads: their inputs, drawn from the seed, and the
list of CLI commands that one job runs.

Every job of a run is the same command list, so a median over jobs is never
taken over a mix of different commands.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

COEFFS_N_MAX = 50  # --n-max for each of the three ce-coeffs commands

# The README figure grid, k = 0, 0.01, ..., 1.2, the same for every seed.
# Each grid row is one operation.  Two rows fail in every job: at k = 0.50
# (n = 1) and k = 1.03 (n = 50) the branch still exists, but
# `BranchCurve.omega_at` refuses k past the branch's last continuation
# sample, so `physical_n*` reads 0 there (a program fault, CHANGES.md).
GRID_K_MIN = 0
GRID_K_MAX = 1.2
GRID_STEP = 0.01
GRID_POINTS = 121
BRANCH_ORDERS = (1, 2, 20, 50)
PADE = (14, 14)

# n = 1 and 2 have closed-form folds; the rest spread across 10..200.
# find_fold works on each n independently, so `folds --n-list 1,2,...` and
# one `folds --n-list N` per n do the same work.
# find_fold raises NoFoldFound for 120, 130, 150, 170, 180 and 200 (the
# unscaled 2x2 Newton on {P, P_w}); those rows count as failed operations.
FOLD_N_LIST = (1, 2, 10, 20, 50, 100, 120, 130, 140, 150, 160, 170, 180, 190, 200)


@dataclass(frozen=True)
class Command:
    """One CLI invocation; ``kind`` selects its output check."""

    kind: str
    argv: tuple
    ops: int = 1  # operations the command stands for

    def with_out(self, path: Path) -> list:
        return list(self.argv) + ["--out", str(path)]


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple
    params: dict  # the seeded inputs, as recorded in the results file


def two_point_radius(rng: random.Random) -> Fraction:
    """r = p/q in lowest terms with 91 <= q <= 99 and q - 15 <= p < q.

    The narrow ranges keep the digit count of r^(2m), and so the cost of the
    custom-weight job, nearly the same for every seed.
    """
    while True:
        q = rng.randint(91, 99)
        p = rng.randint(q - 15, q - 1)
        if math.gcd(p, q) == 1:
            return Fraction(p, q)


def make_workload(name: str, seed: int, workdir: Path) -> Workload:
    """Build the inputs of workload ``name`` from ``seed`` under ``workdir``."""
    rng = random.Random(f"{name}:{seed}")
    if name == "coeffs-deep":
        r = two_point_radius(rng)
        weight_file = workdir / "two_point_weight.txt"
        lines = [f"# two-point weight at +-{r}: mu_2m = r^(2m)"]
        lines += [str(r ** (2 * m)) for m in range(1, COEFFS_N_MAX + 1)]
        weight_file.write_text("\n".join(lines) + "\n", encoding="utf-8")
        n_max = str(COEFFS_N_MAX)
        commands = (
            Command("ce-gaussian", ("ce-coeffs", "--weight", "gaussian", "--n-max", n_max)),
            Command("ce-uniform", ("ce-coeffs", "--weight", "bounded-uniform", "--n-max", n_max)),
            Command("ce-two-point",
                    ("ce-coeffs", "--weight", f"bounded-custom={weight_file}", "--n-max", n_max)),
            Command("borel-gaussian", ("borel", "--weight", "gaussian")),
        )
        return Workload(name, commands, {"n_max": COEFFS_N_MAX, "r": str(r)})
    if name == "dispersion-figure":
        argv = (
            "dispersion",
            "--k-min", repr(GRID_K_MIN), "--k-max", repr(GRID_K_MAX),
            "--k-step", repr(GRID_STEP),
            "--n-list", ",".join(map(str, BRANCH_ORDERS)),
            "--pade", str(PADE[0]), str(PADE[1]),
        )
        return Workload(name, (Command("dispersion", argv, ops=GRID_POINTS),),
                        {"k_min": GRID_K_MIN, "k_step": GRID_STEP, "points": GRID_POINTS,
                         "n_list": list(BRANCH_ORDERS), "pade": list(PADE)})
    if name == "fold-scan":
        # one command per n, so that the calibration loop runs between them:
        # the machine's speed drifts within the ~7 s a whole scan takes
        commands = tuple(Command("folds", ("folds", "--n-list", str(n))) for n in FOLD_N_LIST)
        return Workload(name, commands, {"n_list": list(FOLD_N_LIST)})
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("coeffs-deep", "dispersion-figure", "fold-scan")
