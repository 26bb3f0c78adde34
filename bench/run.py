"""attractor-kit benchmark: three workloads driven through the public CLI.

    python3 bench/run.py --workload coeffs-deep|dispersion-figure|fold-scan
                         --seed N --seconds S --trace 0|1

Run from anywhere; the program is imported from the `src/` directory next
to `bench/`.  One worker process runs at a time, each a fresh interpreter
that runs one job (the workload's whole command list), after a discarded
warm-up job.  Outputs are checked against independent computations after
the timed window.  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; the full record, with raw
wall times, goes to `.bench_out/`.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(BENCH))
import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Workload, make_workload  # noqa: E402

# Median of worker.calibrate() on the reference machine (README).  Job and
# set-up times are multiplied by REF_CAL_S / (calibration measured next to
# them), which keeps the unit seconds and removes the machine's speed drift.
REF_CAL_S = 0.0038
MIN_JOBS = 3  # timed jobs per run, whatever --seconds says
MIN_SETUP_SAMPLES = 8  # import-only workers top up the set-up samples
WORKER_TIMEOUT_S = 120
DEADLINE_S = 140  # no job starts after this, so a run ends within 180 s

END_TO_END_UNITS = {"setup_s": "s", "job_p50_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark itself cannot run (no program to import, a worker died)."""


def run_worker(spec: dict, spec_path: Path) -> dict:
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), str(spec_path)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    result["process_wall_s"] = wall
    return result


def scaled(seconds: float, cal: float) -> float:
    return seconds * REF_CAL_S / cal


def run_job(workload: Workload, run_dir: Path, job_id: int, traced: bool = False,
            import_only: bool = False) -> dict:
    """Run one job in a fresh worker and keep its timings and output paths."""
    job_dir = run_dir / f"job{job_id}"
    job_dir.mkdir()
    commands = [] if import_only else list(workload.commands)
    outs = [job_dir / f"{i}-{c.kind}.out" for i, c in enumerate(commands)]
    spec = {
        "src": str(SRC),
        "commands": [c.with_out(o) for c, o in zip(commands, outs)],
        "trace": traced,
    }
    res = run_worker(spec, job_dir / "spec.json")
    res.update(id=job_id, traced=traced, outs=[str(o) for o in outs])
    res["setup_scaled_s"] = scaled(res["setup_s"], statistics.fmean(res["setup_cal_s"]))
    cmds = res["commands"]
    res["job_s"] = sum(c["wall_s"] for c in cmds)
    res["job_scaled_s"] = sum(scaled(c["wall_s"], statistics.fmean(c["cal_s"])) for c in cmds)
    return res


def make_checker(workload: Workload):
    """Map a command kind and its output text to a Verdict (memoised by output)."""
    p = workload.params
    expected = {}
    if workload.name == "coeffs-deep":
        n = p["n_max"]
        expected = {
            "ce-gaussian": checks.gaussian_coefficients(n),
            "ce-uniform": checks.uniform_coefficients(n),
            "ce-two-point": checks.two_point_coefficients(Fraction(p["r"]), n),
            "borel-gaussian": checks.gaussian_coefficients(30),  # borel's default --n-max
        }
    seen: dict = {}

    def check(kind: str, text: str, n_list: tuple = ()) -> checks.Verdict:
        key = (kind, n_list, hashlib.sha256(text.encode("utf-8")).hexdigest())
        if key not in seen:
            try:
                if kind == "borel-gaussian":
                    seen[key] = checks.check_borel(text, expected[kind])
                elif kind.startswith("ce-"):
                    seen[key] = checks.check_ce_coeffs(text, expected[kind])
                elif kind == "dispersion":
                    seen[key] = checks.check_dispersion(
                        text, p["k_min"], p["k_step"], p["points"], tuple(p["n_list"]))
                else:
                    seen[key] = checks.check_folds(text, n_list)
            except (ValueError, TypeError, KeyError, IndexError, ArithmeticError) as exc:
                # malformed output
                ops = p["points"] if kind == "dispersion" else max(len(n_list), 1)
                seen[key] = checks.Verdict(ops=ops,
                                           errors=[f"{kind}: unreadable output ({exc!r})"])
        return seen[key]

    return check


def check_job(job: dict, workload: Workload, check) -> dict:
    """Operations attempted and failed by one job, and the errors found.

    Each command stands for `Command.ops` operations (a `dispersion` grid row
    is one).  A command that exits non-zero or writes nothing has failed all
    of them.  The per-n `folds` outputs are joined into one table,
    so that k_c can be checked to rise with n.
    """
    texts = []
    for out, rec in zip(job["outs"], job["commands"]):
        path = Path(out)
        texts.append(path.read_text(encoding="utf-8") if rec["rc"] == 0 and path.exists() else None)
    attempted = sum(cmd.ops for cmd in workload.commands)
    failed = sum(cmd.ops for cmd, t in zip(workload.commands, texts) if t is None)
    verdicts = []
    if workload.name == "fold-scan":
        done = [(int(cmd.argv[-1]), t) for cmd, t in zip(workload.commands, texts) if t is not None]
        if done:
            header = done[0][1].splitlines()[0]
            table = "\n".join([header] + [line for _, t in done for line in t.splitlines()[1:]])
            verdicts.append(check("folds", table + "\n", tuple(n for n, _ in done)))
    else:
        verdicts = [check(cmd.kind, t) for cmd, t in zip(workload.commands, texts) if t is not None]
    empty = sum(cell == "" for cmd, t in zip(workload.commands, texts)
                if cmd.kind == "dispersion" and t is not None
                for line in t.splitlines()[1:] for cell in line.split(","))
    return {
        "attempted": attempted,
        "failed": failed + sum(v.failed + v.wrong for v in verdicts),
        "items": sum(v.items for v in verdicts),
        "errors": [e for v in verdicts for e in v.errors],
        "empty_cells": empty,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def per_layer_units(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "attractor_kit").is_dir():
        print(f"bench: no attractor_kit package under {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    run_dir = OUT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir()
    try:
        workload = make_workload(args.workload, args.seed, run_dir)
        record = measure(workload, run_dir, args)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps(record["summary"]))
    return 0


def measure(workload: Workload, run_dir: Path, args) -> dict:
    warmup = run_job(workload, run_dir, 0)
    min_jobs = 2 * MIN_JOBS if args.trace else MIN_JOBS
    jobs = []
    t_start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t_start
        est = statistics.median([j["process_wall_s"] for j in [warmup] + jobs])
        if elapsed > DEADLINE_S or (len(jobs) >= min_jobs and elapsed + est / 2 >= args.seconds):
            break
        # the traced run alternates untraced and traced jobs
        jobs.append(run_job(workload, run_dir, len(jobs) + 1,
                            traced=bool(args.trace) and len(jobs) % 2 == 1))
    window = time.perf_counter() - t_start
    setup_only = []
    while len(jobs) + len(setup_only) < MIN_SETUP_SAMPLES:
        setup_only.append(run_job(workload, run_dir, len(jobs) + len(setup_only) + 1,
                                  import_only=True))

    # checks run off the clock
    check = make_checker(workload)
    for j in jobs:
        j["check"] = check_job(j, workload, check)
    errors = sorted({e for j in jobs for e in j["check"]["errors"]})
    attempted = sum(j["check"]["attempted"] for j in jobs)
    failed = sum(j["check"]["failed"] for j in jobs)

    untraced = [j for j in jobs if not j["traced"]]
    job_p50 = statistics.median(j["job_scaled_s"] for j in untraced)
    if args.trace:
        traced = [j for j in jobs if j["traced"]]
        traced_p50 = statistics.median(j["job_scaled_s"] for j in traced)
        layers = [tracing.layer_metrics(j["spans"], j["job_scaled_s"] / j["job_s"]) for j in traced]
        metrics = {name: metric(statistics.median(m[name] for m in layers), per_layer_units(name))
                   for name in layers[0]}
        metrics["dispersion.empty_cells"] = metric(
            statistics.median(j["check"]["empty_cells"] for j in traced), "count")
        metrics["trace.traced_job_p50_s"] = metric(traced_p50, "s")
        metrics["trace.untraced_job_p50_s"] = metric(job_p50, "s")
        metrics["trace.overhead_pct"] = metric(100 * (traced_p50 / job_p50 - 1), "%")
        spans_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        spans_file.write_text(json.dumps({
            "fields": ["job", "name", "start", "end", "parent", "failed", "note"],
            "spans": [[j["id"], *s] for j in traced for s in j["spans"]],
        }), encoding="utf-8")
        for j in traced:
            del j["spans"]
    else:
        setups = [j["setup_scaled_s"] for j in jobs + setup_only]
        items = statistics.median(j["check"]["items"] for j in untraced)
        values = {
            "setup_s": statistics.median(setups),
            "job_p50_s": job_p50,
            "items_per_s": items / job_p50,
            "peak_rss_mb": statistics.median(j["maxrss_kb"] for j in jobs) / 1024,
        }
        metrics = {name: metric(v, END_TO_END_UNITS[name]) for name, v in values.items()}

    for j in [warmup] + jobs + setup_only:
        j.pop("outs", None)
    return {
        "summary": {"correct": not errors, "attempted": attempted, "failed": failed,
                    "metrics": metrics},
        "workload": workload.name, "seed": args.seed, "params": workload.params,
        "seconds": args.seconds, "window_s": window, "ref_cal_s": REF_CAL_S,
        "errors": errors[:50],
        "raw": {
            "job_p50_wall_s": statistics.median(j["job_s"] for j in untraced),
            "setup_p50_wall_s": statistics.median(j["setup_s"] for j in jobs + setup_only),
        },
        "warmup": warmup, "jobs": jobs, "setup_only": setup_only,
        "machine": {"python": sys.version.split()[0], "platform": platform.platform(),
                    "cpus": os.cpu_count()},
    }


if __name__ == "__main__":
    sys.exit(main())
