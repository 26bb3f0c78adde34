"""One benchmark job in a fresh interpreter.

Usage: python3 bench/worker.py SPEC.json

SPEC holds ``src`` (the directory `attractor_kit` must be imported from),
``commands`` (CLI argument lists, each with its own ``--out``) and ``trace``.
The worker times the import of `attractor_kit.cli`, then runs each command
in process through `attractor_kit.cli.main`.  A calibration loop runs before
and after the import, before the first command and after every command.  It
prints one JSON line.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path


def _calibration_once() -> float:
    t0 = time.perf_counter()
    x = 0.0
    for i in range(12000):
        x += (i * 0.5) ** 2 % 7.0
    f = Fraction(0)
    for i in range(1, 150):
        f += Fraction(i, i * i + 1)
    return time.perf_counter() - t0


def calibrate() -> float:
    """Seconds for a fixed loop of float and Fraction arithmetic (best of 3).

    The loop does not touch the program, so its time tracks only how fast
    the machine runs pure Python at this moment.
    """
    return min(_calibration_once() for _ in range(3))


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    setup_cal = calibrate()
    t0 = time.perf_counter()
    import attractor_kit.cli as cli

    setup = time.perf_counter() - t0
    src = Path(spec["src"]).resolve()
    if src not in Path(cli.__file__).resolve().parents:
        print(f"attractor_kit imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    result = {"setup_s": setup, "setup_cal_s": [setup_cal, calibrate()], "commands": []}
    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    cal = calibrate()
    for argv in spec["commands"]:
        t = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code
        wall = time.perf_counter() - t
        cal_after = calibrate()
        result["commands"].append({"rc": rc, "wall_s": wall, "cal_s": [cal, cal_after]})
        cal = cal_after
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        result["spans"] = tracer.spans
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
