"""Spans around the public functions of each `attractor_kit` module.

The wrappers are installed from outside the package, at every module
namespace that binds a function, so a call through `ce.series_mul` is
recorded as well as one through `exactseries.series_mul`.  Spans are kept in
memory and returned with the job's result; `layer_metrics` reduces the spans
of one job to the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

MODULES = ("exactseries", "ce", "borel", "spectral", "dispersion", "cli")

# span record fields
NAME, START, END, PARENT, FAILED, NOTE = range(6)


def _note(name: str, args, result):
    """Size information that a ratio metric needs, or None."""
    if name == "exactseries.series_mul":
        return len(result.coeffs)  # coefficients computed
    if name == "ce.ce_coefficients":
        return [args[0].kind.value, len(result.values)]  # weight, coefficients read
    return None


class Tracer:
    """Records one span per wrapped call: name, start, end, parent, failure."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None, stack[-1] if stack else -1, False, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[FAILED] = True
                raise
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            span[NOTE] = _note(name, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function at each namespace that binds it."""
        package = importlib.import_module("attractor_kit")
        modules = {m: importlib.import_module(f"attractor_kit.{m}") for m in MODULES}
        namespaces = [package, *modules.values()]
        for short, mod in modules.items():
            for name, fn in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapper = self.wrap(f"{short}.{name}", fn)
                for ns in namespaces:
                    for bound, value in list(vars(ns).items()):
                        if value is fn:
                            setattr(ns, bound, wrapper)
        curve = modules["spectral"].BranchCurve
        curve.omega_at = self.wrap("spectral.omega_at", curve.omega_at)
        # laplace_resum imports quad at call time, so the module attribute is enough
        import scipy.integrate

        scipy.integrate.quad = self.wrap("scipy.integrate.quad", scipy.integrate.quad)


def _has_ancestor(spans, i: int, name: str) -> bool:
    p = spans[i][PARENT]
    while p >= 0:
        if spans[p][NAME] == name:
            return True
        p = spans[p][PARENT]
    return False


def layer_metrics(spans: list, scale: float) -> dict:
    """Per-layer metrics of one job; times are multiplied by ``scale``."""
    dur = [(s[END] - s[START]) * scale for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child[s[PARENT]] += dur[i]

    def total(name):  # inclusive time of the outermost calls (recursion counted once)
        return sum((dur[i] for i, s in enumerate(spans)
                    if s[NAME] == name and not _has_ancestor(spans, i, name)), 0.0)

    def self_time(pred):
        return sum((dur[i] - child[i] for i, s in enumerate(spans) if pred(s[NAME])), 0.0)

    def calls(name):
        return sum(1 for s in spans if s[NAME] == name)

    ce_time = {"gaussian": 0.0, "bounded-uniform": 0.0, "bounded-custom": 0.0}
    read = computed = 0
    for i, s in enumerate(spans):
        if s[NAME] == "ce.ce_coefficients" and s[NOTE] is not None:
            ce_time[s[NOTE][0]] += dur[i]
            read += s[NOTE][1]
        elif s[NAME] == "exactseries.series_mul" and _has_ancestor(spans, i, "ce.ce_coefficients"):
            computed += s[NOTE]
    return {
        "exactseries.series_mul_s": self_time(lambda n: n == "exactseries.series_mul"),
        "exactseries.series_mul_calls": calls("exactseries.series_mul"),
        "exactseries.coeffs_used_ratio": read / computed if computed else 0.0,
        **{f"ce.ce_coefficients.{kind}_s": t for kind, t in ce_time.items()},
        "ce.ratio_sequence_s": total("ce.ratio_sequence"),
        "borel.pade_s": total("borel.pade"),
        "borel.laplace_resum_s": total("borel.laplace_resum"),
        "borel.laplace_resum_calls": calls("borel.laplace_resum"),
        "borel.quad_fallback_calls": calls("scipy.integrate.quad"),
        "spectral.trace_branch_s": total("spectral.trace_branch"),
        "spectral.trace_branch_calls": calls("spectral.trace_branch"),
        "spectral.find_fold_s": total("spectral.find_fold"),
        "spectral.find_fold_calls": calls("spectral.find_fold"),
        "spectral.find_fold_failed": sum(1 for s in spans if s[NAME] == "spectral.find_fold" and s[FAILED]),
        "spectral.omega_at_s": total("spectral.omega_at"),
        "spectral.omega_at_calls": calls("spectral.omega_at"),
        "dispersion.compare_methods_s": self_time(lambda n: n == "dispersion.compare_methods"),
        "dispersion.solve_exact_gaussian_s": total("dispersion.solve_exact_gaussian"),
        "dispersion.solve_exact_gaussian_calls": calls("dispersion.solve_exact_gaussian"),
        "cli.emit_s": total("cli.emit"),
        "cli.command_s": self_time(lambda n: n.startswith("cli.cmd_")),
    }
