"""Span tracing of the library's layers, from outside the library.

``Tracer`` replaces each traced function at every ``aescatter`` module
attribute that holds it, which is where other layers look it up at call
time, by a wrapper that records a span: name, start, end, parent and a few
call-site counts. Spans stay in memory; ``layer_metrics`` turns the spans of
one workload run into the per-layer metrics, and ``dump`` writes them out.
The originals are restored when the tracer's ``with`` block ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from aescatter import cli, forward, geometry, inverse_phased, inverse_phaseless
from aescatter import kernels, multibody, specfun


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int              # index of the enclosing span, -1 at the top
    info: object = None      # call-site count or key; None if the call raised


def _points(a, result):
    return int(np.size(a["x"]))


def _assembly_key(a, result):
    grid = a["grid"]
    return json.dumps([a["curve"].to_dict(), repr(a["params"]), grid.n, grid.offset],
                      sort_keys=True)


def _system_size(a, result):
    return int(np.shape(a["system"])[0])


def _far_field_points(a, result):
    return int(np.size(a["obs_angles"]) * len(a["densities"].phi3_tilde))


def _record_count(a, result):
    return len(result)


def _bytes_written(a, result):
    return sum(Path(p).stat().st_size for p in result)


# (span name, defining module, function name, call-site info or None)
TRACED = [
    ("geometry.jet", geometry, "jet", None),
    ("specfun.bessel_j0", specfun, "bessel_j0", _points),
    ("specfun.bessel_j1", specfun, "bessel_j1", _points),
    ("specfun.hankel1_0", specfun, "hankel1_0", _points),
    ("specfun.hankel1_1", specfun, "hankel1_1", _points),
    ("kernels.kernel_tables", kernels, "kernel_tables", None),
    ("kernels.phi", kernels, "phi", None),
    ("kernels.grad_phi", kernels, "grad_phi", None),
    ("kernels.hess_phi", kernels, "hess_phi", None),
    ("forward.assemble_system", forward, "assemble_system", _assembly_key),
    ("forward.solve_densities", forward, "solve_densities", _system_size),
    ("forward.solve_forward", forward, "solve_forward", None),
    ("forward.far_field", forward, "far_field", _far_field_points),
    ("multibody.assemble_two_body", multibody, "assemble_two_body", None),
    ("multibody.solve_two_body_forward", multibody, "solve_two_body_forward", None),
    ("inverse_phased.run_phased", inverse_phased, "run_phased", None),
    ("inverse_phased.frechet_columns", inverse_phased, "frechet_columns", None),
    ("inverse_phased.tikhonov_step", inverse_phased, "tikhonov_step", None),
    ("inverse_phaseless.run_phaseless", inverse_phaseless, "run_phaseless", _record_count),
    ("inverse_phaseless.exact_phaseless_jacobian", inverse_phaseless,
     "exact_phaseless_jacobian", None),
    ("inverse_phaseless.predicted_modulus", inverse_phaseless, "_predicted_modulus", None),
    ("cli.cmd_forward", cli, "cmd_forward", _bytes_written),
]


class Tracer:
    """Context manager that traces the functions in ``TRACED``."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, info):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, clock(), 0.0, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if info is not None:
                span.info = info(signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        modules = [m for name, m in sys.modules.items()
                   if name == "aescatter" or name.startswith("aescatter.")]
        for name, module, attr, info in TRACED:
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, info)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def reset(self) -> None:
        """Drop the recorded spans, to start a new workload run."""
        self.spans.clear()

    def dump(self, path: Path) -> None:
        with open(path, "w") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                    "parent": s.parent, "info": s.info}) + "\n")


def self_times(spans: list[Span]) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    own = np.array([s.end - s.start for s in spans])
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], table_builds: int) -> dict[str, float]:
    """Per-layer metrics of one workload run from its spans.

    ``table_builds`` is the number of quadrature-table cache misses during
    the run, read from the library's ``lru_cache`` statistics.
    """
    own = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def idx(*names):
        return [i for n in names for i in by_name.get(n, [])]

    def calls(*names):
        return len(idx(*names))

    def self_s(*names):
        return float(sum(own[i] for i in idx(*names)))

    def total_s(*names):
        return float(sum(spans[i].end - spans[i].start for i in idx(*names)))

    def info_sum(*names):
        return sum(spans[i].info or 0 for i in idx(*names))

    specfun_names = [n for n in by_name if n.startswith("specfun.")]
    points = info_sum(*specfun_names)
    keys = [spans[i].info for i in idx("forward.assemble_system")]
    sizes = [spans[i].info for i in idx("forward.solve_densities") if spans[i].info]
    ff_points = info_sum("forward.far_field")

    phased_runs = set(idx("inverse_phased.run_phased"))
    phased_solves = sum(1 for i in idx("forward.solve_forward") if spans[i].parent in phased_runs)

    pl_runs = set(idx("inverse_phaseless.run_phaseless"))
    pl_iters = calls("inverse_phaseless.exact_phaseless_jacobian")
    pl_solves = calls("multibody.solve_two_body_forward")
    candidates = sum(1 for i in idx("inverse_phaseless.predicted_modulus")
                     if spans[i].parent in pl_runs) - len(pl_runs)
    accepted = sum(spans[i].info - 1 for i in pl_runs if spans[i].info is not None)

    return {
        "geometry.jet.calls": calls("geometry.jet"),
        "geometry.jet.self_s": self_s("geometry.jet"),
        "specfun.points": points,
        "specfun.self_s": self_s(*specfun_names),
        "specfun.ns_per_point": 1e9 * _ratio(self_s(*specfun_names), points),
        "quadrature.table_builds": table_builds,
        "kernels.kernel_tables.calls": calls("kernels.kernel_tables"),
        "kernels.kernel_tables.self_s": self_s("kernels.kernel_tables"),
        "kernels.kernel_tables.s": total_s("kernels.kernel_tables"),
        "kernels.pointwise.calls": calls("kernels.phi", "kernels.grad_phi", "kernels.hess_phi"),
        "kernels.pointwise.self_s": self_s("kernels.phi", "kernels.grad_phi", "kernels.hess_phi"),
        "forward.assemble_system.calls": len(keys),
        "forward.assemble_system.self_s": self_s("forward.assemble_system"),
        "forward.assemble_system.repeat_frac": _ratio(len(keys) - len(set(keys)), len(keys)),
        "forward.solve_densities.calls": calls("forward.solve_densities"),
        "forward.solve_densities.self_s": self_s("forward.solve_densities"),
        "forward.solve_densities.gflops_computed": sum(8.0 / 3.0 * n**3 for n in sizes) * 1e-9,
        "forward.far_field.calls": calls("forward.far_field"),
        "forward.far_field.self_s": self_s("forward.far_field"),
        "forward.far_field.points": ff_points,
        "forward.far_field.ns_per_point": 1e9 * _ratio(self_s("forward.far_field"), ff_points),
        "multibody.assemble_two_body.calls": calls("multibody.assemble_two_body"),
        "multibody.assemble_two_body.self_s": self_s("multibody.assemble_two_body"),
        "inverse_phased.forward_solves": phased_solves,
        "inverse_phased.step_s": _ratio(total_s("inverse_phased.run_phased"), phased_solves),
        "inverse_phased.frechet_columns.self_s": self_s("inverse_phased.frechet_columns"),
        "inverse_phased.tikhonov_step.self_s": self_s("inverse_phased.tikhonov_step"),
        "inverse_phaseless.iters": pl_iters,
        "inverse_phaseless.two_body_solves": pl_solves,
        "inverse_phaseless.two_body_solves_per_iter": _ratio(pl_solves, pl_iters),
        "inverse_phaseless.jacobian.s": total_s("inverse_phaseless.exact_phaseless_jacobian"),
        "inverse_phaseless.line_search.accept_frac": _ratio(accepted, candidates),
        "cli.cmd_forward.self_s": self_s("cli.cmd_forward"),
        "cli.bytes_written": info_sum("cli.cmd_forward"),
    }


# Unit of each per-layer metric, by the suffix of its name.
UNITS = {"calls": "count", "points": "count", "table_builds": "count", "iters": "count",
         "forward_solves": "count", "two_body_solves": "count", "self_s": "s", "s": "s",
         "step_s": "s", "ns_per_point": "ns", "repeat_frac": "ratio",
         "two_body_solves_per_iter": "ratio", "accept_frac": "ratio",
         "gflops_computed": "GFLOP", "bytes_written": "B"}


def unit_of(name: str) -> str:
    return UNITS[name.rsplit(".", 1)[-1]]
