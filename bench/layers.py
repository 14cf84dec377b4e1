"""Per-layer timings of the Nystrom pipeline inside the benchmark's workloads.

Each of perfbench's three workloads (``perfbench/workloads.py``: the
criterion-8 phased sweep, the criterion-9 phaseless reconstruction and
``aescatter forward`` on 32 configs) is set up at seed 0 and run once
untimed; then ``RUNS`` rounds each make one untraced and one traced run,
as ``perfbench/run.py --trace 1`` alternates them. The traced runs record
spans with perfbench's own ``tracing.Tracer``, on ``tracing.TRACED`` plus
the layers the benchmark does not wrap (``traced_set``), with the grid n,
the LU rows or the points of each call as its info. Per (workload, span) the
report holds the medians over the traced runs of the calls per run, the
self time (the span less its direct children), the total time and the
count of calls per info value; per workload the median and interquartile
range of the untraced run time and the median minor page faults per run
(``ru_minflt`` of this process, read around every run). The untraced runs
of ``phased-sweep`` and ``phaseless-ball`` are timed again with the thread
pool of numpy's OpenBLAS at 1 and at 2 threads (set in this process only,
and restored afterwards): equal medians show that no numpy product in
either Newton loop runs on threads that would compete with scipy's LU.

    python3 bench/layers.py --out BENCH_<n>.json [--src SRC]

``--src`` is the ``src`` directory of the checkout to time (default: this
checkout's); the workloads and the tracer come from the ``perfbench``
directory beside it. Whole processes on a shared machine run 10-50% faster
or slower than the next, so a comparison alternates fresh processes:

    git clone --quiet . <dir> && git -C <dir> checkout --quiet <commit>
    python3 bench/layers.py --pair <dir> --out BENCH_<n>.json [--rounds 10]

runs, ``--rounds`` times, the commit's own copy of this script on its
``src`` and this script on ``--src``, the commit first in even rounds,
and writes per (workload, span) each side's median and interquartile range
of the per-process self and total times, the median of the paired ratios
(this / commit) and the number of rounds in which this side was faster,
with each side's calls per run and info counts; ``counts_differ`` marks a
row whose counts differ between the sides, where a time ratio compares
different work. The untraced run times and minor faults are paired in the
same way, per workload.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import ctypes
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
POOL_WORKLOADS = ("phased-sweep", "phaseless-ball")
SEED = 0
RUNS = 10
NUMPY_OPENBLAS = "*scipy_openblas64_*"
POOL_SIZES = (1, 2)


def git_sha(src: Path) -> str:
    try:
        out = subprocess.run(
            ["git", "-C", str(src), "describe", "--always", "--dirty", "--abbrev=40"],
            capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def openblas(module, lib_glob: str) -> ctypes.CDLL | None:
    """The OpenBLAS that ``module``'s wheel has loaded (loading the same file
    again returns the loaded copy), or None. numpy and scipy each bring
    their own."""
    libs = Path(module.__file__).resolve().parent.parent / f"{module.__name__}.libs"
    paths = sorted(libs.glob(lib_glob))
    return ctypes.CDLL(str(paths[0])) if paths else None


def openblas_threads(module, lib_glob: str, symbol: str) -> int | str:
    """The thread count of ``module``'s OpenBLAS, asked from the library."""
    lib = openblas(module, lib_glob)
    if lib is None:
        return f"unknown ({module.__name__}'s OpenBLAS not found)"
    return int(getattr(lib, symbol)())


@contextlib.contextmanager
def numpy_pool(lib: ctypes.CDLL, size: int):
    """numpy's OpenBLAS pool at ``size`` threads in this process, restored
    to its former size on exit."""
    before = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(size)
    try:
        yield
    finally:
        lib.scipy_openblas_set_num_threads64_(before)


def quartiles(values) -> dict:
    """Median and interquartile range of ``values``, taken as ms."""
    import numpy as np

    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"median_ms": float(med), "iqr_ms": float(q3 - q1)}


def minor_faults() -> int:
    """The minor page faults this process has taken so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _grid_n(a, result):
    return a["grid"].n


def _jets_n(a, result):  # the n of a jet on the 2n nodes of a grid
    return len(a["jets"].G) // 2


def _rows(a, result):
    return int(a["system"].shape[0])


def _chosen_n(a, result):
    return result[0].n


def traced_set(tracing) -> list:
    """``tracing.TRACED`` with the grid n as the info of ``solve_forward``,
    ``assemble_system`` and ``_predicted_modulus`` (a phased prediction is a
    ``solve_forward``), plus the layers the benchmark does not wrap: among
    them the Newton loop's own steps, the grid rule ``_iterate_grid`` (with
    the n it chooses), its ``_strip_width``, ``_boundary_motion`` and
    ``boundary_error``."""
    from aescatter import forward, inverse_phased, multibody

    grid_n = {"forward.solve_forward", "forward.assemble_system",
              "inverse_phaseless.predicted_modulus"}
    return [(name, module, attr, _grid_n if name in grid_n else info)
            for name, module, attr, info in tracing.TRACED] + [
        ("forward.discretize", forward, "discretize", _grid_n),
        ("forward._fill_system", forward, "_fill_system", None),
        ("forward.factor_system", forward, "factor_system", _rows),
        ("forward.far_field_matrix", forward, "far_field_matrix", _jets_n),
        ("forward.system_sensitivity", forward, "system_sensitivity", None),
        ("multibody.cross_pair", multibody, "cross_pair", None),
        ("multibody.cross_block_sensitivity", multibody, "cross_block_sensitivity", None),
        ("inverse_phased._phase_columns", inverse_phased, "_phase_columns", None),
        ("inverse_phased._iterate_grid", inverse_phased, "_iterate_grid", _chosen_n),
        ("inverse_phased._strip_width", inverse_phased, "_strip_width", None),
        ("inverse_phased._boundary_motion", inverse_phased, "_boundary_motion", None),
        ("inverse_phased.boundary_error", inverse_phased, "boundary_error", None),
    ]


def span_rows(runs: list, self_times) -> dict:
    """Per span name, the medians over ``runs`` (the spans of each traced
    run) of its calls per run, self and total time in ms, and calls per info
    value (absent from a run: 0). ``self_times`` is ``tracing.self_times``."""
    import numpy as np

    per_run = []
    for spans in runs:
        rows: dict = {}
        for span, own in zip(spans, self_times(spans)):
            row = rows.setdefault(span.name, {"calls": 0, "self_ms": 0.0, "total_ms": 0.0,
                                              "info": collections.Counter()})
            row["calls"] += 1
            row["self_ms"] += 1e3 * own
            row["total_ms"] += 1e3 * (span.end - span.start)
            if span.info is not None:
                row["info"][str(span.info)] += 1
        per_run.append(rows)
    empty = {"calls": 0, "self_ms": 0.0, "total_ms": 0.0, "info": collections.Counter()}
    report = {}
    for name in sorted({name for rows in per_run for name in rows}):
        got = [rows.get(name, empty) for rows in per_run]
        keys = sorted({key for row in got for key in row["info"]},
                      key=lambda key: (len(key), key))
        report[name] = {
            **{what: float(np.median([row[what] for row in got]))
               for what in ("calls", "self_ms", "total_ms")},
            "info": {key: float(np.median([row["info"][key] for row in got])) for key in keys},
        }
    return report


@contextlib.contextmanager
def tracer(tracing, traced: list):
    """A ``tracing.Tracer`` of the functions in ``traced``, installed by
    rebinding ``tracing.TRACED``, which is restored on exit."""
    saved, tracing.TRACED = tracing.TRACED, traced
    try:
        with tracing.Tracer() as active:
            yield active
    finally:
        tracing.TRACED = saved


def timed_run(work, tracer_cm=None) -> tuple[float, int, list]:
    """One run of ``work`` in ms, its minor faults, and its spans when
    ``tracer_cm`` (a fresh tracer context) is given."""
    before = minor_faults()
    with tracer_cm or contextlib.nullcontext() as active:
        start = time.perf_counter()
        work.run()
        ms = 1e3 * (time.perf_counter() - start)
    return ms, minor_faults() - before, list(active.spans) if active else []


def measure(name: str, work, tracing, traced: list, numpy_blas) -> dict:
    """The report of one workload: set up, one untimed run, then ``RUNS``
    rounds of an untraced and a traced run, and the pool check."""
    import numpy as np

    work.set_up()
    work.run()
    plain, plain_faults, traced_faults, runs = [], [], [], []
    for _ in range(RUNS):
        ms, faults, _ = timed_run(work)
        plain.append(ms)
        plain_faults.append(faults)
        _, faults, spans = timed_run(work, tracer(tracing, traced))
        traced_faults.append(faults)
        runs.append(spans)
    report = {"run": quartiles(plain),
              "minflt": {"untraced": float(np.median(plain_faults)),
                         "traced": float(np.median(traced_faults))},
              "spans": span_rows(runs, tracing.self_times)}
    if name in POOL_WORKLOADS and numpy_blas is not None:
        pool = {size: [] for size in POOL_SIZES}
        for _ in range(RUNS):
            for size in POOL_SIZES:
                with numpy_pool(numpy_blas, size):
                    pool[size].append(timed_run(work)[0])
        report["numpy_pool"] = {str(size): quartiles(ms) for size, ms in pool.items()}
    return report


def compare(parent: list, change: list) -> dict:
    """Each side's quartiles of per-process values, the median ratio
    change / parent and the rounds in which the change was lower."""
    import numpy as np

    ratios = np.array(change) / np.array(parent)
    return {"parent": quartiles(parent), "change": quartiles(change),
            "ratio_median": float(np.median(ratios)),
            "change_faster": int((ratios < 1.0).sum()), "parent_ms": parent, "change_ms": change}


def paired(parent: Path, src: Path, rounds: int) -> dict:
    """The ``--pair`` report: ``rounds`` alternating fresh processes of the
    parent's script on ``parent``'s ``src`` and of this script on ``src``."""
    sides = {"parent": [sys.executable, str(parent / "bench" / "layers.py"),
                        "--src", str(parent / "src")],
             "change": [sys.executable, str(Path(__file__).resolve()), "--src", str(src)]}
    runs: dict = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(rounds):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                out = Path(tmp) / f"{side}.json"
                start = time.perf_counter()
                subprocess.run(sides[side] + ["--out", str(out)], check=True,
                               stdout=subprocess.DEVNULL)
                report = json.loads(out.read_text())
                if "workloads" not in report:
                    sys.exit(f"{sides[side][1]} does not write per-workload spans; "
                             "pair it with a commit whose script does")
                runs[side].append(report)
                print(f"round {i + 1}/{rounds} {side}: {time.perf_counter() - start:.0f} s")
    workloads: dict = {}
    for name, first in runs["change"][0]["workloads"].items():
        if name not in runs["parent"][0]["workloads"]:
            continue
        by_side = {side: [run["workloads"][name] for run in runs[side]] for side in runs}
        spans = {}
        for span in first["spans"]:
            if span not in by_side["parent"][0]["spans"]:
                continue
            rows = {side: [w["spans"][span] for w in by_side[side]] for side in runs}
            counts = {json.dumps([row["calls"], row["info"]]) for side in runs
                      for row in rows[side]}
            spans[span] = {
                **{what: compare(*([row[what] for row in rows[side]] for side in runs))
                   for what in ("self_ms", "total_ms")},
                **{what: {side: rows[side][0][what] for side in runs}
                   for what in ("calls", "info")},
                "counts_differ": len(counts) > 1}
        workloads[name] = {
            "run": compare(*([w["run"]["median_ms"] for w in by_side[side]] for side in runs)),
            "minflt": {side: [w["minflt"] for w in by_side[side]] for side in runs},
            "spans": spans}
    return {
        "git_sha": {side: runs[side][0]["git_sha"] for side in runs},
        "machine": runs["change"][0]["machine"],
        "rounds": rounds,
        "order": "fresh processes, the parent first in even rounds (from 0); per workload "
                 "and span the median and IQR over the rounds of each process's median "
                 "self and total ms, the median of the per-round ratios change/parent, "
                 "the number of rounds in which the change was faster, and each side's "
                 "calls per run and info counts (counts_differ: they differ between the "
                 "sides or between rounds)",
        "workloads": workloads,
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--pair", type=Path, default=None,
                        help="checkout of the commit to compare with, alternated with this one")
    parser.add_argument("--rounds", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pair is not None:
        if args.rounds < 1:
            parser.error("--rounds must be at least 1")
        report = paired(args.pair.resolve(), args.src.resolve(), args.rounds)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
        return
    src = args.src.resolve()
    sys.path[:0] = [str(src), str(src.parent / "perfbench")]
    import numpy
    import scipy.linalg  # noqa: F401  (loads scipy's OpenBLAS)
    import tracing
    import workloads

    traced = traced_set(tracing)
    numpy_blas = openblas(numpy, NUMPY_OPENBLAS)
    report_workloads = {}
    with tempfile.TemporaryDirectory() as work_dir:
        for name, work in (("phased-sweep", workloads.PhasedSweep(SEED)),
                           ("phaseless-ball", workloads.PhaselessBall(SEED)),
                           ("forward-sweep", workloads.ForwardSweep(SEED, Path(work_dir)))):
            report_workloads[name] = row = measure(name, work, tracing, traced, numpy_blas)
            print(f"{name:15s} run {row['run']['median_ms']:9.2f} ms, "
                  f"{row['minflt']['traced']:.0f} faults per traced run")
            for span, s in row["spans"].items():
                print(f"  {span:40s} {s['calls']:6.0f} calls {s['self_ms']:9.2f} ms self "
                      f"{s['total_ms']:9.2f} ms total")
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    report = {
        "git_sha": git_sha(src),
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": numpy.__version__,
                    "blas": blas["name"] + " " + blas.get("version", ""),
                    "blas_threads": openblas_threads(
                        numpy, NUMPY_OPENBLAS, "scipy_openblas_get_num_threads64_"),
                    "scipy_blas_threads": openblas_threads(
                        scipy, "*scipy_openblas-*", "scipy_openblas_get_num_threads")},
        "seed": SEED, "runs": RUNS,
        "order": "per workload: set_up, one untimed run, then per round one untraced and "
                 "one traced run; 'run' is the untraced run time, 'minflt' the median "
                 "minor page faults per run, 'spans' the medians over the traced runs, "
                 "'numpy_pool' the untraced run time with numpy's OpenBLAS pool at 1 and "
                 "2 threads (absent when numpy's OpenBLAS is not found)",
        "workloads": report_workloads,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
