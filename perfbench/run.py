"""Benchmark of aescatter: three workloads through the public API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its ``src``.
Workloads: ``phased-sweep``, ``phaseless-ball`` and ``forward-sweep`` (see
``perfbench/NOTES.md``). One process runs one workload:

1. the import of ``aescatter`` is timed in five fresh interpreters;
2. set-up, five times: the quadrature caches are emptied, the inputs are
   generated from the seed and a warm-up solve fills the caches again;
   ``setup_s`` is the median import time plus the median set-up time;
3. workload runs, repeated while another one still fits in ``--seconds``
   (at least one); each run's outputs are checked after it is timed;
4. on ``phased-sweep``, an untimed robustness pass over all eight incident
   directions, whose failures are printed but not counted in the result;
5. a report on stdout, then, as the last line, one JSON object with the
   keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones (``run_s``, the
median run time; ``setup_s``; ``peak_rss_mb``). With ``--trace 1`` runs
alternate between untraced and traced, and the metrics are the per-layer
ones (medians over the traced runs) plus the tracing overhead, the
difference of the two median run times. The spans of the last traced run
are written to ``.perfbench-out/`` in the checkout.

Exits with 2, printing no result, when the library or the reference data
cannot be loaded, so that no correctness check can run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("phased-sweep", "phaseless-ball", "forward-sweep")
SETUP_REPEATS = 5
IMPORT_REPEATS = 5
OUT_DIR = ROOT / ".perfbench-out"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_sha(root: Path) -> str:
    """Commit of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def import_library():
    """Import the library from this checkout's ``src``.

    Returns False when ``src/aescatter`` is missing or fails to import.
    """
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    try:
        import aescatter
    except ImportError as exc:
        print(f"cannot import aescatter from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return False
    if not Path(aescatter.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"aescatter was imported from {aescatter.__file__}, not from this checkout",
              file=sys.stderr)
        return False
    return True


def import_times(repeats: int) -> list[float]:
    """Import time of ``aescatter`` in ``repeats`` fresh interpreters, one
    after the other; the start of each interpreter is not counted."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import aescatter; print(time.perf_counter() - t)")
    times = []
    for _ in range(repeats):
        child = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")],
                               capture_output=True, text=True, check=True, timeout=120)
        times.append(float(child.stdout))
    return times


def run_context(args, nproc: int) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(ROOT),
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas["name"] + " " + blas.get("version", ""),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "workload": args.workload,
        "seed": args.seed,
    }


def make_workload(name: str, seed: int, work_dir: Path):
    import workloads
    if name == "phased-sweep":
        return workloads.PhasedSweep(seed)
    if name == "phaseless-ball":
        return workloads.PhaselessBall(seed)
    return workloads.ForwardSweep(seed, work_dir)


def timed_runs(work, seconds: float, tracer=None):
    """Run the workload while another run still fits in ``seconds``.

    With a tracer, runs alternate between untraced and traced, so that the
    tracing overhead compares runs made at the same time. Returns the
    untraced durations, the traced durations, the outcomes of every run
    and the layer metrics of each traced run.
    """
    import tracing
    import workloads
    plain, traced, all_outcomes, layers = [], [], [], []
    modes = [(plain, None)] + ([(traced, tracer)] if tracer else [])
    start = time.perf_counter()
    while True:
        for durations, active in modes:
            misses = workloads.table_misses()
            if active:
                active.reset()
            with active or contextlib.nullcontext():
                t0 = time.perf_counter()
                outcomes = work.run()
                durations.append(time.perf_counter() - t0)
            if active:
                layers.append(tracing.layer_metrics(active.spans,
                                                    workloads.table_misses() - misses))
            work.check(outcomes)
            all_outcomes.append(outcomes)
        per_round = sum(statistics.median(durations) for durations, _ in modes)
        if time.perf_counter() - start + per_round > seconds:
            return plain, traced, all_outcomes, layers


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = len(os.sched_getaffinity(0))
    os.environ.setdefault("OPENBLAS_NUM_THREADS", str(nproc))
    if not import_library():
        return 2
    import tracing
    import workloads

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as work_dir:
        try:
            reference = workloads.load_reference_records(args.workload, args.seed)
            work = make_workload(args.workload, args.seed, Path(work_dir))
        except (OSError, ValueError, KeyError) as exc:
            print(f"reference data unavailable: {exc}", file=sys.stderr)
            return 2
        imports = import_times(IMPORT_REPEATS)
        setups = []
        for _ in range(SETUP_REPEATS):
            workloads.clear_caches()
            t0 = time.perf_counter()
            work.set_up()
            setups.append(time.perf_counter() - t0)
        setup_s = statistics.median(imports) + statistics.median(setups)

        tracer = tracing.Tracer() if args.trace else None
        durations, traced, all_outcomes, layers = timed_runs(work, args.seconds, tracer)
        accuracy = work.accuracy(all_outcomes[-1])
        robustness = work.robustness() if hasattr(work, "robustness") else None
    if tracer is not None:
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl")

    flat = [out for outcomes in all_outcomes for out in outcomes]
    attempted, failed = len(flat), sum(out.failed for out in flat)
    by_cause = {cause: sum(out.cause == cause for out in flat) for cause in workloads.CAUSES}
    correct = not any(out.cause == workloads.WRONG_OUTPUT for out in flat + (robustness or []))
    q1, run_s, q3 = quartiles(durations)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    context = run_context(args, nproc)
    context.update({"runs": len(durations), "setup_repeats": SETUP_REPEATS,
                    "import_repeats": IMPORT_REPEATS,
                    "run_s_quartiles": [q1, run_s, q3], "run_s_all": durations,
                    "setup_s_all": setups, "import_s_all": imports})
    print(f"# context {json.dumps(context)}")

    if args.workload == "forward-sweep":
        records_line = "records: not applicable (no iterations)"
    elif reference is None:
        records_line = f"records: no stored reference for seed {args.seed}"
    else:
        matching, compared = workloads.compare_records(all_outcomes[-1], reference)
        records_line = (f"records: {matching}/{compared} operations reproduce the stored "
                        f"(k, E_k, Err_k) within rtol {workloads.RECORDS_RTOL:g}")
    print(f"# {records_line}")
    print("# failures by cause (all runs): "
          + ", ".join(f"{cause}={count}" for cause, count in by_cause.items()))
    for out in all_outcomes[-1]:
        if out.failed:
            print(f"#   {out.label}: {out.cause}: {out.detail.splitlines()[0][:160]}")
    if robustness is not None:
        robust_causes = {cause: sum(out.cause == cause for out in robustness)
                         for cause in workloads.CAUSES}
        print(f"# robustness (untimed, one reconstruction per incident direction): "
              f"{sum(out.failed for out in robustness)}/{len(robustness)} fail: "
              + ", ".join(f"{cause}={count}" for cause, count in robust_causes.items()))
        for out in robustness:
            status = out.cause or f"ok at k={out.records[-1][0]}"
            print(f"#   {out.label}: {status}")

    fail_frac = failed / attempted
    summary = [("setup_s", setup_s, "s"), ("run_s", run_s, "s"),
               ("fail_frac", fail_frac, "ratio"),
               ("recon_err", accuracy.get("recon_err"), "1"),
               ("farfield_err", accuracy.get("farfield_err"), "1"),
               ("peak_rss_mb", peak_rss_mb, "MB")]
    for name, value, unit in summary:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"# {args.workload} {name} = {shown} {unit}")

    if args.trace:
        per_run = {name: [layer[name] for layer in layers] for name in layers[0]}
        metrics = {name: {"value": statistics.median(values), "unit": tracing.unit_of(name)}
                   for name, values in per_run.items()}
        traced_s = statistics.median(traced)
        metrics["trace.run_s"] = {"value": traced_s, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": traced_s - run_s, "unit": "s"}
        print(f"# tracing overhead: traced run {traced_s:.4f} s, untraced {run_s:.4f} s "
              f"(medians of {len(traced)} and {len(durations)} alternating runs): "
              f"{traced_s - run_s:+.4f} s")
        for name, item in metrics.items():
            print(f"# {name} = {item['value']:.6g} {item['unit']}")
    else:
        metrics = {"run_s": {"value": run_s, "unit": "s"},
                   "setup_s": {"value": setup_s, "unit": "s"},
                   "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
