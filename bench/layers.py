"""Per-layer timings of the Nystrom pipeline.

Times ``kernel_tables`` (the single-layer tables of one wavenumber, and of
the three wavenumbers of one assembly, each with the pair geometry they need),
``assemble_system``, ``factor_system``, ``far_field``, the ``Discretization``
of a Newton step (``discretize``) and the system filled from it
(``fill_system``) on the apple at n in {32, 64, 100, 128}, and at n in
{64, 128} the four back to back as ``aescatter forward`` runs them
(``forward_sequence``: assemble, factor, solve, far field; the isolated
layers cannot show one BLAS thread pool slowing another); the phased
Frechet matrix (``frechet_columns``) at the criterion-8 initial guess with
M = 6 and 128 angles, at n in {24, 32, 40}, the grids criterion 8's
predictions solve on; and the two-body layers of the criterion-9 case at
n = 24, the grid its predictions solve on, with the reference ball on the
44 nodes its cap n_forward = 64 gives it: ``cross_blocks`` of the peanut
and the ball (with the Hankel values they share), and at the initial guess
with M = 6 the cross-block shape derivative (``cross_block_sensitivity``,
with the densities of that start's two-body solve), one prediction of
|u_inf|^2 as the line search makes it (``_predicted_modulus``: two-body
assembly, LU, far field, with the ball's blocks built once beforehand),
``factor_system`` on that two-body system alone (276 x 276), one phaseless
Jacobian (``_jacobian_at``) and the self-block
shape derivative inside it (``system_sensitivity``), with its own
``Discretization`` (``discretize`` plus the derivative) and, as the
Jacobian calls it, on the prediction's (``system_sensitivity_handed``);
and the two whole reconstructions, ``run_phased`` on the
criterion-8 case and ``run_phaseless`` on the criterion-9 case, from data
made at n = 100, each with the histogram of the grid n its predictions
were solved on (``grids``: a count per n, from one untimed run, as
``InverseConfig.n_forward`` is only the cap of each iterate's grid). The
two reconstructions are timed again with the thread
pool of numpy's OpenBLAS at 1 and at 2 threads (set in this process only,
and restored afterwards): equal medians show that no numpy product in
either Newton loop runs on threads that would compete with scipy's LU.
Each is timed with ``time.perf_counter`` and repeats, and the median and
interquartile range of each go to a JSON file, with the median number of
minor page faults per call (``ru_minflt`` of this process, read around each
timed call) and the thread counts of the two OpenBLAS libraries that numpy
and scipy load:

    python3 bench/layers.py [--src SRC] [--out BENCH_27.json]

``--src`` is the ``src`` directory of the checkout to time (default: this
checkout's). The script calls the library's current API and nothing older,
so an earlier commit is timed with its own copy of this script. Whole
processes on a shared machine run 10-50% faster or slower than the next,
so a comparison alternates fresh processes:

    git clone --quiet . <dir> && git -C <dir> checkout --quiet <commit>
    python3 bench/layers.py --pair <dir> [--rounds 10] [--out BENCH_<n>.json]

runs, ``--rounds`` times, the commit's own script on its ``src`` and this
script on ``--src``, the commit first in even rounds, and writes per layer
each side's median and interquartile range of the per-process medians, the
median of the paired ratios (this / commit), the number of rounds in
which this side was faster, each side's per-round median page faults
(null from a commit whose script does not count them) and each side's
``grids`` histogram (null where there is none), with both commits
(a ``git archive`` export has none, and reads "unknown").
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
SIZES = (32, 64, 100, 128)
SEQUENCE_SIZES = (64, 128)
N_ANGLES = 128
CAP = 64  # InverseConfig.n_forward, the reconstructions' cap; it sizes the ball's grid
PHASED_GRIDS = (24, 32, 40)  # the grids of criterion 8's predictions
PHASELESS_GRIDS = (24,)  # those of criterion 9's
REPEATS = 15
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
    return {"median_ms": med, "iqr_ms": q3 - q1}


def minor_faults() -> int:
    """The minor page faults this process has taken so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def timings(fn) -> dict:
    """Median and interquartile range in ms of ``REPEATS`` calls after one
    warm-up call, and the median number of minor page faults per call."""
    import numpy as np

    fn()
    times, faults = [], []
    for _ in range(REPEATS):
        before, start = minor_faults(), time.perf_counter()
        fn()
        times.append(1e3 * (time.perf_counter() - start))
        faults.append(minor_faults() - before)
    return {**quartiles(times), "minflt_median": float(np.median(faults)), "repeats": REPEATS}


def grid_histogram(fn) -> dict:
    """How many predictions one call of ``fn``, a reconstruction, solves on
    each grid n: the grid is the last positional argument of the phased
    prediction's ``solve_forward`` and of ``_predicted_modulus``."""
    from aescatter import inverse_phased, inverse_phaseless

    counts: collections.Counter = collections.Counter()
    patched = [(inverse_phased, "solve_forward"), (inverse_phaseless, "_predicted_modulus")]
    originals = [getattr(module, name) for module, name in patched]

    def counting(original):
        def wrapper(*args, **kwargs):
            counts[args[-1].n] += 1
            return original(*args, **kwargs)
        return wrapper

    for (module, name), original in zip(patched, originals):
        setattr(module, name, counting(original))
    try:
        fn()
    finally:
        for (module, name), original in zip(patched, originals):
            setattr(module, name, original)
    return {str(n): counts[n] for n in sorted(counts)}


def layer_calls(n: int) -> dict:
    """The timed calls at grid size n, each a function of no arguments."""
    import numpy as np

    from aescatter import forward as fw
    from aescatter import geometry, kernels

    params, curve = fw.MaterialParams.default(), geometry.make_apple()
    grid = geometry.NodeGrid(n)
    jets = geometry.jet(curve, grid.nodes)
    kappas = (params.kappa_p, params.kappa_s, params.kappa_a)

    def tables(ks):
        geom = kernels.pair_geometry(jets, grid.nodes)
        return [kernels.kernel_tables(geom, k) for k in ks]

    system = fw.assemble_system(curve, params, grid)
    wave = fw.IncidentWave(np.pi / 8)
    dens = fw.solve_densities(system, fw.rhs_plane_wave(curve, params, wave, grid))
    angles = 2.0 * np.pi * np.arange(N_ANGLES) / N_ANGLES
    disc = fw.discretize(curve, params, grid)  # a Newton step's one evaluation of the curve
    calls = {
        "kernel_tables": lambda: tables(kappas[:1]),
        "kernel_tables_3k": lambda: tables(kappas),
        "assemble_system": lambda: fw.assemble_system(curve, params, grid),
        "factor_system": lambda: fw.factor_system(system),
        "far_field": lambda: fw.far_field(dens, curve, params, angles, grid),
        "discretize": lambda: fw.discretize(curve, params, grid),
        "fill_system": lambda: fw._fill_system(disc.geom.jets, disc.ops, params),
    }
    if n in SEQUENCE_SIZES:
        calls["forward_sequence"] = lambda: fw.far_field(
            fw.solve_forward(curve, params, wave, grid), curve, params, angles, grid)
    return calls


def phased_calls(n: int) -> dict:
    """The Frechet matrix at the criterion-8 initial guess on grid n."""
    import numpy as np

    from aescatter import forward as fw
    from aescatter import geometry
    from aescatter.inverse_phased import InverseConfig, frechet_columns, initial_curve

    params, grid = fw.MaterialParams.default(), geometry.NodeGrid(n)
    start = initial_curve(InverseConfig(initial_center=(-0.6, -0.3), initial_radius=0.4,
                                        epsilon=0.2, M=6))
    dens = fw.solve_forward(start, params, fw.IncidentWave(np.pi / 8), grid)
    angles = 2.0 * np.pi * np.arange(N_ANGLES) / N_ANGLES
    return {"frechet_columns": lambda: frechet_columns(start, dens, params, angles, 6, grid)}


def phaseless_calls(n: int) -> dict:
    """The timed two-body calls of the criterion-9 case with the obstacle on
    grid n and the ball on the grid of the cap, as ``run_phaseless`` makes them."""
    import numpy as np

    from aescatter import forward as fw
    from aescatter import geometry, inverse_phaseless, multibody
    from aescatter.inverse_phased import InverseConfig, initial_curve

    params, grid = fw.MaterialParams.default(), geometry.NodeGrid(n)
    ball = inverse_phaseless.ReferenceBallSpec((6.6, 0.0), 0.71).curve()
    peanut, wave = geometry.make_peanut(), fw.IncidentWave(np.pi / 6)
    start = initial_curve(InverseConfig(initial_center=(-0.7, 0.2), initial_radius=0.3,
                                        epsilon=0.1, M=6))
    angles = 2.0 * np.pi * np.arange(64) / 64
    # the ball's part of the system, built once per reconstruction
    fixed = inverse_phaseless._fixed_ball(ball, params, wave, angles, geometry.NodeGrid(CAP))

    def pair_of(curve):  # the pair of the two node jets
        return multibody.cross_pair(geometry.jet(curve, grid.nodes),
                                    geometry.jet(ball, fixed.grid.nodes),
                                    params, grid, fixed.grid)

    def predict():
        return inverse_phaseless._predicted_modulus(start, fixed, params, wave, angles, grid)

    _, scene = predict()
    system = multibody.assemble_two_body(
        pair_of(start), fw.assemble_system(start, params, grid), fixed.A)
    motion = inverse_phaseless._boundary_motion(geometry.jet(start, grid.nodes), grid.nodes, 6)
    x_d, x_b = scene.x[: 3 * grid.size], scene.x[3 * grid.size :]
    pair = pair_of(start)
    return {
        "cross_blocks": lambda: multibody.cross_blocks(pair_of(peanut)),
        "predicted_modulus": predict,
        "jacobian_at": lambda: inverse_phaseless._jacobian_at(
            scene, fixed, params, wave, angles, 6),
        "factor_system_two_body": lambda: fw.factor_system(system),
        "system_sensitivity": lambda: fw.system_sensitivity(
            fw.discretize(start, params, grid), params, x_d, motion),
        "system_sensitivity_handed": lambda: fw.system_sensitivity(
            scene.disc, params, x_d, motion),
        "cross_block_sensitivity": lambda: multibody.cross_block_sensitivity(
            pair, x_d, x_b, motion),
    }


def reconstruction_calls() -> dict:
    """The criterion-8 and criterion-9 reconstructions, as the acceptance
    tests run them (their n = 100 data is made once, untimed)."""
    import numpy as np

    import aescatter as ae

    params, grid = ae.MaterialParams.default(), ae.NodeGrid(100)
    apple, wave8 = ae.make_apple(), ae.IncidentWave(np.pi / 8)
    obs8 = np.pi * np.arange(128) / 64
    phased = ae.add_noise_phased(
        ae.far_field(ae.solve_forward(apple, params, wave8, grid), apple, params, obs8, grid),
        0.01, seed=3)
    cfg8 = ae.InverseConfig(initial_center=(-0.6, -0.3), initial_radius=0.4, epsilon=0.2)

    peanut, wave9 = ae.make_peanut(), ae.IncidentWave(np.pi / 6)
    ball = ae.ReferenceBallSpec((6.6, 0.0), 0.71)
    obs9 = 2.0 * np.pi * np.arange(64) / 64
    dens = ae.solve_two_body_forward(peanut, ball.curve(), params, wave9, grid)
    total = ae.far_field_sum(dens, peanut, ball.curve(), params, obs9, grid, grid)
    phaseless = ae.add_noise_phaseless(
        ae.PhaselessData(obs9, np.abs(total.values) ** 2), 0.01, seed=7)
    cfg9 = ae.InverseConfig(initial_center=(-0.7, 0.2), initial_radius=0.3, epsilon=0.1)
    return {
        "run_phased": lambda: ae.run_phased(phased, params, wave8, cfg8),
        "run_phaseless": lambda: ae.run_phaseless(phaseless, ball, params, wave9, cfg9),
    }


def paired(parent: Path, src: Path, rounds: int) -> dict:
    """The ``--pair`` report: ``rounds`` alternating fresh processes of the
    parent's script on ``parent``'s ``src`` and of this script on ``src``."""
    import numpy as np

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
                runs[side].append(json.loads(out.read_text()))
                print(f"round {i + 1}/{rounds} {side}: {time.perf_counter() - start:.0f} s")
    layers: dict = {}
    for name, by_n in runs["change"][0]["layers"].items():
        for n in by_n:
            if n not in runs["parent"][0]["layers"].get(name, {}):
                continue
            ms = {side: [run["layers"][name][n]["median_ms"] for run in runs[side]]
                  for side in runs}
            ratios = np.array(ms["change"]) / np.array(ms["parent"])
            layers.setdefault(name, {})[n] = {
                "parent": quartiles(ms["parent"]), "change": quartiles(ms["change"]),
                "ratio_median": float(np.median(ratios)),
                "change_faster": int((ratios < 1.0).sum()),
                "parent_ms": ms["parent"], "change_ms": ms["change"],
                **{f"{side}_minflt": [run["layers"][name][n].get("minflt_median")
                                      for run in runs[side]] for side in runs},
                **{f"{side}_grids": runs[side][0]["layers"][name][n].get("grids")
                   for side in runs}}
    return {
        "git_sha": {side: runs[side][0]["git_sha"] for side in runs},
        "machine": runs["change"][0]["machine"],
        "rounds": rounds,
        "order": "fresh processes, the parent first in even rounds (from 0); per layer "
                 "the median and IQR over the rounds of each process's median, the "
                 "median of the per-round ratios change/parent, the number of rounds "
                 "in which the change was faster and each round's median minor page "
                 "faults per call (null from a harness that does not count them)",
        "layers": layers,
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_27.json")
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
    sys.path.insert(0, str(args.src.resolve()))
    import numpy
    import scipy.linalg  # noqa: F401  (loads scipy's OpenBLAS)

    layers: dict = {}
    for n in SIZES:
        for name, fn in layer_calls(n).items():
            layers.setdefault(name, {})[str(n)] = timings(fn)
            print(f"{name:18s} n={n:4d} {layers[name][str(n)]['median_ms']:9.2f} ms "
                  f"{layers[name][str(n)]['minflt_median']:7.0f} faults")
    reconstructions = reconstruction_calls()
    inversions = ([(n, phased_calls(n)) for n in PHASED_GRIDS]
                  + [(n, phaseless_calls(n)) for n in PHASELESS_GRIDS] + [(CAP, reconstructions)])
    for n, calls in inversions:
        for name, fn in calls.items():
            row = timings(fn)
            if name in reconstructions:
                row["grids"] = grid_histogram(fn)
            layers.setdefault(name, {})[str(n)] = row
            print(f"{name:18s} n={n:4d} {row['median_ms']:9.2f} ms {row.get('grids', '')}")
    numpy_blas, pool = openblas(numpy, NUMPY_OPENBLAS), {}
    if numpy_blas is not None:
        for name, fn in reconstructions.items():
            for size in POOL_SIZES:
                with numpy_pool(numpy_blas, size):
                    pool.setdefault(name, {})[str(size)] = timings(fn)
                print(f"{name:18s} numpy threads={size} "
                      f"{pool[name][str(size)]['median_ms']:9.2f} ms")
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    report = {
        "git_sha": git_sha(args.src),
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": numpy.__version__,
                    "blas": blas["name"] + " " + blas.get("version", ""),
                    "blas_threads": openblas_threads(
                        numpy, NUMPY_OPENBLAS, "scipy_openblas_get_num_threads64_"),
                    "scipy_blas_threads": openblas_threads(
                        scipy, "*scipy_openblas-*", "scipy_openblas_get_num_threads")},
        "curve": "apple", "far_field_angles": N_ANGLES,
        "phased": "the criterion-8 initial circle, incident angle pi/8; Frechet "
                  "matrix M = 6, 128 angles, keyed by the grid n",
        "two_body": "peanut or the criterion-9 initial circle on grid n, with the ball "
                    "((6.6, 0), 0.71) on the grid of the cap n_forward = 64; prediction, "
                    "Jacobian and self-block derivative M = 6, 64 angles",
        "reconstructions": "run_phased on criterion 8 (apple, pi/8, 128 angles, 1% noise "
                           "seed 3) and run_phaseless on criterion 9 (peanut and the ball, "
                           "pi/6, 64 angles, 1% noise seed 7), M = 6, n_forward = 64 as "
                           "the cap of each iterate's grid, and keyed by it; 'grids' "
                           "counts their predictions per grid n",
        "layers": layers,
        "numpy_pool": "the two reconstructions with numpy's OpenBLAS pool at 1 and at 2 "
                      "threads, keyed by pool size (empty when numpy's OpenBLAS is not "
                      "found)",
        "reconstructions_by_numpy_pool": pool,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
