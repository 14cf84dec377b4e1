"""Per-layer timings of the Nystrom pipeline.

Times ``kernel_tables`` (the split tables of one wavenumber, and of the
three wavenumbers of one assembly, each with the pair geometry they need),
``assemble_system``, ``factor_system`` and ``far_field`` on the apple at
n in {32, 64, 100, 128}, and at n in {64, 128} the four back to back as
``aescatter forward`` runs them (``forward_sequence``: assemble, factor,
solve, far field; the isolated layers cannot show one BLAS thread pool
slowing another); the phased Frechet matrix (``frechet_columns``) at
the criterion-8 initial guess with M = 6, n = 64 and 128 angles; and the
two-body layers of the criterion-9 case at n = 64: ``cross_blocks`` of the
peanut and the reference ball (with the Hankel values they share, the ball
on its own grid on checkouts that give it one), and at the initial guess
with M = 6 one prediction of |u_inf|^2 as the line search makes it
(``_predicted_modulus``: two-body assembly, LU, far field; with the ball's
blocks built beforehand on checkouts that build them once per
reconstruction), ``factor_system`` on that two-body system alone (516 x 516
with the ball on its own 44 nodes, 768 x 768 with it on the obstacle's
128), one phaseless Jacobian (``_jacobian_at``) and the self-block shape
derivative inside it (``system_sensitivity``, on checkouts that have it);
and the two whole reconstructions, ``run_phased`` on the
criterion-8 case and ``run_phaseless`` on the criterion-9 case, from data
made at n = 100. Each is timed with ``time.perf_counter`` and repeats, and
the median and interquartile range of each go to a JSON file, with the
thread counts of the two OpenBLAS libraries that numpy and scipy load:

    python3 bench/layers.py [--src SRC] [--out BENCH_14.json]

``--src`` is the ``src`` directory of the checkout to time (default: this
checkout's), so two commits can be compared on the same machine.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIZES = (32, 64, 100, 128)
SEQUENCE_SIZES = (64, 128)
N_ANGLES = 128
INVERSE_N = 64
REPEATS = 15


def git_sha(src: Path) -> str:
    try:
        out = subprocess.run(
            ["git", "-C", str(src), "describe", "--always", "--dirty", "--abbrev=40"],
            capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def openblas_threads(module, lib_glob: str, symbol: str) -> int | str:
    """The thread count of the OpenBLAS that ``module``'s wheel has loaded,
    asked from the library itself (loading the same file again returns the
    loaded copy). numpy and scipy each bring their own."""
    libs = Path(module.__file__).resolve().parent.parent / f"{module.__name__}.libs"
    for path in sorted(libs.glob(lib_glob)):
        return int(getattr(ctypes.CDLL(str(path)), symbol)())
    return f"unknown ({module.__name__}'s OpenBLAS not found)"


def timings(fn) -> dict:
    """Median and interquartile range in ms of ``REPEATS`` calls after one
    warm-up call."""
    import numpy as np

    fn()
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        times.append(1e3 * (time.perf_counter() - start))
    q1, med, q3 = np.percentile(times, [25, 50, 75])
    return {"median_ms": med, "iqr_ms": q3 - q1, "repeats": REPEATS}


def layer_calls(n: int) -> dict:
    """The timed calls at grid size n, each a function of no arguments."""
    import numpy as np

    from aescatter import forward as fw
    from aescatter import geometry, kernels

    params, curve = fw.MaterialParams.default(), geometry.make_apple()
    grid = geometry.NodeGrid(n)
    jets = geometry.jet(curve, grid.nodes)
    kappas = (params.kappa_p, params.kappa_s, params.kappa_a)
    if hasattr(kernels, "pair_geometry"):
        def tables(ks):
            geom = kernels.pair_geometry(jets, grid.nodes)
            return [kernels.kernel_tables(geom, k) for k in ks]
    else:  # before the pair geometry was shared: one full pass per wavenumber
        def tables(ks):
            return [kernels.kernel_tables(jets, grid, k) for k in ks]
    system = fw.assemble_system(curve, params, grid)
    wave = fw.IncidentWave(np.pi / 8)
    dens = fw.solve_densities(system, fw.rhs_plane_wave(curve, params, wave, grid))
    angles = 2.0 * np.pi * np.arange(N_ANGLES) / N_ANGLES
    calls = {
        "kernel_tables": lambda: tables(kappas[:1]),
        "kernel_tables_3k": lambda: tables(kappas),
        "assemble_system": lambda: fw.assemble_system(curve, params, grid),
        "factor_system": lambda: fw.factor_system(system),
        "far_field": lambda: fw.far_field(dens, curve, params, angles, grid),
    }
    if n in SEQUENCE_SIZES:
        calls["forward_sequence"] = lambda: fw.far_field(
            fw.solve_forward(curve, params, wave, grid), curve, params, angles, grid)
    return calls


def phased_calls() -> dict:
    """The Frechet matrix at the criterion-8 initial guess, n = INVERSE_N."""
    import numpy as np

    from aescatter import forward as fw
    from aescatter import geometry
    from aescatter.inverse_phased import InverseConfig, frechet_columns, initial_curve

    params, grid = fw.MaterialParams.default(), geometry.NodeGrid(INVERSE_N)
    start = initial_curve(InverseConfig(initial_center=(-0.6, -0.3), initial_radius=0.4,
                                        epsilon=0.2, M=6, n_forward=INVERSE_N))
    dens = fw.solve_forward(start, params, fw.IncidentWave(np.pi / 8), grid)
    angles = 2.0 * np.pi * np.arange(N_ANGLES) / N_ANGLES
    return {"frechet_columns": lambda: frechet_columns(start, dens, params, angles, 6, grid)}


def phaseless_calls() -> dict:
    """The timed two-body calls of the criterion-9 case at n = INVERSE_N."""
    import numpy as np

    from aescatter import forward as fw
    from aescatter import geometry, inverse_phaseless, multibody
    from aescatter.inverse_phased import InverseConfig, initial_curve

    params, grid = fw.MaterialParams.default(), geometry.NodeGrid(INVERSE_N)
    ball = inverse_phaseless.ReferenceBallSpec((6.6, 0.0), 0.71).curve()
    peanut, wave = geometry.make_peanut(), fw.IncidentWave(np.pi / 6)
    start = initial_curve(InverseConfig(initial_center=(-0.7, 0.2), initial_radius=0.3,
                                        epsilon=0.1, M=6, n_forward=INVERSE_N))
    angles = 2.0 * np.pi * np.arange(64) / 64
    # the ball's part of the system, built once per reconstruction where it is
    fixed = (inverse_phaseless._fixed_ball(ball, params, wave, angles, grid)
             if hasattr(inverse_phaseless, "_fixed_ball") else ball)
    ball_grid = getattr(fixed, "grid", grid)  # the obstacle's before the ball had its own
    if hasattr(multibody, "cross_pair"):
        def cross():
            return multibody.cross_blocks(
                multibody.cross_pair(peanut, ball, params, grid, ball_grid))
    else:  # before the pair data was shared with the Jacobian
        def cross():
            return multibody.cross_blocks(peanut, ball, params, grid, grid)

    def predict():
        return inverse_phaseless._predicted_modulus(start, fixed, params, wave, angles, grid)

    _, scene = predict()
    calls = {
        "cross_blocks": cross,
        "predicted_modulus": predict,
        "jacobian_at": lambda: inverse_phaseless._jacobian_at(
            start, fixed, params, wave, angles, 6, grid, scene),
    }
    if hasattr(fixed, "A"):  # the ball's self block is built once
        system = multibody.assemble_two_body(start, ball, params, grid, ball_grid, fixed.A)[0]
        calls["factor_system_two_body"] = lambda: fw.factor_system(system)
    if hasattr(fw, "system_sensitivity"):  # before it, the self block was differenced
        motion = inverse_phaseless._boundary_motion(
            geometry.jet(start, grid.nodes), grid.nodes, 6)
        x_d = scene[1][: 3 * grid.size]
        calls["system_sensitivity"] = lambda: fw.system_sensitivity(
            start, params, grid, x_d, motion)
    return calls


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


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_14.json")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    import numpy
    import scipy.linalg  # noqa: F401  (loads scipy's OpenBLAS)

    layers: dict = {}
    for n in SIZES:
        for name, fn in layer_calls(n).items():
            layers.setdefault(name, {})[str(n)] = timings(fn)
            print(f"{name:18s} n={n:4d} {layers[name][str(n)]['median_ms']:9.2f} ms")
    for name, fn in {**phased_calls(), **phaseless_calls(),
                     **reconstruction_calls()}.items():
        layers[name] = {str(INVERSE_N): timings(fn)}
        print(f"{name:18s} n={INVERSE_N:4d} "
              f"{layers[name][str(INVERSE_N)]['median_ms']:9.2f} ms")
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    report = {
        "git_sha": git_sha(args.src),
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": numpy.__version__,
                    "blas": blas["name"] + " " + blas.get("version", ""),
                    "blas_threads": openblas_threads(
                        numpy, "*scipy_openblas64_*", "scipy_openblas_get_num_threads64_"),
                    "scipy_blas_threads": openblas_threads(
                        scipy, "*scipy_openblas-*", "scipy_openblas_get_num_threads")},
        "curve": "apple", "far_field_angles": N_ANGLES,
        "phased": "the criterion-8 initial circle, incident angle pi/8; Frechet "
                  "matrix M = 6, 128 angles",
        "two_body": "peanut or the criterion-9 initial circle, with the ball "
                    "((6.6, 0), 0.71); prediction, Jacobian and self-block derivative "
                    "M = 6, 64 angles",
        "reconstructions": "run_phased on criterion 8 (apple, pi/8, 128 angles, 1% noise "
                           "seed 3) and run_phaseless on criterion 9 (peanut and the ball, "
                           "pi/6, 64 angles, 1% noise seed 7), M = 6, n_forward = 64",
        "layers": layers,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
