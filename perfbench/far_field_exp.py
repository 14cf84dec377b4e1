"""Where `far_field` spends its time, at 128 angles x 128 nodes (n=64).

    python3 perfbench/far_field_exp.py

Times the whole call and its parts on the apple: the phase matrix, np.exp
of the phase exactly as `far_field` forms it, cos and sin of the real
phase, and the final matrix-vector product.
Each figure is the median of 200 calls, in ms.
"""

import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import aescatter  # noqa: E402


def median_ms(fn, repeats: int = 200) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def main() -> None:
    params = aescatter.MaterialParams.default()
    curve, grid = aescatter.make_apple(), aescatter.NodeGrid(64)
    angles = 2.0 * np.pi * np.arange(128) / 128
    dens = aescatter.solve_forward(curve, params, aescatter.IncidentWave(0.3), grid)
    p = aescatter.jet(curve, grid.nodes).p
    xhat = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    ka = params.kappa_a
    phase = -1j * ka * xhat @ p.T          # the expression far_field exponentiates
    real_phase = -ka * xhat @ p.T
    factors = np.exp(phase)
    weights = dens.phi3_tilde
    rows = [
        ("far_field (whole call)", lambda: aescatter.far_field(dens, curve, params, angles, grid)),
        ("phase matrix", lambda: -1j * ka * xhat @ p.T),
        ("np.exp(phase)", lambda: np.exp(phase)),
        ("cos + sin of the real phase", lambda: (np.cos(real_phase), np.sin(real_phase))),
        ("matrix-vector product", lambda: factors @ weights),
    ]
    for label, fn in rows:
        print(f"{label:30s} {median_ms(fn):8.3f} ms")


if __name__ == "__main__":
    main()
