"""Regenerate the benchmark's stored reference data.

    python3 perfbench/make_reference.py [--seeds 16] [--skip-forward]

Writes two files under ``perfbench/reference``:

``forward_n256.npz``
    Far fields of the apple and the peanut at n=256 for the 8 incident
    directions of ``forward-sweep``, at its 512 observation angles. The
    benchmark compares the n=128 (and, loosely, n=64) rows it writes
    against these.
``records.json``
    For seeds 0..N-1 of ``phased-sweep`` and ``phaseless-ball``: the
    failure cause and the (k, E_k, Err_k) records of every reconstruction,
    as produced by the code this script runs with. A later change reports
    whether it reproduces them.

Run from the repository root; it imports ``aescatter`` from ``src``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import aescatter  # noqa: E402
import workloads  # noqa: E402


def forward_reference(n: int = 256) -> np.ndarray:
    fs = workloads.ForwardSweep
    obs = 2.0 * np.pi * np.arange(fs.n_obs) / fs.n_obs
    grid = aescatter.NodeGrid(n)
    values = np.empty((len(fs.shapes), len(fs.directions), fs.n_obs), dtype=complex)
    for i, shape in enumerate(fs.shapes):
        curve = aescatter.StarlikeCurve.from_dict({"kind": shape, "center": [0.0, 0.0]})
        for j, theta in enumerate(fs.directions):
            dens = aescatter.solve_forward(curve, workloads.PARAMS,
                                           aescatter.IncidentWave(float(theta)), grid)
            values[i, j] = aescatter.far_field(dens, curve, workloads.PARAMS, obs, grid).values
    return values


def seed_records(workload_cls, seed: int) -> dict:
    work = workload_cls(seed)
    work.set_up()
    outcomes = work.run()
    work.check(outcomes)
    return {out.label: {"cause": out.cause, "records": out.records} for out in outcomes}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=16)
    parser.add_argument("--skip-forward", action="store_true")
    args = parser.parse_args()
    out_dir = workloads.REFERENCE_DIR
    out_dir.mkdir(exist_ok=True)
    if not args.skip_forward:
        np.savez_compressed(workloads.FORWARD_REFERENCE, values=forward_reference())
        print(f"wrote {workloads.FORWARD_REFERENCE}", flush=True)
    table = {}
    for cls in (workloads.PhasedSweep, workloads.PhaselessBall):
        table[cls.name] = {}
        for seed in range(args.seeds):
            table[cls.name][str(seed)] = seed_records(cls, seed)
            print(f"{cls.name} seed {seed}: "
                  + ", ".join(f"{k}={v['cause'] or 'ok'}" for k, v in table[cls.name][str(seed)].items()),
                  flush=True)
    workloads.RECORDS_REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.RECORDS_REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
