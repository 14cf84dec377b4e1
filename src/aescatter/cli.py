"""Batch front end: synthetic data generation, reconstruction runs, checks.

Commands
--------
``aescatter forward <config>``
    Solve the forward problem on the configured obstacle (plus reference
    ball if one is given) and write far-field data files.
``aescatter invert <config> <data> [--phaseless]``
    Run the phased or phaseless reconstruction against a data file; write
    the iteration history and plot-ready boundary samples, also when the
    run stops short (iteration cap, or every step pinches or fails). Exit
    code 0 when the stopping tolerance was reached, 2 otherwise.
``aescatter verify``
    Run the analytic self-checks (quadrature identities, special-function
    identity, translation covariance, Frechet finite differences, seeded
    noise reproducibility) and report measured errors.

All outputs go to the directory named by the ``AESCATTER_OUTPUT_DIR``
environment variable (default: current directory). Data files are plain
whitespace-separated tables: phased rows are ``angle re im``, phaseless
rows are ``angle abs2``.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
import time
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .forward import (
    FarField,
    IncidentWave,
    MaterialParams,
    _times_d,
    far_field,
    solve_forward,
    translation_errors,
)
from .geometry import _PROFILES, NodeGrid, StarlikeCurve, _integral, make_apple, make_fourier
from .inverse_phased import InverseConfig, add_noise_phased, frechet_fd_error, run_phased
from .inverse_phaseless import (
    PhaselessData,
    ReferenceBallSpec,
    add_noise_phaseless,
    run_phaseless,
)
from .multibody import far_field_sum, solve_two_body_forward
from .quadrature import diff_matrix, identity_errors
from .specfun import wronskian_error

__all__ = ["load_config", "dump_config", "cmd_forward", "cmd_invert", "cmd_verify", "main"]

_DEFAULTS = {
    "material": asdict(MaterialParams.default()),
    "wave": {"theta": np.pi / 8},
    "obstacle": {"kind": "apple"},
    "ball": None,
    "grids": {"n_data": 100, "n_forward": InverseConfig.n_forward, "observation_points": 128},
    "inversion": {"initial_center": [-0.6, -0.3], "initial_radius": 0.4, "epsilon": 0.2,
                  "M": InverseConfig.M, "rho": InverseConfig.rho,
                  "max_iter": InverseConfig.max_iter},
    "noise": {"delta": 0.0, "model": "uniform"},
    "seed": 0,
}


def load_config(path) -> dict:
    """Parse a JSON config file and fill in all defaults.

    The result is fully populated, so dumping and re-loading it is
    idempotent. An unknown section, obstacle kind, or key of ``wave``,
    ``grids``, ``noise``, ``obstacle`` (``kind``, ``center`` and the profile
    parameters) or ``ball`` (``ReferenceBallSpec``'s fields) raises
    ValueError (the dataclasses check the others), as does a missing ball
    field or profile parameter with no default, a NaN or Infinity, and an
    ``observation_points`` or ``seed`` that is not an integer.
    """
    with open(path) as f:
        raw = json.load(f, parse_constant=_reject_constant)
    kind = (raw.get("obstacle") or {}).get("kind", "apple")
    if kind not in _PROFILES:
        raise ValueError(f"unknown obstacle kind {kind!r}")
    shape = inspect.signature(_PROFILES[kind]).parameters.values()
    ball = [field.name for field in fields(ReferenceBallSpec)]
    known = {key: _DEFAULTS[key] for key in ("wave", "grids", "noise")}
    known.update(obstacle=["kind", "center", *(p.name for p in shape)], ball=ball)
    for what, given, keys in [("section", raw, _DEFAULTS)] + [
            (f"{key} key", raw.get(key) or {}, keys) for key, keys in known.items()]:
        unknown = sorted(set(given) - set(keys))
        if unknown:
            raise ValueError(f"unknown config {what}: {', '.join(unknown)}")
    required = {"obstacle": [p.name for p in shape if p.default is p.empty],
                "ball": ball if raw.get("ball") is not None else []}
    for section, keys in required.items():
        missing = [key for key in keys if key not in (raw.get(section) or {})]
        if missing:
            raise ValueError(f"missing config {section} key: {', '.join(missing)}")
    cfg = {key: {**default, **(raw.get(key) or {})} if isinstance(default, dict)
           else raw.get(key, default) for key, default in _DEFAULTS.items()}
    if not (_integral(cfg["grids"]["observation_points"]) and _integral(cfg["seed"])):
        raise ValueError("config observation_points and seed must be integers")
    return cfg


def _reject_constant(name: str):
    raise ValueError(f"config value {name} is not a JSON number")


def dump_config(cfg: dict, path) -> None:
    with open(path, "w") as f:
        json.dump(cfg, f, indent=2, sort_keys=True)
        f.write("\n")


def _obstacle(cfg: dict) -> StarlikeCurve:
    shape = dict(cfg["obstacle"])
    kind, center = shape.pop("kind"), shape.pop("center", [0.0, 0.0])
    return StarlikeCurve.from_dict({"kind": kind, "center": center, "parameters": shape})


def _ball(cfg: dict) -> ReferenceBallSpec | None:
    return None if cfg.get("ball") is None else ReferenceBallSpec(**cfg["ball"])


def _inverse_config(cfg: dict) -> InverseConfig:
    inv = dict(cfg["inversion"], initial_center=tuple(cfg["inversion"]["initial_center"]))
    return InverseConfig(**inv, n_forward=cfg["grids"]["n_forward"])


def _out_dir() -> Path:
    out = Path(os.environ.get("AESCATTER_OUTPUT_DIR", "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _obs_angles(cfg: dict) -> np.ndarray:
    n_obs = cfg["grids"]["observation_points"]
    return 2.0 * np.pi * np.arange(n_obs) / n_obs


def cmd_forward(config_path) -> list[Path]:
    """Generate far-field data files from a config; returns written paths."""
    cfg = load_config(config_path)
    params = MaterialParams(**cfg["material"])
    wave = IncidentWave(cfg["wave"]["theta"])
    curve = _obstacle(cfg)
    ball = _ball(cfg)
    grid = NodeGrid(cfg["grids"]["n_data"])
    angles = _obs_angles(cfg)
    delta, model = cfg["noise"]["delta"], cfg["noise"]["model"]
    seed = cfg["seed"]
    out = _out_dir()
    stem = Path(config_path).stem

    if ball is None:
        densities = solve_forward(curve, params, wave, grid)
        ff = far_field(densities, curve, params, angles, grid)
        if delta > 0.0:
            ff = add_noise_phased(ff, delta, seed, model)
        path = out / f"{stem}_phased.dat"
        table = np.column_stack([ff.angles, ff.values.real, ff.values.imag])
        np.savetxt(path, table, header="angle re im")
    else:
        densities = solve_two_body_forward(curve, ball.curve(), params, wave, grid)
        total = far_field_sum(densities, curve, ball.curve(), params, angles, grid, grid)
        data = PhaselessData(angles, np.abs(total.values) ** 2)
        if delta > 0.0:
            data = add_noise_phaseless(data, delta, seed, model)
        path = out / f"{stem}_phaseless.dat"
        np.savetxt(path, np.column_stack([data.angles, data.values]),
                   header="angle abs2")
    return [path]


def _write_history(path: Path, records, M: int, ball: ReferenceBallSpec | None) -> None:
    have_err = records[0].Err_k is not None
    cols = ["k", "E_k"] + (["Err_k"] if have_err else [])
    cols += ["c1", "c2"] + [f"a{m}" for m in range(M + 1)] + [f"b{m}" for m in range(1, M + 1)]
    header = " ".join(cols)
    if ball is not None:
        header = (f"reference ball: center=({ball.center[0]}, {ball.center[1]}) "
                  f"radius={ball.radius}\n") + header
    rows = []
    for rec in records:  # every iterate carries exactly a_0..a_M, b_1..b_M
        radial = rec.curve.radial
        row = [rec.k, rec.E_k] + ([rec.Err_k] if have_err else [])
        row += list(rec.curve.center) + list(radial.a) + list(radial.b)
        rows.append(row)
    np.savetxt(path, np.array(rows), header=header)


_CURVE_SAMPLES = 256  # equispaced angles of a written curve


def _write_curve(path: Path, curve: StarlikeCurve) -> None:
    t = 2.0 * np.pi * np.arange(_CURVE_SAMPLES) / _CURVE_SAMPLES
    p = curve.point(t)
    np.savetxt(path, np.column_stack([t, p[:, 0], p[:, 1]]), header="t x y")


def cmd_invert(config_path, data_path, phaseless: bool = False) -> int:
    """Run a reconstruction against a data file; 0 on convergence, 2 otherwise."""
    cfg = load_config(config_path)
    params = MaterialParams(**cfg["material"])
    wave = IncidentWave(cfg["wave"]["theta"])
    inv_cfg = _inverse_config(cfg)
    truth = _obstacle(cfg) if cfg["obstacle"]["kind"] in ("apple", "peanut") else None
    out = _out_dir()
    stem = Path(data_path).stem
    table = np.loadtxt(data_path, ndmin=2)
    header = "angle abs2" if phaseless else "angle re im"
    if table.shape[1] != len(header.split()):
        raise ValueError(f"{data_path} has {table.shape[1]} columns; expected '{header}'")

    if phaseless:
        ball = _ball(cfg)
        if ball is None:
            raise ValueError("phaseless inversion needs a ball section in the config")
        data = PhaselessData(table[:, 0], table[:, 1])
        records = run_phaseless(data, ball, params, wave, inv_cfg, ground_truth=truth)
    else:
        ball = None
        observed = FarField(angles=table[:, 0], values=table[:, 1] + 1j * table[:, 2])
        records = run_phased(observed, params, wave, inv_cfg, ground_truth=truth)

    _write_history(out / f"{stem}_history.dat", records, inv_cfg.M, ball)
    _write_curve(out / f"{stem}_curve.dat", records[-1].curve)
    if truth is not None:
        _write_curve(out / f"{stem}_truth.dat", truth)
    final = records[-1]
    print(f"stopped at k={final.k} with E_k={final.E_k:.6g}"
          + (f" Err_k={final.Err_k:.6g}" if final.Err_k is not None else ""))
    return 0 if final.E_k <= inv_cfg.epsilon else 2


def cmd_verify() -> tuple[bool, str]:
    """Run the analytic self-checks; returns (all_passed, report text)."""
    params, wave, grid = MaterialParams.default(), IncidentWave(np.pi / 8), NodeGrid(64)
    angles = 2.0 * np.pi * np.arange(64) / 64
    quadrature = identity_errors(16, 5)
    # Assembly applies D along the rows by FFT; the dense matrix is the reference.
    re, im = np.random.default_rng(11).standard_normal((2, 2 * grid.n, 2 * grid.n))
    W = re + 1j * im
    dense = W @ diff_matrix(grid.n)
    phase, modulus = translation_errors(make_apple(), (0.5, 0.3), params, wave, grid, angles)
    fourier = make_fourier((0.1, -0.2), [0.55, 0.06, -0.04, 0.03], [0.05, -0.02, 0.01])
    frechet = frechet_fd_error(fourier, solve_forward(fourier, params, wave, grid), params,
                               angles, 6, grid, np.random.default_rng(5))
    noisy = [add_noise_phased(FarField(angles, np.exp(1j * angles)), 0.01, seed=42).values
             for _ in range(2)]
    rows = [("log weights sum to zero", quadrature["log sum"], 1e-12),
            ("log weights Fourier modes", quadrature["log modes"], 1e-12),
            ("cauchy weights identity", quadrature["cauchy"], 1e-12),
            ("differentiation weights", quadrature["diff"], 1e-12),
            ("differentiation by FFT", np.abs(_times_d(W) - dense).max() / np.abs(dense).max(),
             1e-13),
            ("Bessel Wronskian", wronskian_error(np.linspace(1e-3, 50.0, 2000)), 1e-11),
            ("translation covariance (phase)", phase, 1e-6),
            ("translation covariance (modulus)", modulus, 1e-6),
            ("Frechet finite-difference", frechet, 1e-4),
            ("seeded noise reproducibility", np.abs(noisy[0] - noisy[1]).max(), 0.0)]
    report = "\n".join(f"{'PASS' if err <= tol else 'FAIL'}  {label}: {err:.3e} (tol {tol:.0e})"
                       for label, err, tol in rows)
    return all(err <= tol for _, err, tol in rows), report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="aescatter", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    p_fwd = sub.add_parser("forward", help="generate far-field data")
    p_fwd.add_argument("config")
    p_inv = sub.add_parser("invert", help="run a reconstruction")
    p_inv.add_argument("config")
    p_inv.add_argument("data")
    p_inv.add_argument("--phaseless", action="store_true")
    sub.add_parser("verify", help="run analytic self-checks")
    args = parser.parse_args(argv)

    if args.command == "forward":
        t0 = time.time()
        for path in cmd_forward(args.config):
            print(f"wrote {path} ({time.time() - t0:.1f}s)")
        return 0
    if args.command == "invert":
        return cmd_invert(args.config, args.data, phaseless=args.phaseless)
    if args.command == "verify":
        ok, report = cmd_verify()
        print(report)
        return 0 if ok else 1
    return 1


if __name__ == "__main__":
    sys.exit(main())
