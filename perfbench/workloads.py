"""The benchmark's three workloads.

Each workload builds its inputs from the workload seed in ``set_up``, does
its timed work in ``run`` through the public ``aescatter`` API, and checks
what ``run`` returned in ``check``. ``run`` never raises: every exception
from the library is caught and recorded as an ``Outcome`` with its cause, so
one failing reconstruction or solve cannot abort the benchmark.

Importing this module imports ``aescatter``; the caller puts the
repository's ``src`` directory on ``sys.path`` first.
"""

from __future__ import annotations

import json
import os
import statistics
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import aescatter
from aescatter import cli, quadrature

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"
FORWARD_REFERENCE = REFERENCE_DIR / "forward_n256.npz"
RECORDS_REFERENCE = REFERENCE_DIR / "records.json"

PARAMS = aescatter.MaterialParams.default()

# Failure causes, in the order the report lists them.
PINCHED = "pinched"
RESIDUAL_GATE = "residual_gate"
NOT_CONVERGED = "not_converged"
WRONG_OUTPUT = "wrong_output"
OTHER = "other"
CAUSES = (PINCHED, RESIDUAL_GATE, NOT_CONVERGED, WRONG_OUTPUT, OTHER)

# An independent forward solve on a finer grid must reproduce the E_k that
# a reconstruction reports for its last iterate to within this (absolute).
E_K_RECHECK_TOL = 1e-3
# Relative tolerance for reproducing the stored (E_k, Err_k) records; the
# iteration counts k must match exactly.
RECORDS_RTOL = 1e-8
# Forward-sweep rows against the n=256 reference, relative to max |u_inf|.
FORWARD_TOL = {128: 1e-6, 64: 1e-2}
# Where ``aescatter forward`` writes its data files.
OUTPUT_DIR_VARIABLE = "AESCATTER_OUTPUT_DIR"


@dataclass
class Outcome:
    """What one operation (a reconstruction or a forward solve) produced."""

    label: str
    cause: str | None = None          # None while the operation counts as a success
    detail: str = ""
    records: list | None = None       # (k, E_k, Err_k) per returned iterate
    curve: object = None              # last iterate of a reconstruction
    paths: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.cause is not None


def classify(exc: Exception) -> str:
    """Failure cause of an exception raised by the library."""
    if isinstance(exc, FloatingPointError) and "residual" in str(exc):
        return RESIDUAL_GATE
    if isinstance(exc, ValueError) and "pinched" in str(exc):
        return PINCHED
    return OTHER


def _failure(label: str, exc: Exception) -> Outcome:
    return Outcome(label, cause=classify(exc), detail=f"{type(exc).__name__}: {exc}")


def _records(records) -> list:
    return [(r.k, float(r.E_k), None if r.Err_k is None else float(r.Err_k))
            for r in records]


def _warm_up(grid_sizes) -> None:
    """One small forward solve per grid size: fills the quadrature tables
    and loads the LAPACK routines before anything is timed."""
    circle = aescatter.make_circle((0.0, 0.0), 1.0)
    for n in grid_sizes:
        aescatter.solve_forward(circle, PARAMS, aescatter.IncidentWave(0.0),
                                aescatter.NodeGrid(n))


def clear_caches() -> None:
    """Empty the library's quadrature table caches, so a set-up pays for them."""
    quadrature.log_weight_table.cache_clear()
    quadrature.cauchy_weight_table.cache_clear()


def table_misses() -> int:
    return (quadrature.log_weight_table.cache_info().misses
            + quadrature.cauchy_weight_table.cache_info().misses)


def load_reference_records(workload: str, seed: int):
    """Stored records of this workload and seed, or None when there are none."""
    table = json.loads(RECORDS_REFERENCE.read_text())
    return table.get(workload, {}).get(str(seed))


def compare_records(outcomes, reference) -> tuple[int, int]:
    """(matching, compared) operations against the stored reference.

    An operation matches when it has the stored failure cause (or none) and
    the same iteration counts, with E_k and Err_k within ``RECORDS_RTOL``.
    """
    matching = 0
    for out in outcomes:
        ref = reference.get(out.label)
        if ref is None:
            continue
        ref_records = ref["records"] or []
        got = out.records or []
        same = ref["cause"] == out.cause and len(got) == len(ref_records) and all(
            k == rk and np.isclose(e, re, rtol=RECORDS_RTOL, atol=0.0)
            and (err is None or np.isclose(err, rerr, rtol=RECORDS_RTOL, atol=0.0))
            for (k, e, err), (rk, re, rerr) in zip(got, ref_records))
        matching += same
    return matching, len(reference)


class PhasedSweep:
    """Criterion-8 phased reconstruction of the apple.

    The timed run reconstructs from the two incident directions of the eight
    that converge at the seed commit, with several noise draws each. The
    other six directions fail (a curve pinches or the residual gate trips);
    ``robustness`` runs all eight once, outside the timed runs, so that the
    defect is still reported.
    """

    name = "phased-sweep"
    n_data = 100
    n_obs = 128
    noise = 0.01
    directions = np.pi / 8 + np.pi / 4 * np.arange(8)
    # Indices into ``directions`` of the timed reconstructions: theta0 stops
    # at k=5 and theta6 at k=4 for every stored noise draw.
    timed_directions = (0, 6)
    noise_draws = 2
    config = aescatter.InverseConfig(initial_center=(-0.6, -0.3), initial_radius=0.4,
                                     epsilon=0.2, M=6, n_forward=64)

    def __init__(self, seed: int):
        self.seed = seed
        self.truth = aescatter.make_apple()
        self.obs = 2.0 * np.pi * np.arange(self.n_obs) / self.n_obs
        self.data = []

    def _far_field(self, j: int):
        grid = aescatter.NodeGrid(self.n_data)
        wave = aescatter.IncidentWave(float(self.directions[j]))
        dens = aescatter.solve_forward(self.truth, PARAMS, wave, grid)
        return wave, aescatter.far_field(dens, self.truth, PARAMS, self.obs, grid)

    def _noise_seeds(self) -> np.ndarray:
        """One noise seed per (direction, draw), for all eight directions."""
        return np.random.default_rng(self.seed).integers(
            0, 2**32, (len(self.directions), self.noise_draws))

    def set_up(self) -> None:
        noise_seeds = self._noise_seeds()
        self.data = []
        for j in self.timed_directions:
            wave, ff = self._far_field(j)
            for d, noise_seed in enumerate(noise_seeds[j]):
                observed = aescatter.add_noise_phased(ff, self.noise, int(noise_seed))
                self.data.append((f"theta{j}_draw{d}", wave, observed))
        _warm_up([self.config.n_forward])

    def _reconstruct(self, data) -> list[Outcome]:
        outcomes = []
        for label, wave, observed in data:
            try:
                records = aescatter.run_phased(observed, PARAMS, wave, self.config,
                                               ground_truth=self.truth)
            except Exception as exc:  # every library failure is counted, not raised
                outcomes.append(_failure(label, exc))
                continue
            outcomes.append(Outcome(label, records=_records(records), curve=records[-1].curve))
        return outcomes

    def run(self) -> list[Outcome]:
        return self._reconstruct(self.data)

    def robustness(self) -> list[Outcome]:
        """One checked reconstruction per direction, all eight, with the
        first noise draw of each; not part of any timed run."""
        noise_seeds = self._noise_seeds()
        data = []
        for j in range(len(self.directions)):
            wave, ff = self._far_field(j)
            observed = aescatter.add_noise_phased(ff, self.noise, int(noise_seeds[j, 0]))
            data.append((f"theta{j}_draw0", wave, observed))
        outcomes = self._reconstruct(data)
        self._check(outcomes, data)
        return outcomes

    def check(self, outcomes) -> None:
        self._check(outcomes, self.data)

    def _check(self, outcomes, data) -> None:
        """Recompute E_k of each returned last iterate on the data grid."""
        grid = aescatter.NodeGrid(self.n_data)
        for out, (_, wave, observed) in zip(outcomes, data):
            if out.records is None:
                continue
            E_k = out.records[-1][1]
            dens = aescatter.solve_forward(out.curve, PARAMS, wave, grid)
            pred = aescatter.far_field(dens, out.curve, PARAMS, self.obs, grid)
            E_check = (aescatter.trapezoid_norm(observed.values - pred.values)
                       / aescatter.trapezoid_norm(observed.values))
            mark_reconstruction(out, E_k, E_check, self.config.epsilon)

    def accuracy(self, outcomes) -> dict:
        return {"recon_err": recon_err(outcomes)}


class PhaselessBall:
    """Criterion-9 phaseless reconstruction of the peanut with a reference ball."""

    name = "phaseless-ball"
    n_data = 100
    n_obs = 64
    noise = 0.01
    theta = np.pi / 6
    ball = aescatter.ReferenceBallSpec((6.6, 0.0), 0.71)
    config = aescatter.InverseConfig(initial_center=(-0.7, 0.2), initial_radius=0.3,
                                     epsilon=0.1, n_forward=64)

    def __init__(self, seed: int):
        self.seed = seed
        self.truth = aescatter.make_peanut()
        self.wave = aescatter.IncidentWave(self.theta)
        self.obs = 2.0 * np.pi * np.arange(self.n_obs) / self.n_obs
        self.data = None

    def _modulus(self, curve, grid):
        ball = self.ball.curve()
        dens = aescatter.solve_two_body_forward(curve, ball, PARAMS, self.wave, grid)
        total = aescatter.far_field_sum(dens, curve, ball, PARAMS, self.obs, grid, grid)
        return np.abs(total.values) ** 2

    def set_up(self) -> None:
        noise_seed = int(np.random.default_rng(self.seed).integers(0, 2**32))
        exact = aescatter.PhaselessData(
            self.obs, self._modulus(self.truth, aescatter.NodeGrid(self.n_data)))
        self.data = aescatter.add_noise_phaseless(exact, self.noise, noise_seed)
        _warm_up([self.config.n_forward])

    def run(self) -> list[Outcome]:
        try:
            records = aescatter.run_phaseless(self.data, self.ball, PARAMS, self.wave,
                                              self.config, ground_truth=self.truth)
        except Exception as exc:  # every library failure is counted, not raised
            return [_failure("ball", exc)]
        return [Outcome("ball", records=_records(records), curve=records[-1].curve)]

    def check(self, outcomes) -> None:
        """Recompute E_k of the returned last iterate on the data grid."""
        for out in outcomes:
            if out.records is None:
                continue
            E_k = out.records[-1][1]
            pred = self._modulus(out.curve, aescatter.NodeGrid(self.n_data))
            E_check = (aescatter.trapezoid_norm(self.data.values - pred)
                       / aescatter.trapezoid_norm(self.data.values))
            mark_reconstruction(out, E_k, E_check, self.config.epsilon)

    def accuracy(self, outcomes) -> dict:
        return {"recon_err": recon_err(outcomes)}


def mark_reconstruction(out: Outcome, E_k: float, E_check: float, epsilon: float) -> None:
    """Set the failure cause of a reconstruction that returned."""
    if abs(E_check - E_k) > E_K_RECHECK_TOL:
        out.cause = WRONG_OUTPUT
        out.detail = f"reported E_k={E_k:.6g}, recomputed {E_check:.6g}"
    elif E_k > epsilon:
        out.cause = NOT_CONVERGED
        out.detail = f"stopped at k={out.records[-1][0]} with E_k={E_k:.6g} > {epsilon}"


def recon_err(outcomes) -> float | None:
    """Median Err_k at the stop over the reconstructions that returned."""
    errs = [out.records[-1][2] for out in outcomes if out.records]
    return statistics.median(errs) if errs else None


class ForwardSweep:
    """``aescatter forward`` on 32 configs: 2 shapes x 2 grids x 8 directions."""

    name = "forward-sweep"
    shapes = ("apple", "peanut")
    grid_sizes = (64, 128)
    n_obs = 512
    directions = 2.0 * np.pi * np.arange(8) / 8

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = Path(work_dir)
        self.configs = []
        self.reference = np.load(FORWARD_REFERENCE)["values"]
        if self.reference.shape != (len(self.shapes), 8, self.n_obs):
            raise ValueError(f"{FORWARD_REFERENCE.name} has the wrong shape")

    def set_up(self) -> None:
        """Write one config per case, in an order drawn from the seed."""
        cases = [(shape, n, j) for shape in self.shapes for n in self.grid_sizes
                 for j in range(len(self.directions))]
        order = np.random.default_rng(self.seed).permutation(len(cases))
        self.configs = []
        for i in order:
            shape, n, j = cases[i]
            path = self.work_dir / f"{shape}_n{n}_d{j}.json"
            cli.dump_config({"obstacle": {"kind": shape},
                             "wave": {"theta": float(self.directions[j])},
                             "grids": {"n_data": n, "observation_points": self.n_obs}},
                            path)
            self.configs.append(((shape, n, j), path))
        _warm_up(self.grid_sizes)

    def run(self) -> list[Outcome]:
        outcomes = []
        previous = os.environ.get(OUTPUT_DIR_VARIABLE)
        os.environ[OUTPUT_DIR_VARIABLE] = str(self.work_dir)
        try:
            for (shape, n, j), path in self.configs:
                label = f"{shape}_n{n}_d{j}"
                try:
                    written = cli.cmd_forward(path)
                except Exception as exc:  # every library failure is counted, not raised
                    outcomes.append(_failure(label, exc))
                    continue
                outcomes.append(Outcome(label, paths=written))
        finally:
            if previous is None:
                del os.environ[OUTPUT_DIR_VARIABLE]
            else:
                os.environ[OUTPUT_DIR_VARIABLE] = previous
        return outcomes

    def _read(self, out: Outcome) -> np.ndarray:
        table = np.loadtxt(out.paths[0])
        return table[:, 1] + 1j * table[:, 2]

    def check(self, outcomes) -> None:
        """Compare every written far field with the n=256 reference."""
        for out, ((shape, n, j), _) in zip(outcomes, self.configs):
            if out.failed:
                continue
            ref = self.reference[self.shapes.index(shape), j]
            values = self._read(out)
            err = (np.abs(values - ref).max() / np.abs(ref).max()
                   if values.shape == ref.shape else np.inf)
            if not err <= FORWARD_TOL[n]:
                out.cause = WRONG_OUTPUT
                out.detail = f"max relative deviation {err:.3e} > {FORWARD_TOL[n]:.0e}"

    def accuracy(self, outcomes) -> dict:
        """Self-convergence: max over (shape, theta) of |u(64)-u(128)| / |u(128)|."""
        by_case = {case: out for out, (case, _) in zip(outcomes, self.configs)}
        worst = None
        for shape in self.shapes:
            for j in range(len(self.directions)):
                coarse, fine = by_case[(shape, 64, j)], by_case[(shape, 128, j)]
                if coarse.failed or fine.failed:
                    continue
                u64, u128 = self._read(coarse), self._read(fine)
                err = float(np.abs(u64 - u128).max() / np.abs(u128).max())
                worst = err if worst is None else max(worst, err)
        return {"farfield_err": worst}
