"""Shape reconstruction from phased far-field data.

Newton-type iteration on the linearized far-field data equation: at each
step the forward problem is solved on the current curve, the data misfit
is linearized through the Frechet derivative of the far-field operator
(with the densities held fixed), and a Tikhonov-regularized least-squares
problem with an H^2 penalty yields an update of the center and of the
trigonometric radial coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forward import (
    DensitySet,
    FarField,
    IncidentWave,
    MaterialParams,
    far_field,
    far_field_matrix,
    solve_forward,
)
from .geometry import (
    BoundaryMotion,
    CurveJet,
    FourierProfile,
    NodeGrid,
    StarlikeCurve,
    jet,
    make_fourier,
)

__all__ = [
    "InverseConfig",
    "BoundaryUpdate",
    "IterationRecord",
    "trapezoid_norm",
    "boundary_error",
    "add_noise_phased",
    "noise_samples",
    "frechet_columns",
    "tikhonov_step",
    "apply_update",
    "initial_curve",
    "run_phased",
]


@dataclass(frozen=True)
class InverseConfig:
    """Knobs of the iterative reconstruction."""

    initial_center: tuple[float, float]
    initial_radius: float
    epsilon: float
    M: int = 6
    rho: float = 0.9
    max_iter: int = 50
    n_forward: int = 64
    noise_model: str = "uniform"

    def __post_init__(self):
        if self.M < 1:
            raise ValueError("truncation degree M must be >= 1")
        if not 0.0 < self.rho <= 1.0:
            raise ValueError("step scaling rho must be in (0, 1]")
        if self.epsilon <= 0.0:
            raise ValueError("stopping tolerance epsilon must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.noise_model not in ("uniform", "truncated-normal"):
            raise ValueError(f"unknown noise model {self.noise_model!r}")


@dataclass(frozen=True)
class BoundaryUpdate:
    """Real update coefficients: center shift and radial trig polynomial."""

    delta_c: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "delta_c", np.asarray(self.delta_c, dtype=float))
        object.__setattr__(self, "alpha", np.asarray(self.alpha, dtype=float))
        object.__setattr__(self, "beta", np.asarray(self.beta, dtype=float))
        if len(self.beta) != len(self.alpha) - 1 or len(self.delta_c) != 2:
            raise ValueError("update must hold 2 + (M+1) + M coefficients")

    @property
    def xi(self) -> np.ndarray:
        return np.concatenate([self.delta_c, self.alpha, self.beta])

    def scaled(self, factor: float) -> "BoundaryUpdate":
        return BoundaryUpdate(
            factor * self.delta_c, factor * self.alpha, factor * self.beta
        )

    def delta_r(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        m = np.arange(1, len(self.alpha))
        return (
            self.alpha[0]
            + np.cos(np.multiply.outer(t, m)) @ self.alpha[1:]
            + np.sin(np.multiply.outer(t, m)) @ self.beta
        )


def _boundary_motion(jets: CurveJet, t: np.ndarray, M: int) -> BoundaryMotion:
    """Motion of the nodes under the parameters (dc1, dc2, a_0..a_M,
    b_1..b_M) of ``apply_update``.

    The center parameters move every node by e_k and change neither p' nor
    p''; a radial mode phi in {1, cos mt, sin mt} moves p by phi e_r, p' by
    phi' e_r + phi e_t and p'' by (phi'' - phi) e_r + 2 phi' e_t. From dp',
    dG = tau . dp' and the frame turns by dtheta = nu . dp' / G.
    """
    m = np.arange(1, M + 1)
    mt = np.multiply.outer(t, m)
    one, zero = np.ones((len(t), 1)), np.zeros((len(t), 1))
    modes = np.hstack([one, np.cos(mt), np.sin(mt)])
    dmodes = np.hstack([zero, -m * np.sin(mt), m * np.cos(mt)])
    e_r = np.stack([np.cos(t), np.sin(t)], axis=-1)[:, :, None]
    e_t = np.stack([-np.sin(t), np.cos(t)], axis=-1)[:, :, None]
    dp = np.zeros((len(t), 2, 2 * M + 3))
    dp[:, 0, 0] = dp[:, 1, 1] = 1.0
    dp_prime, dp_second = np.zeros_like(dp), np.zeros_like(dp)
    dp[:, :, 2:] = e_r * modes[:, None, :]
    dp_prime[:, :, 2:] = e_r * dmodes[:, None, :] + e_t * modes[:, None, :]
    ddmodes = -np.hstack([zero, m**2 * np.cos(mt), m**2 * np.sin(mt)])
    dp_second[:, :, 2:] = e_r * (ddmodes - modes)[:, None, :] + 2.0 * e_t * dmodes[:, None, :]
    dG = np.einsum("ik,ikp->ip", jets.tau, dp_prime)
    dtheta = np.einsum("ik,ikp->ip", jets.nu, dp_prime) / jets.G[:, None]
    return BoundaryMotion(dp, dp_prime, dp_second, dtheta, dG)


@dataclass(frozen=True)
class IterationRecord:
    """Snapshot of one reconstruction step."""

    k: int
    E_k: float
    Err_k: float | None
    curve: StarlikeCurve


def trapezoid_norm(values) -> float:
    """L^2(0, 2pi) norm of equispaced samples by the trapezoid rule."""
    values = np.asarray(values)
    return float(np.sqrt((2.0 * np.pi / len(values)) * np.sum(np.abs(values) ** 2)))


def boundary_error(curve: StarlikeCurve, truth: StarlikeCurve, samples: int = 256) -> float:
    """Relative L^2 distance between two boundary position vectors."""
    t = 2.0 * np.pi * np.arange(samples) / samples
    diff = curve.point(t) - truth.point(t)
    ref = truth.point(t)
    return float(
        np.sqrt(np.sum(diff**2)) / np.sqrt(np.sum(ref**2))
    )


def noise_samples(rng: np.random.Generator, size, model: str) -> np.ndarray:
    """Random numbers in [-1, 1]: uniform, or a standard normal truncated
    to that interval (two readings of the same loosely-worded convention)."""
    if model == "uniform":
        return rng.uniform(-1.0, 1.0, size)
    if model == "truncated-normal":
        out = np.empty(size)
        filled = 0
        flat = out.reshape(-1)
        while filled < flat.size:
            draw = rng.standard_normal(flat.size - filled)
            keep = draw[np.abs(draw) <= 1.0]
            flat[filled : filled + len(keep)] = keep
            filled += len(keep)
        return out
    raise ValueError(f"unknown noise model {model!r}")


def add_noise_phased(
    data: FarField, delta: float, seed: int, model: str = "uniform"
) -> FarField:
    """Multiplicative complex noise u(1 + delta*(eta1 + i eta2))."""
    if delta < 0.0:
        raise ValueError("noise level must be non-negative")
    rng = np.random.default_rng(seed)
    eta = noise_samples(rng, len(data.values), model) + 1j * noise_samples(
        rng, len(data.values), model
    )
    return FarField(
        angles=data.angles, values=data.values * (1.0 + delta * eta), gamma_a=data.gamma_a
    )


def frechet_columns(
    curve: StarlikeCurve,
    densities: DensitySet,
    params: MaterialParams,
    obs_angles,
    M: int,
    grid: NodeGrid | None = None,
) -> np.ndarray:
    """Frechet-derivative matrix of the far-field operator, 2n~ x (2M+3).

    Columns follow the update ordering (dc1, dc2, a_0..a_M, b_1..b_M) of
    ``_boundary_motion``; the acoustic density (times the Jacobian) is held
    fixed while the nodes move, so only the phase e^{-i kappa_a x^ . p}
    changes: each column is -i kappa_a x^ . dp summed against the far-field
    quadrature.
    """
    obs_angles = np.atleast_1d(np.asarray(obs_angles, dtype=float))
    if grid is None:
        grid = NodeGrid(len(densities.phi3_tilde) // 2)
    motion = _boundary_motion(jet(curve, grid.nodes), grid.nodes, M)
    Fx = far_field_matrix(curve, params, obs_angles, grid) * densities.phi3_tilde
    return -1j * params.kappa_a * (np.cos(obs_angles)[:, None] * (Fx @ motion.dp[:, 0])
                                   + np.sin(obs_angles)[:, None] * (Fx @ motion.dp[:, 1]))


def _penalty_diag(M: int) -> np.ndarray:
    m = np.arange(1, M + 1)
    smooth = np.pi * (1.0 + m**2) ** 2
    return np.concatenate([[1.0, 1.0, 2.0 * np.pi], smooth, smooth])


def tikhonov_step(B, w, lambda_k: float, M: int, rho: float) -> BoundaryUpdate:
    """Scaled Newton step: xi = rho (lambda I~ + Re(B* B))^{-1} Re(B* w)."""
    if lambda_k < 0.0:
        raise ValueError("regularization parameter must be non-negative")
    B = np.asarray(B)
    w = np.asarray(w)
    lhs = lambda_k * np.diag(_penalty_diag(M)) + (B.conj().T @ B).real
    rhs = (B.conj().T @ w).real
    xi = rho * np.linalg.solve(lhs, rhs)
    return BoundaryUpdate(
        delta_c=xi[:2], alpha=xi[2 : 3 + M], beta=xi[3 + M :]
    )


def initial_curve(config: InverseConfig) -> StarlikeCurve:
    """Circle initial guess expressed in the trig-polynomial update space."""
    a = np.zeros(config.M + 1)
    a[0] = config.initial_radius
    return make_fourier(config.initial_center, a, np.zeros(config.M))


def apply_update(curve: StarlikeCurve, update: BoundaryUpdate) -> StarlikeCurve:
    """p_new = (c + dc) + (r + dr) x^; raises if the new radius dips <= 0."""
    radial = curve.radial
    if not isinstance(radial, FourierProfile):
        raise TypeError("iterate curve must carry a trigonometric radial profile")
    M = len(update.alpha) - 1
    a = np.zeros(max(len(radial.a), M + 1))
    b = np.zeros(max(len(radial.b), M))
    a[: len(radial.a)] = radial.a
    b[: len(radial.b)] = radial.b
    a[: M + 1] += update.alpha
    b[:M] += update.beta
    return make_fourier(curve.center + update.delta_c, a, b)


def run_phased(
    observed: FarField,
    params: MaterialParams,
    wave: IncidentWave,
    config: InverseConfig,
    ground_truth: StarlikeCurve | None = None,
) -> list[IterationRecord]:
    """Full reconstruction loop from phased far-field data.

    Records E_k (and Err_k when the exact boundary is supplied) for every
    visited iterate, including the final one; the loop stops as soon as
    E_k <= epsilon or the iteration cap is reached.
    """
    curve = initial_curve(config)
    grid = NodeGrid(config.n_forward)
    obs_norm = trapezoid_norm(observed.values)
    records: list[IterationRecord] = []
    for k in range(config.max_iter + 1):
        try:
            densities = solve_forward(curve, params, wave, grid)
        except FloatingPointError as exc:
            raise FloatingPointError(
                f"forward solve failed at iteration {k}: {exc}"
            ) from exc
        predicted = far_field(densities, curve, params, observed.angles, grid)
        w = observed.values - predicted.values
        residual = trapezoid_norm(w)
        E_k = residual / obs_norm
        err = boundary_error(curve, ground_truth) if ground_truth is not None else None
        records.append(IterationRecord(k=k, E_k=E_k, Err_k=err, curve=curve))
        if E_k <= config.epsilon or k == config.max_iter:
            break
        B = frechet_columns(curve, densities, params, observed.angles, config.M, grid)
        # A rigid translation by h changes the far field exactly by the
        # factor exp(i kappa_a (d - x^) . h); the frozen-density columns
        # reproduce only the -i kappa_a x^ . h part, so the incident-phase
        # part i kappa_a d_l u_inf is restored in closed form.  Without it
        # the center update can point away from the data for modulus-
        # anisotropic far fields and the iteration drifts off and pinches.
        ka = params.kappa_a
        B[:, 0] += 1j * ka * wave.direction[0] * predicted.values
        B[:, 1] += 1j * ka * wave.direction[1] * predicted.values
        update = tikhonov_step(B, w, residual, config.M, config.rho)
        try:
            curve = apply_update(curve, update)
        except ValueError as exc:
            raise ValueError(f"update at iteration {k} pinched the curve: {exc}") from exc
    return records
