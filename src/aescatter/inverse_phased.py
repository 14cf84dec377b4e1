"""Shape reconstruction from phased far-field data, and the Newton-Tikhonov
loop it shares with the phaseless one.

Each step linearizes the data misfit about the current curve (for phased
data by the Frechet derivative of the far-field operator with the densities
held fixed) and solves a Tikhonov problem with an H^2 penalty and lambda_k
equal to the residual norm for an update of the center and of the radial
trig coefficients. The step is scaled by rho, then halved up to four times
(``_STEP_SCALES``); the first candidate that lowers the residual is taken,
skipping those that pinch, are too thin for the grid (``_strip_width``),
collide with a fixed body or break the forward solve. The loop stops at
E_k <= epsilon, at the iteration cap or when no candidate is taken, and
returns every visited iterate's record in each case.
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

    def __post_init__(self):
        if self.M < 1:
            raise ValueError("truncation degree M must be >= 1")
        if not 0.0 < self.rho <= 1.0:
            raise ValueError("step scaling rho must be in (0, 1]")
        if self.epsilon <= 0.0:
            raise ValueError("stopping tolerance epsilon must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


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
    return _phase_columns(Fx, obs_angles, motion, params.kappa_a)


def _phase_columns(Fx, obs_angles, motion: BoundaryMotion, kappa_a: float) -> np.ndarray:
    """The columns of ``frechet_columns`` from Fx, the far-field quadrature
    matrix times the fixed acoustic density, and the node motion."""
    return -1j * kappa_a * (np.cos(obs_angles)[:, None] * (Fx @ motion.dp[:, 0])
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


_STEP_SCALES = (1.0, 0.5, 0.25, 0.125, 0.0625)
# Least 2n * sigma (``_strip_width``) of an accepted iterate on a 2n-node
# grid: far fields then agree with a fine grid's to about 1e-6.
_RESOLVED = 20.0


def _strip_width(curve: StarlikeCurve) -> float:
    """Half-width sigma of the strip |Im t| < sigma free of zeros of the
    speed |p'(t)|^2 = r^2 + r'^2 of a trig-polynomial curve.

    The Nystrom far field on 2n equispaced nodes converges like
    exp(-2n sigma); sigma -> 0 as the curve is about to pinch.
    """
    a, b = curve.radial.a, curve.radial.b
    m = np.arange(1 - len(a), len(a))
    c = np.concatenate([(a[:0:-1] + 1j * b[::-1]) / 2, a[:1], (a[1:] - 1j * b) / 2])
    speed = np.convolve(c, c) - np.convolve(m * c, m * c)  # in z = e^{it}, times z^{2M}
    roots = np.roots(speed[::-1])
    return float(np.min(np.abs(np.log(np.abs(roots[roots != 0]))), initial=np.inf))


def _newton_tikhonov(values, predict, jacobian, config, ground_truth):
    """The loop of both drivers, from the initial circle of ``config``.

    ``predict(curve)`` gives the predicted data and a state, and raises
    ValueError on a collision or FloatingPointError on a failed solve;
    ``jacobian(curve, predicted, state)`` gives the data's derivative B. One
    state is alive at a time, so no two-body factorization is held twice.
    """
    curve = initial_curve(config)
    obs_norm = trapezoid_norm(values)
    predicted, state = predict(curve)
    residual = trapezoid_norm(values - predicted)
    records: list[IterationRecord] = []
    for k in range(config.max_iter + 1):
        E_k = residual / obs_norm
        err = boundary_error(curve, ground_truth) if ground_truth is not None else None
        records.append(IterationRecord(k=k, E_k=E_k, Err_k=err, curve=curve))
        if E_k <= config.epsilon or k == config.max_iter:
            break
        B = jacobian(curve, predicted, state)
        state = None  # only an accepted candidate's state is needed next
        update = tikhonov_step(B, values - predicted, residual, config.M, config.rho)
        for scale in _STEP_SCALES:
            try:
                candidate = apply_update(curve, update.scaled(scale))
                if 2 * config.n_forward * _strip_width(candidate) < _RESOLVED:
                    continue  # nearly pinched: the grid cannot resolve it
                cand_pred, state = predict(candidate)
            except (ValueError, FloatingPointError):
                continue  # pinched, collided or the solve failed
            cand_res = trapezoid_norm(values - cand_pred)
            if cand_res < residual:
                curve, predicted, residual = candidate, cand_pred, cand_res
                break
            state = None  # free it before the next candidate's solve
        else:
            break  # no admissible step decreases the residual
    return records


def run_phased(
    observed: FarField,
    params: MaterialParams,
    wave: IncidentWave,
    config: InverseConfig,
    ground_truth: StarlikeCurve | None = None,
) -> list[IterationRecord]:
    """Full reconstruction loop from phased far-field data: the records of
    every visited iterate, with Err_k when the exact boundary is supplied."""
    grid = NodeGrid(config.n_forward)

    def predict(curve):
        densities = solve_forward(curve, params, wave, grid)
        return far_field(densities, curve, params, observed.angles, grid).values, densities

    def jacobian(curve, predicted, densities):
        B = frechet_columns(curve, densities, params, observed.angles, config.M, grid)
        # a shift h multiplies u_inf by exp(i kappa_a (d - x^) . h); the
        # frozen densities give only the x^ part, so add i kappa_a d_l u_inf
        B[:, :2] += 1j * params.kappa_a * wave.direction * predicted[:, None]
        return B

    return _newton_tikhonov(observed.values, predict, jacobian, config, ground_truth)
