"""Shape reconstruction from phaseless (modulus-only) far-field data.

The modulus of the far field is translation invariant, so a lone obstacle
cannot be located from |u_inf| alone. Scattering the incident wave off the
unknown obstacle together with a known, well-separated reference ball
breaks that invariance: the cross term between the two far-field
contributions carries the obstacle's position. The iteration linearizes
|u_inf|^2 about the current guess (ball fixed, obstacle boundary and
densities updated each step) and takes Tikhonov-regularized steps in the
same center-plus-trig-polynomial parameter space as the phased algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .forward import (
    IncidentWave,
    MaterialParams,
    assemble_system,
    factor_system,
    far_field_matrix,
    rhs_plane_wave,
    system_sensitivity,
)
from .geometry import BoundaryMotion, CurveJet, NodeGrid, StarlikeCurve, make_circle
from .inverse_phased import (
    InverseConfig,
    IterationRecord,
    _boundary_motion,
    _newton_tikhonov,
    _phase_columns,
    frechet_columns,
    noise_samples,
)
from .multibody import (
    CrossPair,
    TwoBodyDensities,
    assemble_two_body,
    cross_block_sensitivity,
)

__all__ = [
    "PhaselessData",
    "ReferenceBallSpec",
    "add_noise_phaseless",
    "phaseless_columns",
    "exact_phaseless_jacobian",
    "run_phaseless",
]

@dataclass(frozen=True)
class PhaselessData:
    """Squared modulus of the total far field at the observation angles."""

    angles: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "angles", np.asarray(self.angles, dtype=float))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.angles.shape != self.values.shape:
            raise ValueError("angles and values must have matching shapes")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("phaseless data must be finite")
        if np.any(self.values < 0.0):
            raise ValueError("squared-modulus data must be non-negative")


@dataclass(frozen=True)
class ReferenceBallSpec:
    """Known circular reference scatterer placed away from the obstacle."""

    center: tuple[float, float]
    radius: float

    def __post_init__(self):
        if self.radius <= 0.0:
            raise ValueError("ball radius must be positive")

    def curve(self) -> StarlikeCurve:
        return make_circle(self.center, self.radius)


def add_noise_phaseless(
    data: PhaselessData, delta: float, seed: int, model: str = "uniform"
) -> PhaselessData:
    """Multiplicative real noise |u|^2 (1 + delta * eta), eta in [-1, 1].

    delta must stay below 1 so the perturbed squared modulus cannot turn
    negative.
    """
    if not 0.0 <= delta < 1.0:
        raise ValueError("phaseless noise level must satisfy 0 <= delta < 1")
    rng = np.random.default_rng(seed)
    eta = noise_samples(rng, len(data.values), model)
    return PhaselessData(angles=data.angles, values=data.values * (1.0 + delta * eta))


def phaseless_columns(
    curve_d: StarlikeCurve,
    densities: TwoBodyDensities,
    params: MaterialParams,
    total_values: np.ndarray,
    obs_angles,
    M: int,
    grid: NodeGrid | None = None,
) -> np.ndarray:
    """Real sensitivity matrix of |u_inf|^2 to the obstacle parameters.

    Only the obstacle boundary moves; the chain rule through the squared
    modulus gives 2 Re{conj(total) * dS_inf,D}, where dS_inf,D are the
    phased Frechet columns built from the obstacle's acoustic density.
    """
    B = frechet_columns(curve_d, densities.body_d, params, obs_angles, M, grid)
    return 2.0 * (np.conj(total_values)[:, None] * B).real


# The obstacle excites ball mode m about as (R_b / d)^m, d its nodes' distance from
# the ball's center (Graf's addition theorem); 2 n_b nodes alias mode 2 n_b, so a
# clearance of one ball radius gives 2^(-2 n_b) <= 1e-13 at n_b = 22. The ball's own
# band needs (kappa R_b / 2)^m / m! <= 1e-13, a bound on J_m(kappa R_b) (Jacobi-Anger).
_BALL_CLEARANCE = 1.0  # in ball radii, between the ball and the obstacle's nodes
_BALL_TOL = 1e-13


def _ball_grid(radius: float, params: MaterialParams, n_d: int) -> NodeGrid:
    """The ball's grid: the least n_b the rule above allows, at most n_d."""
    n_b = int(np.ceil(np.log(_BALL_TOL) / (-2.0 * np.log1p(_BALL_CLEARANCE))))
    half_kr = max(params.kappa_p, params.kappa_s, params.kappa_a) * radius / 2.0
    m = np.arange(1, n_d + 1)  # the log of that bound rises, then falls
    band = 1 + int(np.count_nonzero(np.cumsum(np.log(half_kr / m)) > np.log(_BALL_TOL)))
    return NodeGrid(min(n_d, max(n_b, band)))


class _FixedBall(NamedTuple):
    """The part of the two-body problem that no obstacle update changes: the
    ball's curve and grid, the clearance ``reach`` (least distance of an
    obstacle node from its center), A_bb, b_b and F_b at the angles."""

    curve: StarlikeCurve
    grid: NodeGrid
    reach: float
    A: np.ndarray
    b: np.ndarray
    F: np.ndarray


def _fixed_ball(ball_curve: StarlikeCurve, params: MaterialParams, wave: IncidentWave,
                angles: np.ndarray, grid: NodeGrid) -> _FixedBall:
    radius = float(ball_curve.radial.radius(np.zeros(1))[0])
    ball_grid = _ball_grid(radius, params, grid.n)
    return _FixedBall(ball_curve, ball_grid, (1.0 + _BALL_CLEARANCE) * radius,
                      assemble_system(ball_curve, params, ball_grid),
                      np.concatenate(rhs_plane_wave(ball_curve, params, wave, ball_grid)),
                      far_field_matrix(ball_curve, params, angles, ball_grid))


class _Scene(NamedTuple):
    """What a Jacobian at a predicted curve reuses from its prediction: the
    checked solver of the two-body system, the densities [x_d, x_b], the
    cross-pair data and the obstacle's far-field matrix F_d."""

    solve: Callable[[np.ndarray], np.ndarray]
    x: np.ndarray
    pair: CrossPair
    F_d: np.ndarray


def _predicted_modulus(
    curve_d: StarlikeCurve,
    ball: _FixedBall,
    params: MaterialParams,
    wave: IncidentWave,
    angles: np.ndarray,
    grid: NodeGrid,
) -> tuple[np.ndarray, _Scene]:
    """Predicted |u_inf|^2 at ``angles``, with the ``_Scene`` of the two-body
    system it came from, for a Jacobian there."""
    near = curve_d.point(grid.nodes) - ball.curve.center
    if np.min(np.hypot(near[:, 0], near[:, 1])) < ball.reach:
        raise ValueError(f"obstacle inside the reference ball's clearance ({ball.reach:.3f})")
    A, pair = assemble_two_body(curve_d, ball.curve, params, grid, ball.grid, ball.A)
    solve = factor_system(A)
    x = solve(np.concatenate([*rhs_plane_wave(curve_d, params, wave, grid), ball.b]))
    N = grid.size
    F_d = far_field_matrix(curve_d, params, angles, grid)
    total = F_d @ x[2 * N : 3 * N] + ball.F @ x[3 * N + 2 * ball.grid.size :]
    return np.abs(total) ** 2, _Scene(solve, x, pair, F_d)


def exact_phaseless_jacobian(
    curve_d: StarlikeCurve,
    ball_curve: StarlikeCurve,
    params: MaterialParams,
    wave: IncidentWave,
    angles: np.ndarray,
    M: int,
    grid: NodeGrid,
) -> np.ndarray:
    """Jacobian of the predicted |u_inf|^2, 2n x (2M+3), by implicit
    differentiation of the two-body Nystrom system A x = b.

    The parameters are those of ``apply_update``, the center shift and the
    coefficients a_0..a_M, b_1..b_M of a radial update r + dr, and
    ``inverse_phased._boundary_motion`` gives how they move the nodes. The
    derivative is taken at any starlike ``curve_d``, whatever its radial
    profile, as no perturbed curve is built. The ball's self block,
    right-hand side and far-field matrix are built once on its own grid
    (``_ball_grid``; ValueError within one ball radius of it), then A is
    assembled and factored once, as one prediction of ``run_phaseless``
    does. The density response is dx = -A^{-1}(dA x - db), from the
    one factorization with every column behind the same residual gate as a
    forward solve, and du_inf = dF_D x_d + F_D dx_d + F_B dx_b. Every piece
    that moves with the obstacle is differentiated analytically from the
    per-node motion of each parameter: the self block A_dd x_d
    (``system_sensitivity``), both cross-block products A_db x_b and A_bd x_d
    (from the Hankel values the cross blocks of A were built from), the
    right-hand side b_d and the obstacle's far-field quadrature dF_D x_d
    (from the F_D of the prediction). The ball's blocks do not move. Unlike
    ``phaseless_columns`` the density response to the shape change is
    included. The squared modulus is quadratic in the fields and the
    density response is not a small correction there: the frozen-density
    matrix can point uphill, while this one is the true derivative.
    """
    ball = _fixed_ball(ball_curve, params, wave, angles, grid)
    _, scene = _predicted_modulus(curve_d, ball, params, wave, angles, grid)
    return _jacobian_at(curve_d, ball, params, wave, angles, M, grid, scene)


def _rhs_sensitivity(jets: CurveJet, params: MaterialParams, wave: IncidentWave,
                     motion: BoundaryMotion) -> np.ndarray:
    """Derivative of the right-hand side (w1, w2, w3) of ``rhs_plane_wave``
    under ``motion``, 3N x P: u_inc changes by i kappa_a (d . dp) u_inc and
    nu by -dtheta tau."""
    ka, d = params.kappa_a, wave.direction
    uinc = np.exp(1j * ka * (jets.p @ d))[:, None]
    d_dp = np.einsum("k,ikp->ip", d, motion.dp)
    dw1 = -2j * ka * d_dp * uinc
    dw3 = (2j * ka / (params.omega**2 * params.rho_a)) * uinc * (
        1j * ka * (jets.nu @ d)[:, None] * d_dp - (jets.tau @ d)[:, None] * motion.dtheta)
    return np.concatenate([dw1, np.zeros_like(dw1), dw3])


def _jacobian_at(curve_d, ball, params, wave, angles, M, grid, scene):
    """``exact_phaseless_jacobian`` from the ``_FixedBall`` and the
    ``_Scene`` of the two-body system at ``curve_d``, which the caller
    already has: no Hankel function of the cross blocks is evaluated again,
    and neither the jets nor F_D are rebuilt."""
    solve, x, pair, F_d = scene
    N, b3 = grid.size, 3 * grid.size + 2 * ball.grid.size  # b3: where phi3 on B starts
    x_d, x_b = x[: 3 * N], x[3 * N :]
    jets = pair.jets_d
    motion = _boundary_motion(jets, grid.nodes, M)

    d_db, d_bd = cross_block_sensitivity(pair, x_d, x_b, motion)
    d_dd = system_sensitivity(curve_d, params, grid, x_d, motion)
    dR = np.concatenate([d_dd + d_db - _rhs_sensitivity(jets, params, wave, motion), d_bd])
    dx = solve(-dR)

    u = F_d @ x_d[2 * N :] + ball.F @ x[b3:]
    # moving the nodes changes F_D x_d through the phase (the frozen-density
    # Frechet columns) and through the weight G^2, by 2 dG_i / G_i per node
    Fx = F_d * x_d[2 * N :]
    dF = (_phase_columns(Fx, angles, motion, params.kappa_a)
          + Fx @ (2.0 * motion.dG / jets.G[:, None]))
    du = dF + F_d @ dx[2 * N : 3 * N] + ball.F @ dx[b3:]
    return 2.0 * (np.conj(u)[:, None] * du).real


def run_phaseless(
    data: PhaselessData,
    ball: ReferenceBallSpec,
    params: MaterialParams,
    wave: IncidentWave,
    config: InverseConfig,
    ground_truth: StarlikeCurve | None = None,
) -> list[IterationRecord]:
    """Full reconstruction loop from phaseless total-field data.

    Only the obstacle moves; the ball is trusted as given, and its self
    block, right-hand side and far-field matrix are built once per run, on
    a grid of its own (``_ball_grid``: n_b = 22 for n_forward = 64, 516
    rows in place of 768). Each step of ``_newton_tikhonov`` uses the exact
    Jacobian of |u_inf|^2 on the factorization, the Hankel values and F_D
    that the line search made at the iterate. A candidate with a node within
    one ball radius of the ball (the clearance that sizes n_b) is skipped as
    a collision; an initial guess that close raises that ``ValueError``.
    """
    ball_curve = ball.curve()
    grid = NodeGrid(config.n_forward)
    fixed = _fixed_ball(ball_curve, params, wave, data.angles, grid)
    # the module attributes are read at each call, so that they can be patched
    return _newton_tikhonov(
        data.values,
        lambda curve: _predicted_modulus(curve, fixed, params, wave, data.angles, grid),
        lambda curve, _, scene: _jacobian_at(
            curve, fixed, params, wave, data.angles, config.M, grid, scene),
        config, ground_truth)
