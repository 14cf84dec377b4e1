"""Shape reconstruction from phaseless (modulus-only) far-field data.

The modulus of the far field is translation invariant, so a lone obstacle
cannot be located from |u_inf| alone. Scattering the incident wave off the
unknown obstacle together with a known, well-separated reference ball
breaks that invariance: the cross term between the two far-field
contributions carries the obstacle's position. The iteration linearizes
|u_inf|^2 about the current guess (ball fixed, obstacle boundary and
densities updated each step) and takes Tikhonov-regularized steps in the
same center-plus-trig-polynomial parameter space as the phased algorithm.

The far-field products of a step, F_D and F_B times the densities in
``_predicted_modulus`` and times the densities and their responses in
``exact_phaseless_jacobian``, go through ``forward._gemm``, by the rule
stated in ``inverse_phased``; the (N x 2) frame products of
``forward._rhs_sensitivity`` (a gemv with m n = 2N) stay in numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .forward import (
    Discretization,
    IncidentWave,
    MaterialParams,
    _fill_system,
    _gemm,
    _rhs_sensitivity,
    assemble_system,
    discretize,
    factor_system,
    far_field_matrix,
    rhs_plane_wave,
    system_sensitivity,
)
from .geometry import CurveJet, NodeGrid, StarlikeCurve, jet, make_circle
from .inverse_phased import (
    InverseConfig,
    IterationRecord,
    _boundary_motion,
    _newton_tikhonov,
    _phase_columns,
    _wave_band,
    frechet_columns,
    noise_samples,
)
from .multibody import (
    CrossPair,
    TwoBodyDensities,
    assemble_two_body,
    cross_block_sensitivity,
    cross_pair,
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
        if not np.all(np.isfinite(self.angles)):
            raise ValueError("phaseless angles must be finite")
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
        if np.shape(self.center) != (2,):
            raise ValueError("ball center must be two finite numbers")
        object.__setattr__(self, "center", tuple(self.center))
        if not (0.0 < self.radius < np.inf and np.all(np.isfinite(self.center))):
            raise ValueError("ball radius must be positive and finite, its center finite")

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
    grid: NodeGrid,
) -> np.ndarray:
    """Real sensitivity matrix of |u_inf|^2 to the obstacle parameters.

    Only the obstacle boundary moves; the chain rule through the squared
    modulus gives 2 Re{conj(total) * dS_inf,D}, where dS_inf,D are the
    phased Frechet columns built from the obstacle's acoustic density on
    ``grid``, the obstacle's grid in the two-body solve.
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
    band = _wave_band(max(params.kappas) * radius, _BALL_TOL)
    return NodeGrid(min(n_d, max(n_b, band)))


class _FixedBall(NamedTuple):
    """The part of the two-body problem that no obstacle update changes: the
    ball's spec, the material, wave and angles of the run, the ball's grid
    and node jet, A_bb, b_b and F_b at the angles."""

    spec: ReferenceBallSpec
    params: MaterialParams
    wave: IncidentWave
    angles: np.ndarray
    grid: NodeGrid
    jets: CurveJet
    A: np.ndarray
    b: np.ndarray
    F: np.ndarray


def _fixed_ball(spec: ReferenceBallSpec, params: MaterialParams, wave: IncidentWave,
                angles: np.ndarray, cap: int) -> _FixedBall:
    """The ``_FixedBall`` of ``spec`` on the ``_ball_grid`` under the grid cap ``cap``."""
    curve, ball_grid = spec.curve(), _ball_grid(spec.radius, params, cap)
    jets = jet(curve, ball_grid.nodes)
    return _FixedBall(spec, params, wave, angles, ball_grid, jets,
                      assemble_system(curve, params, ball_grid),
                      np.concatenate(rhs_plane_wave(jets, params, wave)),
                      far_field_matrix(jets, params, angles))


class _Scene(NamedTuple):
    """What a Jacobian at a predicted curve reuses from its prediction, and
    does not change: the checked solver of the two-body system, the densities
    [x_d, x_b], the cross-pair data, the obstacle's far-field matrix F_d, the
    obstacle's ``Discretization`` (with the grid of all of them) and the
    complex total far field u at the angles."""

    solve: Callable[[np.ndarray], np.ndarray]
    x: np.ndarray
    pair: CrossPair
    F_d: np.ndarray
    disc: Discretization
    u: np.ndarray


def _predicted_modulus(curve_d: StarlikeCurve, ball: _FixedBall,
                       grid: NodeGrid) -> tuple[np.ndarray, _Scene]:
    """Predicted |u_inf|^2 at the ball's angles, with the ``_Scene`` of the
    two-body system it came from, for a Jacobian there. The clearance is
    checked on the obstacle's nodes before anything is built; then the
    obstacle is evaluated once, as one ``Discretization``, and the ball not
    at all."""
    params = ball.params
    reach = (1.0 + _BALL_CLEARANCE) * ball.spec.radius
    near = curve_d.point(grid.nodes) - ball.spec.center
    if np.min(np.hypot(near[:, 0], near[:, 1])) < reach:
        raise ValueError(f"obstacle inside the reference ball's clearance ({reach:.3f})")
    disc = discretize(curve_d, params, grid)
    jets = disc.geom.jets
    pair = cross_pair(jets, ball.jets, params)
    solve = factor_system(assemble_two_body(pair, _fill_system(jets, disc.ops, params), ball.A))
    x = solve(np.concatenate([*rhs_plane_wave(jets, params, ball.wave), ball.b]))
    N = grid.size
    F_d = far_field_matrix(jets, params, ball.angles)
    total = _gemm(F_d, x[2 * N : 3 * N]) + _gemm(ball.F, x[3 * N + 2 * ball.grid.size :])
    return np.abs(total) ** 2, _Scene(solve, x, pair, F_d, disc, total)


def exact_phaseless_jacobian(scene: _Scene, ball: _FixedBall, M: int) -> np.ndarray:
    """Jacobian of the predicted |u_inf|^2, 2n x (2M+3), by implicit
    differentiation of the two-body Nystrom system A x = b, at the curve and
    on the grid of the ``_predicted_modulus`` that gave ``scene``.

    The parameters are those of ``apply_update`` (the center shift, then
    a_0..a_M, b_1..b_M of a radial update r + dr), whose node motion
    ``inverse_phased._boundary_motion`` gives, so any starlike curve will
    do. The ball does not move. dx = -A^{-1}(dA x - db) on the scene's
    factorization, every column behind the residual gate of a forward solve,
    and du_inf = dF_D x_d + F_D dx_d + F_B dx_b, with A_dd x_d
    (``system_sensitivity``), A_db x_b and A_bd x_d
    (``cross_block_sensitivity``), b_d and F_D differentiated analytically.
    It evaluates no Hankel function or far field, rebuilds no jet, operator
    or F_D, and does not change the scene. Unlike ``phaseless_columns`` it
    includes the density response: the frozen-density matrix can point uphill.
    """
    solve, x, pair, F_d, disc, u = scene
    params, grid, jets = ball.params, disc.grid, disc.geom.jets
    N, b3 = grid.size, 3 * grid.size + 2 * ball.grid.size  # b3: where phi3 on B starts
    x_d, x_b = x[: 3 * N], x[3 * N :]
    motion = _boundary_motion(jets, grid.nodes, M)

    d_db, d_bd = cross_block_sensitivity(pair, x_d, x_b, motion)
    d_dd = system_sensitivity(disc, params, x_d, motion)
    dR = np.concatenate([d_dd + d_db - _rhs_sensitivity(jets, params, ball.wave, motion), d_bd])
    dx = solve(-dR)
    # moving the nodes changes F_D x_d through the phase (the frozen-density
    # Frechet columns) and through the weight G^2, by 2 dG_i / G_i per node
    Fx = F_d * x_d[2 * N :]
    dF = (_phase_columns(Fx, ball.angles, motion, params.kappa_a)
          + _gemm(Fx, 2.0 * motion.dG / jets.G[:, None]))
    du = dF + _gemm(F_d, dx[2 * N : 3 * N]) + _gemm(ball.F, dx[b3:])
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
    a grid of its own (``_ball_grid``: n_b = 22 for the cap n_forward = 64),
    and the obstacle on the n_k the loop chooses, fine enough for its
    quadrature at the ball too (``_iterate_grid``'s ``near``): 6 (n_k + n_b)
    rows, 276 at criterion 9's n_k = 24. Each step of ``_newton_tikhonov``
    uses the exact Jacobian of |u_inf|^2 on the factorization, Hankel values,
    ``Discretization`` and F_D that the line search made at the iterate. A
    candidate with a node within one ball radius of the ball (the clearance
    that sizes n_b) is skipped as a collision; an initial guess that close
    raises that ``ValueError``.
    """
    fixed = _fixed_ball(ball, params, wave, data.angles, config.n_forward)
    # the module attributes are read at each call, so that they can be patched
    return _newton_tikhonov(
        data.values,
        lambda curve, grid: _predicted_modulus(curve, fixed, grid),
        lambda _, scene: exact_phaseless_jacobian(scene, fixed, config.M),
        config, ground_truth, params, near=(ball.center, ball.radius))
