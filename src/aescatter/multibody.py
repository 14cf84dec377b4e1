"""Two-body forward solver for an obstacle together with a reference ball.

The coupled system on Gamma_D and Gamma_B reuses the single-body assembly
for the self-interaction blocks; the cross-interaction kernels are smooth
(the bodies are disjoint) and are discretized by the plain trapezoid rule.
Each cross kernel is a radial function of |x - y| times powers of the
normal and tangential components of the unit vector (x - y)/|x - y|, so
one pair of Hankel evaluations per wavenumber serves both cross blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forward import (
    DensitySet,
    FarField,
    IncidentWave,
    MaterialParams,
    assemble_system,
    factor_system,
    far_field,
    gamma_far,
    rhs_plane_wave,
)
from .geometry import NodeGrid, StarlikeCurve, jet
from .specfun import hankel1_0, hankel1_1

__all__ = [
    "TwoBodyDensities",
    "separation",
    "cross_blocks",
    "assemble_two_body",
    "solve_two_body",
    "solve_two_body_forward",
    "far_field_sum",
]

_MIN_SEPARATION = 0.1


@dataclass(frozen=True)
class TwoBodyDensities:
    """Scaled layer densities on the obstacle (D) and the ball (B)."""

    body_d: DensitySet
    body_b: DensitySet


def separation(curve_a: StarlikeCurve, curve_b: StarlikeCurve, samples: int = 256) -> float:
    """Minimum point-to-point distance between two boundary curves."""
    t = 2.0 * np.pi * np.arange(samples) / samples
    pa, pb = curve_a.point(t), curve_b.point(t)
    return float(np.min(np.linalg.norm(pa[:, None, :] - pb[None, :, :], axis=-1)))


def _radial_parts(r: np.ndarray, kappa: float):
    """Radial factors (f, g, h_rad, h_tan) of phi and its derivatives at
    distances r: phi = f, grad phi = g r_hat and Hess phi =
    h_rad r_hat r_hat^T + h_tan (I - r_hat r_hat^T), from H0 and H1 of
    kappa r, each evaluated once (H1' = H0 - H1/z).
    """
    z = kappa * r
    h0, h1 = hankel1_0(z), hankel1_1(z)
    c = -0.25j * kappa
    return 0.25j * h0, c * h1, c * kappa * (h0 - h1 / z), c * h1 / r


def _target_block(nu_r, tau_r, parts, w, params: MaterialParams) -> np.ndarray:
    """Cross block with the three equations at the target nodes (rows) and
    the three source densities (columns).

    ``nu_r``, ``tau_r`` are nu . r_hat and tau . r_hat at the target, with
    r_hat pointing from source to target; ``parts`` holds the radial factors
    per wavenumber in the same [target, source] layout; ``w`` the source
    quadrature weights. With |nu| = 1 and tau . nu = 0, nu^T H nu =
    h_tan + (h_rad - h_tan)(nu . r_hat)^2 and tau^T H nu =
    (h_rad - h_tan)(tau . r_hat)(nu . r_hat).
    """
    (f_p, g_p, rad_p, tan_p), (_, g_s, rad_s, tan_s), (f_a, g_a, _, _) = parts
    kp, lam, mu = params.kappa_p, params.lam, params.mu
    w2r = params.omega**2 * params.rho_a
    nn, tn = nu_r**2, tau_r * nu_r
    A11 = 2.0 * (mu * (tan_p + (rad_p - tan_p) * nn) - (lam + mu) * kp**2 * f_p) * w
    A12 = 2.0 * mu * (rad_s - tan_s) * tn * w
    A13 = 2.0 * f_a * w
    A21 = 2.0 * (rad_p - tan_p) * tn * w
    A22 = -2.0 * (tan_s + (rad_s - tan_s) * nn) * w
    A23 = np.zeros_like(A13)
    A31 = 2.0 * g_p * nu_r * w
    A32 = 2.0 * g_s * tau_r * w
    A33 = -2.0 * g_a * nu_r * w / w2r
    return np.block([[A11, A12, A13], [A21, A22, A23], [A31, A32, A33]])


def cross_blocks(
    curve_d: StarlikeCurve,
    curve_b: StarlikeCurve,
    params: MaterialParams,
    grid_d: NodeGrid,
    grid_b: NodeGrid,
) -> tuple[np.ndarray, np.ndarray]:
    """Both cross-interaction blocks of two disjoint bodies, (A_db, A_bd).

    A_db has the equations at D's nodes as rows and B's densities as
    columns; A_bd the reverse. The kernels are evaluated pointwise and
    weighted by the trapezoid rule with the source Jacobian squared (the
    densities are scaled by 1/G). Every kernel is a radial factor times
    powers of nu . r_hat and tau . r_hat, so H0 and H1 are evaluated once
    per wavenumber on the D x B distance matrix and shared by both blocks;
    reversing the direction flips r_hat, which flips the sign of the
    gradient terms only.
    """
    jets_d, jets_b = jet(curve_d, grid_d.nodes), jet(curve_b, grid_b.nodes)
    diff = jets_d.p[:, None, :] - jets_b.p[None, :, :]
    r = np.linalg.norm(diff, axis=-1)
    r_hat = diff / r[..., None]
    parts = [_radial_parts(r, k) for k in (params.kappa_p, params.kappa_s, params.kappa_a)]
    w_d = (np.pi / grid_d.n) * jets_d.G**2
    w_b = (np.pi / grid_b.n) * jets_b.G**2
    A_db = _target_block(
        np.einsum("ik,ijk->ij", jets_d.nu, r_hat),
        np.einsum("ik,ijk->ij", jets_d.tau, r_hat),
        parts, w_b, params,
    )
    A_bd = _target_block(
        -np.einsum("jk,ijk->ji", jets_b.nu, r_hat),
        -np.einsum("jk,ijk->ji", jets_b.tau, r_hat),
        [[p.T for p in part] for part in parts], w_d, params,
    )
    return A_db, A_bd


def assemble_two_body(
    curve_d: StarlikeCurve,
    curve_b: StarlikeCurve,
    params: MaterialParams,
    grid_d: NodeGrid,
    grid_b: NodeGrid | None = None,
) -> np.ndarray:
    """Block system for the coupled obstacle-ball scattering problem.

    Unknown ordering is [densities on D, densities on B]; self-blocks are
    exactly the single-body system matrices.
    """
    if grid_b is None:
        grid_b = NodeGrid(grid_d.n)
    sep = separation(curve_d, curve_b)
    if sep < _MIN_SEPARATION:
        raise ValueError(
            f"bodies too close (separation {sep:.3f} < {_MIN_SEPARATION}); "
            "the cross kernels would be nearly singular"
        )
    A_dd = assemble_system(curve_d, params, grid_d)
    A_bb = assemble_system(curve_b, params, grid_b)
    A_db, A_bd = cross_blocks(curve_d, curve_b, params, grid_d, grid_b)
    return np.block([[A_dd, A_db], [A_bd, A_bb]])


def solve_two_body(system: np.ndarray, rhs_d, rhs_b) -> TwoBodyDensities:
    """Direct solve; splits the solution back into per-body densities."""
    b_d = np.concatenate([np.asarray(r, dtype=complex) for r in rhs_d])
    b_b = np.concatenate([np.asarray(r, dtype=complex) for r in rhs_b])
    if system.shape != (len(b_d) + len(b_b),) * 2:
        raise ValueError("system and right-hand side sizes do not match")
    x = factor_system(system)(np.concatenate([b_d, b_b]))
    Nd, Nb = len(b_d) // 3, len(b_b) // 3
    xd, xb = x[: 3 * Nd], x[3 * Nd :]
    return TwoBodyDensities(
        body_d=DensitySet(xd[:Nd], xd[Nd : 2 * Nd], xd[2 * Nd :]),
        body_b=DensitySet(xb[:Nb], xb[Nb : 2 * Nb], xb[2 * Nb :]),
    )


def solve_two_body_forward(
    curve_d: StarlikeCurve,
    curve_b: StarlikeCurve,
    params: MaterialParams,
    wave: IncidentWave,
    grid_d: NodeGrid,
    grid_b: NodeGrid | None = None,
) -> TwoBodyDensities:
    """Assemble and solve the two-body plane-wave scattering problem."""
    if grid_b is None:
        grid_b = NodeGrid(grid_d.n)
    A = assemble_two_body(curve_d, curve_b, params, grid_d, grid_b)
    rhs_d = rhs_plane_wave(curve_d, params, wave, grid_d)
    rhs_b = rhs_plane_wave(curve_b, params, wave, grid_b)
    return solve_two_body(A, rhs_d, rhs_b)


def far_field_sum(
    densities: TwoBodyDensities,
    curve_d: StarlikeCurve,
    curve_b: StarlikeCurve,
    params: MaterialParams,
    obs_angles,
    grid_d: NodeGrid | None = None,
    grid_b: NodeGrid | None = None,
) -> FarField:
    """Total far field: sum of the two single-layer far-field quadratures."""
    ff_d = far_field(densities.body_d, curve_d, params, obs_angles, grid_d)
    ff_b = far_field(densities.body_b, curve_b, params, obs_angles, grid_b)
    return FarField(
        angles=ff_d.angles,
        values=ff_d.values + ff_b.values,
        gamma_a=gamma_far(params.kappa_a),
    )
