"""Two-body forward solver for an obstacle together with a reference ball.

The coupled system on Gamma_D and Gamma_B reuses the single-body assembly
for the self-interaction blocks; the cross-interaction kernels are smooth
(the bodies are disjoint) and are discretized by the plain trapezoid rule.
Each cross kernel is a radial function of |x - y| times powers of the
normal and tangential components of the unit vector (x - y)/|x - y|, so
one pair of Hankel evaluations per wavenumber (a ``CrossPair``) serves both
cross blocks, and their derivatives when the obstacle moves.
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
from .geometry import BoundaryMotion, CurveJet, NodeGrid, StarlikeCurve, jet
from .specfun import hankel1_0, hankel1_1

__all__ = [
    "TwoBodyDensities",
    "separation",
    "CrossPair",
    "cross_pair",
    "cross_blocks",
    "cross_block_sensitivity",
    "assemble_two_body",
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


def _radial_slopes(parts, r: np.ndarray, kappa: float):
    """The r-derivatives of the radial factors (f, g, h_rad, h_tan):
    f' = g, g' = h_rad, h_tan' = (h_rad - h_tan)/r and, from the radial
    Helmholtz equation phi'' + phi'/r + kappa^2 phi = 0,
    h_rad' = -(h_rad - h_tan)/r - kappa^2 g. No further Hankel values."""
    _, g, rad, tan = parts
    q = (rad - tan) / r
    return g, rad, -q - kappa**2 * g, q


def _monomials(nu: np.ndarray, tau: np.ndarray, r_hat: np.ndarray):
    """The angular factors (1, a^2, a b, a, b) of the cross kernels, with
    a = nu . r_hat and b = tau . r_hat at the target, [target, source]."""
    a = np.einsum("ik,ijk->ij", nu, r_hat)
    b = np.einsum("ik,ijk->ij", tau, r_hat)
    return 1.0, a**2, b * a, a, b


def _turned(mono):
    """The derivatives of the angular factors in the angle phi of r_hat,
    counted from nu towards tau (a = cos phi, b = sin phi)."""
    _, _, ab, a, b = mono
    return 0.0, -2.0 * ab, a * a - b * b, -b, a


def _kernels(mono, parts, params: MaterialParams) -> list[list[np.ndarray]]:
    """The cross kernels K[e][c] (equation e at the target, density c at the
    source) without the weight 2 w_j, [target, source].

    ``parts`` holds the radial factors per wavenumber, ``mono`` the angular
    factors of ``_monomials``. With |nu| = 1 and tau . nu = 0,
    nu^T H nu = h_tan + (h_rad - h_tan) a^2 and tau^T H nu =
    (h_rad - h_tan) a b. Every kernel is linear in the radial factors and
    in the angular factors, so the same formulas give its r-derivative
    (from ``_radial_slopes``) and its phi-derivative (from ``_turned``).
    """
    one, nn, tn, nu_r, tau_r = mono
    (f_p, g_p, rad_p, tan_p), (_, g_s, rad_s, tan_s), (f_a, g_a, _, _) = parts
    kp, lam, mu = params.kappa_p, params.lam, params.mu
    w2r = params.omega**2 * params.rho_a
    return [
        [mu * (tan_p * one + (rad_p - tan_p) * nn) - (lam + mu) * kp**2 * f_p * one,
         mu * (rad_s - tan_s) * tn,
         f_a * one],
        [(rad_p - tan_p) * tn,
         -(tan_s * one + (rad_s - tan_s) * nn),
         np.zeros_like(f_a)],
        [g_p * nu_r, g_s * tau_r, -g_a * nu_r / w2r],
    ]


def _weighted(kernels, v) -> list[np.ndarray]:
    """Per equation e, sum_c K[e][c] v[c], entrywise: the [target, source]
    terms of the block applied to the weighted source densities v[c]."""
    return [sum(k * vc for k, vc in zip(row, v)) for row in kernels]


def _target_gradients(mono, parts, slopes, r, r_hat, v, params):
    """Per equation e, the [target, source] terms (x, y, theta) of the
    derivatives of (A v)_e in the target's position and in the angle of its
    frame, for the weighted source densities v.

    In polar coordinates about the source, grad K = K_r r_hat +
    (K_phi / r) e_phi with e_phi = r_hat turned by +90 degrees (tau is nu
    turned by +90 degrees). The frame change d nu = -dtheta tau,
    d tau = dtheta nu changes a by -b dtheta and b by a dtheta, as phi
    does by dtheta, so dK/dtheta = K_phi.
    """
    K_r = _weighted(_kernels(mono, slopes, params), v)
    K_phi = _weighted(_kernels(_turned(mono), parts, params), v)
    rx, ry = r_hat[..., 0], r_hat[..., 1]
    return [(kr * rx - kf * ry / r, kr * ry + kf * rx / r, kf)
            for kr, kf in zip(K_r, K_phi)]


def _target_block(mono, parts, w, params: MaterialParams) -> np.ndarray:
    """Cross block with the three equations at the target nodes (rows) and
    the three source densities (columns); ``w`` the source quadrature
    weights."""
    kernels = _kernels(mono, parts, params)
    for row in kernels:
        for k in row:
            k *= 2.0 * w  # in place: a weighted copy of every kernel would add to the peak
    return np.block(kernels)


@dataclass(frozen=True)
class CrossPair:
    """What both cross blocks of an obstacle D and a ball B share, and their
    derivatives when D moves: the jets and trapezoid weights pi/n G^2 of each
    body, the D x B distances r, the unit vectors r_hat from B to D, and the
    radial factors of ``_radial_parts`` per wavenumber of ``params``."""

    params: MaterialParams
    jets_d: CurveJet
    jets_b: CurveJet
    w_d: np.ndarray
    w_b: np.ndarray
    r: np.ndarray
    r_hat: np.ndarray
    parts: list


def cross_pair(
    curve_d: StarlikeCurve,
    curve_b: StarlikeCurve,
    params: MaterialParams,
    grid_d: NodeGrid,
    grid_b: NodeGrid,
) -> CrossPair:
    """The ``CrossPair`` of two disjoint bodies: H0 and H1 once per
    wavenumber on the D x B distance matrix."""
    jets_d, jets_b = jet(curve_d, grid_d.nodes), jet(curve_b, grid_b.nodes)
    diff = jets_d.p[:, None, :] - jets_b.p[None, :, :]
    r = np.linalg.norm(diff, axis=-1)
    r_hat = diff / r[..., None]
    parts = [_radial_parts(r, k) for k in (params.kappa_p, params.kappa_s, params.kappa_a)]
    w_d = (np.pi / grid_d.n) * jets_d.G**2
    w_b = (np.pi / grid_b.n) * jets_b.G**2
    return CrossPair(params, jets_d, jets_b, w_d, w_b, r, r_hat, parts)


def _transposed(parts):
    return [[p.T for p in part] for part in parts]


def cross_blocks(pair: CrossPair) -> tuple[np.ndarray, np.ndarray]:
    """Both cross-interaction blocks of two disjoint bodies, (A_db, A_bd).

    A_db has the equations at D's nodes as rows and B's densities as
    columns; A_bd the reverse. The kernels are evaluated pointwise and
    weighted by the trapezoid rule with the source Jacobian squared (the
    densities are scaled by 1/G). Every kernel is a radial factor times
    powers of nu . r_hat and tau . r_hat, so both blocks come from the one
    set of Hankel values in ``pair``; reversing the direction flips r_hat,
    which flips the sign of the gradient terms only. ``pair`` is not
    changed.
    """
    jets_d, jets_b, params = pair.jets_d, pair.jets_b, pair.params
    A_db = _target_block(_monomials(jets_d.nu, jets_d.tau, pair.r_hat), pair.parts,
                         pair.w_b, params)
    # r_hat from D to B through the sign of the ball's frame, not a copy of r_hat
    A_bd = _target_block(_monomials(-jets_b.nu, -jets_b.tau, pair.r_hat.transpose(1, 0, 2)),
                         _transposed(pair.parts), pair.w_d, params)
    return A_db, A_bd


def cross_block_sensitivity(
    pair: CrossPair,
    x_d: np.ndarray,
    x_b: np.ndarray,
    motion: BoundaryMotion,
) -> tuple[np.ndarray, np.ndarray]:
    """Derivatives (d(A_db x_b), d(A_bd x_d)), 3N_d x P and 3N_b x P, of the
    cross-block products when D moves by ``motion`` and the densities
    x_d, x_b stay fixed.

    No Hankel function is evaluated: the radial factors come from ``pair``,
    the values ``cross_blocks`` used, and every higher r-derivative of phi
    follows from them. In A_db x_b, D holds the targets: each row moves
    with its node and turns with its frame, so the gradient of each row in
    position and frame angle is contracted with x_b once (O(N_d N_b)) and
    then combined with the motion. In A_bd x_d, D holds the sources: a
    kernel moves against its source node and the weight pi/n G^2 changes by
    the factor 2 dG/G, and both go in as one matrix product with the
    motion.
    """
    jets_d, jets_b, params = pair.jets_d, pair.jets_b, pair.params
    r, r_hat, parts = pair.r, pair.r_hat, pair.parts
    kappas = (params.kappa_p, params.kappa_s, params.kappa_a)
    slopes = [_radial_slopes(p, r, k) for p, k in zip(parts, kappas)]
    dp, dtheta, dG = motion.dp, motion.dtheta, motion.dG

    v_b = 2.0 * pair.w_b * x_b.reshape(3, -1)
    d_db = np.concatenate([
        gx.sum(axis=1)[:, None] * dp[:, 0] + gy.sum(axis=1)[:, None] * dp[:, 1]
        + gt.sum(axis=1)[:, None] * dtheta
        for gx, gy, gt in _target_gradients(
            _monomials(jets_d.nu, jets_d.tau, r_hat), parts, slopes, r, r_hat, v_b, params)
    ])

    v_d = 2.0 * pair.w_d * x_d.reshape(3, -1)
    r_hat_b, parts_b = -r_hat.transpose(1, 0, 2), _transposed(parts)
    mono_b = _monomials(jets_b.nu, jets_b.tau, r_hat_b)
    values = _weighted(_kernels(mono_b, parts_b, params), v_d)
    gradients = _target_gradients(
        mono_b, parts_b, _transposed(slopes), r.T, r_hat_b, v_d, params)
    source_motion = np.concatenate([dp[:, 0], dp[:, 1], 2.0 * dG / jets_d.G[:, None]])
    d_bd = np.concatenate([
        np.hstack([-gx, -gy, k]) @ source_motion
        for (gx, gy, _), k in zip(gradients, values)
    ])
    return d_db, d_bd


def assemble_two_body(
    curve_d: StarlikeCurve,
    curve_b: StarlikeCurve,
    params: MaterialParams,
    grid_d: NodeGrid,
    grid_b: NodeGrid,
    A_bb: np.ndarray,
) -> tuple[np.ndarray, CrossPair]:
    """Block system for the coupled obstacle-ball scattering problem, and the
    ``CrossPair`` its cross blocks came from.

    Unknown ordering is [densities on D, densities on B]; the self-blocks are
    exactly the single-body system matrices. The ball's, A_bb =
    ``assemble_system(curve_b, params, grid_b)``, is passed in: it does not
    depend on the obstacle, so a reconstruction assembles it once. A_dd and
    both cross blocks are built here, after the bodies are checked to be at
    least 0.1 apart.
    """
    sep = separation(curve_d, curve_b)
    if sep < _MIN_SEPARATION:
        raise ValueError(
            f"bodies too close (separation {sep:.3f} < {_MIN_SEPARATION}); "
            "the cross kernels would be nearly singular"
        )
    # the pair first: a reconstruction keeps it past the system's temporaries,
    # and built above them it left glibc's heap so fragmented that a later
    # n = 100 two-body solve raised the peak resident size by 21 MB in about
    # half the runs
    pair = cross_pair(curve_d, curve_b, params, grid_d, grid_b)
    A_dd = assemble_system(curve_d, params, grid_d)
    A_db, A_bd = cross_blocks(pair)
    return np.block([[A_dd, A_db], [A_bd, A_bb]]), pair


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
    A = assemble_two_body(curve_d, curve_b, params, grid_d, grid_b,
                          assemble_system(curve_b, params, grid_b))[0]
    b_d = np.concatenate(rhs_plane_wave(curve_d, params, wave, grid_d))
    b_b = np.concatenate(rhs_plane_wave(curve_b, params, wave, grid_b))
    if A.shape != (len(b_d) + len(b_b),) * 2:
        raise ValueError("system and right-hand side sizes do not match")
    x = factor_system(A)(np.concatenate([b_d, b_b]))
    Nd, Nb = grid_d.size, grid_b.size
    xd, xb = x[: 3 * Nd], x[3 * Nd :]
    return TwoBodyDensities(
        body_d=DensitySet(xd[:Nd], xd[Nd : 2 * Nd], xd[2 * Nd :]),
        body_b=DensitySet(xb[:Nb], xb[Nb : 2 * Nb], xb[2 * Nb :]),
    )


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
