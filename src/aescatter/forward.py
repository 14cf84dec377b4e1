"""Single-obstacle forward solver.

Assembles the 6n x 6n Nystrom system for the three coupled boundary
densities (compressional potential, shear potential, exterior acoustic
field), solves it directly, and evaluates far and near fields. Also
provides numerical verification of the layer-potential jump relations and
of the boundary conditions on a shifted collocation grid.

The unknowns are the scaled densities phi_tilde = (g o p) / G, which keeps
third derivatives of the radial function out of the kernels.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np
from scipy.linalg import get_lapack_funcs, lu_factor, lu_solve

from .geometry import BoundaryMotion, CurveJet, NodeGrid, StarlikeCurve, jet
from .kernels import (
    grad_phi,
    hess_phi,
    kernel_tables,
    pair_geometry,
    phi,
    single_layer_slopes,
)
from .quadrature import (
    cauchy_weight_table,
    diff_matrix,
    lagrange_basis_matrix,
    log_weight_table,
)

__all__ = [
    "MaterialParams",
    "IncidentWave",
    "DensitySet",
    "FarField",
    "gamma_far",
    "rhs_plane_wave",
    "assemble_system",
    "system_sensitivity",
    "factor_system",
    "solve_densities",
    "solve_forward",
    "far_field_matrix",
    "far_field",
    "near_field",
    "NearField",
    "jump_check",
    "boundary_residual",
]

_COND_WARN_RCOND = 1e-12
_RESIDUAL_GATE = 1e-10
_NEAR_FIELD_CLEARANCE = 1e-3


@dataclass(frozen=True)
class MaterialParams:
    """Physical constants of the fluid-solid configuration.

    Wavenumbers: kappa_p = omega sqrt(rho_e/(lam+2 mu)) (compressional),
    kappa_s = omega sqrt(rho_e/mu) (shear), kappa_a = omega/c (acoustic).
    """

    lam: float
    mu: float
    rho_e: float = 1.0
    rho_a: float = 1.0
    omega: float = 0.7 * np.pi
    c: float = 1.0

    def __post_init__(self):
        if self.mu <= 0.0 or self.lam + self.mu <= 0.0:
            raise ValueError("need mu > 0 and lam + mu > 0")
        if min(self.rho_e, self.rho_a, self.omega, self.c) <= 0.0:
            raise ValueError("densities, frequency and sound speed must be positive")

    @property
    def kappa_p(self) -> float:
        return self.omega * np.sqrt(self.rho_e / (self.lam + 2.0 * self.mu))

    @property
    def kappa_s(self) -> float:
        return self.omega * np.sqrt(self.rho_e / self.mu)

    @property
    def kappa_a(self) -> float:
        return self.omega / self.c

    @staticmethod
    def default() -> "MaterialParams":
        """Configuration used throughout the numerical experiments."""
        return MaterialParams(lam=3.88, mu=2.56)


@dataclass(frozen=True)
class IncidentWave:
    """Plane wave exp(i kappa_a x . d) with direction d = (cos theta, sin theta)."""

    theta: float

    @property
    def direction(self) -> np.ndarray:
        return np.array([np.cos(self.theta), np.sin(self.theta)])


@dataclass(frozen=True)
class DensitySet:
    """Scaled layer densities sampled at the 2n collocation nodes."""

    phi1_tilde: np.ndarray
    phi2_tilde: np.ndarray
    phi3_tilde: np.ndarray

    def __post_init__(self):
        sizes = {len(self.phi1_tilde), len(self.phi2_tilde), len(self.phi3_tilde)}
        if len(sizes) != 1:
            raise ValueError("density arrays must have equal length")
        for a in (self.phi1_tilde, self.phi2_tilde, self.phi3_tilde):
            if not np.all(np.isfinite(a)):
                raise ValueError("density arrays must be finite")


def gamma_far(kappa: float) -> complex:
    """Far-field normalization e^{i pi/4} / sqrt(8 pi kappa)."""
    return np.exp(0.25j * np.pi) / np.sqrt(8.0 * np.pi * kappa)


@dataclass(frozen=True)
class FarField:
    """Complex far-field samples at the observation angles."""

    angles: np.ndarray
    values: np.ndarray
    gamma_a: complex

    def __post_init__(self):
        if len(self.angles) != len(self.values):
            raise ValueError("angles and values must match in length")


def rhs_plane_wave(
    curve: StarlikeCurve,
    params: MaterialParams,
    wave: IncidentWave,
    grid: NodeGrid,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Right-hand sides (w1, w2, w3) of the discretized system.

    w1 = -2 u_inc on the boundary, w2 = 0, and w3 carries the normal
    derivative of the incident wave scaled by 1/(omega^2 rho_a).
    """
    jets = jet(curve, grid.nodes)
    d = wave.direction
    uinc = np.exp(1j * params.kappa_a * (jets.p @ d))
    w1 = -2.0 * uinc
    w2 = np.zeros_like(w1)
    w3 = 2j * params.kappa_a * (jets.nu @ d) * uinc / (params.omega**2 * params.rho_a)
    return w1, w2, w3


def _layer_ops(geom, grid: NodeGrid, tab):
    """Quadrature matrices (S, K) of the split tables ``tab`` of one
    wavenumber on one grid.

    ``geom`` is the ``pair_geometry`` of the grid nodes, shared by every
    wavenumber. The elementwise product with a weight matrix Q[i, j] gives
    the dense matrix acting on node samples of the (scaled) density. K
    carries the 1/G(t) factor of the parametrized operator.
    """
    R = log_weight_table(grid.n)
    pin = np.pi / grid.n
    S = R * tab.m1 + pin * tab.m2
    K = (R * tab.k1 + pin * tab.k2) / geom.jets.G[:, None]
    return S, K


def _ops(geom, grid: NodeGrid, kappa: float):
    """Quadrature matrices (S, K, H) for one wavenumber on one grid; H is
    the tangential operator, with the 1/G(t) factor like K."""
    n = grid.n
    # The cached weight tables are built before the split tables: built after
    # them, they sit above the freed temporaries in glibc's heap and kept
    # about 10 MB resident after an n=128 assembly.
    R, T = log_weight_table(n), cauchy_weight_table(n)
    tab = kernel_tables(geom, kappa)
    S, K = _layer_ops(geom, grid, tab)
    H = (T * tab.h1 + R * tab.h2 + (np.pi / n) * tab.h3) / geom.jets.G[:, None]
    return S, K, H


def _add_times_d(block: np.ndarray, W: np.ndarray, D: np.ndarray) -> None:
    """block += W @ D for a complex W and the real D, as one real product
    of the stacked real and imaginary parts."""
    WD = np.concatenate([W.real, W.imag]) @ D
    block.real += WD[: len(D)]
    block.imag += WD[len(D) :]


def assemble_system(
    curve: StarlikeCurve, params: MaterialParams, grid: NodeGrid
) -> np.ndarray:
    """Dense 6n x 6n system matrix on the given collocation grid.

    Row blocks are the three boundary equations at the 2n nodes; column
    blocks are the three scaled densities. The pair geometry is computed
    once and shared by the three wavenumbers, and each wavenumber's
    operators go into the blocks before the next ones are built.
    """
    if grid.n < 8:
        raise ValueError("grid too coarse for the singular quadrature (need n >= 8)")
    jets = jet(curve, grid.nodes)
    geom = pair_geometry(jets, grid.nodes)
    N = grid.size
    lam, mu = params.lam, params.mu
    kp, ks, ka = params.kappa_p, params.kappa_s, params.kappa_a
    w2r = params.omega**2 * params.rho_a
    D = diff_matrix(grid.n)

    G, G2, i = jets.G, jets.G**2, np.arange(N)

    # Q[i, j] geometry factors, e.g. nu_n[i, j] = nu(t_i) . n(s_j); source
    # quantities in column index j.
    sources = (jets.n, jets.n_perp, jets.n_perp_prime, jets.n_prime)
    nu_n, nu_np, nu_npd, nu_nd = (jets.nu @ v.T for v in sources)
    tau_n, tau_np, tau_npd, tau_nd = (jets.tau @ v.T for v in sources)

    Sp, Kp, Hp = _ops(geom, grid, kp)
    # Allocated after the first operators, so that A can take the memory of
    # their freed temporaries: allocated first, it raised the peak resident
    # size of a two-body set-up at n=100 by about 8% (glibc malloc).
    A = np.zeros((3 * N, 3 * N), dtype=complex)
    rows = [[A[r : r + N, c : c + N] for c in (0, N, 2 * N)] for r in (0, N, 2 * N)]
    (A11, A12, A13), (A21, A22, _), (A31, A32, A33) = rows
    # Each pair (X o a) @ D +- (Y o b) @ D is folded into one product; the
    # D of A21 and the mu D of A12 enter as identities.
    _add_times_d(A11, mu * (Kp * nu_np - Hp * nu_n), D)
    W = Kp * tau_np - Hp * tau_n
    W[i, i] += 1.0
    _add_times_d(A21, W, D)
    A11 += Sp * (-kp**2 * (mu * nu_n**2 + (lam + mu) * G2))
    A11 += Kp * (mu * nu_npd) - Hp * (mu * nu_nd)
    A21 += Sp * (-kp**2 * tau_n * nu_n)
    A21 += Kp * tau_npd - Hp * tau_nd
    A31[...] = Kp * G2
    del Sp, Kp, Hp, W  # each wavenumber's operators go before the next are built

    Ss, Ks, Hs = _ops(geom, grid, ks)
    W = mu * (Ks * nu_n + Hs * nu_np)
    W[i, i] += mu
    _add_times_d(A12, W, D)
    _add_times_d(A22, Ks * tau_n + Hs * tau_np, D)
    A12 += Ss * (mu * ks**2 * nu_np * nu_n)
    A12 += Ks * (mu * nu_nd) + Hs * (mu * nu_npd)
    A22 += Ss * (ks**2 * tau_np * nu_n)
    A22 += Ks * tau_nd + Hs * tau_npd
    A32[...] = Hs * G2
    del Ss, Ks, Hs, W

    Sa, Ka = _layer_ops(geom, grid, kernel_tables(geom, ka))  # no H: no block uses it
    A13[...] = Sa * G2
    A33[...] = Ka * (-G2 / w2r)

    # Diagonal terms; nu_npd[i, i] = nu(t_i) . n_perp'(t_i), and so on.
    A11[i, i] += mu * nu_npd[i, i] / G
    A12[i, i] += mu * nu_nd[i, i] / G
    A21[i, i] += tau_npd[i, i] / G
    A22[i, i] += tau_nd[i, i] / G
    A31[i, i] += G
    A33[i, i] += G / w2r
    if not np.all(np.isfinite(A)):
        raise FloatingPointError("non-finite entries during system assembly")
    return A


def _feature_weights(ops, x, y, params: MaterialParams):
    """Per equation e, the weights B_f of the frame features f = (C, Sg, Dr,
    Di, G2, C^2, Sg C) in A x: row e of A x is the row sum of the sum of
    f o B_f, given the operators ``ops``, (S, K, H) per wavenumber
    (kappa_p, kappa_s, kappa_a), with the diagonal terms and identities of
    ``assemble_system`` as the jump +-1/G in K's diagonal.

    C = nu_i . n_j, Sg = tau_i . n_j, Dr = nu_i . p''_j, Di = tau_i . p''_j
    and G2 = G_j^2, so nu_n = tau_np = C, tau_n = -nu_np = Sg,
    nu_npd = -tau_nd = Dr and nu_nd = tau_npd = Di. A x is linear in the
    operators and in the features, so the derivatives of the operators give
    the weights of their derivatives. x holds the three densities and y the
    first two times D; ``None`` marks a feature with no weight.
    """
    (Sp, Kp, Hp), (Ss, Ks, Hs), (Sa, Ka, _) = ops
    (x1, x2, x3), (y1, y2) = x, y
    lam, mu = params.lam, params.mu
    kp2, ks2 = params.kappa_p**2, params.kappa_s**2
    w2r = params.omega**2 * params.rho_a
    X1, X2 = Kp * x1 + Hs * x2, Ks * x2 - Hp * x1
    Y1, Y2 = Kp * y1 + Hs * y2, Ks * y2 - Hp * y1
    Sx1, Sx2 = Sp * x1, Ss * x2
    return (
        (mu * Y2, -mu * Y1, mu * X1, mu * X2, Sa * x3 - kp2 * (lam + mu) * Sx1,
         -kp2 * mu * Sx1, -mu * ks2 * Sx2),
        (Y1, Y2, -X2, X1, None, ks2 * Sx2, -kp2 * Sx1),
        (None, None, None, None, X1 - Ka * x3 / w2r, None, None),
    )


def _combine(features, weights) -> np.ndarray:
    """The sum of f o B_f over the features that have both a value and a
    weight (``None`` marks either missing)."""
    return sum(f * w for f, w in zip(features, weights)
               if f is not None and w is not None)


def system_sensitivity(
    curve: StarlikeCurve,
    params: MaterialParams,
    grid: NodeGrid,
    x: np.ndarray,
    motion: BoundaryMotion,
) -> np.ndarray:
    """Derivative d(A x), 6n x P, of the ``assemble_system`` matrix applied to
    fixed densities x, when the nodes move by ``motion`` (P parameters).

    A depends on the shape only through the node jet (p, p', p''): through
    r = |p_j - p_i| and the angle phi of p_j - p_i in the target's frame, the
    frame products, G_j^2, and the diagonal limits of m2 (log G) and of k2
    (n . p''/G^2); the weight tables, the log factor and D do not move.
    With a = nu_i . (p_j - p_i)/r and b = tau_i . (p_j - p_i)/r, the
    operators of one wavenumber are S, K = -a S_r and H = b (Q - S_r) off
    the diagonal, where S_r is the r-derivative of S and Q the Cauchy part
    (T o sin(ς_j - t_i) - pi/n)/(pi r); so one H0 and one H1 evaluation give
    every operator and its derivatives in r and phi
    (:func:`kernels.single_layer_slopes`).

    Each (W o a) @ D x is taken as (W o a) @ (D x), and each derivative is
    split into a target part, moving with node i (row sums, then times the
    motion of node i), and a source part, moving with node j (one product
    with the motion per equation). A depends on the positions only through
    p_j - p_i, so the mean node velocity is dropped: a translation gives
    exactly zero.
    """
    jets = jet(curve, grid.nodes)
    geom = pair_geometry(jets, grid.nodes)
    N, n, lim, i = grid.size, grid.n, geom.lim, np.arange(grid.size)
    R, T, pin = log_weight_table(n), cauchy_weight_table(n), np.pi / n
    x = np.reshape(x, (3, N))
    D = diff_matrix(n)
    y = (D @ x[0], D @ x[1])
    G, t, nu, tau = jets.G, grid.nodes, jets.nu, jets.tau

    a, b = geom.n_dot / G[:, None], geom.np_dot / G[:, None]
    rx = a * nu[:, 0, None] + b * tau[:, 0, None]   # (p_j - p_i)/r
    ry = a * nu[:, 1, None] + b * tau[:, 1, None]
    r = np.hypot(*(jets.p[None, :, k] - jets.p[:, None, k] for k in (0, 1)))
    r[lim] = 1.0
    cauchy = (T * np.sin(t[None, :] - t[:, None]) - pin) / (np.pi * r)
    cauchy[lim] = 0.0
    cauchy_r = cauchy / r
    # Kress's rule on f = f1 ln(4 sin^2) + f2 is R o f1 + pin f2 = pin f + f1 o RL
    RL = R - pin * geom.logsin

    C, Sg = nu @ jets.n.T, tau @ jets.n.T
    Dr, Di = nu @ jets.ddp.T, tau @ jets.ddp.T
    lim_K = 1.0 / (2 * n * G**2)          # K's diagonal limit is Dr_ii lim_K
    ops, ops_r, ops_phi, ops_G = [], [], [], []
    # per wavenumber: the jump of K, and whether any equation has its H
    for kappa, jump, tangential in ((params.kappa_p, 1.0, True),
                                    (params.kappa_s, 1.0, True),
                                    (params.kappa_a, -1.0, False)):
        S, S_r, S_rr = (pin * f + f1 * RL for f, f1 in single_layer_slopes(geom, kappa))
        K = -a * S_r                               # 0 at the lim pairs, as S_r
        K[i, i] = Dr[i, i] * lim_K + jump / G
        H = H_r = H_phi = 0.0
        if tangential:
            H_phi = cauchy - S_r
            H, H_phi = b * H_phi, a * H_phi
            H_r = -b * (cauchy_r + S_rr)
        ops.append((S, K, H))
        ops_r.append((S_r, -a * S_rr, H_r))
        ops_phi.append((0.0, b * S_r, H_phi))
        # the diagonal in log G: log G in m2, n . p''/G^2 and the jump in K
        ops_G.append((-1.0 / n, -2.0 * Dr[i, i] * lim_K - jump / G, 0.0))

    f = (C, Sg, Dr, Di, G**2, C * C, Sg * C)
    f_ii = tuple(v if v.ndim == 1 else v[i, i] for v in f)
    B, B_r, B_phi = (_feature_weights(o, x, y, params) for o in (ops, ops_r, ops_phi))

    def diagonal(diag_ops):   # target part of the diagonal entries' derivatives
        return [_combine(f_ii, w) for w in _feature_weights(diag_ops, x, y, params)]

    # The derivatives of the features: in the relative rotation of the two
    # frames (dtheta_i - dtheta_j), in the target frame's rotation against
    # p''_j (dtheta_i), in log G_j and in p''_j.
    rotation = (-Sg, C, None, None, None, -2.0 * C * Sg, C * C - Sg * Sg)
    target_turn = (None, None, -Di, Dr, None, None, None)
    stretch = (C, Sg, None, None, 2.0 * G**2, 2.0 * C * C, 2.0 * Sg * C)
    bend = [(None, None, nu[:, k, None], tau[:, k, None], None, None, None) for k in (0, 1)]
    diag_G = diagonal(ops_G)
    diag_theta = diagonal([(0.0, -Di[i, i] * lim_K, 0.0)] * 3)
    diag_bend = [diagonal([(0.0, nu[:, k] * lim_K, 0.0)] * 3) for k in (0, 1)]

    dp = motion.dp - motion.dp.mean(axis=0)
    comps = (dp[:, 0], dp[:, 1], motion.dG / G[:, None], motion.dtheta,
             motion.dp_second[:, 0], motion.dp_second[:, 1])
    stacked = np.concatenate(comps)
    rows = []
    for e in range(3):
        U, V = _combine(f, B_r[e]), _combine(f, B_phi[e])
        W_rot = _combine(rotation, B[e])
        Gx = U * rx - V * ry / r
        Gy = U * ry + V * rx / r
        source = (Gx, Gy, _combine(stretch, B[e]), -W_rot,
                  _combine(bend[0], B[e]), _combine(bend[1], B[e]))
        target = (-Gx.sum(axis=1), -Gy.sum(axis=1), diag_G[e],
                  (V + W_rot + _combine(target_turn, B[e])).sum(axis=1) + diag_theta[e],
                  diag_bend[0][e], diag_bend[1][e])
        # the third equation has no p'' terms: those weights are the scalar 0
        source = [m for m in source if np.ndim(m)]
        rows.append(np.hstack(source) @ stacked[: len(source) * N]
                    + sum(tc[:, None] * c for tc, c in zip(target, comps)))
    return np.concatenate(rows)


def factor_system(system: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """LU-factor a square Nystrom system once and return its checked solver.

    Warns when the reciprocal condition estimate drops below 1e-12 (an
    interior eigenvalue or a Jones-adjacent frequency can do this). The
    returned ``solve(b)`` takes one right-hand side or a matrix of them as
    columns, and raises FloatingPointError when the relative residual
    ||A x - b|| / ||b|| of any column exceeds 1e-10 or is not a number
    (a zero pivot gives NaN densities).
    """
    lu, piv = lu_factor(system)
    gecon = get_lapack_funcs("gecon", (system,))
    rcond, _ = gecon(lu, np.linalg.norm(system, 1))
    if rcond < _COND_WARN_RCOND:
        warnings.warn(
            f"system is nearly singular (rcond ~ {rcond:.2e}); "
            "possible interior eigenvalue or Jones-adjacent frequency",
            RuntimeWarning,
        )

    def solve(b: np.ndarray) -> np.ndarray:
        x = lu_solve((lu, piv), b)
        resid = np.linalg.norm(system @ x - b, axis=0)
        bnorm = np.linalg.norm(b, axis=0)
        rel = np.max(resid / np.where(bnorm > 0, bnorm, 1.0))
        if not rel <= _RESIDUAL_GATE:  # a NaN residual fails the gate too
            raise FloatingPointError(f"linear solve residual too large: {rel:.2e}")
        return x

    return solve


def solve_densities(system: np.ndarray, rhs) -> DensitySet:
    """Direct dense solve of the Nystrom system, checked by ``factor_system``."""
    b = np.concatenate([np.asarray(r, dtype=complex) for r in rhs])
    if system.shape[0] != system.shape[1] or system.shape[0] != len(b):
        raise ValueError("system and right-hand side sizes do not match")
    x = factor_system(system)(b)
    N = len(b) // 3
    return DensitySet(x[:N], x[N : 2 * N], x[2 * N :])


def solve_forward(
    curve: StarlikeCurve,
    params: MaterialParams,
    wave: IncidentWave,
    grid: NodeGrid,
) -> DensitySet:
    """Assemble and solve in one step."""
    A = assemble_system(curve, params, grid)
    return solve_densities(A, rhs_plane_wave(curve, params, wave, grid))


def far_field_matrix(
    curve: StarlikeCurve, params: MaterialParams, obs_angles, grid: NodeGrid
) -> np.ndarray:
    """Trapezoid-rule matrix taking the scaled acoustic density at the grid
    nodes to the far field at the observation angles."""
    obs_angles = np.atleast_1d(np.asarray(obs_angles, dtype=float))
    jets = jet(curve, grid.nodes)
    ka = params.kappa_a
    xhat = np.stack([np.cos(obs_angles), np.sin(obs_angles)], axis=-1)
    # cos + i sin of the real phase: np.exp of the imaginary array gives
    # the same values at several times the cost
    arg = (-ka * xhat) @ jets.p.T
    phase = np.cos(arg) + 1j * np.sin(arg)
    return phase * (gamma_far(ka) * (np.pi / grid.n) * jets.G**2)


def far_field(
    densities: DensitySet,
    curve: StarlikeCurve,
    params: MaterialParams,
    obs_angles,
    grid: NodeGrid | None = None,
) -> FarField:
    """Far-field pattern from the acoustic density by the trapezoidal rule."""
    obs_angles = np.atleast_1d(np.asarray(obs_angles, dtype=float))
    if grid is None:
        grid = NodeGrid(len(densities.phi3_tilde) // 2)
    vals = far_field_matrix(curve, params, obs_angles, grid) @ densities.phi3_tilde
    return FarField(angles=obs_angles, values=vals, gamma_a=gamma_far(params.kappa_a))


class NearField(NamedTuple):
    """Potentials and fields at one evaluation point."""

    phi_p: complex
    psi_s: complex
    u_s: complex
    displacement: np.ndarray


def near_field(
    densities: DensitySet,
    curve: StarlikeCurve,
    params: MaterialParams,
    x,
    grid: NodeGrid | None = None,
) -> NearField:
    """Potentials and elastic displacement at a point off the boundary.

    Plain trapezoid on the smooth integrands; accuracy degrades when x
    approaches the boundary, so points closer than 1e-3 are rejected.
    The displacement is grad(phi) + curl(psi), differentiated under the
    integral sign.
    """
    x = np.asarray(x, dtype=float).reshape(2)
    if grid is None:
        grid = NodeGrid(len(densities.phi3_tilde) // 2)
    jets = jet(curve, grid.nodes)
    dist = np.min(np.linalg.norm(jets.p - x, axis=-1))
    if dist < _NEAR_FIELD_CLEARANCE:
        raise ValueError(f"evaluation point too close to the boundary ({dist:.2e})")

    w = np.pi / grid.n
    th1 = densities.phi1_tilde * jets.G**2
    th2 = densities.phi2_tilde * jets.G**2
    th3 = densities.phi3_tilde * jets.G**2

    phi_p = w * np.sum(phi(x, jets.p, params.kappa_p) * th1)
    psi_s = w * np.sum(phi(x, jets.p, params.kappa_s) * th2)
    u_s = w * np.sum(phi(x, jets.p, params.kappa_a) * th3)

    grad_p = w * np.sum(grad_phi(x, jets.p, params.kappa_p) * th1[:, None], axis=0)
    grad_s = w * np.sum(grad_phi(x, jets.p, params.kappa_s) * th2[:, None], axis=0)
    curl_s = np.array([grad_s[1], -grad_s[0]])
    return NearField(phi_p=phi_p, psi_s=psi_s, u_s=u_s,
                     displacement=grad_p + curl_s)


# ---------------------------------------------------------------------------
# Verification helpers
# ---------------------------------------------------------------------------

def _offside_sum(curve, kappa, g_fn, x_eval, h, kernel):
    """Trapezoid sum of kernel(x_eval, y, kappa) g(y) ds(y) at a point at
    distance ~h off the boundary, with a node count sized to the
    near-singularity; ``kernel`` is grad_phi or hess_phi."""
    N = int(min(2 ** 17, max(4096, 2 ** int(np.ceil(np.log2(60.0 / h))))))
    s = 2.0 * np.pi * np.arange(N) / N
    js = jet(curve, s)
    theta = g_fn(s) * js.G
    values = kernel(x_eval, js.p, kappa)
    return (2.0 * np.pi / N) * np.einsum("j...,j->...", values, theta)


def jump_check(
    curve: StarlikeCurve,
    params: MaterialParams,
    density: Callable[[np.ndarray], np.ndarray],
    h_sequence: Sequence[float] = (1e-2, 5e-3, 2.5e-3, 1.25e-3),
    n: int = 64,
    target_indices: Sequence[int] = (0, 17, 51, 90),
) -> dict:
    """Compare one-sided layer-potential derivatives to their limit formulas.

    For each h the potential gradient (and, for the second-derivative
    relations, the Hessian contracted with nu) is evaluated at x +- h nu
    by a dense trapezoid rule, and compared to the one-sided limit computed
    with the singular node quadrature. Errors should decay like h log h.
    """
    kappa = params.kappa_p
    grid = NodeGrid(n)
    jets = jet(curve, grid.nodes)
    geom = pair_geometry(jets, grid.nodes)
    # The factor 1/2 turns the doubled boundary operators into plain
    # boundary integrals of theta = G * g.
    Smat, Kmat, Hmat = (0.5 * M for M in _ops(geom, grid, kappa))
    D = diff_matrix(n)

    g = density(grid.nodes)
    theta = jets.G * g
    # Tangential derivatives of g nu and g tau along the curve.
    dgnu = (D @ (g[:, None] * jets.nu)) / jets.G[:, None]
    dgtau = (D @ (g[:, None] * jets.tau)) / jets.G[:, None]

    int_dnu = Kmat @ theta            # nu-component of int grad Phi g ds
    int_dtau = Hmat @ theta
    grad_int = int_dnu[:, None] * jets.nu + int_dtau[:, None] * jets.tau
    curl_int = np.stack([grad_int[:, 1], -grad_int[:, 0]], axis=-1)

    def s_vec(weight_rows, vec):
        # int Phi (vec(y) * weight(y; x_i)) g ds, componentwise
        return np.stack(
            [Smat @ (weight_rows * vec[:, l] * theta) for l in (0, 1)], axis=-1
        )

    report: dict[str, dict] = {}
    for name in ("grad", "curl", "traction_grad", "traction_curl"):
        report[name] = {"h": list(h_sequence), "plus": [], "minus": []}

    for h in h_sequence:
        errs = {name: {"plus": [], "minus": []} for name in report}
        for i in target_indices:
            x0, nu_i, tau_i = jets.p[i], jets.nu[i], jets.tau[i]
            nu_dot = jets.nu @ nu_i   # nu(y) . nu(x_i), per source node
            tau_lim_base = s_vec(nu_dot, jets.nu)      # int Phi <nu,nu> nu(x) g
            curl_lim_base = s_vec(nu_dot, jets.tau)    # int Phi <tau,nu> nu(x) g

            hess_lim = (
                -kappa**2 * tau_lim_base[i]
                - np.stack([Hmat[i] @ (jets.G * dgnu[:, l]) for l in (0, 1)])
                + np.stack([Kmat[i] @ (jets.G * dgtau[:, l]) for l in (0, 1)])
            )
            hess_curl_lim = (
                kappa**2 * curl_lim_base[i]
                + np.stack([Hmat[i] @ (jets.G * dgtau[:, l]) for l in (0, 1)])
                + np.stack([Kmat[i] @ (jets.G * dgnu[:, l]) for l in (0, 1)])
            )

            for sign, key in ((+1.0, "plus"), (-1.0, "minus")):
                xe = x0 + sign * h * nu_i
                grad_num = _offside_sum(curve, kappa, density, xe, h, grad_phi)
                curl_num = np.array([grad_num[1], -grad_num[0]])
                grad_lim = grad_int[i] - sign * 0.5 * nu_i * g[i]
                curl_lim = curl_int[i] + sign * 0.5 * tau_i * g[i]
                errs["grad"][key].append(np.linalg.norm(grad_num - grad_lim))
                errs["curl"][key].append(np.linalg.norm(curl_num - curl_lim))

                hess_num = _offside_sum(curve, kappa, density, xe, h, hess_phi) @ nu_i
                hess_curl_num = np.array([hess_num[1], -hess_num[0]])
                lim1 = hess_lim - sign * 0.5 * dgtau[i]
                lim2 = hess_curl_lim - sign * 0.5 * dgnu[i]
                errs["traction_grad"][key].append(np.linalg.norm(hess_num - lim1))
                errs["traction_curl"][key].append(
                    np.linalg.norm(hess_curl_num - lim2)
                )
        for name in report:
            report[name]["plus"].append(max(errs[name]["plus"]))
            report[name]["minus"].append(max(errs[name]["minus"]))

    for name in report:
        seq = np.maximum(report[name]["plus"], report[name]["minus"])
        report[name]["monotone"] = bool(np.all(np.diff(seq) < 0.0))
    return report


def boundary_residual(
    densities: DensitySet,
    curve: StarlikeCurve,
    params: MaterialParams,
    wave: IncidentWave,
    grid: NodeGrid | None = None,
    offset: float | None = None,
) -> np.ndarray:
    """Max-norm residuals of the three boundary equations at offset nodes.

    The solved densities are trigonometrically interpolated onto a grid
    shifted by half a node spacing, the system is re-assembled there (the
    Cauchy rule needs on-grid targets, so collocation moves with the
    nodes), and the residual against the incident-wave data is measured.
    """
    if grid is None:
        grid = NodeGrid(len(densities.phi3_tilde) // 2)
    if offset is None:
        offset = 0.5 * np.pi / grid.n
    shifted = NodeGrid(grid.n, offset=grid.offset + offset)
    P = lagrange_basis_matrix(grid.n, shifted.nodes - grid.offset)
    x = np.concatenate(
        [P @ densities.phi1_tilde, P @ densities.phi2_tilde, P @ densities.phi3_tilde]
    )
    A = assemble_system(curve, params, shifted)
    b = np.concatenate(rhs_plane_wave(curve, params, wave, shifted))
    res = A @ x - b
    N = shifted.size
    return np.array(
        [
            np.abs(res[:N]).max(),
            np.abs(res[N : 2 * N]).max(),
            np.abs(res[2 * N :]).max(),
        ]
    )
