"""Single-obstacle forward solver.

Assembles the 6n x 6n Nystrom system for the three coupled boundary
densities (compressional potential, shear potential, exterior acoustic
field), solves it directly, and evaluates far and near fields. Also
provides numerical verification of the layer-potential jump relations and
of the boundary conditions on a shifted collocation grid.

The unknowns are the scaled densities phi_tilde = (g o p) / G, which keeps
third derivatives of the radial function out of the kernels.

The system is stated once, as the term table ``_terms`` and the jump signs
``_JUMPS``: ``assemble_system`` sums the rows into blocks, and
``system_sensitivity`` takes the same sums against x and D x as the feature
weights that it differentiates.

No numpy product on the solve path is large enough for OpenBLAS to run it
on threads (gemm with m n k > 262144, gemv with m n > 9216). numpy and
scipy each load their own OpenBLAS, and the threads of each busy-wait for
about 0.1 s after a threaded call, so a threaded numpy product made just
before scipy's LU takes a core from it: on 2 cores a 768-row LU took 48 ms
after such a product, 28-31 ms after a scipy product or alone. D is
therefore applied by FFT, and the products next to the LU (the backward
error, the far field, the shape derivative) go through ``_gemm``, the gemm
of scipy's BLAS. The (N x 2) @ (2 x N) frame products and the far-field
phase stay in numpy: they run on one thread while m n <= 131072.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np
from scipy.linalg import get_blas_funcs, get_lapack_funcs, lu_factor, lu_solve

from .geometry import BoundaryMotion, NodeGrid, StarlikeCurve, jet
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
_BACKWARD_GATE = 1e-14  # of ||Ax - b|| / (||A|| ||x|| + ||b||), 1-norms; LU gives ~1e-16
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


# The jump +-1/G of each wavenumber's K on the diagonal (kappa_p, kappa_s,
# kappa_a): the diagonal terms of the system and the identities next to D.
_JUMPS = (1.0, 1.0, -1.0)


def _terms(params: MaterialParams) -> tuple:
    """The Nystrom system as rows (equation, feature, operator, density,
    through D, coefficient), the features those of ``_features`` and the
    operators those of ``_ops``. Block (e, c) of A is the sum over its rows
    of coefficient (feature o op), times D on the right for the rows through
    D; op is the operator at density c's own wavenumber (kappa_p, kappa_s,
    kappa_a), with the jump of ``_JUMPS`` in K's diagonal.
    """
    lam, mu = params.lam, params.mu
    kp2, ks2 = params.kappa_p**2, params.kappa_s**2
    w2r = params.omega**2 * params.rho_a
    return (
        (0, "C", "K", 1, True, mu), (0, "C", "H", 0, True, -mu),
        (0, "Sg", "K", 0, True, -mu), (0, "Sg", "H", 1, True, -mu),
        (0, "Dr", "K", 0, False, mu), (0, "Dr", "H", 1, False, mu),
        (0, "Di", "K", 1, False, mu), (0, "Di", "H", 0, False, -mu),
        (0, "G2", "S", 2, False, 1.0), (0, "G2", "S", 0, False, -kp2 * (lam + mu)),
        (0, "C2", "S", 0, False, -kp2 * mu), (0, "SgC", "S", 1, False, -ks2 * mu),
        (1, "C", "K", 0, True, 1.0), (1, "C", "H", 1, True, 1.0),
        (1, "Sg", "K", 1, True, 1.0), (1, "Sg", "H", 0, True, -1.0),
        (1, "Dr", "H", 0, False, 1.0), (1, "Dr", "K", 1, False, -1.0),
        (1, "Di", "K", 0, False, 1.0), (1, "Di", "H", 1, False, 1.0),
        (1, "C2", "S", 1, False, ks2), (1, "SgC", "S", 0, False, -kp2),
        (2, "G2", "K", 0, False, 1.0), (2, "G2", "H", 1, False, 1.0),
        (2, "G2", "K", 2, False, -1.0 / w2r),
    )


def _features(jets) -> dict:
    """The frame features of the system, [target i, source j]: C = nu_i . n_j,
    Sg = tau_i . n_j, Dr = nu_i . p''_j, Di = tau_i . p''_j, G2 = G_j^2,
    C2 = C^2 and SgC = Sg C. They cover every frame product of the
    equations: tau_i . n_perp_j = C, nu_i . n_perp_j = -Sg,
    nu_i . n_perp'_j = -tau_i . n'_j = Dr and nu_i . n'_j = tau_i . n_perp'_j = Di.
    """
    C, Sg = jets.nu @ jets.n.T, jets.tau @ jets.n.T
    Dr, Di = jets.nu @ jets.ddp.T, jets.tau @ jets.ddp.T
    return {"C": C, "Sg": Sg, "Dr": Dr, "Di": Di, "G2": jets.G**2,
            "C2": C * C, "SgC": Sg * C}


def _tangential(terms) -> set:
    """The densities whose wavenumber has an H term in ``terms``."""
    return {c for _, _, op, c, _, _ in terms if op == "H"}


def _ops(geom, grid: NodeGrid, kappa: float, tangential: bool = True) -> dict:
    """Quadrature matrices S, K and, if ``tangential``, H for one wavenumber
    on one grid, from the ``pair_geometry`` of its nodes; K and the
    tangential operator H carry the 1/G(t) factor. Times a feature Q[i, j],
    each is the dense matrix acting on node samples of the scaled density."""
    n, pin, G = grid.n, np.pi / grid.n, geom.jets.G[:, None]
    # The cached weight tables are built before the split tables: built after
    # them, they sit above the freed temporaries in glibc's heap and kept
    # about 10 MB resident after an n=128 assembly.
    R, T = log_weight_table(n), cauchy_weight_table(n)
    tab = kernel_tables(geom, kappa)
    ops = {"S": R * tab.m1 + pin * tab.m2, "K": (R * tab.k1 + pin * tab.k2) / G}
    if tangential:
        ops["H"] = (T * tab.h1 + R * tab.h2 + pin * tab.h3) / G
    return ops


def _add_times_d(block: np.ndarray, W: np.ndarray) -> None:
    """block += W @ D for the 2n x 2n differentiation matrix D = diff_matrix(n).

    D is circulant, so W @ D is a circular convolution along the rows: its
    symbol is -i m on the Fourier modes m = -n+1..n-1, and 0 on the Nyquist
    mode. O(N^2 log N) work, and no BLAS call.
    """
    N = W.shape[1]
    symbol = -1j * np.fft.fftfreq(N, 1.0 / N)
    symbol[N // 2] = 0.0
    block += np.fft.ifft(np.fft.fft(W, axis=1) * symbol, axis=1)


def assemble_system(
    curve: StarlikeCurve, params: MaterialParams, grid: NodeGrid
) -> np.ndarray:
    """Dense 6n x 6n system matrix on the given collocation grid.

    Row blocks are the three boundary equations at the 2n nodes; column
    blocks are the three scaled densities, each with its own wavenumber. The
    blocks are the sums of the rows of ``_terms``. The pair geometry is
    computed once and shared by the three wavenumbers, and each
    wavenumber's operators go into its column before the next are built.
    """
    if grid.n < 8:
        raise ValueError("grid too coarse for the singular quadrature (need n >= 8)")
    jets = jet(curve, grid.nodes)
    geom = pair_geometry(jets, grid.nodes)
    N, i = grid.size, np.arange(grid.size)
    features, terms = _features(jets), _terms(params)
    A = None
    for c, kappa in enumerate((params.kappa_p, params.kappa_s, params.kappa_a)):
        ops = _ops(geom, grid, kappa, c in _tangential(terms))
        ops["K"][i, i] += _JUMPS[c] / jets.G
        if A is None:
            # Allocated after the first operators, so that A can take the
            # memory of their freed temporaries: allocated first, it raised
            # the peak resident size of a two-body set-up at n=100 by about
            # 8% (glibc malloc).
            A = np.zeros((3 * N, 3 * N), dtype=complex)
        for e in range(3):
            block, W = A[e * N : (e + 1) * N, c * N : (c + 1) * N], None
            for _, f, op, _, through_d, coef in (t for t in terms if t[0] == e and t[3] == c):
                term = ops[op] * (coef * features[f])
                if not through_d:
                    block += term
                elif W is None:
                    W = term
                else:
                    W += term
                del term  # held through the FFT product, it raised forward-sweep's peak RSS 1.5 MB
            if W is not None:
                _add_times_d(block, W)  # the rows through D, as one product
        del ops, W  # each wavenumber's operators go before the next are built
    if not np.all(np.isfinite(A)):
        raise FloatingPointError("non-finite entries during system assembly")
    return A


def _weights(ops, x, y, terms) -> list:
    """Per equation e, the weights B_f of the features f in A x: row e of A x
    is the row sum of the sum of f o B_f, for the operators ``ops``, one dict
    of S, K, H per wavenumber. B_f is the sum of coefficient (op x_c) over the
    rows of ``terms``, with y_c = (D x)_c in place of x_c through D; a row
    whose operator ``ops`` lacks is left out. A x is linear in the operators
    and in the features, so the derivatives of the operators give the weights
    of their derivatives.
    """
    B = [{}, {}, {}]
    for e, f, op, c, through_d, coef in terms:
        if op in ops[c]:
            term = ops[c][op] * (coef * (y if through_d else x)[c])
            B[e][f] = B[e][f] + term if f in B[e] else term
    return B


def _combine(features, weights) -> np.ndarray:
    """The sum of f o B_f over the features that are in both dicts."""
    return sum(features[f] * w for f, w in weights.items() if f in features)


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
    y = _gemm(diff_matrix(n), x[:2].T).T
    G, t, nu, tau, r = jets.G, grid.nodes, jets.nu, jets.tau, geom.r

    a, b = geom.n_dot / G[:, None], geom.np_dot / G[:, None]
    rx = a * nu[:, 0, None] + b * tau[:, 0, None]   # (p_j - p_i)/r
    ry = a * nu[:, 1, None] + b * tau[:, 1, None]
    cauchy = (T * np.sin(t[None, :] - t[:, None]) - pin) / (np.pi * r)
    cauchy[lim] = 0.0
    cauchy_r = cauchy / r
    # Kress's rule on f = f1 ln(4 sin^2) + f2 is R o f1 + pin f2 = pin f + f1 o RL
    RL = R - pin * geom.logsin

    f, terms = _features(jets), _terms(params)
    C, Sg, Dr, Di = f["C"], f["Sg"], f["Dr"], f["Di"]
    lim_K = 1.0 / (2 * n * G**2)          # K's diagonal limit is Dr_ii lim_K
    ops, ops_r, ops_phi, ops_G = [], [], [], []
    for c, kappa in enumerate((params.kappa_p, params.kappa_s, params.kappa_a)):
        S, S_r, S_rr = (pin * v + v1 * RL for v, v1 in single_layer_slopes(geom, kappa))
        K = -a * S_r                               # 0 at the lim pairs, as S_r
        K[i, i] = Dr[i, i] * lim_K + _JUMPS[c] / G
        op, op_r, op_phi = {"S": S, "K": K}, {"S": S_r}, {}
        if c in _tangential(terms):
            H_phi = cauchy - S_r
            op["H"], op_phi["H"] = b * H_phi, a * H_phi
            op_r["H"] = -b * (cauchy_r + S_rr)
        op_r["K"], op_phi["K"] = -a * S_rr, b * S_r
        ops.append(op)
        ops_r.append(op_r)
        ops_phi.append(op_phi)
        # the diagonal in log G: log G in m2, n . p''/G^2 and the jump in K
        ops_G.append({"S": -1.0 / n, "K": -2.0 * Dr[i, i] * lim_K - _JUMPS[c] / G})

    f_ii = {k: v if v.ndim == 1 else v[i, i] for k, v in f.items()}
    B, B_r, B_phi = (_weights(o, x, y, terms) for o in (ops, ops_r, ops_phi))

    def diagonal(diag_ops):   # target part of the diagonal entries' derivatives
        return [_combine(f_ii, w) for w in _weights(diag_ops, x, y, terms)]

    # The derivatives of the features: in the relative rotation of the two
    # frames (dtheta_i - dtheta_j), in the target frame's rotation against
    # p''_j (dtheta_i), in log G_j and in p''_j.
    rotation = {"C": -Sg, "Sg": C, "C2": -2.0 * f["SgC"], "SgC": f["C2"] - Sg * Sg}
    target_turn = {"Dr": -Di, "Di": Dr}
    stretch = {"C": C, "Sg": Sg, "G2": 2.0 * f["G2"], "C2": 2.0 * f["C2"],
               "SgC": 2.0 * f["SgC"]}
    bend = [{"Dr": nu[:, k, None], "Di": tau[:, k, None]} for k in (0, 1)]
    diag_G = diagonal(ops_G)
    diag_theta = diagonal([{"K": -Di[i, i] * lim_K}] * 3)
    diag_bend = [diagonal([{"K": nu[:, k] * lim_K}] * 3) for k in (0, 1)]

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
        rows.append(_gemm(np.hstack(source), stacked[: len(source) * N])
                    + sum(tc[:, None] * c for tc, c in zip(target, comps)))
    return np.concatenate(rows)


def _gemm(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a @ x for a matrix a and one vector or a matrix of columns x, by the
    gemm of scipy's BLAS, the library that also runs the LU.

    a goes in as a.T with trans_a=1: for the C-ordered matrices built here
    that is an F-ordered view, so nothing is copied.
    """
    cols = x.reshape(len(x), -1)
    gemm = get_blas_funcs("gemm", (a, cols))
    return gemm(1.0, a.T, cols, trans_a=1).reshape(a.shape[:1] + x.shape[1:])


def factor_system(system: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """LU-factor a square Nystrom system once and return its checked solver.

    Warns when the reciprocal condition estimate drops below 1e-12 (an
    interior eigenvalue or a Jones-adjacent frequency can do this). The
    returned ``solve(b)`` takes one right-hand side or a matrix of them as
    columns, and raises FloatingPointError when the backward error of any
    column exceeds ``_BACKWARD_GATE`` or is not a number (a zero pivot gives
    NaN densities); unlike a relative residual it does not grow with kappa.

    The LU is that of system.T, the F-ordered view of the C-ordered matrix
    that assembly builds, so LAPACK gets it without a transposing copy; the
    solves use its transpose, and infinity norms of system.T are 1-norms of
    the system (``lange`` takes it with no N x N temporary).
    """
    lu, piv = lu_factor(system.T)
    gecon, lange = get_lapack_funcs(("gecon", "lange"), (system,))
    rcond, _ = gecon(lu, norm := lange("I", system.T), norm="I")
    if rcond < _COND_WARN_RCOND:
        warnings.warn(
            f"system is nearly singular (rcond ~ {rcond:.2e}); "
            "possible interior eigenvalue or Jones-adjacent frequency",
            RuntimeWarning,
        )

    def solve(b: np.ndarray) -> np.ndarray:
        x = lu_solve((lu, piv), b, trans=1)
        scale = norm * np.abs(x).sum(axis=0) + np.abs(b).sum(axis=0)
        eta = np.max(np.abs(_gemm(system, x) - b).sum(axis=0)
                     / np.where(scale > 0, scale, 1.0))
        if not eta <= _BACKWARD_GATE:  # a NaN residual fails the gate too
            raise FloatingPointError(f"linear solve residual too large: {eta:.2e}")
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
    vals = _gemm(far_field_matrix(curve, params, obs_angles, grid), densities.phi3_tilde)
    return FarField(angles=obs_angles, values=vals)


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
    ops = _ops(geom, grid, kappa)
    Smat, Kmat, Hmat = (0.5 * ops[k] for k in "SKH")
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
