"""Single-obstacle forward solver.

Assembles the 6n x 6n Nystrom system for the three coupled boundary
densities (compressional potential, shear potential, exterior acoustic
field), solves it directly, and evaluates far and near fields. Also
provides numerical verification of the layer-potential jump relations and
of the boundary conditions on a shifted collocation grid.

The unknowns are the scaled densities phi_tilde = (g o p) / G, which keeps
third derivatives of the radial function out of the kernels.

The system is stated once, as the term table ``_terms`` and the jump signs
``_JUMPS``, and its operators are built once per curve, by ``_ops`` on the
wavenumber-free ``_shared_tables``, and kept in a Newton step's
``Discretization``. One loop (``_fill_system``) sums the rows into blocks
(``_fill_column``); one routine (``_block_sensitivity``) differentiates the
sums against x and D x, contracted with the node motion, for the self block
in ``system_sensitivity`` and for ``multibody``'s cross blocks.

No numpy product on the solve path is large enough for OpenBLAS to run it
on threads (gemm with m n k > 262144, gemv with m n > 9216). numpy and
scipy each load their own OpenBLAS, and the threads of each busy-wait for
about 0.1 s after a threaded call, so a threaded numpy product made just
before scipy's LU takes a core from it: on 2 cores a 768-row LU took 48 ms
after such a product, 28-31 ms after a scipy product or alone. A Newton
step therefore applies D only by FFT (``_times_d``), and the products next
to the LU (the backward error, the far field and its phase, the shape
derivative) go through ``_gemm``, the gemm of scipy's BLAS. The (N x 2) @
(2 x N) frame products and the gemv of the right-hand side stay in numpy:
they run on one thread while m n <= 131072.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple

import numpy as np
from scipy.linalg import get_blas_funcs, get_lapack_funcs, lu_factor, lu_solve

from .geometry import BoundaryMotion, CurveJet, NodeGrid, StarlikeCurve, jet, translate
from .kernels import (
    PairGeometry,
    grad_phi,
    hess_phi,
    k_limit,
    kernel_tables,
    pair_geometry,
    phi,
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
    "Discretization",
    "discretize",
    "assemble_system",
    "system_sensitivity",
    "factor_system",
    "solve_densities",
    "solve_forward",
    "far_field_matrix",
    "far_field",
    "translation_errors",
    "near_field",
    "NearField",
    "jump_check",
    "boundary_residual",
]

_COND_WARN_RCOND = 1e-12
_BACKWARD_GATE = 1e-14  # of ||Ax - b|| / (||A|| ||x|| + ||b||), 1-norms; LU gives ~1e-16
_NEAR_FIELD_CLEARANCE = 1e-3
# jump_check: distances h off the boundary, grid of the limits, target nodes
_JUMP_H, _JUMP_N, _JUMP_TARGETS = (1e-2, 5e-3, 2.5e-3, 1.25e-3), 64, (0, 17, 51, 90)


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

    def __post_init__(self):  # written so that a NaN fails each check
        if not (self.mu > 0.0 and self.lam + self.mu > 0.0):
            raise ValueError("need mu > 0 and lam + mu > 0")
        if not all(v > 0.0 for v in (self.rho_e, self.rho_a, self.omega, self.c)):
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

    @property
    def kappas(self) -> tuple[float, float, float]:
        """(kappa_p, kappa_s, kappa_a), the order of the three densities."""
        return self.kappa_p, self.kappa_s, self.kappa_a

    @staticmethod
    def default() -> "MaterialParams":
        """Configuration used throughout the numerical experiments."""
        return MaterialParams(lam=3.88, mu=2.56)


@dataclass(frozen=True)
class IncidentWave:
    """Plane wave exp(i kappa_a x . d) with direction d = (cos theta, sin theta)."""

    theta: float

    def __post_init__(self):  # one real number: a bool, list, string or None is not
        if not (isinstance(self.theta, numbers.Real) and not isinstance(self.theta, bool)
                and np.isfinite(self.theta)):
            raise ValueError("incidence angle theta must be one finite real number")

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
        if not np.all(np.isfinite(self.angles)):
            raise ValueError("far-field angles must be finite")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("far-field values must be finite")


def rhs_plane_wave(jets: CurveJet, params: MaterialParams, wave: IncidentWave) -> tuple:
    """Right-hand sides (w1, w2, w3) of the discretized system at the nodes
    of the node jet ``jets``.

    w1 = -2 u_inc on the boundary, w2 = 0, and w3 carries the normal
    derivative of the incident wave scaled by 1/(omega^2 rho_a).
    """
    d = wave.direction
    uinc = np.exp(1j * params.kappa_a * (jets.p @ d))
    w3 = 2j * params.kappa_a * (jets.nu @ d) * uinc / (params.omega**2 * params.rho_a)
    return -2.0 * uinc, np.zeros_like(uinc), w3


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


# Per wavenumber (``MaterialParams.kappas``): the jump +-1/G of K on the diagonal
# (the diagonal terms and the identities next to D), and whether a row reads its H.
_JUMPS, _TANGENTIAL = (1.0, 1.0, -1.0), (True, True, False)


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


def _features(jets, source=None) -> dict:
    """The frame features of the system, [target i, source j]: C = nu_i . n_j,
    Sg = tau_i . n_j, Dr = nu_i . p''_j, Di = tau_i . p''_j, G2 = G_j^2,
    C2 = C^2 and SgC = Sg C. They cover every frame product of the
    equations: tau_i . n_perp_j = C, nu_i . n_perp_j = -Sg,
    nu_i . n_perp'_j = -tau_i . n'_j = Dr and nu_i . n'_j = tau_i . n_perp'_j = Di.
    The sources are the nodes of ``source``, by default those of ``jets``.
    """
    src = jets if source is None else source
    C, Sg = jets.nu @ src.n.T, jets.tau @ src.n.T
    Dr, Di = jets.nu @ src.ddp.T, jets.tau @ src.ddp.T
    return {"C": C, "Sg": Sg, "Dr": Dr, "Di": Di, "G2": src.G**2,
            "C2": C * C, "SgC": Sg * C}


def _shared_tables(geom, grid: NodeGrid) -> tuple[np.ndarray, np.ndarray]:
    """The tables of ``_ops`` on ``geom`` that have no wavenumber: Kress's
    RL = R - (pi/n) logsin and the Cauchy part Q = (T o sin(ς_j - t_i) - pi/n)/(pi r)."""
    pin, t = np.pi / grid.n, grid.nodes
    # uncached, as each Newton iterate may take a grid of its own
    R, T = log_weight_table.__wrapped__(grid.n), cauchy_weight_table.__wrapped__(grid.n)
    RL = pin * geom.logsin
    np.subtract(R, RL, out=RL)
    Q = np.sin(t[None, :] - t[:, None])
    Q *= T
    Q -= pin
    Q /= np.pi * geom.r  # finite at the lim pairs, where a = b = 0
    return RL, Q


def _ops(geom, grid: NodeGrid, kappa: float, tables, jump, tangential) -> dict:
    """The one operator builder: quadrature matrices for one wavenumber on
    one grid, from the ``pair_geometry`` of its nodes, the single-layer
    tables and the ``tables`` (RL, Q) of ``_shared_tables``: S, its
    r-derivative S_r, K = -a o S_r with K's diagonal limit plus jump/G, Q
    and, if ``tangential``, H = b o (Q - S_r). The chord's unit-frame
    components a, b carry the 1/G of K and H. Times a frame feature, S, K
    and H act on node samples of the scaled density."""
    pin, lim = np.pi / grid.n, geom.lim
    RL, Q = tables
    tab = kernel_tables(geom, kappa)
    # Kress's rule on f = f1 ln(4 sin^2) + f2 is R o f1 + pin f2 = pin f + f1 o RL
    S, S_r = tab.f, tab.f_r   # built in the tables' memory
    for v, v1 in ((S, tab.f1), (S_r, tab.f1_r)):
        v *= pin
        v1 *= RL
        v += v1
    del tab
    K = -geom.a * S_r
    K[lim] = pin * k_limit(geom) / geom.jets.G[lim[0]]
    K[np.diag_indices(grid.size)] += jump / geom.jets.G
    ops = {"S": S, "S_r": S_r, "K": K, "Q": Q}
    if tangential:
        ops["H"] = Q - S_r
        ops["H"] *= geom.b
    return ops


def _times_d(W: np.ndarray) -> np.ndarray:
    """W @ D for the 2n x 2n differentiation matrix D = diff_matrix(n).

    D is circulant, so W @ D is a circular convolution along the rows: its
    symbol is -i m on the Fourier modes m = -n+1..n-1, and 0 on the Nyquist
    mode. O(N^2 log N) work, and no BLAS call. D is skew, so the densities
    x (one per row) have D x = ``_times_d(-x)``.
    """
    N = W.shape[1]
    symbol = -1j * np.fft.fftfreq(N, 1.0 / N)
    symbol[N // 2] = 0.0
    return np.fft.ifft(np.fft.fft(W, axis=1) * symbol, axis=1)


def _fill_column(A: np.ndarray, c: int, ops: dict, features: dict, terms) -> None:
    """Add the rows of ``terms`` with density c to A, 3N_t x 3N_s: block
    (e, c) gains coefficient (feature o op) for each row of equation e, with
    the rows through D summed first and applied to D as one product. ``ops``
    holds the S, K and H of density c's wavenumber, [target, source], and D
    is the differentiation matrix of the source grid."""
    Nt, Ns = A.shape[0] // 3, A.shape[1] // 3
    for e in range(3):
        block, W = A[e * Nt : (e + 1) * Nt, c * Ns : (c + 1) * Ns], None
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
            block += _times_d(W)  # the rows through D, as one product


class Discretization(NamedTuple):
    """One curve on one grid, evaluated once (3.7 MB at n = 64): the grid,
    the ``pair_geometry`` of its nodes (``geom.jets``, the node jet) and, per
    density, the ``_ops`` of its wavenumber with K's jump. Read, not changed,
    by a Newton step's system, shape derivative, right-hand side and far field."""

    grid: NodeGrid
    geom: PairGeometry
    ops: tuple


def _density_ops(geom, grid: NodeGrid, params: MaterialParams):
    """Each density's ``_ops`` in turn, at its wavenumber with its jump, on
    one ``_shared_tables``, made before the first."""
    if grid.n < 8:
        raise ValueError("grid too coarse for the singular quadrature (need n >= 8)")
    tables = _shared_tables(geom, grid)
    for kappa, jump, tangential in zip(params.kappas, _JUMPS, _TANGENTIAL):
        yield _ops(geom, grid, kappa, tables, jump, tangential)


def discretize(curve: StarlikeCurve, params: MaterialParams, grid: NodeGrid) -> Discretization:
    """The ``Discretization`` of ``curve`` on ``grid``."""
    geom = pair_geometry(jet(curve, grid.nodes), grid.nodes)
    return Discretization(grid, geom, tuple(_density_ops(geom, grid, params)))


def _fill_system(jets: CurveJet, ops: Iterable[dict], params: MaterialParams,
                 source: CurveJet | None = None) -> np.ndarray:
    """The 3N_t x 3N_s block, self or cross, with targets at the nodes of
    ``jets`` and sources at those of ``source`` (by default the same), from
    ``ops``, the three densities' operators in order. Each is let go before
    the next is taken, so a generator's are freed one by one (enumerate's
    tuple would hold them)."""
    terms, A, c = _terms(params), None, 0
    for op in ops:
        if A is None:
            # Allocated after the first operators, so that A can take the
            # memory of their freed temporaries: allocated first, it raised
            # the peak resident size of a two-body set-up at n=100 by about
            # 8% (glibc malloc). The features follow for the same reason.
            A = np.zeros((3 * len(jets.G), 3 * op["S"].shape[1]), dtype=complex)
            features = _features(jets, source)
        _fill_column(A, c, op, features, terms)
        c += 1
        del op
    if not np.all(np.isfinite(A)):
        raise FloatingPointError("non-finite entries during system assembly")
    return A


def assemble_system(curve: StarlikeCurve, params: MaterialParams, grid: NodeGrid) -> np.ndarray:
    """Dense 6n x 6n system matrix on the given collocation grid.

    Row blocks are the three boundary equations at the 2n nodes; column
    blocks are the three scaled densities, each with its own wavenumber. The
    blocks are the sums of the rows of ``_terms``, from one pair geometry and
    one ``_shared_tables``. Each wavenumber's operators go into its column
    before the next are built; a ``Discretization`` keeps them instead.
    """
    geom = pair_geometry(jet(curve, grid.nodes), grid.nodes)
    return _fill_system(geom.jets, _density_ops(geom, grid, params), params)


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


def _derivative_ops(op: dict, kappa: float, r, a, b) -> tuple[dict, dict]:
    """The r- and phi-derivatives of one wavenumber's S, K = -a o S_r and,
    if ``op`` has it, H = b o (Q - S_r), from the S, S_r and Cauchy part Q
    (0 if ``op`` has none) of ``op``: S_rr = -kappa^2 S - S_r/r by the
    radial Helmholtz equation, and Q goes as 1/r."""
    S_r, Q = op["S_r"], op.get("Q", 0.0)
    S_rr = -kappa**2 * op["S"] - S_r / r   # a = b = 0 at the lim pairs
    d_r, d_phi = {"S": S_r, "K": -a * S_rr}, {"K": b * S_r}
    if "H" in op:
        d_r["H"], d_phi["H"] = -b * (Q / r + S_rr), a * (Q - S_r)
    return d_r, d_phi


def _motion_columns(motion: BoundaryMotion, G: np.ndarray) -> tuple:
    """The motion of nodes with Jacobian G as the six N x P columns that the
    shape derivative weighs: (dp_x, dp_y, dG/G, dtheta, dp''_x, dp''_y)."""
    dp, ddp = motion.dp, motion.dp_second
    return dp[:, 0], dp[:, 1], motion.dG / G[:, None], motion.dtheta, ddp[:, 0], ddp[:, 1]


def _block_sensitivity(f: dict, targets: CurveJet, r, a, b, ops, params: MaterialParams, x,
                       source, target) -> np.ndarray:
    """d(A x), 3N_t x P, of one block, self or cross, off its diagonal, for
    fixed source densities x: from its features f, target jet and chords r,
    a, b, [target i, source j], and the three densities' operators ``ops``
    (with the Cauchy part Q where they have one), with D x by FFT. ``source``
    and ``target`` are the ``_motion_columns`` of the source and target
    nodes; a side that does not move is None, and its part is not formed.

    A x is linear in the operators, so the ``_weights`` B, B_r and B_phi of
    the operators and of their r- and phi-derivatives (``_derivative_ops``,
    let go once weighed) give the derivative. The features move with the
    relative rotation of the frames (dtheta_i - dtheta_j), the target frame
    against p''_j (dtheta_i), log G_j and p''_j. The source part moves with
    node j, one product with its motion per equation, a part that is zero
    dropped with its column; the target part moves with node i, row sums
    times (dp_x, dp_y, dtheta) of node i."""
    x = np.reshape(x, (3, -1))
    y, terms = _times_d(-x[:2]), _terms(params)
    ops_r, ops_phi = zip(*(_derivative_ops(op, kappa, r, a, b)
                           for op, kappa in zip(ops, params.kappas)))
    B, B_r, B_phi = [_weights(o, x, y, terms) for o in (ops, ops_r, ops_phi)]
    del ops_r, ops_phi
    nu, tau = targets.nu, targets.tau
    rx = a * nu[:, 0, None] + b * tau[:, 0, None]   # (p_j - p_i)/r
    ry = a * nu[:, 1, None] + b * tau[:, 1, None]
    C, Sg, Dr, Di = f["C"], f["Sg"], f["Dr"], f["Di"]
    rotation = {"C": -Sg, "Sg": C, "C2": -2.0 * f["SgC"], "SgC": f["C2"] - Sg * Sg}
    target_turn = {"Dr": -Di, "Di": Dr}
    stretch = {"C": C, "Sg": Sg, "G2": 2.0 * f["G2"], "C2": 2.0 * f["C2"],
               "SgC": 2.0 * f["SgC"]}
    bend = [{"Dr": nu[:, k, None], "Di": tau[:, k, None]} for k in (0, 1)]
    rows = []
    for e in range(3):
        U, V = _combine(f, B_r[e]), _combine(f, B_phi[e])
        W_rot = _combine(rotation, B[e])
        Gx = U * rx - V * ry / r
        Gy = U * ry + V * rx / r
        row = []
        if source is not None:
            parts = (Gx, Gy, _combine(stretch, B[e]), -W_rot,
                     _combine(bend[0], B[e]), _combine(bend[1], B[e]))
            kept = [(part, m) for part, m in zip(parts, source) if np.ndim(part)]
            row.append(_gemm(np.hstack([part for part, _ in kept]),
                             np.concatenate([m for _, m in kept])))
        if target is not None:
            turn = (V + W_rot + _combine(target_turn, B[e])).sum(axis=1)
            row.append(-Gx.sum(axis=1)[:, None] * target[0] - Gy.sum(axis=1)[:, None] * target[1]
                       + turn[:, None] * target[3])
        rows.append(sum(row[1:], row[0]))
    return np.concatenate(rows)


def system_sensitivity(
    disc: Discretization,
    params: MaterialParams,
    x: np.ndarray,
    motion: BoundaryMotion,
) -> np.ndarray:
    """Derivative d(A x), 6n x P, of the system matrix of ``disc`` applied to
    fixed densities x, when the nodes move by ``motion`` (P parameters).

    A depends on the shape only through the node jet (p, p', p''): through
    r = |p_j - p_i| and the angle phi of p_j - p_i in the target's frame, the
    frame products, G_j^2, and the diagonal limits of m2 (log G) and of k2
    (n . p''/G^2); the weight tables, the log factor and D do not move.
    With a = nu_i . (p_j - p_i)/r and b = tau_i . (p_j - p_i)/r, the
    operators of one wavenumber are S, K = -a S_r and H = b (Q - S_r) off
    the diagonal, the ``ops`` of ``disc`` (read, not changed);
    ``_derivative_ops`` gives their r- and phi-derivatives from the same H0
    and H1 values.

    Each (W o a) @ D x is taken as (W o a) @ (D x). The off-diagonal part is
    ``_block_sensitivity`` with the nodes as both sources and targets; the
    diagonal limits add row weights times the motion of node i. A depends
    on the positions only through p_j - p_i, so the mean node velocity is
    dropped: a translation gives exactly zero.
    """
    grid, geom, ops = disc
    jets, N, n, i = geom.jets, grid.size, grid.n, np.arange(grid.size)
    x, G = np.reshape(x, (3, N)), jets.G
    f, y, terms = _features(jets), _times_d(-x[:2]), _terms(params)
    cols = _motion_columns(motion._replace(dp=motion.dp - motion.dp.mean(axis=0)), G)
    dAx = _block_sensitivity(f, jets, geom.r, geom.a, geom.b, ops, params, x, cols, cols)
    f_ii = {k: v if v.ndim == 1 else v[i, i] for k, v in f.items()}
    # K's diagonal limit, (pi/n) k_limit/G, is Dr_ii lim_K; its derivatives
    # in log G, theta and p'' below are those of Dr_ii lim_K
    lim_K = 1.0 / (2 * n * G**2)
    # per motion column (dG/G, dtheta, dp''_x, dp''_y), the diagonal's
    # operators; in log G: log G in m2, n . p''/G^2 and the jump in K
    diag_ops = ([{"S": -1.0 / n, "K": -2.0 * f_ii["Dr"] * lim_K - jump / G} for jump in _JUMPS],
                [{"K": -f_ii["Di"] * lim_K}] * 3,
                *([{"K": jets.nu[:, k] * lim_K}] * 3 for k in (0, 1)))
    rows = dAx.reshape(3, N, -1)   # a view: the diagonal adds to each equation's rows
    for d_ops, col in zip(diag_ops, cols[2:]):
        diag = [_combine(f_ii, w) for w in _weights(d_ops, x, y, terms)]
        rows += np.array(diag)[:, :, None] * col
    return dAx


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
    NaN densities, as does a non-finite entry of the system, which
    ``_fill_system`` alone scans for, so LAPACK is not asked to check); unlike
    a relative residual it does not grow with kappa.

    The LU is that of system.T, the F-ordered view of the C-ordered matrix
    that assembly builds, so LAPACK gets it without a transposing copy; the
    solves use its transpose. The 1-norm is numpy's: it sums in ``lange``'s
    order, in about a quarter of its time, on an N x N real temporary that
    is freed before the LU's copy of the matrix is made.
    """
    norm = np.abs(system).sum(axis=0).max()
    lu, piv = lu_factor(system.T, check_finite=False)
    rcond, _ = get_lapack_funcs("gecon", (system,))(lu, norm, norm="I")
    if rcond < _COND_WARN_RCOND:
        warnings.warn(
            f"system is nearly singular (rcond ~ {rcond:.2e}); "
            "possible interior eigenvalue or Jones-adjacent frequency",
            RuntimeWarning,
        )

    def solve(b: np.ndarray) -> np.ndarray:
        x = lu_solve((lu, piv), b, trans=1, check_finite=False)
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
    return DensitySet(*np.split(factor_system(system)(b), 3))


def solve_forward(
    curve: StarlikeCurve,
    params: MaterialParams,
    wave: IncidentWave,
    grid: NodeGrid,
) -> DensitySet:
    """Assemble and solve in one step."""
    A = assemble_system(curve, params, grid)
    return solve_densities(A, rhs_plane_wave(jet(curve, grid.nodes), params, wave))


def far_field_matrix(jets: CurveJet, params: MaterialParams, obs_angles):
    """Trapezoid-rule matrix taking the scaled acoustic density at the N
    equispaced nodes of the node jet ``jets`` (weight 2 pi / N) to the far
    field at the observation angles, an array."""
    ka = params.kappa_a
    xhat = np.stack([np.cos(obs_angles), np.sin(obs_angles)])
    # cos + i sin of the real phase: np.exp of the imaginary array gives
    # the same values at several times the cost
    arg = _gemm(jets.p, -ka * xhat).T   # C-ordered, as F's products expect
    phase = np.cos(arg) + 1j * np.sin(arg)
    return phase * (gamma_far(ka) * (2.0 * np.pi / len(jets.G)) * jets.G**2)


def far_field(
    densities: DensitySet,
    curve: StarlikeCurve,
    params: MaterialParams,
    obs_angles,
    grid: NodeGrid,
) -> FarField:
    """Far-field pattern by the trapezoidal rule from the acoustic density solved on ``grid``."""
    obs_angles = np.atleast_1d(np.asarray(obs_angles, dtype=float))
    F = far_field_matrix(jet(curve, grid.nodes), params, obs_angles)
    return FarField(angles=obs_angles, values=_gemm(F, densities.phi3_tilde))


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
    grid: NodeGrid,
) -> NearField:
    """Potentials and elastic displacement at a point off the boundary.

    ``grid`` is the grid the densities were solved on. Plain trapezoid on
    the smooth integrands; accuracy degrades when x approaches the
    boundary, so points closer than 1e-3 are rejected. The displacement is
    grad(phi) + curl(psi), differentiated under the integral sign.
    """
    x = np.asarray(x, dtype=float).reshape(2)
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

def jump_check(curve: StarlikeCurve, params: MaterialParams,
               density: Callable[[np.ndarray], np.ndarray]) -> dict:
    """Compare one-sided derivatives of the single-layer potential of
    ``density`` (at kappa_p) to their limit formulas.

    For each h the gradient and the Hessian contracted with nu are
    evaluated at x +- h nu by a dense trapezoid rule, on one node set per h
    sized to the near-singularity, and compared to the one-sided limits
    computed with the singular node quadrature (``grad`` and
    ``traction_grad``). Errors should decay like h log h. In 2D the curl of
    a potential is its gradient turned by 90 degrees, so the curl relations
    of the shear potential are these two turned and need no check of their own.
    """
    kappa, grid, T = params.kappa_p, NodeGrid(_JUMP_N), list(_JUMP_TARGETS)
    jets = jet(curve, grid.nodes)
    geom = pair_geometry(jets, grid.nodes)
    # The factor 1/2 turns the doubled boundary operators into plain
    # boundary integrals of theta = G * g; only the targets' rows are needed.
    ops = _ops(geom, grid, kappa, _shared_tables(geom, grid), 0.0, True)
    S, K, H = (0.5 * ops[k][T] for k in "SKH")
    D = diff_matrix(_JUMP_N)
    g = density(grid.nodes)
    theta = jets.G * g
    # Tangential derivatives of g nu and g tau along the curve.
    dgnu = (D @ (g[:, None] * jets.nu)) / jets.G[:, None]
    dgtau = (D @ (g[:, None] * jets.tau)) / jets.G[:, None]
    # The direct values at the targets, the means of the two one-sided limits.
    x, nu = jets.p[T], jets.nu[T]
    grad_lim = (K @ theta)[:, None] * nu + (H @ theta)[:, None] * jets.tau[T]
    hess_lim = (-kappa**2 * (S * (nu @ jets.nu.T) * theta) @ jets.nu
                - H @ (jets.G[:, None] * dgnu) + K @ (jets.G[:, None] * dgtau))

    report = {name: {"h": list(_JUMP_H), "plus": [], "minus": []}
              for name in ("grad", "traction_grad")}
    for h in _JUMP_H:
        N = int(min(2 ** 17, max(4096, 2 ** int(np.ceil(np.log2(60.0 / h))))))
        s = 2.0 * np.pi * np.arange(N) / N
        dense = jet(curve, s)
        weights = density(s) * dense.G

        def offside(xe, kernel):   # trapezoid sum of kernel(xe, y) g(y) ds(y)
            return (2.0 * np.pi / N) * np.einsum("j...,j->...", kernel(xe, dense.p, kappa), weights)

        for sign, key in ((+1.0, "plus"), (-1.0, "minus")):
            xe = x + sign * h * nu
            grad = np.array([offside(xe_i, grad_phi) for xe_i in xe])
            hess = np.array([offside(xe_i, hess_phi) @ nu_i for xe_i, nu_i in zip(xe, nu)])
            grad_err = grad - (grad_lim - sign * 0.5 * nu * g[T, None])
            hess_err = hess - (hess_lim - sign * 0.5 * dgtau[T])
            report["grad"][key].append(np.linalg.norm(grad_err, axis=1).max())
            report["traction_grad"][key].append(np.linalg.norm(hess_err, axis=1).max())

    for entry in report.values():
        seq = np.maximum(entry["plus"], entry["minus"])
        entry["monotone"] = bool(np.all(np.diff(seq) < 0.0))
    return report


def translation_errors(curve: StarlikeCurve, h, params: MaterialParams, wave: IncidentWave,
                       grid: NodeGrid, obs_angles) -> tuple[float, float]:
    """Max deviations of the far field of ``curve`` shifted by h from the
    unshifted one times exp(i kappa_a (d - x^) . h), and in modulus; both on ``grid``."""
    ff, ff_h = (far_field(solve_forward(c, params, wave, grid), c, params, obs_angles, grid).values
                for c in (curve, translate(curve, h)))
    xhat = np.column_stack([np.cos(obs_angles), np.sin(obs_angles)])
    factor = np.exp(1j * params.kappa_a * (wave.direction - xhat) @ np.asarray(h, dtype=float))
    return float(np.abs(ff_h - factor * ff).max()), float(np.abs(np.abs(ff_h) - np.abs(ff)).max())


def boundary_residual(
    densities: DensitySet,
    curve: StarlikeCurve,
    params: MaterialParams,
    wave: IncidentWave,
    grid: NodeGrid,
) -> np.ndarray:
    """Max-norm residuals of the three boundary equations at offset nodes.

    The solved densities are trigonometrically interpolated from ``grid``,
    the grid they were solved on, onto a grid shifted by half a node
    spacing, the system is re-assembled there (the Cauchy rule needs
    on-grid targets, so collocation moves with the nodes), and the residual
    against the incident-wave data is measured.
    """
    shifted = NodeGrid(grid.n, offset=grid.offset + 0.5 * np.pi / grid.n)
    P = lagrange_basis_matrix(grid.n, shifted.nodes - grid.offset)
    x = np.concatenate(
        [P @ densities.phi1_tilde, P @ densities.phi2_tilde, P @ densities.phi3_tilde]
    )
    A = assemble_system(curve, params, shifted)
    b = np.concatenate(rhs_plane_wave(jet(curve, shifted.nodes), params, wave))
    return np.abs(A @ x - b).reshape(3, shifted.size).max(axis=1)
