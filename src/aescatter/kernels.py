"""Fundamental solution of the 2D Helmholtz equation and kernel splittings.

The parametrized layer kernels are split into a smooth factor times the
periodic log singularity ln(4 sin^2((t-ς)/2)) (plus, for the tangential
kernel, a 1/sin(ς-t) Cauchy factor) and an analytic remainder, so each
piece can be integrated by the matching quadrature rule. The diagonal
limits of all split parts are closed-form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import CurveJet, StarlikeCurve, jet
from .specfun import (
    EULER_GAMMA,
    hankel1_0,
    hankel1_1,
)

__all__ = [
    "phi",
    "grad_phi",
    "hess_phi",
    "split_m",
    "split_k",
    "split_h",
    "KernelTables",
    "PairGeometry",
    "pair_geometry",
    "kernel_tables",
    "single_layer_slopes",
]

# Below this parameter separation the splits subtract two diverging terms;
# switch to the closed-form diagonal limit instead.
_DIAGONAL_SWITCH = 1e-6


def phi(x, y, kappa: float):
    """Fundamental solution (i/4) H0^(1)(kappa |x - y|); x, y may be batched."""
    if kappa <= 0.0:
        raise ValueError("kappa must be positive")
    r = np.linalg.norm(np.asarray(x, dtype=float) - np.asarray(y, dtype=float), axis=-1)
    if np.any(r == 0.0):
        raise ValueError("phi is singular at coincident points")
    return 0.25j * hankel1_0(kappa * r)


def grad_phi(x, y, kappa: float):
    """Gradient of phi in x: -(i kappa / 4) H1^(1)(kappa r) (x - y)/r."""
    d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    r = np.linalg.norm(d, axis=-1)
    if np.any(r == 0.0):
        raise ValueError("grad_phi is singular at coincident points")
    return -0.25j * kappa * (hankel1_1(kappa * r) / r)[..., None] * d


def hess_phi(x, y, kappa: float):
    """Hessian of phi in x, in closed form.

    H = -(i kappa/4) [kappa H1'(kappa r) rr^T + H1(kappa r)(I - rr^T)/r]
    with H1'(z) = H0(z) - H1(z)/z and the unit vector r = (x-y)/|x-y|.
    Pointwise reference for ``forward.jump_check`` only; assembly and the
    cross-body blocks (``multibody._radial_parts``) do not call it.
    """
    d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    r = np.linalg.norm(d, axis=-1)
    if np.any(r == 0.0):
        raise ValueError("hess_phi is singular at coincident points")
    rhat = d / r[..., None]
    outer = rhat[..., :, None] * rhat[..., None, :]
    eye = np.eye(2)
    z = kappa * r
    h1 = hankel1_1(z)
    dh1 = hankel1_0(z) - h1 / z
    rad = (kappa * dh1)[..., None, None] * outer
    tan = (h1 / r)[..., None, None] * (eye - outer)
    return -0.25j * kappa * (rad + tan)


@dataclass(frozen=True)
class KernelTables:
    """All split-kernel matrices for a set of pairs, indexed [target, source],
    or, from :func:`split_m`, the split parts of one pair (t, ς) as scalars:

    M = m1 ln(4 sin^2((t-ς)/2)) + m2, K = k1 ln(...) + k2 and
    H = h1 / sin(ς-t) + h2 ln(...) + h3.
    """

    m1: np.ndarray
    m2: np.ndarray
    k1: np.ndarray
    k2: np.ndarray
    h1: np.ndarray
    h2: np.ndarray
    h3: np.ndarray


@dataclass(frozen=True)
class PairGeometry:
    """Wavenumber-independent split data at all pairs (t_i, ς_j), [target, source].

    ``lim`` indexes the (symmetric) pairs with |t_i - ς_j| mod 2pi below
    ``_DIAGONAL_SWITCH``, where every part takes its closed-form limit. The
    distance r = |p_j - p_i| is 1 at the ``lim`` pairs and exactly symmetric
    (p_j - p_i = -(p_i - p_j) in floating point), so the Hankel functions
    are evaluated at the strict upper-triangle flat indices ``upper`` only
    and copied to the mirrored ``lower`` ones. ``n_dot``, ``np_dot`` are
    n(t_i) . (p_j - p_i) / r and the same with n_perp; h1 has no wavenumber.
    """

    jets: CurveJet
    lim: tuple[np.ndarray, np.ndarray]
    upper: np.ndarray
    lower: np.ndarray
    r: np.ndarray
    logsin: np.ndarray
    n_dot: np.ndarray
    np_dot: np.ndarray
    h1_over_sin: np.ndarray
    h1: np.ndarray


def pair_geometry(jets: CurveJet, t) -> PairGeometry:
    """Pair geometry of the parameters ``t``; ``jets`` holds the curve at t."""
    t = np.asarray(t, dtype=float)
    idx = np.arange(len(t))
    dx = jets.p[None, :, 0] - jets.p[:, None, 0]      # p(ς_j) - p(t_i)
    dy = jets.p[None, :, 1] - jets.p[:, None, 1]
    dt = t[:, None] - t[None, :]
    diag = np.abs((dt + np.pi) % (2.0 * np.pi) - np.pi) < _DIAGONAL_SWITCH
    diag |= diag.T
    r = np.where(diag, 1.0, np.hypot(dx, dy))
    iu, ju = np.nonzero(idx[:, None] < idx)
    upper, lower = iu * len(t) + ju, ju * len(t) + iu

    logsin = np.log(4.0 * np.sin(dt / 2.0) ** 2 + diag)  # 0 at the lim pairs
    n_dot = (jets.n[:, 0, None] * dx + jets.n[:, 1, None] * dy) / r
    np_dot = (jets.n_perp[:, 0, None] * dx + jets.n_perp[:, 1, None] * dy) / r
    h1_over_sin = np_dot / (np.pi * r)
    h1 = h1_over_sin * np.sin(-dt)
    lim = np.nonzero(diag)
    h1[lim] = 1.0 / np.pi
    return PairGeometry(
        jets=jets, lim=lim, upper=upper, lower=lower, r=r,
        logsin=logsin, n_dot=n_dot, np_dot=np_dot, h1_over_sin=h1_over_sin, h1=h1,
    )


def _hankel_pair(geom: PairGeometry, kappa: float):
    """H0 and H1 of kappa r at all pairs of ``geom``, each evaluated once on
    the strict upper triangle and mirrored; 0 on the diagonal, where the
    callers put the closed-form limits."""
    z = kappa * geom.r.ravel()[geom.upper]
    h0, h1 = np.zeros((2,) + geom.r.shape, dtype=complex)
    for full, hankel in ((h0, hankel1_0), (h1, hankel1_1)):
        flat = full.reshape(-1)
        flat[geom.upper] = flat[geom.lower] = hankel(z)
    return h0, h1


def _m2_limit(geom: PairGeometry, kappa: float) -> np.ndarray:
    """The diagonal limit of m2 at the ``lim`` pairs: it depends on the shape
    through G(t_i) only."""
    G = geom.jets.G[geom.lim[0]]
    return 0.5j - EULER_GAMMA / np.pi - np.log(0.5 * kappa * G) / np.pi


def kernel_tables(geom: PairGeometry, kappa: float) -> KernelTables:
    """Every split part at all pairs of ``geom`` (from :func:`pair_geometry`)
    for one wavenumber; the only code that evaluates the kernel splits for
    assembly.

    J0, J1 are the real parts of H0, H1 (:func:`_hankel_pair`). The ``lim``
    pairs get the closed-form diagonal limits at the target t_i; 1/sin(ς-t)
    is never formed near its zeros (the ratio h1/sin is evaluated directly,
    which is smooth there).
    """
    h0, h1b = _hankel_pair(geom, kappa)
    j0, j1b = h0.real, h1b.real                        # J_m = Re H_m^(1), exactly
    logsin = geom.logsin

    m1 = j0 * (-1.0 / (2.0 * np.pi))
    m2 = 0.5j * h0 - m1 * logsin
    k1 = (-kappa / (2.0 * np.pi)) * geom.n_dot * j1b
    k2 = (0.5j * kappa) * geom.n_dot * h1b - k1 * logsin
    h2 = (-kappa / (2.0 * np.pi)) * geom.np_dot * j1b
    h3 = (0.5j * kappa) * geom.np_dot * h1b - geom.h1_over_sin - h2 * logsin

    lim, rows, jets = geom.lim, geom.lim[0], geom.jets
    G, n_ddp = jets.G[rows], np.einsum("ik,ik->i", jets.n[rows], jets.ddp[rows])
    m1[lim] = -1.0 / (2.0 * np.pi)
    m2[lim] = _m2_limit(geom, kappa)
    k2[lim] = n_ddp / (2.0 * np.pi * G**2)
    k1[lim] = h2[lim] = h3[lim] = 0.0
    return KernelTables(m1=m1, m2=m2, k1=k1, k2=k2, h1=geom.h1, h2=h2, h3=h3)


def single_layer_slopes(geom: PairGeometry, kappa: float):
    """The single-layer kernel f = (i/2) H0(kappa r) and its first two
    derivatives in r = |p(ς_j) - p(t_i)| at fixed parameters, each with the
    factor f1 of its log singularity: three (f, f1) pairs, [target, source],
    from the H0 and H1 of :func:`kernel_tables` (H0' = -H1, H1' = H0 - H1/z).

    The log factor is -Im f / pi (Y_m carries (2/pi) J_m ln), so (f1, f -
    f1 ln(4 sin^2((t-ς)/2))) is the (m1, m2) split of :func:`kernel_tables`.
    At the ``lim`` pairs, where the log factor vanishes, f holds the limit of
    m2, which depends on the shape through G only, and the derivatives are 0.
    """
    h0, h1 = _hankel_pair(geom, kappa)
    fs = (0.5j * h0, -0.5j * kappa * h1, -0.5j * kappa**2 * (h0 - h1 / (kappa * geom.r)))
    pairs = [(f, f.imag * (-1.0 / np.pi)) for f in fs]
    lim = geom.lim
    (f, f1), *slopes = pairs
    f[lim] = _m2_limit(geom, kappa)
    f1[lim] = -1.0 / (2.0 * np.pi)
    for f, f1 in slopes:
        f[lim] = f1[lim] = 0.0
    return pairs


def split_m(curve: StarlikeCurve, t: float, s: float, kappa: float) -> KernelTables:
    """Split parts of the parametrized layer kernels at the pair (t, ς):
    entry [0, 1] of :func:`kernel_tables` on the two-point set (t, ς)."""
    ts = np.array([t, s], dtype=float)
    tab = kernel_tables(pair_geometry(jet(curve, ts), ts), kappa)
    return KernelTables(**{f: v[0, 1] for f, v in vars(tab).items()})


split_k = split_h = split_m
