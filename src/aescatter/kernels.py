"""Fundamental solution of the 2D Helmholtz equation and kernel splittings.

The parametrized layer kernels are the single-layer kernel
f = (i/2) H0(kappa r) (M) and its r-derivative f_r times the normal (K) or
tangential (H) component at the target of (p(ς) - p(t))/r.
``kernel_tables`` evaluates f and f_r at all node pairs, each with the
smooth factor of its periodic log singularity ln(4 sin^2((t-ς)/2)), so each
piece can be integrated by the matching quadrature rule; the 1/r of f_r
gives H its 1/sin(ς-t) Cauchy factor. The diagonal limits are closed-form:
``_m2_limit`` for f and ``k_limit`` for K; the smooth parts of H vanish there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

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
    "KernelSplit",
    "KernelTables",
    "PairGeometry",
    "pair_geometry",
    "k_limit",
    "kernel_tables",
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
    Pointwise reference for ``forward.jump_check`` only: every block of the
    one- and two-body systems takes its second derivatives through D.
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


class KernelSplit(NamedTuple):
    """The split parts of the parametrized layer kernels at one pair (t, ς):
    M = m1 ln(4 sin^2((t-ς)/2)) + m2, K = k1 ln(...) + k2 and
    H = h1 / sin(ς-t) + h2 ln(...) + h3."""

    m1: float
    m2: complex
    k1: float
    k2: complex
    h1: float
    h2: float
    h3: complex


@dataclass(frozen=True)
class KernelTables:
    """The single-layer kernel f = (i/2) H0(kappa r) and its r-derivative
    f_r = -(i/2) kappa H1(kappa r) at all pairs, [target, source], each with
    the factor of its log singularity, f1 = -Im f / pi = -J0 / (2 pi) and
    f1_r = -Im f_r / pi = kappa J1 / (2 pi) (Y_m carries (2/pi) J_m ln).
    At the ``lim`` pairs f holds the limit of f - f1 ln(4 sin^2((t-ς)/2)),
    f1 is -1/(2 pi), and f_r and f1_r are 0.
    """

    f: np.ndarray
    f1: np.ndarray
    f_r: np.ndarray
    f1_r: np.ndarray


@dataclass(frozen=True)
class PairGeometry:
    """Wavenumber-independent split data at all pairs (t_i, ς_j), [target, source].

    ``lim`` indexes the (symmetric) pairs with |t_i - ς_j| mod 2pi below
    ``_DIAGONAL_SWITCH``, where every part takes its closed-form limit. The
    distance r = |p_j - p_i| is 1 at the ``lim`` pairs and exactly symmetric
    (p_j - p_i = -(p_i - p_j) in floating point), so the Hankel functions
    are evaluated at the strict upper-triangle flat indices ``upper`` only
    and copied to the mirrored ``lower`` ones. ``a`` and ``b`` are
    nu(t_i) . (p_j - p_i) / r and the same with tau(t_i); both are 0 at the
    ``lim`` pairs.
    """

    jets: CurveJet
    lim: tuple[np.ndarray, np.ndarray]
    upper: np.ndarray
    lower: np.ndarray
    r: np.ndarray
    logsin: np.ndarray
    a: np.ndarray
    b: np.ndarray


def _chords(targets: CurveJet, sources: CurveJet, diag=False):
    """The chords p_j - p_i from the target nodes i to the source nodes j,
    [target, source]: their length r, set to 1 where ``diag`` is, and their
    components a = nu_i . (p_j - p_i)/r and b = tau_i . (p_j - p_i)/r in the
    target's frame. The one chord routine of the self and cross blocks."""
    dx = sources.p[None, :, 0] - targets.p[:, None, 0]
    dy = sources.p[None, :, 1] - targets.p[:, None, 1]
    r = np.where(diag, 1.0, np.hypot(dx, dy))
    a, b = ((e[:, 0, None] * dx + e[:, 1, None] * dy) / r for e in (targets.nu, targets.tau))
    return r, a, b


def pair_geometry(jets: CurveJet, t) -> PairGeometry:
    """Pair geometry of the parameters ``t``; ``jets`` holds the curve at t."""
    t = np.asarray(t, dtype=float)
    idx = np.arange(len(t))
    dt = t[:, None] - t[None, :]
    diag = np.abs((dt + np.pi) % (2.0 * np.pi) - np.pi) < _DIAGONAL_SWITCH
    diag |= diag.T
    r, a, b = _chords(jets, jets, diag)
    iu, ju = np.nonzero(idx[:, None] < idx)
    upper, lower = iu * len(t) + ju, ju * len(t) + iu

    logsin = np.log(4.0 * np.sin(dt / 2.0) ** 2 + diag)  # 0 at the lim pairs
    lim = np.nonzero(diag)
    a[lim] = b[lim] = 0.0
    return PairGeometry(jets=jets, lim=lim, upper=upper, lower=lower, r=r,
                        logsin=logsin, a=a, b=b)


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


def k_limit(geom: PairGeometry) -> np.ndarray:
    """The diagonal limit n . p'' / (2 pi G^2) of k2 at the ``lim`` pairs, at
    the target t_i; it has no wavenumber."""
    jets, rows = geom.jets, geom.lim[0]
    n_ddp = np.einsum("ik,ik->i", jets.n[rows], jets.ddp[rows])
    return n_ddp / (2.0 * np.pi * jets.G[rows] ** 2)


def kernel_tables(geom: PairGeometry, kappa: float) -> KernelTables:
    """The single-layer tables of one wavenumber at all pairs of ``geom``
    (from :func:`pair_geometry`); the only code that evaluates the Hankel
    functions on the single-body path. K and H are r-derivatives of the
    single-layer kernel, so (f, f1) and (f_r, f1_r) split them all.
    """
    h0, h1 = _hankel_pair(geom, kappa)
    h0 *= 0.5j
    h1 *= -0.5j * kappa
    tab = KernelTables(f=h0, f1=h0.imag * (-1.0 / np.pi),
                       f_r=h1, f1_r=h1.imag * (-1.0 / np.pi))
    lim = geom.lim
    tab.f[lim] = _m2_limit(geom, kappa)
    tab.f1[lim] = -1.0 / (2.0 * np.pi)
    tab.f_r[lim] = tab.f1_r[lim] = 0.0
    return tab


def split_m(curve: StarlikeCurve, t: float, s: float, kappa: float) -> KernelSplit:
    """Split parts of the parametrized layer kernels at the pair (t, ς), from
    :func:`kernel_tables` on the two-point set (t, ς). M is f, and K and H
    are -(n . d) f_r and -(n_perp . d) f_r with d = (p(ς) - p(t))/r, so each
    log factor is the same product with f1 or f1_r; H's Cauchy part
    h1/sin(ς-t) is n_perp . d/(pi r), from the 1/(pi r) in -f_r."""
    ts = np.array([t, s], dtype=float)
    geom = pair_geometry(jet(curve, ts), ts)
    tab = kernel_tables(geom, kappa)
    G, logsin, r = geom.jets.G[:, None], geom.logsin, geom.r
    n_dot, np_dot = G * geom.a, G * geom.b
    k1, h2 = -n_dot * tab.f1_r, -np_dot * tab.f1_r
    parts = {"m1": tab.f1, "m2": tab.f - tab.f1 * logsin,
             "k1": k1, "k2": -n_dot * tab.f_r - k1 * logsin,
             "h1": np_dot * np.sin(ts[None, :] - ts[:, None]) / (np.pi * r), "h2": h2,
             "h3": -np_dot * (tab.f_r + 1.0 / (np.pi * r)) - h2 * logsin}
    parts["k2"][geom.lim] = k_limit(geom)
    parts["h1"][geom.lim] = 1.0 / np.pi
    return KernelSplit(**{k: v[0, 1] for k, v in parts.items()})


split_k = split_h = split_m
