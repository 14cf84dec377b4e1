"""Quadrature rules on the periodic grid ς_j = pi j / n.

Three rules drive the Nystrom discretization:

* ``log_weights``: weights R_j(t) for integrands with a ln(4 sin^2((t-ς)/2))
  factor;
* ``cauchy_weights``: weights T_j(t) for a 1/sin(ς-t) principal-value factor,
  valid only when t is itself a grid node;
* ``diff_weights``: trigonometric-interpolation differentiation weights d_j.

All of them are exact on trigonometric polynomials of the appropriate
degree, which is what makes the overall scheme spectrally accurate.
The log and Cauchy weight tables are circulant, gathered from their first
rows. The assembly builds them uncached (``__wrapped__``), as Newton iterates
change grids; D is not tabled, as a Newton step applies it by FFT.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "log_weights",
    "cauchy_weights",
    "diff_weights",
    "diff_matrix",
    "log_weight_table",
    "cauchy_weight_table",
    "lagrange_basis_matrix",
    "identity_errors",
]

_NODE_TOL = 1e-12


def _nodes(n: int) -> np.ndarray:
    return np.pi * np.arange(2 * n) / n


def log_weights(t: float, n: int) -> np.ndarray:
    """Weights R_j^(n)(t), j = 0..2n-1, for the logarithmic singularity.

    R_j(t) = -(2 pi / n) sum_{m=1}^{n-1} cos(m (t - ς_j)) / m
             - (pi / n^2) cos(n (t - ς_j)).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    dt = float(t) - _nodes(n)
    m = np.arange(1, n)
    if len(m):
        series = (np.cos(np.outer(dt, m)) / m).sum(axis=1)
    else:
        series = np.zeros_like(dt)
    return -(2.0 * np.pi / n) * series - (np.pi / n**2) * np.cos(n * dt)


def cauchy_weights(t: float, n: int) -> np.ndarray:
    """Weights T_j^(n)(t) for the 1/sin(ς - t) principal-value factor.

    The derivation assumes the target t coincides with a grid node; the
    discretization never needs anything else, so off-node targets are
    rejected.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    nodes = _nodes(n)
    dist = np.abs((float(t) - nodes + np.pi) % (2.0 * np.pi) - np.pi)
    if dist.min() > _NODE_TOL:
        raise ValueError(f"cauchy_weights target t={t} is not a grid node")
    dt = float(t) - nodes
    if n % 2 == 1:
        m = np.arange(0, (n - 3) // 2 + 1)
        series = np.sin(np.outer(dt, 2 * m + 1)).sum(axis=1) if len(m) else 0.0
        return -(2.0 * np.pi / n) * series - (np.pi / n) * np.sin(n * dt)
    m = np.arange(0, n // 2)
    series = np.sin(np.outer(dt, 2 * m + 1)).sum(axis=1)
    return -(2.0 * np.pi / n) * series


def diff_weights(n: int) -> np.ndarray:
    """Antisymmetric weights d_j^(n), j = -(2n-1)..(2n-1), as a flat array.

    Index with ``w[j + 2n - 1]``; d_0 = 0 and d_j = (-1)^j cot(j pi / 2n) / 2.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    j = np.arange(-(2 * n - 1), 2 * n)
    w = np.zeros_like(j, dtype=float)
    nz = j != 0
    w[nz] = 0.5 * (-1.0) ** j[nz] / np.tan(j[nz] * np.pi / (2 * n))
    return w


def diff_matrix(n: int) -> np.ndarray:
    """Differentiation matrix D with D[m, j] = d_{m-j}^(n).

    (D f)_m reproduces f'(ς_m) exactly for trigonometric polynomials of
    degree < n.
    """
    w = diff_weights(n)
    m, j = np.meshgrid(np.arange(2 * n), np.arange(2 * n), indexing="ij")
    return w[m - j + 2 * n - 1]


@lru_cache(maxsize=32)
def log_weight_table(n: int) -> np.ndarray:
    """Table R[i, j] = R_j^(n)(ς_i); depends only on (i - j) mod 2n."""
    i = np.arange(2 * n)  # the row twice over: 2n + i - j is (i - j) mod 2n
    return np.tile(log_weights(0.0, n), 2)[2 * n + i[:, None] - i[None, :]]


@lru_cache(maxsize=32)
def cauchy_weight_table(n: int) -> np.ndarray:
    """Table T[i, j] = T_j^(n)(ς_i).

    The first row's weight k is for the target-node offset t - ς = -ς_k,
    and the weights are odd in that offset, so the table is indexed by (j - i)
    rather than (i - j) as in the even log-weight table.
    """
    i = np.arange(2 * n)
    return np.tile(cauchy_weights(0.0, n), 2)[2 * n + i[None, :] - i[:, None]]


def identity_errors(n: int, i: int) -> dict[str, float]:
    """Errors of the rules at node t = ς_i of the n-grid: sum_j R_j ("log sum"),
    R cos(m ς) + (2 pi/m) cos(mt), m <= n/2 ("log modes"), T sin(ς - t) - 2 pi
    ("cauchy"), and D on cos 3ς and sin 5ς ("diff"); each exact in theory."""
    nodes = _nodes(n)
    t = nodes[i]
    R, D = log_weights(t, n), diff_matrix(n)
    modes = [abs(R @ np.cos(m * nodes) + (2 * np.pi / m) * np.cos(m * t))
             for m in range(1, n // 2 + 1)]
    return {"log sum": abs(R.sum()), "log modes": max(modes),
            "cauchy": abs(cauchy_weights(t, n) @ np.sin(nodes - t) - 2.0 * np.pi),
            "diff": max(np.abs(D @ np.cos(3 * nodes) + 3 * np.sin(3 * nodes)).max(),
                        np.abs(D @ np.sin(5 * nodes) - 5 * np.cos(5 * nodes)).max())}


def lagrange_basis_matrix(n: int, targets) -> np.ndarray:
    """Trigonometric interpolation matrix P[i, j] = L_j(targets[i]).

    L_j is the periodic Lagrange basis on the 2n-node grid; P maps node
    samples to values at arbitrary angles, exactly for trig polynomials of
    degree <= n (with the cos(n.) mode shared in the Kress convention).
    """
    targets = np.atleast_1d(np.asarray(targets, dtype=float))
    dt = targets[:, None] - _nodes(n)[None, :]
    k = np.arange(1, n)
    series = 2.0 * np.cos(dt[..., None] * k).sum(axis=-1) if len(k) else 0.0
    return (1.0 + series + np.cos(n * dt)) / (2 * n)
