"""Two-body forward solver for an obstacle together with a reference ball.

The coupled system is the single-body system of ``forward`` on and between
the two bodies: the self blocks are the single-body systems, passed in by
the caller (``assemble_system``'s, or a Newton step's filled from its
``Discretization``), and the two cross blocks are filled from the same term
table by the same loop, ``forward._fill_system``, with the tangential
derivatives through the source grid's D, on the chords of the self blocks'
routine, ``kernels._chords``. The bodies are disjoint, so the cross
operators are the plain trapezoid rule on the smooth kernels. One pair of
Hankel evaluations per wavenumber (a ``CrossPair``, made from the two node
jets) serves both cross blocks, and their derivatives when the obstacle
moves: for each direction, the self block's derivative routine,
``forward._block_sensitivity``, with the ball's side not formed.

``cross_block_sensitivity`` runs in every phaseless Newton step, so by the
rule stated in ``inverse_phased`` its products with the node motion go
through ``forward._gemm`` and D is applied by FFT; the (N x 2) frame
products of the right-hand side (``forward.rhs_plane_wave``) and ``_features``
stay in numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .forward import (
    DensitySet,
    FarField,
    IncidentWave,
    MaterialParams,
    _TANGENTIAL,
    _block_sensitivity,
    _features,
    _fill_system,
    _motion_columns,
    assemble_system,
    factor_system,
    far_field,
    rhs_plane_wave,
)
from .geometry import BoundaryMotion, CurveJet, NodeGrid, StarlikeCurve, jet
from .kernels import _chords
from .specfun import hankel1_0, hankel1_1

__all__ = [
    "TwoBodyDensities",
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


class _Direction(NamedTuple):
    """One cross block's targets and sources, and, [target i, source j], the
    ``kernels._chords`` r, a and b from target to source, and per wavenumber
    S = w f and S_r = w f_r, w = 2 pi / N_s the trapezoid weight of the
    N_s source nodes."""

    targets: CurveJet
    sources: CurveJet
    r: np.ndarray
    a: np.ndarray
    b: np.ndarray
    S: list


@dataclass(frozen=True)
class CrossPair:
    """What both cross blocks of an obstacle D and a ball B share, and their
    derivatives when D moves: the ``_Direction`` of A_db (``db``, targets on
    D) and of A_bd (``bd``)."""

    params: MaterialParams
    db: _Direction
    bd: _Direction


def cross_pair(jets_d: CurveJet, jets_b: CurveJet, params: MaterialParams) -> CrossPair:
    """The ``CrossPair`` of two disjoint bodies with the node jets ``jets_d``
    and ``jets_b``, each on equispaced nodes: f = (i/2) H0(kappa r) and
    f_r = -(i/2) kappa H1(kappa r) once per wavenumber on the D x B
    distances, the only Hankel values of the cross blocks. Nodes closer than
    0.1 apart raise ValueError."""
    r, a, b = _chords(jets_d, jets_b)   # from D's node i to B's node j
    if r.min() < _MIN_SEPARATION:
        raise ValueError(
            f"obstacle too close to the reference ball (separation {r.min():.3f} < "
            f"{_MIN_SEPARATION}); the cross kernels would be nearly singular"
        )
    w_d, w_b = 2.0 * np.pi / len(jets_d.G), 2.0 * np.pi / len(jets_b.G)  # trapezoid weights
    S_db, S_bd = [], []
    for kappa in params.kappas:
        z = kappa * r
        f, f_r = 0.5j * hankel1_0(z), -0.5j * kappa * hankel1_1(z)
        S_db.append((w_b * f, w_b * f_r))
        S_bd.append((w_d * f.T.copy(), w_d * f_r.T.copy()))
    return CrossPair(params, _Direction(jets_d, jets_b, r, a, b, S_db),
                     _Direction(jets_b, jets_d, *_chords(jets_b, jets_d), S_bd))


def _direction_ops(d: _Direction, c: int) -> dict:
    """Density c's operators in direction d, by the plain trapezoid rule:
    S and S_r of the pair, K = -a o S_r and, where ``_TANGENTIAL`` asks for
    it, H = -b o S_r, with no Kress or Cauchy correction and no jump."""
    S, S_r = d.S[c]
    ops = {"S": S, "S_r": S_r, "K": -d.a * S_r}
    if _TANGENTIAL[c]:
        ops["H"] = -d.b * S_r
    return ops


def cross_blocks(pair: CrossPair) -> tuple[np.ndarray, np.ndarray]:
    """Both cross-interaction blocks of two disjoint bodies, (A_db, A_bd).

    A_db has the equations at D's nodes as rows and B's densities as
    columns; A_bd the reverse. Each is filled by ``assemble_system``'s loop,
    one wavenumber's ``_direction_ops`` at a time.
    """
    return tuple(_fill_system(d.targets, (_direction_ops(d, c) for c in range(3)), pair.params,
                              d.sources) for d in (pair.db, pair.bd))


def cross_block_sensitivity(
    pair: CrossPair,
    x_d: np.ndarray,
    x_b: np.ndarray,
    motion: BoundaryMotion,
) -> tuple[np.ndarray, np.ndarray]:
    """Derivatives (d(A_db x_b), d(A_bd x_d)), 3N_d x P and 3N_b x P, of the
    cross-block products when D moves by ``motion`` and the densities
    x_d, x_b stay fixed.

    No Hankel function is evaluated. Each block's derivative is
    ``forward._block_sensitivity``, as for ``system_sensitivity``'s self
    block, with no diagonal and the raw motion (a translation of D moves it
    against the ball): D holds the targets of A_db and the sources of A_bd,
    and the ball's side, which does not move, is not formed.
    """
    moving = _motion_columns(motion, pair.db.targets.G)
    return tuple(   # per direction: the source densities, and which side moves
        _block_sensitivity(_features(d.targets, d.sources), d.targets, d.r, d.a, d.b,
                           [_direction_ops(d, c) for c in range(3)], pair.params, x, source, target)
        for d, x, source, target in ((pair.db, x_b, None, moving), (pair.bd, x_d, moving, None)))


def assemble_two_body(pair: CrossPair, A_dd: np.ndarray, A_bb: np.ndarray) -> np.ndarray:
    """Block system for the coupled obstacle-ball scattering problem, with the
    unknowns ordered [on D, on B]: the self blocks A_dd and A_bb, the
    single-body systems of the two bodies, and the cross blocks of ``pair``.

    The ball's A_bb does not depend on the obstacle, so a reconstruction
    assembles it once. Make the pair before A_dd: a reconstruction keeps it
    past the system's temporaries, and built above them it left glibc's
    heap so fragmented that a later n = 100 two-body solve raised the peak
    resident size by 21 MB in about half the runs.
    """
    A_db, A_bd = cross_blocks(pair)
    return np.block([[A_dd, A_db], [A_bd, A_bb]])


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
    A_bb = assemble_system(curve_b, params, grid_b)
    jets_d, jets_b = jet(curve_d, grid_d.nodes), jet(curve_b, grid_b.nodes)
    pair = cross_pair(jets_d, jets_b, params)
    A = assemble_two_body(pair, assemble_system(curve_d, params, grid_d), A_bb)
    del A_bb, pair  # in A now: held through the LU, they raised its peak by 22 MB at n=100
    b_d = np.concatenate(rhs_plane_wave(jets_d, params, wave))
    b_b = np.concatenate(rhs_plane_wave(jets_b, params, wave))
    x_d, x_b = np.split(factor_system(A)(np.concatenate([b_d, b_b])), [len(b_d)])
    return TwoBodyDensities(DensitySet(*np.split(x_d, 3)), DensitySet(*np.split(x_b, 3)))


def far_field_sum(
    densities: TwoBodyDensities,
    curve_d: StarlikeCurve,
    curve_b: StarlikeCurve,
    params: MaterialParams,
    obs_angles,
    grid_d: NodeGrid,
    grid_b: NodeGrid,
) -> FarField:
    """Total far field: sum of the two single-layer far-field quadratures, on
    ``grid_d`` and ``grid_b``, the grids the two bodies were solved on."""
    ff_d = far_field(densities.body_d, curve_d, params, obs_angles, grid_d)
    ff_b = far_field(densities.body_b, curve_b, params, obs_angles, grid_b)
    return FarField(angles=ff_d.angles, values=ff_d.values + ff_b.values)
