"""Starlike boundary curves and their parametrization data.

A curve is given by p(t) = c + r(t) (cos t, sin t) with a positive,
2pi-periodic radial function r. Everything the integral-equation kernels
need (first and second derivatives, Jacobian, normals, tangents) is
produced analytically by :func:`jet`; no finite differencing anywhere.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

__all__ = [
    "RadialProfile",
    "AppleProfile",
    "PeanutProfile",
    "ConstantProfile",
    "FourierProfile",
    "StarlikeCurve",
    "CurveJet",
    "BoundaryMotion",
    "NodeGrid",
    "make_apple",
    "make_peanut",
    "make_circle",
    "make_fourier",
    "jet",
    "translate",
]

_POSITIVITY_SAMPLES = 512


def _integral(x) -> bool:  # an int or a numpy integer; a bool (JSON's true) is not one
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


class RadialProfile:
    """Radial function r(t) with analytic first and second derivatives."""

    kind = "abstract"

    def __init__(self):
        """A fixed shape takes no parameters; the config loader reads them from here."""

    def derivatives(self, t):
        """(r, r', r'') at t, in one pass over the shared subexpressions."""
        raise NotImplementedError

    def radius(self, t):
        return self.derivatives(t)[0]

    def params(self) -> dict:
        return {}


class AppleProfile(RadialProfile):
    """r(t) = 0.55 (1 + 0.9 cos t + 0.1 sin 2t) / (1 + 0.75 cos t)."""

    kind = "apple"

    def derivatives(self, t):
        num = 0.55 * (1.0 + 0.9 * np.cos(t) + 0.1 * np.sin(2.0 * t))
        dnum = 0.55 * (-0.9 * np.sin(t) + 0.2 * np.cos(2.0 * t))
        ddnum = 0.55 * (-0.9 * np.cos(t) - 0.4 * np.sin(2.0 * t))
        den = 1.0 + 0.75 * np.cos(t)
        dden = -0.75 * np.sin(t)
        ddden = -0.75 * np.cos(t)
        dr = (dnum * den - num * dden) / den**2
        ddr = (ddnum * den - num * ddden) / den**2 - 2.0 * dden * dr / den
        return num / den, dr, ddr


class PeanutProfile(RadialProfile):
    """r(t) = 0.65 sqrt(0.25 cos^2 t + sin^2 t)."""

    kind = "peanut"

    def derivatives(self, t):
        q = 0.25 * np.cos(t) ** 2 + np.sin(t) ** 2
        dq = 0.75 * np.sin(2.0 * t)
        ddq = 1.5 * np.cos(2.0 * t)
        sq = np.sqrt(q)
        ddr = 0.65 * (ddq / (2.0 * sq) - dq**2 / (4.0 * q**1.5))
        return 0.65 * sq, 0.65 * dq / (2.0 * sq), ddr


class ConstantProfile(RadialProfile):
    kind = "circle"

    def __init__(self, radius: float):
        if radius <= 0.0:
            raise ValueError(f"radius must be positive, got {radius}")
        self._r = float(radius)

    def derivatives(self, t):
        t = np.asarray(t, dtype=float)
        return np.full_like(t, self._r), np.zeros_like(t), np.zeros_like(t)

    def params(self):
        return {"radius": self._r}


class FourierProfile(RadialProfile):
    """Truncated Fourier series r(t) = a0 + sum a_m cos mt + sum b_m sin mt."""

    kind = "fourier"

    def __init__(self, a, b=()):
        self.a = np.atleast_1d(np.asarray(a, dtype=float))
        self.b = np.atleast_1d(np.asarray(b, dtype=float))
        if len(self.b) != len(self.a) - 1:
            raise ValueError(
                f"need M sine coefficients for M+1 cosine coefficients, "
                f"got {len(self.b)} and {len(self.a)}"
            )

    def derivatives(self, t):
        t = np.asarray(t, dtype=float)
        m = np.arange(1, len(self.a))
        mt = np.multiply.outer(t, m)
        cos_mt, sin_mt = np.cos(mt), np.sin(mt)
        r = self.a[0] + cos_mt @ self.a[1:] + sin_mt @ self.b
        dr = -sin_mt @ (m * self.a[1:]) + cos_mt @ (m * self.b)
        ddr = -cos_mt @ (m**2 * self.a[1:]) - sin_mt @ (m**2 * self.b)
        return r, dr, ddr

    def params(self):
        return {"a": self.a.tolist(), "b": self.b.tolist()}


# Each curve kind and the profile class whose constructor takes its parameters.
_PROFILES = {p.kind: p for p in (AppleProfile, PeanutProfile, ConstantProfile, FourierProfile)}


@dataclass(frozen=True)
class StarlikeCurve:
    """Closed boundary curve p(t) = center + r(t) (cos t, sin t).

    Positivity of the radial function is verified on a fine grid at
    construction; inversion updates that pinch the curve fail loudly here.
    """

    center: np.ndarray
    radial: RadialProfile

    def __post_init__(self):
        object.__setattr__(
            self, "center", np.asarray(self.center, dtype=float).reshape(2)
        )
        if not np.all(np.isfinite(self.center)):
            raise ValueError("curve center must be finite")
        grid = np.linspace(0.0, 2.0 * np.pi, _POSITIVITY_SAMPLES, endpoint=False)
        r = self.radial.radius(grid)
        if not np.all(np.isfinite(r)) or np.any(r <= 0.0):
            raise ValueError(
                f"radial profile must stay positive; min over grid is {np.min(r)}"
            )

    def point(self, t):
        """Boundary point p(t); t may be scalar or array."""
        t = np.asarray(t, dtype=float)
        r = self.radial.radius(t)
        return self.center + np.stack([r * np.cos(t), r * np.sin(t)], axis=-1)

    def to_dict(self) -> dict:
        return {
            "kind": self.radial.kind,
            "center": self.center.tolist(),
            "parameters": self.radial.params(),
        }

    @staticmethod
    def from_dict(record: dict) -> "StarlikeCurve":
        kind = record["kind"]
        if kind not in _PROFILES:
            raise ValueError(f"unknown curve kind {kind!r}")
        return StarlikeCurve(record["center"], _PROFILES[kind](**record.get("parameters", {})))


@dataclass(frozen=True)
class CurveJet:
    """Pointwise curve data used by the kernels.

    ``n = (p2', -p1')`` is the unnormalized outward normal (length G),
    ``n_perp = (p1', p2')`` the unnormalized tangent.
    """

    p: np.ndarray
    dp: np.ndarray
    ddp: np.ndarray
    G: np.ndarray
    n: np.ndarray
    n_perp: np.ndarray
    nu: np.ndarray
    tau: np.ndarray


def jet(curve: StarlikeCurve, t) -> CurveJet:
    """Evaluate the curve and all derived frame quantities at angle(s) t."""
    t = np.asarray(t, dtype=float)
    r, dr, ddr = curve.radial.derivatives(t)
    c, s = np.cos(t), np.sin(t)
    e_r = np.stack([c, s], axis=-1)
    e_t = np.stack([-s, c], axis=-1)

    p = curve.center + r[..., None] * e_r
    dp = dr[..., None] * e_r + r[..., None] * e_t
    ddp = (ddr - r)[..., None] * e_r + (2.0 * dr)[..., None] * e_t

    G = np.sqrt(dr**2 + r**2)
    n = np.stack([dp[..., 1], -dp[..., 0]], axis=-1)
    n_perp = dp
    nu = n / G[..., None]
    tau = n_perp / G[..., None]
    return CurveJet(p=p, dp=dp, ddp=ddp, G=G, n=n, n_perp=n_perp, nu=nu, tau=tau)


class BoundaryMotion(NamedTuple):
    """First-order motion of a body's nodes under P shape parameters, the
    parameter index last: the node velocities dp (N, 2, P) and their
    t-derivatives dp_prime and dp_second (the changes of p' and p''), the
    rotation dtheta (N, P) of the frame (d nu = -dtheta tau,
    d tau = dtheta nu) and the change dG (N, P) of the Jacobian G = |p'|."""

    dp: np.ndarray
    dp_prime: np.ndarray
    dp_second: np.ndarray
    dtheta: np.ndarray
    dG: np.ndarray


@dataclass(frozen=True)
class NodeGrid:
    """Equispaced collocation grid with 2n angles pi*j/n, j = 0..2n-1.

    ``offset`` shifts every node by the same amount; the quadrature rules
    only need the grid to be equispaced and the target to sit on it.
    """

    n: int
    offset: float = 0.0
    nodes: np.ndarray = field(init=False)

    def __post_init__(self):
        if not (_integral(self.n) and self.n >= 1):
            raise ValueError("grid size n must be an integer >= 1")
        nodes = np.pi * np.arange(2 * self.n) / self.n + self.offset
        object.__setattr__(self, "nodes", nodes)

    @property
    def size(self) -> int:
        return 2 * self.n


def make_apple() -> StarlikeCurve:
    """Apple-shaped test obstacle centered at the origin."""
    return StarlikeCurve(np.zeros(2), AppleProfile())


def make_peanut() -> StarlikeCurve:
    """Peanut-shaped test obstacle centered at the origin."""
    return StarlikeCurve(np.zeros(2), PeanutProfile())


def make_circle(center, radius: float) -> StarlikeCurve:
    return StarlikeCurve(center, ConstantProfile(radius))


def make_fourier(center, a, b) -> StarlikeCurve:
    """Curve with radial profile a[0] + sum a[m] cos mt + sum b[m] sin mt."""
    return StarlikeCurve(center, FourierProfile(a, b))


def translate(curve: StarlikeCurve, h) -> StarlikeCurve:
    """Shift the whole curve by h, keeping the radial profile."""
    return StarlikeCurve(curve.center + np.asarray(h, dtype=float), curve.radial)
