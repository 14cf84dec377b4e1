"""Bessel and Hankel functions of orders 0 and 1.

Thin, validated wrappers around scipy.special. The Wronskian identity
J1(x) Y0(x) - J0(x) Y1(x) = 2/(pi x), measured by ``wronskian_error``, is
the accuracy gate of the test suite and ``aescatter verify`` for the whole
Nystrom pipeline. Accuracy is guaranteed on (0, 100], which covers
kappa * diameter for all configurations used here.
"""

from __future__ import annotations

import numpy as np
from scipy import special

__all__ = [
    "EULER_GAMMA",
    "bessel_j0",
    "bessel_j1",
    "bessel_y0",
    "bessel_y1",
    "hankel1_0",
    "hankel1_1",
    "wronskian_error",
]

EULER_GAMMA = 0.5772156649015329


def _checked(x, name, message, allow_zero=False):
    """``x`` as a float array, after one comparison: every entry must be
    positive (non-negative with ``allow_zero``), which NaN never is. Only
    on failure is the cause looked up, to raise the matching message."""
    x = np.asarray(x, dtype=float)
    if not (x >= 0.0 if allow_zero else x > 0.0).all():
        if np.isnan(x).any():
            raise ValueError(f"{name} expects finite input, got NaN")
        raise ValueError(message)
    return x


def bessel_j0(x):
    """J0(x) for x >= 0."""
    return special.j0(_checked(x, "bessel_j0", "bessel_j0 expects x >= 0", True))


def bessel_j1(x):
    """J1(x) for x >= 0."""
    return special.j1(_checked(x, "bessel_j1", "bessel_j1 expects x >= 0", True))


def bessel_y0(x):
    x = _checked(x, "bessel_y0", "bessel_y0 expects x > 0 (logarithmic singularity)")
    return special.y0(x)


def bessel_y1(x):
    return special.y1(_checked(x, "bessel_y1", "bessel_y1 expects x > 0"))


def hankel1_0(x):
    """H0^(1)(x) = J0(x) + i Y0(x) for x > 0."""
    x = _checked(x, "hankel1_0", "hankel1_0 expects x > 0 (logarithmic singularity)")
    return special.j0(x) + 1j * special.y0(x)


def hankel1_1(x):
    """H1^(1)(x) = J1(x) + i Y1(x) for x > 0."""
    x = _checked(x, "hankel1_1", "hankel1_1 expects x > 0")
    return special.j1(x) + 1j * special.y1(x)


def wronskian_error(x) -> float:
    """max |J1(x) Y0(x) - J0(x) Y1(x) - 2/(pi x)| over the samples x > 0."""
    x = np.asarray(x, dtype=float)
    wron = bessel_j1(x) * bessel_y0(x) - bessel_j0(x) * bessel_y1(x)
    return float(np.abs(wron - 2.0 / (np.pi * x)).max())
