import numpy as np
import pytest

from aescatter.forward import IncidentWave, MaterialParams
from aescatter.geometry import RadialProfile, StarlikeCurve, translate


@pytest.fixture(scope="session")
def params() -> MaterialParams:
    return MaterialParams.default()


@pytest.fixture(scope="session")
def wave() -> IncidentWave:
    return IncidentWave(np.pi / 8)


class BumpedProfile(RadialProfile):
    """A radial profile plus eps times the mode cos mt (1 for m = 0) or sin mt."""

    kind = "bumped"

    def __init__(self, base: RadialProfile, eps: float, m: int, sine: bool):
        self.base, self.eps, self.m, self.sine = base, eps, m, sine

    def derivatives(self, t):
        r, dr, ddr = self.base.derivatives(t)
        m, c, s = self.m, np.cos(self.m * t), np.sin(self.m * t)
        f, df, ddf = (s, m * c, -m * m * s) if self.sine else (c, -m * s, -m * m * c)
        return r + self.eps * f, dr + self.eps * df, ddr + self.eps * ddf


@pytest.fixture(scope="session")
def bumped():
    """``bump(curve, M, k, eps)``: the curve moved by eps along parameter k of
    (dc1, dc2, a_0..a_M, b_1..b_M), the parameters of ``apply_update``, for
    any radial profile."""
    def bump(curve: StarlikeCurve, M: int, k: int, eps: float) -> StarlikeCurve:
        if k < 2:
            return translate(curve, eps * np.eye(2)[k])
        sine = k >= M + 3
        m = k - M - 2 if sine else k - 2
        return StarlikeCurve(curve.center, BumpedProfile(curve.radial, eps, m, sine))
    return bump
