"""Special-function wrappers: identities and input validation."""

import numpy as np
import pytest

from aescatter.specfun import (
    EULER_GAMMA,
    bessel_j0,
    bessel_j1,
    bessel_y0,
    bessel_y1,
    hankel1_0,
    hankel1_1,
    wronskian_error,
)


def test_wronskian_identity():
    # J1(x) Y0(x) - J0(x) Y1(x) = 2 / (pi x)
    assert wronskian_error(np.linspace(1e-3, 50.0, 5000)) < 1e-11


def test_hankel_composition():
    x = np.array([0.5, 1.0, 7.3])
    np.testing.assert_allclose(hankel1_0(x), bessel_j0(x) + 1j * bessel_y0(x), rtol=1e-15)
    np.testing.assert_allclose(hankel1_1(x), bessel_j1(x) + 1j * bessel_y1(x), rtol=1e-15)


def test_small_argument_y0():
    # Y0(x) ~ (2/pi)(ln(x/2) + gamma) J0(x) as x -> 0
    x = 1e-8
    approx = (2.0 / np.pi) * (np.log(x / 2.0) + EULER_GAMMA)
    assert abs(bessel_y0(x) - approx) < 1e-12


def test_derivative_relations():
    # J0' = -J1 and Y0' = -Y1 via central differences.
    x = np.linspace(0.5, 10.0, 50)
    h = 1e-6
    dj0 = (bessel_j0(x + h) - bessel_j0(x - h)) / (2 * h)
    dy0 = (bessel_y0(x + h) - bessel_y0(x - h)) / (2 * h)
    np.testing.assert_allclose(dj0, -bessel_j1(x), atol=1e-9)
    np.testing.assert_allclose(dy0, -bessel_y1(x), atol=1e-9)


def test_euler_gamma_value():
    assert abs(EULER_GAMMA - 0.57721566490153286) < 1e-15


def test_nan_rejected():
    with pytest.raises(ValueError):
        bessel_j0(np.array([1.0, np.nan]))


def test_hankel_rejects_nonpositive():
    with pytest.raises(ValueError):
        hankel1_0(np.array([0.0]))
    with pytest.raises(ValueError):
        hankel1_1(np.array([-1.0]))
