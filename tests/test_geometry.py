"""Curve parametrizations, analytic jets, grids."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aescatter.geometry import (
    _PROFILES,
    NodeGrid,
    StarlikeCurve,
    jet,
    make_apple,
    make_circle,
    make_fourier,
    make_peanut,
    translate,
)

T_SAMPLES = np.linspace(0.0, 2.0 * np.pi, 17, endpoint=False)
# One curve of each kind in the table; a kind missing here fails the round trip.
EXAMPLES = {"apple": make_apple(), "peanut": make_peanut(), "circle": make_circle((1, 2), 0.7),
            "fourier": make_fourier((0, 0.5), [1.0, 0.1], [0.05])}


def fd_jet(curve, t, h=1e-6):
    """Finite-difference first and second derivatives of p(t)."""
    pp = curve.point(t + h)
    pm = curve.point(t - h)
    p0 = curve.point(t)
    return (pp - pm) / (2 * h), (pp - 2 * p0 + pm) / h**2


class TestShapes:
    def test_apple_radius_formula(self):
        r = make_apple().radial.radius(T_SAMPLES)
        expected = 0.55 * (1 + 0.9 * np.cos(T_SAMPLES) + 0.1 * np.sin(2 * T_SAMPLES)) \
            / (1 + 0.75 * np.cos(T_SAMPLES))
        np.testing.assert_allclose(r, expected, rtol=1e-15)

    def test_peanut_radius_formula(self):
        r = make_peanut().radial.radius(T_SAMPLES)
        expected = 0.65 * np.sqrt(0.25 * np.cos(T_SAMPLES) ** 2 + np.sin(T_SAMPLES) ** 2)
        np.testing.assert_allclose(r, expected, rtol=1e-15)

    def test_apple_and_peanut_centered_at_origin(self):
        np.testing.assert_array_equal(make_apple().center, np.zeros(2))
        np.testing.assert_array_equal(make_peanut().center, np.zeros(2))

    def test_circle_point(self):
        c = make_circle((1.0, -2.0), 0.5)
        p = c.point(np.pi / 2)
        np.testing.assert_allclose(p, [1.0, -1.5], atol=1e-15)

    def test_fourier_profile_roundtrip(self):
        curve = make_fourier((0.1, 0.2), [1.0, 0.2, 0.05], [0.1, -0.02])
        t = T_SAMPLES
        r = 1.0 + 0.2 * np.cos(t) + 0.05 * np.cos(2 * t) + 0.1 * np.sin(t) \
            - 0.02 * np.sin(2 * t)
        np.testing.assert_allclose(curve.radial.radius(t), r, atol=1e-15)

    def test_positivity_enforced(self):
        with pytest.raises(ValueError, match="positive"):
            make_fourier((0, 0), [0.3, 0.5], [0.0])
        with pytest.raises(ValueError):
            make_circle((0, 0), -1.0)

    def test_fourier_coefficient_shape_check(self):
        with pytest.raises(ValueError):
            make_fourier((0, 0), [1.0, 0.1], [0.1, 0.2])

    def test_serialization_roundtrip(self):
        for curve in (EXAMPLES[kind] for kind in _PROFILES):
            clone = StarlikeCurve.from_dict(curve.to_dict())
            t = T_SAMPLES
            np.testing.assert_allclose(clone.point(t), curve.point(t), atol=1e-15)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown curve kind 'ellipse'"):
            StarlikeCurve.from_dict({"kind": "ellipse", "center": [0.0, 0.0]})

    def test_fourier_sine_terms_default_to_none(self):
        # a record without "b" raised a KeyError
        curve = StarlikeCurve.from_dict(
            {"kind": "fourier", "center": [0.0, 0.0], "parameters": {"a": [0.5]}})
        assert curve.to_dict()["parameters"] == {"a": [0.5], "b": []}
        np.testing.assert_array_equal(curve.radial.radius(T_SAMPLES), 0.5)


class TestJet:
    @pytest.mark.parametrize("make", [make_apple, make_peanut,
                                      lambda: make_circle((0.3, -0.1), 0.8)])
    def test_derivatives_match_finite_differences(self, make):
        curve = make()
        jets = jet(curve, T_SAMPLES)
        dp_fd, ddp_fd = fd_jet(curve, T_SAMPLES)
        np.testing.assert_allclose(jets.dp, dp_fd, atol=1e-8)
        np.testing.assert_allclose(jets.ddp, ddp_fd, atol=1e-3)

    def test_frame_identities(self):
        jets = jet(make_apple(), T_SAMPLES)
        np.testing.assert_allclose(np.linalg.norm(jets.nu, axis=-1), 1.0, atol=1e-14)
        np.testing.assert_allclose(np.linalg.norm(jets.tau, axis=-1), 1.0, atol=1e-14)
        np.testing.assert_allclose((jets.nu * jets.tau).sum(-1), 0.0, atol=1e-14)
        np.testing.assert_allclose(jets.G, np.linalg.norm(jets.dp, axis=-1), atol=1e-14)
        # n = (p2', -p1') rotates the tangent clockwise: outward for a
        # counterclockwise starlike parametrization.
        np.testing.assert_allclose(jets.n[:, 0], jets.dp[:, 1], atol=1e-15)
        np.testing.assert_allclose(jets.n[:, 1], -jets.dp[:, 0], atol=1e-15)

    def test_normal_points_outward(self):
        curve = make_apple()
        jets = jet(curve, T_SAMPLES)
        # moving along +nu must increase the distance from the center
        outside = jets.p + 1e-6 * jets.nu
        inside = jets.p - 1e-6 * jets.nu
        d_out = np.linalg.norm(outside - curve.center, axis=-1)
        d_in = np.linalg.norm(inside - curve.center, axis=-1)
        r = np.linalg.norm(jets.p - curve.center, axis=-1)
        # not exactly radial, but the sign of the radial component is fixed
        assert np.all(d_out - r > -1e-9)
        assert np.all(d_in - r < 1e-9)

    def test_circle_jet_closed_form(self):
        r0 = 0.8
        jets = jet(make_circle((0, 0), r0), T_SAMPLES)
        np.testing.assert_allclose(jets.G, r0, atol=1e-15)
        e_r = np.stack([np.cos(T_SAMPLES), np.sin(T_SAMPLES)], axis=-1)
        np.testing.assert_allclose(jets.nu, e_r, atol=1e-14)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(0.5, 2.0), st.floats(-0.2, 0.2), st.floats(-0.2, 0.2))
    def test_fourier_jet_consistency(self, a0, a1, b1):
        curve = make_fourier((0.0, 0.0), [a0, a1], [b1])
        t = np.array([0.4, 2.2, 5.0])
        jets = jet(curve, t)
        dp_fd, _ = fd_jet(curve, t)
        np.testing.assert_allclose(jets.dp, dp_fd, atol=1e-7)


def separate_derivatives(kind, t, a=None, b=None):
    """r, r', r'' of each profile by the separate formulas that radius,
    dradius and ddradius evaluated before they shared one pass."""
    if kind == "apple":
        def parts():
            return (0.55 * (1.0 + 0.9 * np.cos(t) + 0.1 * np.sin(2.0 * t)),
                    0.55 * (-0.9 * np.sin(t) + 0.2 * np.cos(2.0 * t)),
                    0.55 * (-0.9 * np.cos(t) - 0.4 * np.sin(2.0 * t)),
                    1.0 + 0.75 * np.cos(t), -0.75 * np.sin(t), -0.75 * np.cos(t))
        num, _, _, den, _, _ = parts()
        r = num / den
        num, dnum, _, den, dden, _ = parts()
        dr = (dnum * den - num * dden) / den**2
        num, dnum, ddnum, den, dden, ddden = parts()
        dr2 = (dnum * den - num * dden) / den**2
        return r, dr, (ddnum * den - num * ddden) / den**2 - 2.0 * dden * dr2 / den
    if kind == "peanut":
        q = 0.25 * np.cos(t) ** 2 + np.sin(t) ** 2
        dq, ddq = 0.75 * np.sin(2.0 * t), 1.5 * np.cos(2.0 * t)
        return (0.65 * np.sqrt(q), 0.65 * dq / (2.0 * np.sqrt(q)),
                0.65 * (ddq / (2.0 * np.sqrt(q)) - dq**2 / (4.0 * q**1.5)))
    if kind == "circle":
        return np.full_like(t, 0.7), np.zeros_like(t), np.zeros_like(t)
    m = np.arange(1, len(a))
    cos_mt, sin_mt = np.cos(np.multiply.outer(t, m)), np.sin(np.multiply.outer(t, m))
    return (a[0] + cos_mt @ a[1:] + sin_mt @ b,
            -sin_mt @ (m * a[1:]) + cos_mt @ (m * b),
            -cos_mt @ (m**2 * a[1:]) - sin_mt @ (m**2 * b))


class TestDerivativesInOnePass:
    A, B = np.array([0.5, 0.05, -0.03, 0.02]), np.array([0.04, 0.01, -0.02])

    @pytest.mark.parametrize("curve", [
        make_apple(), make_peanut(), make_circle((0.2, 0.1), 0.7),
        make_fourier((0.1, 0.0), A, B),
    ], ids=["apple", "peanut", "circle", "fourier"])
    def test_bitwise_equal_to_separate_formulas(self, curve):
        t = np.linspace(-1.0, 8.0, 301)
        expected = separate_derivatives(curve.radial.kind, t, self.A, self.B)
        got = curve.radial.derivatives(t)
        assert all(np.array_equal(g, e) for g, e in zip(got, expected))
        jets = jet(curve, t)
        assert np.array_equal(jets.G, np.sqrt(expected[1] ** 2 + expected[0] ** 2))


class TestGridAndTranslate:
    def test_node_grid(self):
        g = NodeGrid(4)
        np.testing.assert_allclose(g.nodes, np.pi * np.arange(8) / 4, atol=1e-15)
        assert g.size == 8
        g2 = NodeGrid(4, offset=0.1)
        np.testing.assert_allclose(g2.nodes - g.nodes, 0.1, atol=1e-15)
        with pytest.raises(ValueError):
            NodeGrid(0)
        assert NodeGrid(np.int64(4)).size == 8

    @pytest.mark.parametrize("n", [16.5, 16.0, True, np.float64(16)],
                             ids=["float", "whole-float", "bool", "numpy-float"])
    def test_node_grid_needs_an_integer(self, n):
        # 16.5 built 33 nodes with size 33.0, and the solve on it failed
        # with "arrays used as indices must be of integer (or boolean) type"
        with pytest.raises(ValueError, match="integer"):
            NodeGrid(n)

    @pytest.mark.parametrize("center", [(np.nan, 0.0), (0.0, np.inf)])
    def test_non_finite_center_rejected(self, center):
        # a NaN center failed only in the solve, with "hankel1_0 expects finite input"
        with pytest.raises(ValueError, match="center must be finite"):
            make_circle(center, 1.0)

    def test_translate(self):
        curve = make_apple()
        moved = translate(curve, (0.5, -0.25))
        t = T_SAMPLES
        shift = np.tile([0.5, -0.25], (len(t), 1))
        np.testing.assert_allclose(moved.point(t) - curve.point(t), shift, atol=1e-15)
