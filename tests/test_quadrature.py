"""Exactness tests for the periodic singular quadrature rules."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aescatter.quadrature import (
    cauchy_weight_table,
    cauchy_weights,
    diff_matrix,
    diff_weights,
    lagrange_basis_matrix,
    log_weight_table,
    log_weights,
)


def nodes(n):
    return np.pi * np.arange(2 * n) / n


class TestLogWeights:
    def test_sum_is_zero(self):
        # integrand == 1: the log factor integrates to zero over a period.
        n = 16
        for t in (0.0, 0.3, np.pi * 5 / 16):
            assert abs(log_weights(t, n).sum()) < 1e-12

    def test_fourier_modes(self):
        # int ln(4 sin^2((t-s)/2)) cos(m s) ds = -(2 pi / m) cos(m t).
        n = 16
        s = nodes(n)
        for t in (0.0, 0.7, np.pi * 5 / 16):
            R = log_weights(t, n)
            for m in range(1, 9):
                exact = -(2.0 * np.pi / m) * np.cos(m * t)
                assert abs(R @ np.cos(m * s) - exact) < 1e-12
                exact_s = -(2.0 * np.pi / m) * np.sin(m * t)
                assert abs(R @ np.sin(m * s) - exact_s) < 1e-12

    def test_table_matches_rows(self):
        n = 8
        tab = log_weight_table(n)
        for i in (0, 3, 11):
            np.testing.assert_allclose(tab[i], log_weights(nodes(n)[i], n), atol=1e-14)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            log_weights(0.0, 0)


class TestCauchyWeights:
    def test_pv_identity(self):
        # sum T_j sin(s_j - t) = integral of the regularized kernel = 2 pi.
        n = 16
        s = nodes(n)
        for t in (0.0, s[5], s[11]):
            T = cauchy_weights(t, n)
            assert abs(T @ np.sin(s - t) - 2.0 * np.pi) < 1e-12

    def test_off_node_target_rejected(self):
        with pytest.raises(ValueError):
            cauchy_weights(0.123, 16)

    def test_table_matches_rows(self):
        n = 8
        tab = cauchy_weight_table(n)
        for i in (0, 5, 13):
            np.testing.assert_allclose(tab[i], cauchy_weights(nodes(n)[i], n), atol=1e-14)

    def test_singular_integral_mode(self):
        # pv int cot((s-t)/2) e^{is} ds = 2 pi i e^{it}; the rule's kernel is
        # 1/sin carried by the weights, relation checked through the table on
        # an analytic density pair handled by the assembled solver tests.
        n = 16
        s = nodes(n)
        t = s[3]
        T = cauchy_weights(t, n)
        # odd function about the target integrates to the principal value
        vals = T @ np.sin(3 * (s - t))
        assert abs(vals - 2.0 * np.pi) < 1e-12


class TestDifferentiation:
    def test_trig_exactness(self):
        n = 16
        s = nodes(n)
        D = diff_matrix(n)
        for m in range(1, n):
            np.testing.assert_allclose(D @ np.cos(m * s), -m * np.sin(m * s), atol=1e-11)
            np.testing.assert_allclose(D @ np.sin(m * s), m * np.cos(m * s), atol=1e-11)

    def test_antisymmetry(self):
        n = 8
        w = diff_weights(n)
        assert abs(w[2 * n - 1]) == 0.0
        np.testing.assert_allclose(w, -w[::-1], atol=1e-15)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(-2, 2), min_size=4, max_size=4),
           st.lists(st.floats(-2, 2), min_size=4, max_size=4))
    def test_random_trig_polynomial(self, a, b):
        n = 16
        s = nodes(n)
        D = diff_matrix(n)
        f = sum(a[m] * np.cos((m + 1) * s) + b[m] * np.sin((m + 1) * s) for m in range(4))
        df = sum(-(m + 1) * a[m] * np.sin((m + 1) * s)
                 + (m + 1) * b[m] * np.cos((m + 1) * s) for m in range(4))
        np.testing.assert_allclose(D @ f, df, atol=1e-10)


class TestTrapezoidAndInterpolation:
    def test_lagrange_interpolation(self):
        n = 16
        s = nodes(n)
        targets = np.array([0.1, 1.9, 4.4])
        P = lagrange_basis_matrix(n, targets)
        f = np.cos(5 * s) + 0.3 * np.sin(2 * s)
        exact = np.cos(5 * targets) + 0.3 * np.sin(2 * targets)
        np.testing.assert_allclose(P @ f, exact, atol=1e-12)

    def test_lagrange_reproduces_nodes(self):
        n = 8
        P = lagrange_basis_matrix(n, nodes(n))
        np.testing.assert_allclose(P, np.eye(2 * n), atol=1e-12)


class TestWeightTables:
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 11, 24, 31, 32, 64])
    def test_circulant_of_the_first_row(self, n):
        # even and odd n: the Cauchy weights have an odd-n branch
        i = np.arange(2 * n)
        offset = (i[:, None] - i[None, :]) % (2 * n)
        assert np.array_equal(log_weight_table(n), log_weights(0.0, n)[offset])
        assert np.array_equal(cauchy_weight_table(n), cauchy_weights(0.0, n)[offset.T])
