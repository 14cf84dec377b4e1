"""Fundamental solution, kernel splits, and the single-layer tables."""

import numpy as np
import pytest
from scipy import special

from aescatter.geometry import (
    NodeGrid,
    jet,
    make_apple,
    make_circle,
    make_fourier,
    make_peanut,
)
from aescatter.kernels import (
    grad_phi,
    hess_phi,
    kernel_tables,
    pair_geometry,
    phi,
    split_h,
    split_k,
    split_m,
)

KAPPAS = [0.7 * np.pi, 2.2, 0.9]


class TestFundamentalSolution:
    def test_phi_matches_hankel(self):
        x = np.array([1.2, -0.4])
        y = np.array([-0.3, 0.9])
        r = np.linalg.norm(x - y)
        for kappa in KAPPAS:
            expected = 0.25j * special.hankel1(0, kappa * r)
            assert abs(phi(x, y, kappa) - expected) < 1e-14

    def test_grad_phi_matches_finite_differences(self):
        y = np.array([0.2, -0.7])
        x = np.array([1.4, 0.6])
        kappa = 1.3
        h = 1e-6
        g = grad_phi(x, y, kappa)
        for l in range(2):
            e = np.zeros(2)
            e[l] = h
            fd = (phi(x + e, y, kappa) - phi(x - e, y, kappa)) / (2 * h)
            assert abs(g[l] - fd) < 1e-8

    def test_hess_phi_matches_finite_differences(self):
        y = np.array([0.2, -0.7])
        x = np.array([1.4, 0.6])
        kappa = 1.3
        h = 1e-5
        H = hess_phi(x, y, kappa)
        for l in range(2):
            e = np.zeros(2)
            e[l] = h
            fd = (grad_phi(x + e, y, kappa) - grad_phi(x - e, y, kappa)) / (2 * h)
            np.testing.assert_allclose(H[:, l], fd, atol=1e-7)

    def test_hess_trace_is_helmholtz(self):
        # Delta phi = -kappa^2 phi away from the source.
        x, y, kappa = np.array([1.1, 0.3]), np.array([-0.5, -0.2]), 2.2
        H = hess_phi(x, y, kappa)
        assert abs(np.trace(H) + kappa**2 * phi(x, y, kappa)) < 1e-12

    def test_singularity_rejected(self):
        x = np.array([1.0, 1.0])
        with pytest.raises(ValueError):
            phi(x, x, 1.0)
        with pytest.raises(ValueError):
            phi(x, x + 1.0, -1.0)


def log_sing(t, s):
    return np.log(4.0 * np.sin((t - s) / 2.0) ** 2)


class TestSplits:
    @pytest.mark.parametrize("make", [make_apple, make_peanut,
                                      lambda: make_circle((0, 0), 1.0)])
    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_recomposition(self, make, kappa):
        # split parts must reassemble the direct kernel at off-diagonal pairs
        curve = make()
        rng = np.random.default_rng(0)
        jets_fn = lambda t: jet(curve, t)
        for _ in range(100):
            t, s = rng.uniform(0, 2 * np.pi, 2)
            if abs((t - s + np.pi) % (2 * np.pi) - np.pi) < 1e-2:
                continue
            jt = jets_fn(t)
            pt, ps = curve.point(t), curve.point(s)
            r = np.linalg.norm(pt - ps)

            m = split_m(curve, t, s, kappa)
            direct_m = 0.5j * special.hankel1(0, kappa * r)
            rec = m.m1 * log_sing(t, s) + m.m2
            assert abs(rec - direct_m) <= 1e-11 * max(1.0, abs(direct_m))

            k = split_k(curve, t, s, kappa)
            d = ps - pt
            direct_k = 0.5j * kappa * (jt.n @ d) * special.hankel1(1, kappa * r) / r
            rec = k.k1 * log_sing(t, s) + k.k2
            assert abs(rec - direct_k) <= 1e-11 * max(1.0, abs(direct_k))

            hsp = split_h(curve, t, s, kappa)
            direct_h = 0.5j * kappa * (jt.n_perp @ d) * special.hankel1(1, kappa * r) / r
            rec = hsp.h1 / np.sin(s - t) + hsp.h2 * log_sing(t, s) + hsp.h3
            assert abs(rec - direct_h) <= 1e-11 * max(1.0, abs(direct_h))

    def test_diagonal_limits(self):
        curve = make_apple()
        kappa = 2.2
        t = 0.7
        jt = jet(curve, t)
        # the limits must also hold one period away and just off the diagonal
        for s in (t, t + 2.0 * np.pi, t + 1e-9):
            m = split_m(curve, t, s, kappa)
            assert m.m1 == pytest.approx(-1.0 / (2.0 * np.pi))
            k = split_k(curve, t, s, kappa)
            assert k.k1 == 0.0
            assert k.k2 == pytest.approx((jt.n @ jt.ddp) / (2.0 * np.pi * jt.G**2))
            h = split_h(curve, t, s, kappa)
            assert h.h1 == pytest.approx(1.0 / np.pi)
            assert h.h2 == 0.0 and h.h3 == 0.0

    def test_smooth_part_continuity_near_diagonal(self):
        # m2 approaches its diagonal limit as s -> t
        curve = make_peanut()
        kappa = 1.1
        t = 1.9
        diag = split_m(curve, t, t, kappa).m2
        near = split_m(curve, t, t + 1e-4, kappa).m2
        assert abs(near - diag) < 1e-3


def make_fourier_curve():
    return make_fourier((0.1, -0.2), [0.55, 0.06, -0.04, 0.03], [0.05, -0.02, 0.01])


SHAPES = [make_apple, make_peanut, make_fourier_curve]


class TestSingleLayerSlopes:
    @pytest.mark.parametrize("make", SHAPES)
    @pytest.mark.parametrize("n", [16, 64])
    def test_tables_match_scipy(self, make, n):
        """kernel_tables against scipy.special off the lim pairs, to 1e-13 of
        each table's largest entry: f = (i/2) H0(kappa r), f1 = -J0(kappa r)/(2 pi),
        f_r = -(i/2) kappa H1(kappa r) and f1_r = kappa J1(kappa r)/(2 pi); at
        the lim pairs f is the m2 limit, f1 is -1/(2 pi), f_r and f1_r are 0."""
        grid = NodeGrid(n)
        jets = jet(make(), grid.nodes)
        geom = pair_geometry(jets, grid.nodes)
        off = np.ones(geom.r.shape, dtype=bool)
        off[geom.lim] = False
        G = jets.G[geom.lim[0]]
        for kappa in KAPPAS:
            tab = kernel_tables(geom, kappa)
            z = kappa * geom.r[off]
            oracle = {"f": 0.5j * special.hankel1(0, z),
                      "f1": -special.j0(z) / (2.0 * np.pi),
                      "f_r": -0.5j * kappa * special.hankel1(1, z),
                      "f1_r": kappa * special.j1(z) / (2.0 * np.pi)}
            for name, ref in oracle.items():
                got = getattr(tab, name)[off]
                assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max(), name
            m2_limit = 0.5j - np.euler_gamma / np.pi - np.log(0.5 * kappa * G) / np.pi
            np.testing.assert_allclose(tab.f[geom.lim], m2_limit, rtol=1e-14)
            assert np.all(tab.f1[geom.lim] == -1.0 / (2.0 * np.pi))
            assert np.all(tab.f_r[geom.lim] == 0.0) and np.all(tab.f1_r[geom.lim] == 0.0)

    @pytest.mark.parametrize("make", SHAPES)
    @pytest.mark.parametrize("n", [16, 64])
    def test_distance_matrix(self, make, n):
        """The pair geometry's r is |p_j - p_i|, with 1 at the lim pairs."""
        grid = NodeGrid(n)
        jets = jet(make(), grid.nodes)
        geom = pair_geometry(jets, grid.nodes)
        r = np.hypot(*(jets.p[None, :, k] - jets.p[:, None, k] for k in (0, 1)))
        r[geom.lim] = 1.0
        assert np.array_equal(geom.r, r)


@pytest.fixture
def hankel_sizes(monkeypatch):
    """The sizes of the arrays that kernels passes to hankel1_0 and hankel1_1."""
    from aescatter import kernels

    sizes = {"hankel1_0": [], "hankel1_1": []}
    for name in sizes:
        original = getattr(kernels, name)

        def counting(x, _name=name, _original=original):
            sizes[_name].append(np.size(x))
            return _original(x)

        monkeypatch.setattr(kernels, name, counting)
    return sizes


class TestAssemblyHankelCalls:
    def test_one_hankel_pair_per_wavenumber_on_the_upper_triangle(
        self, params, hankel_sizes
    ):
        """One assemble_system evaluates H0 and H1 once per wavenumber,
        each on the N(N-1)/2 distinct distances of the 2n nodes."""
        from aescatter import forward

        grid = NodeGrid(16)
        forward.assemble_system(make_apple(), params, grid)
        N = grid.size
        assert hankel_sizes == {"hankel1_0": [N * (N - 1) // 2] * 3,
                                "hankel1_1": [N * (N - 1) // 2] * 3}

    def test_one_hankel_pair_per_wavenumber_in_the_shape_derivative(
        self, params, hankel_sizes
    ):
        """A Discretization and system_sensitivity on it, which takes its
        operators and their r-derivatives from the Discretization's tables,
        evaluate H0 and H1 once per wavenumber, each on the N(N-1)/2
        distinct distances."""
        from aescatter import forward
        from aescatter.inverse_phased import _boundary_motion

        curve, grid = make_apple(), NodeGrid(16)
        motion = _boundary_motion(jet(curve, grid.nodes), grid.nodes, 3)
        x = np.random.default_rng(0).standard_normal(3 * grid.size).astype(complex)
        forward.system_sensitivity(forward.discretize(curve, params, grid), params, x, motion)
        N = grid.size
        assert hankel_sizes == {"hankel1_0": [N * (N - 1) // 2] * 3,
                                "hankel1_1": [N * (N - 1) // 2] * 3}
