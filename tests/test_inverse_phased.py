"""Phased reconstruction building blocks and full loop."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aescatter.forward import IncidentWave, MaterialParams, far_field, gamma_far, solve_forward
from aescatter.geometry import NodeGrid, jet, make_apple, make_fourier, make_peanut
from aescatter.inverse_phased import (
    BoundaryUpdate,
    InverseConfig,
    _boundary_motion,
    _iterate_grid,
    _strip_width,
    add_noise_phased,
    apply_update,
    boundary_error,
    frechet_columns,
    frechet_fd_error,
    initial_curve,
    noise_samples,
    run_phased,
    tikhonov_step,
    trapezoid_norm,
)

OBS = np.pi * np.arange(128) / 64
M = 6


@pytest.fixture(scope="module")
def apple_far_field(params, wave):
    curve = make_apple()
    grid = NodeGrid(64)
    dens = solve_forward(curve, params, wave, grid)
    return curve, dens, far_field(dens, curve, params, OBS, grid), grid


class TestNorms:
    def test_trapezoid_norm_of_cosine(self):
        # ||cos||_{L^2(0,2pi)} = sqrt(pi); the periodic trapezoid rule is
        # exact for the squared cosine.
        t = 2 * np.pi * np.arange(64) / 64
        assert trapezoid_norm(np.cos(t)) == pytest.approx(np.sqrt(np.pi), abs=1e-12)

    def test_boundary_error_identity_and_scale(self):
        from aescatter.geometry import make_circle

        c1 = make_circle((0, 0), 1.0)
        assert boundary_error(c1, c1) == 0.0
        c2 = make_circle((0, 0), 1.1)
        assert boundary_error(c2, c1) == pytest.approx(0.1, abs=1e-12)


class TestNoise:
    def test_zero_delta_identity(self, apple_far_field):
        _, _, ff, _ = apple_far_field
        out = add_noise_phased(ff, 0.0, seed=1)
        np.testing.assert_array_equal(out.values, ff.values)

    def test_relative_bound(self, apple_far_field):
        _, _, ff, _ = apple_far_field
        out = add_noise_phased(ff, 0.01, seed=2)
        rel = np.abs(out.values - ff.values) / np.abs(ff.values)
        assert rel.max() <= 0.01 * np.sqrt(2.0) + 1e-15

    def test_reproducible(self, apple_far_field):
        _, _, ff, _ = apple_far_field
        a = add_noise_phased(ff, 0.05, seed=9)
        b = add_noise_phased(ff, 0.05, seed=9)
        np.testing.assert_array_equal(a.values, b.values)

    def test_negative_delta_rejected(self, apple_far_field):
        _, _, ff, _ = apple_far_field
        with pytest.raises(ValueError):
            add_noise_phased(ff, -0.1, seed=0)

    @pytest.mark.parametrize("delta", [np.nan, np.inf])
    def test_non_finite_delta_rejected(self, apple_far_field, delta):
        # both returned NaN or infinite data
        _, _, ff, _ = apple_far_field
        with pytest.raises(ValueError, match="finite"):
            add_noise_phased(ff, delta, seed=0)

    @pytest.mark.parametrize("model", ["uniform", "truncated-normal"])
    def test_samples_in_range(self, model):
        rng = np.random.default_rng(0)
        s = noise_samples(rng, 10_000, model)
        assert np.all(np.abs(s) <= 1.0)

    def test_unknown_model_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            noise_samples(rng, 10, "gaussian")


MOTION_CURVES = {
    "apple": make_apple,
    "peanut": make_peanut,
    "random": lambda: make_fourier((0.1, -0.2), *np.split(
        np.r_[0.55, 0.06 * np.random.default_rng(11).standard_normal(6)], [4])),
}


class TestBoundaryMotion:
    @pytest.mark.parametrize("degree", [2, 6])
    @pytest.mark.parametrize("name", list(MOTION_CURVES))
    def test_matches_differenced_jet(self, bumped, name, degree):
        """Every field of the motion against central differences of jet on
        the bumped curves, relative to the field's largest entry."""
        curve, grid, h = MOTION_CURVES[name](), NodeGrid(32), 1e-6
        jets = jet(curve, grid.nodes)
        motion = _boundary_motion(jets, grid.nodes, degree)
        fd = {field: [] for field in motion._fields}
        for k in range(2 * degree + 3):
            plus, minus = (jet(bumped(curve, degree, k, s), grid.nodes) for s in (h, -h))
            fd["dp"].append((plus.p - minus.p) / (2.0 * h))
            fd["dp_prime"].append((plus.dp - minus.dp) / (2.0 * h))
            fd["dp_second"].append((plus.ddp - minus.ddp) / (2.0 * h))
            # the frame turns by dtheta: d tau = dtheta nu
            fd["dtheta"].append(np.sum((plus.tau - minus.tau) * jets.nu, axis=-1) / (2.0 * h))
            fd["dG"].append((plus.G - minus.G) / (2.0 * h))
        for field, columns in fd.items():
            ref = np.stack(columns, axis=-1)
            got = getattr(motion, field)
            assert got.shape == ref.shape, field
            assert np.abs(got - ref).max() <= 1e-6 * np.abs(ref).max(), field

    @pytest.mark.parametrize("name", list(MOTION_CURVES))
    def test_center_columns_exact(self, name):
        """The center shifts move every node by e_k and nothing else."""
        grid = NodeGrid(32)
        motion = _boundary_motion(jet(MOTION_CURVES[name](), grid.nodes), grid.nodes, 6)
        assert np.all(motion.dp[:, :, :2] == np.eye(2))
        for field in ("dp_prime", "dp_second", "dtheta", "dG"):
            assert np.all(getattr(motion, field)[..., :2] == 0.0), field


class TestFrechetColumns:
    def test_zero_density_zero_matrix(self, params, apple_far_field):
        curve, dens, _, grid = apple_far_field
        zero = type(dens)(np.zeros_like(dens.phi1_tilde),
                          np.zeros_like(dens.phi2_tilde),
                          np.zeros_like(dens.phi3_tilde))
        B = frechet_columns(curve, zero, params, OBS, M, grid)
        assert np.abs(B).max() == 0.0

    def test_center_column_structure(self, params, apple_far_field):
        # the first column is -i kappa_a cos(t) times the far-field sum with
        # the same frozen density
        curve, dens, ff, grid = apple_far_field
        B = frechet_columns(curve, dens, params, OBS, M, grid)
        expected = -1j * params.kappa_a * np.cos(OBS) * ff.values
        np.testing.assert_allclose(B[:, 0], expected, atol=1e-12)
        expected1 = -1j * params.kappa_a * np.sin(OBS) * ff.values
        np.testing.assert_allclose(B[:, 1], expected1, atol=1e-12)

    def test_matches_per_mode_sums(self, params, apple_far_field):
        """Every column against its sum over the nodes written out mode by
        mode: -i kappa_a (x^ . dp) times the far-field quadrature terms."""
        curve, dens, _, grid = apple_far_field
        B = frechet_columns(curve, dens, params, OBS, M, grid)
        ka, t, s = params.kappa_a, OBS[:, None], grid.nodes[None, :]
        p = curve.point(grid.nodes)
        terms = (-1j * ka * gamma_far(ka) * np.pi / grid.n) * np.exp(
            -1j * ka * (np.cos(t) * p[:, 0] + np.sin(t) * p[:, 1])) \
            * dens.phi3_tilde * jet(curve, grid.nodes).G ** 2
        modes = [np.ones_like(s)] + [np.cos(m * s) for m in range(1, M + 1)] \
            + [np.sin(m * s) for m in range(1, M + 1)]
        expected = np.column_stack(
            [terms.sum(axis=1) * np.cos(OBS), terms.sum(axis=1) * np.sin(OBS)]
            + [(terms * np.cos(t - s) * mode).sum(axis=1) for mode in modes])
        assert np.abs(B - expected).max() <= 1e-13 * np.abs(expected).max()

    def test_directional_finite_differences(self, params, apple_far_field):
        curve, dens, _, grid = apple_far_field
        rng = np.random.default_rng(5)
        assert frechet_fd_error(curve, dens, params, OBS, M, grid, rng) < 1e-4


class TestTikhonovStep:
    def make_system(self, seed=3):
        rng = np.random.default_rng(seed)
        B = rng.standard_normal((40, 2 * M + 3)) + 1j * rng.standard_normal((40, 2 * M + 3))
        w = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        return B, w

    def test_zero_residual_zero_step(self):
        B, _ = self.make_system()
        upd = tikhonov_step(B, np.zeros(40, complex), 1.0, M, 0.9)
        assert np.abs(upd.xi).max() == 0.0

    @pytest.mark.parametrize("lam", [np.nan, np.inf])
    def test_non_finite_lambda_rejected(self, lam):
        # a NaN lambda returned a NaN update
        B, w = self.make_system()
        with pytest.raises(ValueError, match="finite"):
            tikhonov_step(B, w, lam, M, 0.9)

    def test_large_lambda_shrinks_step(self):
        B, w = self.make_system()
        big = tikhonov_step(B, w, 1e9, M, 1.0)
        bound = np.abs((B.conj().T @ w).real).max() / 1e9
        assert np.abs(big.xi).max() <= bound * 2

    def test_normal_equations_satisfied(self):
        from aescatter.inverse_phased import _penalty_diag

        B, w = self.make_system()
        lam = 0.7
        upd = tikhonov_step(B, w, lam, M, 1.0)
        lhs = lam * np.diag(_penalty_diag(M)) + (B.conj().T @ B).real
        res = lhs @ upd.xi - (B.conj().T @ w).real
        assert np.abs(res).max() < 1e-10

    def test_minimizes_penalized_least_squares(self):
        from aescatter.inverse_phased import _penalty_diag

        B, w = self.make_system()
        lam = 0.7
        xi = tikhonov_step(B, w, lam, M, 1.0).xi
        P = np.diag(_penalty_diag(M))

        def objective(x):
            return np.linalg.norm(B @ x - w) ** 2 + lam * x @ P @ x

        base = objective(xi)
        for i in range(len(xi)):
            for s in (+1e-6, -1e-6):
                pert = xi.copy()
                pert[i] += s
                assert objective(pert) >= base - 1e-12

    def test_negative_lambda_rejected(self):
        B, w = self.make_system()
        with pytest.raises(ValueError):
            tikhonov_step(B, w, -1.0, M, 0.9)


class TestUpdates:
    def test_apply_update_center_and_radius(self):
        curve = make_fourier((0.0, 0.0), [1.0, 0.0], [0.0])
        upd = BoundaryUpdate(np.array([0.1, -0.2]),
                             np.array([0.05, 0.01]), np.array([0.02]))
        new = apply_update(curve, upd)
        np.testing.assert_allclose(new.center, [0.1, -0.2], atol=1e-15)
        t = np.array([0.0, 1.0, 2.5])
        np.testing.assert_allclose(
            new.radial.radius(t),
            1.05 + 0.01 * np.cos(t) + 0.02 * np.sin(t), atol=1e-15)

    def test_apply_update_pads_coefficients(self):
        curve = make_fourier((0.0, 0.0), [1.0, 0.1], [0.05])
        upd = BoundaryUpdate(np.zeros(2), np.zeros(4), np.zeros(3))
        new = apply_update(curve, upd)
        assert len(new.radial.a) == 4

    def test_pinching_update_raises(self):
        curve = make_fourier((0.0, 0.0), [0.5, 0.0], [0.0])
        upd = BoundaryUpdate(np.zeros(2), np.array([-0.6, 0.0]), np.array([0.0]))
        with pytest.raises(ValueError, match="positive"):
            apply_update(curve, upd)

    def test_scaled(self):
        upd = BoundaryUpdate(np.array([1.0, 2.0]), np.array([3.0, 4.0]),
                             np.array([5.0]))
        np.testing.assert_allclose(upd.scaled(0.5).xi, 0.5 * upd.xi, atol=1e-15)

    @settings(max_examples=15, deadline=None)
    @given(st.floats(-0.1, 0.1), st.floats(-0.1, 0.1))
    def test_delta_r_matches_series(self, a1, b1):
        upd = BoundaryUpdate(np.zeros(2), np.array([0.0, a1]), np.array([b1]))
        t = np.linspace(0, 2 * np.pi, 7)
        np.testing.assert_allclose(upd.delta_r(t),
                                   a1 * np.cos(t) + b1 * np.sin(t), atol=1e-12)


class TestStripWidth:
    @pytest.mark.parametrize("e", [0.5, 0.9, 0.99])
    def test_shifted_cosine(self, e):
        # r = 1 + e cos t: |p'|^2 = |1 + e z|^2 on |z| = 1, zero at z = -1/e
        curve = make_fourier((0.3, -0.2), [1.0, e], [0.0])
        assert _strip_width(curve) == pytest.approx(np.log(1.0 / e), rel=1e-8)

    def test_circle_has_no_finite_strip(self):
        assert _strip_width(make_fourier((0.0, 0.0), [0.4, 0.0, 0.0], [0.0, 0.0])) == np.inf


def _shifted_cosine(sigma):
    """r = (1 + e cos t) / 2 with e = exp(-sigma): a curve of strip width
    sigma, small enough that the default wavenumbers ask for no more than
    the floor."""
    return make_fourier((0.3, -0.2), [0.5, 0.5 * np.exp(-sigma)], [0.0])


def _faster(params, factor):
    return dataclasses.replace(params, omega=factor * params.omega)


class TestIterateGrid:
    def test_circle_takes_the_floor(self, params):
        grid, sigma = _iterate_grid(make_fourier((0.0, 0.0), [0.4, 0.0], [0.0]), 64, params)
        assert grid.n == 24 and sigma == np.inf

    @pytest.mark.parametrize("sigma", [0.2, 0.3, 0.45, 0.6, 0.9, 2.0])
    def test_least_multiple_of_8_in_floor_to_cap(self, params, sigma):
        grid, got = _iterate_grid(_shifted_cosine(sigma), 64, params)
        n = grid.n
        assert got == pytest.approx(sigma, rel=1e-8)
        assert n % 8 == 0 and 24 <= n <= 64
        assert 2 * n * got >= 34 or n == 64
        assert 2 * (n - 8) * got < 34 or n == 24

    @pytest.mark.parametrize("cap, sigma", [(16, 0.7), (32, 0.45)])  # they ask for 32, 40
    def test_small_cap_is_honoured(self, params, cap, sigma):
        circle = make_fourier((0.0, 0.0), [0.4, 0.0], [0.0])
        assert _iterate_grid(circle, cap, params)[0].n == min(cap, 24)
        assert _iterate_grid(_shifted_cosine(sigma), 64, params)[0].n > cap
        assert _iterate_grid(_shifted_cosine(sigma), cap, params)[0].n == cap

    @pytest.mark.parametrize("cap", [16, 32, 64])
    def test_thin_curve_skipped_only_below_the_resolved_width(self, params, cap):
        edge = 20.0 / (2 * cap)
        assert _iterate_grid(_shifted_cosine(1.01 * edge), cap, params)[0].n == cap
        with pytest.raises(ValueError, match="too thin"):
            _iterate_grid(_shifted_cosine(0.99 * edge), cap, params)

    @pytest.mark.parametrize("factor, n", [(1, 24), (3, 32), (4, 40), (6, 48)])
    def test_wave_band_raises_the_grid(self, params, factor, n):
        """A unit circle, where sigma asks for nothing: at 4 times the default
        omega, max(kappa) = 8.8 puts modes on it that n = 32 resolves to
        1e-13 of the far field; the band asks for 40."""
        circle = make_fourier((0.0, 0.0), [1.0], [])
        assert _iterate_grid(circle, 64, _faster(params, factor))[0].n == n
        assert _iterate_grid(circle, 32, _faster(params, factor))[0].n == min(n, 32)

    @pytest.mark.parametrize("center, n", [((3.0, 0.0), 24), ((1.3, 0.0), 40),
                                           ((1.1, 0.0), 64), ((0.5, 0.0), 64)])
    def test_near_disc_raises_the_grid(self, params, center, n):
        """A circle of radius 0.5 (speed 0.5) and a disc of radius 0.3 at a
        gap of 2.2, 0.5, 0.3 and none: w = gap / (2 * 0.5), so n >= 34 / (2 w)."""
        circle = make_fourier((0.0, 0.0), [0.5], [])
        assert _iterate_grid(circle, 64, params, near=(center, 0.3))[0].n == n


# Settings that must not construct: a NaN in a checked field, a grid cap
# below the singular quadrature's n = 8, a count that is not an integer
# (M = 2.5 and max_iter = 2.5 constructed, then raised a TypeError in the run),
# an initial circle that no curve has (it failed only when the run built its
# first curve; a 3-vector center with "cannot reshape array of size 3").
REJECTED = {
    "initial_radius-nan": lambda: InverseConfig((0, 0), np.nan, 0.1),
    "initial_radius-zero": lambda: InverseConfig((0, 0), 0.0, 0.1),
    "initial_radius-negative": lambda: InverseConfig((0, 0), -0.4, 0.1),
    "initial_center-nan": lambda: InverseConfig((np.nan, 0.0), 0.5, 0.1),
    "initial_center-inf": lambda: InverseConfig((0.0, np.inf), 0.5, 0.1),
    "initial_center-3": lambda: InverseConfig((0.0, 0.0, 0.0), 0.5, 0.1),
    "epsilon-nan": lambda: InverseConfig((0, 0), 0.5, np.nan),
    "max_iter-nan": lambda: InverseConfig((0, 0), 0.5, 0.1, max_iter=np.nan),
    "n_forward-4": lambda: InverseConfig((0, 0), 0.5, 0.1, n_forward=4),
    "n_forward-7": lambda: InverseConfig((0, 0), 0.5, 0.1, n_forward=7),
    "M-float": lambda: InverseConfig((0, 0), 0.5, 0.1, M=2.5),
    "M-bool": lambda: InverseConfig((0, 0), 0.5, 0.1, M=True),
    "max_iter-float": lambda: InverseConfig((0, 0), 0.5, 0.1, max_iter=2.5),
    "n_forward-float": lambda: InverseConfig((0, 0), 0.5, 0.1, n_forward=64.0),
    "n_forward-numpy-float": lambda: InverseConfig((0, 0), 0.5, 0.1, n_forward=np.float64(64)),
    "lam-nan": lambda: MaterialParams(lam=np.nan, mu=2.56),
    "mu-nan": lambda: MaterialParams(lam=3.88, mu=np.nan),
    "rho_e-nan": lambda: MaterialParams(3.88, 2.56, rho_e=np.nan),
    "omega-nan": lambda: MaterialParams(3.88, 2.56, omega=np.nan),
}


class TestConfig:
    def test_validation(self):
        kw = dict(initial_center=(0, 0), initial_radius=0.5, epsilon=0.1)
        with pytest.raises(ValueError):
            InverseConfig(**kw, M=0)
        with pytest.raises(ValueError):
            InverseConfig(**kw, rho=0.0)
        with pytest.raises(ValueError):
            InverseConfig(initial_center=(0, 0), initial_radius=0.5, epsilon=-1.0)

    @pytest.mark.parametrize("name", list(REJECTED))
    def test_nan_and_coarse_cap_rejected(self, name):
        # each of these constructed, and a NaN ran on to the iteration cap
        # or a cap below 8 failed only inside the first prediction
        with pytest.raises(ValueError):
            REJECTED[name]()

    def test_initial_curve_is_circle(self):
        cfg = InverseConfig(initial_center=(0.2, -0.1), initial_radius=0.4,
                            epsilon=0.1)
        curve = initial_curve(cfg)
        t = np.linspace(0, 2 * np.pi, 9)
        np.testing.assert_allclose(curve.radial.radius(t), 0.4, atol=1e-15)
        np.testing.assert_allclose(curve.center, [0.2, -0.1], atol=1e-15)


class TestRunPhased:
    def test_fixed_point_exit(self, params, wave):
        # data generated from the initial guess: E_0 = 0, immediate exit
        cfg = InverseConfig(initial_center=(0.1, 0.0), initial_radius=0.5,
                            epsilon=0.05)
        guess = initial_curve(cfg)
        grid = NodeGrid(64)
        dens = solve_forward(guess, params, wave, grid)
        ff = far_field(dens, guess, params, OBS, grid)
        records = run_phased(ff, params, wave, cfg)
        assert len(records) == 1
        assert records[0].E_k < 1e-10

    def test_truth_start_does_not_move(self, params, wave):
        # noise-free data with the exact boundary as the initial guess:
        # the Fourier guess cannot represent the apple exactly, so compare
        # on a representable target instead
        target = make_fourier((0.05, -0.02), [0.6, 0.1, 0.02], [0.03, 0.0])
        grid = NodeGrid(64)
        dens = solve_forward(target, params, wave, grid)
        ff = far_field(dens, target, params, OBS, grid)
        cfg = InverseConfig(initial_center=(0.05, -0.02), initial_radius=0.6,
                            epsilon=1e-12, M=2, max_iter=3)
        records = run_phased(ff, params, wave, cfg, ground_truth=target)
        # started on a curve differing only in two small modes; the loop
        # must not blow up and E must not increase from its small start
        assert records[-1].E_k <= records[0].E_k + 1e-12

    def test_peanut_high_noise_stagnation_returns_history(self, params):
        """At 5% noise from a poor guess no admissible step lowers the
        residual after a few iterations: the loop stops there and returns
        every record instead of raising."""
        truth = make_peanut()
        wave13 = IncidentWave(13 * np.pi / 8)
        grid = NodeGrid(100)
        dens = solve_forward(truth, params, wave13, grid)
        ff = far_field(dens, truth, params, OBS, grid)
        noisy = add_noise_phased(ff, 0.05, seed=3)
        cfg = InverseConfig(initial_center=(-0.67, -0.12), initial_radius=0.4,
                            epsilon=0.25)
        records = run_phased(noisy, params, wave13, cfg, ground_truth=truth)
        assert [r.k for r in records] == list(range(len(records)))
        assert records[-1].E_k > cfg.epsilon
        assert records[-1].k < cfg.max_iter

    def test_residual_strictly_decreases(self, params, wave):
        """Criterion-8 data, where the first full step goes uphill
        (E 1.1147 -> 1.1211): the backtracking takes a shorter one."""
        truth = make_apple()
        grid = NodeGrid(100)
        ff = far_field(solve_forward(truth, params, wave, grid), truth, params, OBS, grid)
        noisy = add_noise_phased(ff, 0.01, seed=3)
        cfg = InverseConfig(initial_center=(-0.6, -0.3), initial_radius=0.4, epsilon=0.2)
        E = [r.E_k for r in run_phased(noisy, params, wave, cfg)]
        assert len(E) >= 3
        assert all(b < a for a, b in zip(E, E[1:]))

    def test_stagnated_iterate_is_resolved(self, params):
        """From 3pi/8 the steps head for a pinch. Candidates too thin for
        the n = 64 grid are skipped, so the last iterate's E_k agrees with
        a solve on the data grid; accepting them left it 2.7e-3 off."""
        truth = make_apple()
        wave = IncidentWave(3 * np.pi / 8)
        grid = NodeGrid(100)
        ff = far_field(solve_forward(truth, params, wave, grid), truth, params, OBS, grid)
        noisy = add_noise_phased(ff, 0.01, seed=3)
        cfg = InverseConfig(initial_center=(-0.6, -0.3), initial_radius=0.4, epsilon=0.2)
        last = run_phased(noisy, params, wave, cfg)[-1]
        assert cfg.epsilon < last.E_k and last.k < cfg.max_iter
        pred = far_field(solve_forward(last.curve, params, wave, grid), last.curve,
                         params, OBS, grid)
        E_fine = trapezoid_norm(noisy.values - pred.values) / trapezoid_norm(noisy.values)
        assert abs(E_fine - last.E_k) < 1e-5

    def test_chosen_grids_keep_the_records_of_the_cap(self, params, wave, monkeypatch):
        """Criterion 8's run, on the grids ``_iterate_grid`` chooses and with
        every prediction on the cap's grid: the same k, with E_k and Err_k
        within 1e-11, and each record carries its grid and sigma."""
        from aescatter import inverse_phased

        truth, grid = make_apple(), NodeGrid(100)
        ff = far_field(solve_forward(truth, params, wave, grid), truth, params, OBS, grid)
        noisy = add_noise_phased(ff, 0.01, seed=3)
        cfg = InverseConfig(initial_center=(-0.6, -0.3), initial_radius=0.4, epsilon=0.2)
        chosen = run_phased(noisy, params, wave, cfg, ground_truth=truth)
        rule = inverse_phased._iterate_grid
        monkeypatch.setattr(inverse_phased, "_iterate_grid", lambda curve, cap, *rest:
                            (NodeGrid(cap), rule(curve, cap, *rest)[1]))
        capped = run_phased(noisy, params, wave, cfg, ground_truth=truth)
        assert [r.k for r in chosen] == [r.k for r in capped]
        np.testing.assert_allclose([(r.E_k, r.Err_k, r.sigma) for r in chosen],
                                   [(r.E_k, r.Err_k, r.sigma) for r in capped],
                                   rtol=1e-11, atol=0)
        assert chosen[0].n == 24 and chosen[0].sigma == np.inf
        assert all(r.n < cfg.n_forward for r in chosen) and {r.n for r in capped} == {64}

    def test_chosen_grids_keep_the_records_of_the_cap_at_4_omega(self, params, monkeypatch):
        """At 4 times the default omega the wave band, not sigma, sets the
        grid of these nearly round iterates (n = 40 where sigma asks for 24
        or 32): the same k as on the cap's grid, with E_k and Err_k within
        1e-11 (sigma alone leaves them 4e-7 apart)."""
        from aescatter import inverse_phased

        fast, wave6 = _faster(params, 4), IncidentWave(np.pi / 6)
        truth, grid = make_fourier((0.1, 0.0), [1.0, 0.0, 0.03], [0.0, 0.012]), NodeGrid(100)
        ff = far_field(solve_forward(truth, fast, wave6, grid), truth, fast, OBS, grid)
        noisy = add_noise_phased(ff, 0.01, seed=3)
        cfg = InverseConfig(initial_center=(0.0, 0.0), initial_radius=0.95, epsilon=0.01,
                            max_iter=8)
        chosen = run_phased(noisy, fast, wave6, cfg, ground_truth=truth)
        rule = inverse_phased._iterate_grid
        monkeypatch.setattr(inverse_phased, "_iterate_grid", lambda curve, cap, *rest:
                            (NodeGrid(cap), rule(curve, cap, *rest)[1]))
        capped = run_phased(noisy, fast, wave6, cfg, ground_truth=truth)
        assert [r.k for r in chosen] == [r.k for r in capped] and len(chosen) > 3
        np.testing.assert_allclose([(r.E_k, r.Err_k) for r in chosen],
                                   [(r.E_k, r.Err_k) for r in capped], rtol=1e-11, atol=0)
        assert all(32 < r.n < cfg.n_forward for r in chosen)

    def test_err_column_none_without_truth(self, params, wave):
        cfg = InverseConfig(initial_center=(0.0, 0.0), initial_radius=0.5,
                            epsilon=10.0)
        guess = initial_curve(cfg)
        grid = NodeGrid(64)
        dens = solve_forward(guess, params, wave, grid)
        ff = far_field(dens, guess, params, OBS, grid)
        records = run_phased(ff, params, wave, cfg)
        assert records[0].Err_k is None

    def test_jacobian_reads_the_prediction(self, params, wave, apple_far_field, monkeypatch):
        """The Jacobian of a step takes the grid, node jet and F of its
        prediction: it evaluates neither ``jet`` nor a far-field matrix, and
        equals ``frechet_columns`` on the prediction's grid plus the
        incident-phase patch bit for bit."""
        from aescatter import forward, inverse_phased

        *_, observed, grid = apple_far_field
        cfg = InverseConfig(initial_center=(-0.6, -0.3), initial_radius=0.4, epsilon=0.2,
                            n_forward=grid.n)
        loop = {}
        monkeypatch.setattr(inverse_phased, "_newton_tikhonov",
                            lambda values, predict, jacobian, *rest:
                            loop.update(predict=predict, jacobian=jacobian) or [])
        run_phased(observed, params, wave, cfg)
        curve = initial_curve(cfg)
        predicted, state = loop["predict"](curve, _iterate_grid(curve, cfg.n_forward, params)[0])
        grid = state[0]
        ref = frechet_columns(curve, solve_forward(curve, params, wave, grid), params,
                              observed.angles, cfg.M, grid)
        ref[:, :2] += 1j * params.kappa_a * wave.direction * predicted[:, None]
        calls = []

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        for module in (forward, inverse_phased):
            for name in ("jet", "far_field_matrix"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        B = loop["jacobian"](predicted, state)
        assert calls == []
        assert np.array_equal(B, ref)
