"""Phaseless reconstruction building blocks and full loop."""

import numpy as np
import pytest

from aescatter import forward, inverse_phased, inverse_phaseless, multibody
from aescatter.forward import (
    IncidentWave,
    assemble_system,
    far_field_matrix,
    gamma_far,
    rhs_plane_wave,
)
from aescatter.geometry import (
    NodeGrid,
    jet,
    make_apple,
    make_circle,
    make_fourier,
    make_peanut,
    translate,
)
from aescatter.inverse_phased import (
    BoundaryUpdate,
    InverseConfig,
    apply_update,
    frechet_columns,
    initial_curve,
)
from aescatter.inverse_phaseless import (
    PhaselessData,
    ReferenceBallSpec,
    _ball_grid,
    _fixed_ball,
    _predicted_modulus,
    add_noise_phaseless,
    exact_phaseless_jacobian,
    phaseless_columns,
    run_phaseless,
)
from aescatter.multibody import far_field_sum, solve_two_body_forward

OBS = 2.0 * np.pi * np.arange(64) / 64
M = 6
BALL = ReferenceBallSpec((6.6, 0.0), 0.71)


def _ball(params, wave, grid):
    """The fixed part of ``BALL``'s two-body problem, as ``run_phaseless``
    builds it once."""
    return _fixed_ball(BALL.curve(), params, wave, OBS, grid)


@pytest.fixture(scope="module")
def peanut_scene(params, wave):
    curve = make_peanut()
    grid = NodeGrid(32)
    dens = solve_two_body_forward(curve, BALL.curve(), params, wave, grid)
    total = far_field_sum(dens, curve, BALL.curve(), params, OBS, grid, grid)
    data = PhaselessData(OBS, np.abs(total.values) ** 2)
    return curve, dens, total, data, grid


class TestDataTypes:
    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            PhaselessData(OBS, -np.ones_like(OBS))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PhaselessData(OBS, np.ones(3))

    def test_nonfinite_rejected(self):
        vals = np.ones_like(OBS)
        vals[0] = np.inf
        with pytest.raises(ValueError):
            PhaselessData(OBS, vals)

    def test_ball_spec(self):
        with pytest.raises(ValueError):
            ReferenceBallSpec((0, 0), -1.0)
        ball = ReferenceBallSpec((6.6, 0.0), 0.71)
        curve = ball.curve()
        np.testing.assert_allclose(curve.center, [6.6, 0.0], atol=1e-15)
        np.testing.assert_allclose(curve.radial.radius(np.zeros(1)), 0.71, atol=1e-15)


class TestNoise:
    def test_zero_delta_identity(self, peanut_scene):
        *_, data, _ = peanut_scene
        out = add_noise_phaseless(data, 0.0, seed=1)
        np.testing.assert_array_equal(out.values, data.values)

    def test_values_stay_nonnegative(self, peanut_scene):
        *_, data, _ = peanut_scene
        out = add_noise_phaseless(data, 0.05, seed=2)
        assert np.all(out.values >= 0.0)

    def test_reproducible(self, peanut_scene):
        *_, data, _ = peanut_scene
        a = add_noise_phaseless(data, 0.05, seed=7)
        b = add_noise_phaseless(data, 0.05, seed=7)
        np.testing.assert_array_equal(a.values, b.values)

    def test_delta_bounds_enforced(self, peanut_scene):
        *_, data, _ = peanut_scene
        with pytest.raises(ValueError):
            add_noise_phaseless(data, 1.0, seed=0)
        with pytest.raises(ValueError):
            add_noise_phaseless(data, -0.1, seed=0)


class TestResidual:
    def test_consistency_zero(self, params, wave, peanut_scene):
        curve, _, _, data, grid = peanut_scene
        pred, _ = _predicted_modulus(curve, _ball(params, wave, grid), params, wave, OBS, grid)
        assert np.abs(data.values - pred).max() < 1e-9

    def test_global_phase_invariance(self, params, wave, peanut_scene):
        # multiplying the underlying far field by a unit phase leaves the
        # squared-modulus data unchanged
        curve, _, total, _, grid = peanut_scene
        rotated = PhaselessData(OBS, np.abs(np.exp(0.7j) * total.values) ** 2)
        pred, _ = _predicted_modulus(curve, _ball(params, wave, grid), params, wave, OBS, grid)
        assert np.abs(rotated.values - pred).max() < 1e-9

    def test_translation_sensitivity(self, params, wave, peanut_scene):
        # moving the obstacle with the ball fixed changes the data
        curve, _, _, data, grid = peanut_scene
        moved = translate(curve, (0.5, 0.0))
        pred, _ = _predicted_modulus(moved, _ball(params, wave, grid), params, wave, OBS, grid)
        assert np.abs(data.values - pred).max() > 1e-3


class TestColumns:
    def test_zero_density_zero_matrix(self, params, peanut_scene):
        curve, dens, total, _, grid = peanut_scene
        zero_d = type(dens)(
            body_d=type(dens.body_d)(
                np.zeros_like(dens.body_d.phi1_tilde),
                np.zeros_like(dens.body_d.phi2_tilde),
                np.zeros_like(dens.body_d.phi3_tilde),
            ),
            body_b=dens.body_b,
        )
        A = phaseless_columns(curve, zero_d, params, total.values, OBS, M, grid)
        assert np.abs(A).max() == 0.0

    def test_structural_identity(self, params, peanut_scene):
        # A = 2 Re{conj(total far field) odot B_D}
        curve, dens, total, _, grid = peanut_scene
        A = phaseless_columns(curve, dens, params, total.values, OBS, M, grid)
        B = frechet_columns(curve, dens.body_d, params, OBS, M, grid)
        expected = 2.0 * (np.conj(total.values)[:, None] * B).real
        assert np.abs(A - expected).max() < 1e-12

    def test_directional_finite_differences(self, params, peanut_scene):
        # derivative of |S_D + S_B|^2 with both densities frozen
        curve, dens, total, _, grid = peanut_scene
        A = phaseless_columns(curve, dens, params, total.values, OBS, M, grid)
        t = grid.nodes
        vartheta = dens.body_d.phi3_tilde * jet(curve, t).G ** 2
        ka = params.kappa_a
        ball_part = total.values - gamma_far(ka) * (np.pi / grid.n) * np.exp(
            -1j * ka * (np.cos(OBS)[:, None] * curve.point(t)[:, 0]
                        + np.sin(OBS)[:, None] * curve.point(t)[:, 1])) @ vartheta

        def modulus_sq(update, sign):
            p = curve.point(t) + sign * update.delta_c \
                + (sign * update.delta_r(t))[:, None] \
                * np.column_stack([np.cos(t), np.sin(t)])
            phase = np.exp(-1j * ka * (np.cos(OBS)[:, None] * p[:, 0]
                                       + np.sin(OBS)[:, None] * p[:, 1]))
            s_d = gamma_far(ka) * (np.pi / grid.n) * phase @ vartheta
            return np.abs(s_d + ball_part) ** 2

        rng = np.random.default_rng(5)
        eps = 1e-5
        for _ in range(5):
            xi = rng.standard_normal(2 * M + 3)
            xi /= np.linalg.norm(xi)
            upd = BoundaryUpdate(eps * xi[:2], eps * xi[2:3 + M], eps * xi[3 + M:])
            fd = (modulus_sq(upd, 1.0) - modulus_sq(upd, -1.0)) / (2.0 * eps)
            pred = A @ xi
            assert np.abs(fd - pred).max() / np.abs(fd).max() < 1e-4

    def test_exact_jacobian_matches_secant(self, params, wave):
        from aescatter.geometry import make_fourier

        grid = NodeGrid(32)
        curve = make_fourier((0.0, 0.0), [0.49, 0.0, -0.15], [0.0, 0.0])
        J = exact_phaseless_jacobian(curve, BALL.curve(), params, wave, OBS, 1, grid)
        # compare the center column against an independent secant at a
        # different step size
        from aescatter.inverse_phaseless import _predicted_modulus
        h = 1e-5
        up = BoundaryUpdate(np.array([h, 0.0]), np.zeros(2), np.zeros(1))
        from aescatter.inverse_phased import apply_update
        pp, _ = _predicted_modulus(apply_update(curve, up), _ball(params, wave, grid), params,
                                   wave, OBS, grid)
        pm, _ = _predicted_modulus(apply_update(curve, up.scaled(-1.0)),
                                   _ball(params, wave, grid), params, wave, OBS, grid)
        secant = (pp - pm) / (2 * h)
        assert np.abs(J[:, 0] - secant).max() / np.abs(secant).max() < 1e-4


class TestExactJacobian:
    DEGREE = 2

    @staticmethod
    def _curve():
        return make_fourier((0.0, 0.1), [0.49, 0.02, -0.15], [0.03, 0.01])

    def test_matches_differenced_solves(self, params, wave):
        """Every column against central differences of full two-body
        solves on the perturbed boundaries."""
        grid, M, h = NodeGrid(32), self.DEGREE, 1e-6
        curve = self._curve()
        J = exact_phaseless_jacobian(curve, BALL.curve(), params, wave, OBS, M, grid)
        n_par, ball = 2 * M + 3, _ball(params, wave, grid)
        fd = np.empty((len(OBS), n_par))
        for i in range(n_par):
            xi = np.zeros(n_par)
            xi[i] = h
            bump = BoundaryUpdate(xi[:2], xi[2:3 + M], xi[3 + M:])
            plus, minus = (
                _predicted_modulus(apply_update(curve, b), ball, params,
                                   wave, OBS, grid)[0]
                for b in (bump, bump.scaled(-1.0))
            )
            fd[:, i] = (plus - minus) / (2.0 * h)
        assert np.abs(J - fd).max() / np.abs(fd).max() <= 1e-6

    def test_one_assembly_and_factorization(self, params, wave, monkeypatch):
        calls = {"assemble_two_body": 0, "factor_system": 0, "solve_two_body_forward": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            # inverse_phaseless does not import solve_two_body_forward
            for module in (m for m in (inverse_phaseless, multibody) if hasattr(m, name)):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        exact_phaseless_jacobian(self._curve(), BALL.curve(), params, wave, OBS,
                                 self.DEGREE, NodeGrid(16))
        assert calls == {"assemble_two_body": 1, "factor_system": 1,
                         "solve_two_body_forward": 0}


class TestRunPhaseless:
    def test_jacobian_reuses_the_line_search_factorization(
        self, params, wave, peanut_scene, monkeypatch
    ):
        """One two-body assembly per predicted modulus and none inside the
        Jacobian, which takes the accepted candidate's factorization."""
        *_, data, _ = peanut_scene
        counts = {"assemble_two_body": 0, "predictions": 0, "jacobians": 0,
                  "in_jacobian": 0}
        inside = []
        assemble = multibody.assemble_two_body
        predict = inverse_phaseless._predicted_modulus
        jacobian = inverse_phaseless._jacobian_at

        def counting_assemble(*args, **kwargs):
            counts["assemble_two_body"] += 1
            counts["in_jacobian"] += len(inside)
            return assemble(*args, **kwargs)

        def counting_predict(*args, **kwargs):
            counts["predictions"] += 1
            return predict(*args, **kwargs)

        def marked_jacobian(*args, **kwargs):
            counts["jacobians"] += 1
            inside.append(True)
            try:
                return jacobian(*args, **kwargs)
            finally:
                inside.pop()

        for module in (inverse_phaseless, multibody):
            monkeypatch.setattr(module, "assemble_two_body", counting_assemble)
        monkeypatch.setattr(inverse_phaseless, "_predicted_modulus", counting_predict)
        monkeypatch.setattr(inverse_phaseless, "_jacobian_at", marked_jacobian)
        cfg = InverseConfig(initial_center=(0.0, 0.1), initial_radius=0.5,
                            epsilon=1e-6, M=2, max_iter=2, n_forward=16)
        records = run_phaseless(data, BALL, params, wave, cfg)
        assert counts["jacobians"] == len(records) - 1 >= 1
        assert counts["assemble_two_body"] == counts["predictions"] > counts["jacobians"]
        assert counts["in_jacobian"] == 0

    def test_ball_self_block_assembled_once(self, params, wave, peanut_scene, monkeypatch):
        """The ball never moves: one run assembles its self block once, and
        the obstacle's at every prediction."""
        *_, data, _ = peanut_scene
        ball = BALL.curve().to_dict()
        calls = {"ball": 0, "obstacle": 0}
        assemble = forward.assemble_system

        def counting(curve, params, grid):
            calls["ball" if curve.to_dict() == ball else "obstacle"] += 1
            return assemble(curve, params, grid)

        for module in (forward, inverse_phaseless, multibody):
            monkeypatch.setattr(module, "assemble_system", counting)
        cfg = InverseConfig(initial_center=(-0.7, 0.2), initial_radius=0.3,
                            epsilon=1e-3, M=2, max_iter=2, n_forward=16)
        records = run_phaseless(data, BALL, params, wave, cfg)
        assert calls["ball"] == 1
        assert calls["obstacle"] >= len(records) == 3

    def test_residual_strictly_decreases(self, params, wave, peanut_scene):
        *_, data, _ = peanut_scene
        cfg = InverseConfig(initial_center=(-0.7, 0.2), initial_radius=0.3,
                            epsilon=1e-3, n_forward=32, max_iter=4)
        E = [r.E_k for r in run_phaseless(data, BALL, params, wave, cfg)]
        assert len(E) == 5
        assert all(b < a for a, b in zip(E, E[1:]))

    def test_fixed_point_exit(self, params, wave):
        cfg = InverseConfig(initial_center=(0.0, 0.1), initial_radius=0.5,
                            epsilon=0.05, n_forward=32)
        guess = initial_curve(cfg)
        grid = NodeGrid(32)
        dens = solve_two_body_forward(guess, BALL.curve(), params, wave, grid)
        total = far_field_sum(dens, guess, BALL.curve(), params, OBS, grid, grid)
        data = PhaselessData(OBS, np.abs(total.values) ** 2)
        records = run_phaseless(data, BALL, params, wave, cfg)
        assert len(records) == 1
        assert records[0].E_k < 1e-10

    def test_ball_collision_rejected(self, params, wave, peanut_scene):
        *_, data, _ = peanut_scene
        cfg = InverseConfig(initial_center=(6.0, 0.0), initial_radius=0.5,
                            epsilon=0.05, n_forward=32)
        with pytest.raises(ValueError, match="reference ball"):
            run_phaseless(data, BALL, params, wave, cfg)


def _differenced_jacobian(curve_d, ball_curve, params, wave, angles, M, grid, step=1e-6):
    """The implicit-differentiation Jacobian with every obstacle-dependent
    piece (A_dd x_d, both cross-block products, b_d and the obstacle's
    far-field quadrature) central-differenced on perturbed curves."""
    ball = _fixed_ball(ball_curve, params, wave, angles, grid)
    solve, x, *_ = _predicted_modulus(curve_d, ball, params, wave, angles, grid)[1]
    N = grid.size
    x_d, x_b = x[: 3 * N], x[3 * N :]

    def moving_terms(curve):
        A_db, A_bd = multibody.cross_blocks(
            multibody.cross_pair(curve, ball_curve, params, grid, ball.grid))
        rows_d = (
            assemble_system(curve, params, grid) @ x_d
            + A_db @ x_b
            - np.concatenate(rhs_plane_wave(curve, params, wave, grid))
        )
        ff = far_field_matrix(curve, params, angles, grid) @ x_d[2 * N :]
        return np.concatenate([rows_d, A_bd @ x_d]), ff

    n_par = 2 * M + 3
    dR = np.empty((len(x), n_par), dtype=complex)
    dF = np.empty((len(angles), n_par), dtype=complex)
    for i in range(n_par):
        xi = np.zeros(n_par)
        xi[i] = step
        bump = BoundaryUpdate(xi[:2], xi[2 : 3 + M], xi[3 + M :])
        r_plus, f_plus = moving_terms(apply_update(curve_d, bump))
        r_minus, f_minus = moving_terms(apply_update(curve_d, bump.scaled(-1.0)))
        dR[:, i] = (r_plus - r_minus) / (2.0 * step)
        dF[:, i] = (f_plus - f_minus) / (2.0 * step)
    dx = solve(-dR)

    F_d = far_field_matrix(curve_d, params, angles, grid)
    F_b = far_field_matrix(ball_curve, params, angles, ball.grid)
    u = F_d @ x_d[2 * N :] + F_b @ x_b[2 * ball.grid.size :]
    du = dF + F_d @ dx[2 * N : 3 * N] + F_b @ dx[3 * N + 2 * ball.grid.size :]
    return 2.0 * (np.conj(u)[:, None] * du).real


def _random_fourier(seed):
    rng = np.random.default_rng(seed)
    return make_fourier(0.2 * rng.standard_normal(2), [0.5, *0.04 * rng.standard_normal(3)],
                        0.04 * rng.standard_normal(3))


JACOBIAN_CURVES = {
    "criterion-9-start": lambda: make_fourier((-0.7, 0.2), [0.3], []),
    "three-term": TestExactJacobian._curve,
    "random": lambda: _random_fourier(11),
}


class TestAnalyticJacobian:
    @pytest.mark.parametrize("degree", [2, 6])
    @pytest.mark.parametrize("name", list(JACOBIAN_CURVES))
    def test_matches_differenced_moving_terms(self, params, wave, name, degree):
        """Analytic cross blocks, right-hand side and far field (and zero
        center columns of the self block) against differencing them all."""
        grid, curve, ball = NodeGrid(32), JACOBIAN_CURVES[name](), BALL.curve()
        J = exact_phaseless_jacobian(curve, ball, params, wave, OBS, degree, grid)
        ref = _differenced_jacobian(curve, ball, params, wave, OBS, degree, grid)
        assert np.abs(J - ref).max() / np.abs(ref).max() <= 1e-6

    def test_no_assemblies_and_no_cross_blocks(self, params, wave, monkeypatch):
        """One Jacobian assembles no system and builds no cross blocks: every
        obstacle-dependent piece is differentiated on the given scene."""
        grid, curve = NodeGrid(16), TestExactJacobian._curve()
        ball = _ball(params, wave, grid)
        scene = _predicted_modulus(curve, ball, params, wave, OBS, grid)[1]
        calls = {"assemble_system": 0, "cross_blocks": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            for module in (forward, inverse_phaseless, multibody):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        degree = 3
        inverse_phaseless._jacobian_at(curve, ball, params, wave, OBS, degree,
                                       grid, scene)
        assert calls == {"assemble_system": 0, "cross_blocks": 0}

    def test_scene_values_reused(self, params, wave, monkeypatch):
        """The Jacobian takes the cross blocks' Hankel values and F_D from the
        scene of its prediction: it calls neither H0 nor H1 from
        ``multibody`` and builds no far-field matrix, and it equals the
        public Jacobian bit for bit."""
        grid, curve, degree = NodeGrid(16), TestExactJacobian._curve(), 3
        ref = exact_phaseless_jacobian(curve, BALL.curve(), params, wave, OBS, degree, grid)
        ball = _ball(params, wave, grid)
        scene = _predicted_modulus(curve, ball, params, wave, OBS, grid)[1]
        calls = {"hankel1_0": 0, "hankel1_1": 0, "far_field_matrix": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("hankel1_0", "hankel1_1"):
            monkeypatch.setattr(multibody, name, counting(name, getattr(multibody, name)))
        for module in (forward, inverse_phased, inverse_phaseless):
            monkeypatch.setattr(module, "far_field_matrix",
                                counting("far_field_matrix", module.far_field_matrix))
        J = inverse_phaseless._jacobian_at(curve, ball, params, wave, OBS, degree, grid, scene)
        assert calls == {"hankel1_0": 0, "hankel1_1": 0, "far_field_matrix": 0}
        assert np.array_equal(J, ref)

    def test_peanut_against_differenced_solves(self, params, wave, bumped):
        """A profile that is not a trigonometric polynomial: every column
        against central differences of full two-body solves on the bumped
        peanut."""
        grid, degree, h, ball = NodeGrid(32), 2, 1e-6, BALL.curve()
        curve = make_peanut()
        J = exact_phaseless_jacobian(curve, ball, params, wave, OBS, degree, grid)
        fixed = _ball(params, wave, grid)
        fd = np.column_stack([
            (_predicted_modulus(bumped(curve, degree, k, h), fixed, params, wave, OBS, grid)[0]
             - _predicted_modulus(bumped(curve, degree, k, -h), fixed, params, wave, OBS,
                                  grid)[0]) / (2.0 * h)
            for k in range(2 * degree + 3)
        ])
        assert np.abs(J - fd).max() / np.abs(fd).max() <= 1e-6


RULE_SHAPES = {
    "peanut": make_peanut,
    "apple": make_apple,
    "fourier": lambda: make_fourier((0.0, 0.0), [0.5, 0.05, -0.08, 0.03], [0.04, -0.05, 0.02]),
}


def _nearest_node(curve, ball, grid):
    p = curve.point(grid.nodes) - ball.center
    return np.min(np.hypot(p[:, 0], p[:, 1]))


def _at_distance(shape, ball, grid, distance):
    """``shape`` moved along x until its nearest node is ``distance`` from
    the center of ``ball``, which lies to its right."""
    lo, hi = -20.0, float(ball.center[0])
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _nearest_node(translate(shape, (mid, 0.0)), ball, grid) > distance:
            lo = mid
        else:
            hi = mid
    return translate(shape, (lo, 0.0))


class TestBallGrid:
    """The ball's own coarse grid against the obstacle's grid on the ball."""

    @staticmethod
    def _modulus_gap(curve, ball_spec, params, wave, grid, monkeypatch):
        ball = _fixed_ball(ball_spec.curve(), params, wave, OBS, grid)
        coarse = _predicted_modulus(curve, ball, params, wave, OBS, grid)[0]
        monkeypatch.setattr(inverse_phaseless, "_ball_grid", lambda r, p, n: NodeGrid(n))
        full_ball = _fixed_ball(ball_spec.curve(), params, wave, OBS, grid)
        full = _predicted_modulus(curve, full_ball, params, wave, OBS, grid)[0]
        return ball.grid.n, np.abs(coarse - full).max() / np.abs(full).max()

    @pytest.mark.parametrize("clearances", [1.0, 2.0, None])
    @pytest.mark.parametrize("name", list(RULE_SHAPES))
    def test_matches_the_obstacle_grid(self, params, wave, monkeypatch, name, clearances):
        """At the clearance (one ball radius between the bodies), at twice
        it and at the criterion-9 start, |u_inf|^2 on the chosen n_b agrees
        with n_b = n_d = 64 (measured <= 1.2e-13)."""
        grid, ball = NodeGrid(64), BALL.curve()
        curve = (translate(RULE_SHAPES[name](), (-0.7, 0.2)) if clearances is None else
                 _at_distance(RULE_SHAPES[name](), ball, grid,
                              (1.0 + clearances) * BALL.radius * (1.0 + 1e-9)))
        n_b, gap = self._modulus_gap(curve, BALL, params, wave, grid, monkeypatch)
        assert n_b == 22
        assert gap <= 1e-12

    def test_band_floor_of_a_large_ball(self, params, wave, monkeypatch):
        """With kappa_a R_b = 5 the ball's own band, not the obstacle, sets
        n_b above the 22 of the clearance (23; measured 7.6e-15)."""
        spec = ReferenceBallSpec((9.0, 0.0), 5.0 / params.kappa_a)
        curve = translate(make_peanut(), (-0.7, 0.2))
        n_b, gap = self._modulus_gap(curve, spec, params, wave, NodeGrid(64), monkeypatch)
        assert 22 < n_b < 64
        assert gap <= 1e-12

    @pytest.mark.parametrize("n_d", [4, 16, 22, 23, 64, 100])
    @pytest.mark.parametrize("radius", [0.1, 0.71, 2.0, 8.0])
    def test_never_above_the_obstacle_grid(self, params, n_d, radius):
        assert _ball_grid(radius, params, n_d).n <= n_d


class TestClearance:
    def test_candidate_inside_is_skipped(self, params, wave, monkeypatch):
        """Data from an obstacle inside the clearance pull the iterates
        towards the ball: the candidates that cross the clearance fail as
        collisions and are skipped, and no record lies inside it."""
        truth, grid = make_circle((4.9, 0.0), 0.3), NodeGrid(32)
        dens = solve_two_body_forward(truth, BALL.curve(), params, wave, grid)
        total = far_field_sum(dens, truth, BALL.curve(), params, OBS, grid, grid)
        data = PhaselessData(OBS, np.abs(total.values) ** 2)
        refused = []
        predict = inverse_phaseless._predicted_modulus

        def spy(*args):
            try:
                return predict(*args)
            except ValueError as exc:
                refused.append(str(exc))
                raise

        monkeypatch.setattr(inverse_phaseless, "_predicted_modulus", spy)
        cfg = InverseConfig(initial_center=(4.5, 0.0), initial_radius=0.3, epsilon=1e-6,
                            M=2, max_iter=4, n_forward=16)
        records = run_phaseless(data, BALL, params, wave, cfg)
        assert len(records) == 5
        assert refused and all("reference ball's clearance" in msg for msg in refused)
        nearest = min(_nearest_node(r.curve, BALL.curve(), NodeGrid(16)) for r in records)
        assert nearest >= 2.0 * BALL.radius

    def test_initial_guess_inside_raises(self, params, wave, peanut_scene):
        """Nodes 1.4 from the ball's center: 0.69 from the ball itself, so
        the cross kernels are fine, but inside the clearance of 2 R_b = 1.42."""
        *_, data, _ = peanut_scene
        cfg = InverseConfig(initial_center=(4.9, 0.0), initial_radius=0.3,
                            epsilon=0.05, n_forward=32)
        with pytest.raises(ValueError, match="reference ball"):
            run_phaseless(data, BALL, params, wave, cfg)
