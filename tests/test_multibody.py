"""Two-body (obstacle + reference ball) forward solver."""

import numpy as np
import pytest

from aescatter.forward import IncidentWave, far_field, solve_forward
from aescatter.geometry import (
    NodeGrid,
    jet,
    make_apple,
    make_circle,
    make_fourier,
    make_peanut,
)
from aescatter.inverse_phased import BoundaryUpdate, _boundary_motion, apply_update
from aescatter.kernels import grad_phi, hess_phi, phi
from aescatter.multibody import (
    assemble_two_body,
    cross_block_sensitivity,
    cross_blocks,
    far_field_sum,
    separation,
    solve_two_body_forward,
)

OBS = 2.0 * np.pi * np.arange(64) / 64


class TestSeparation:
    def test_two_circles(self):
        a = make_circle((0, 0), 1.0)
        b = make_circle((5, 0), 0.5)
        assert separation(a, b) == pytest.approx(5.0 - 1.5, abs=1e-3)

    def test_close_bodies_rejected(self, params):
        a = make_circle((0, 0), 1.0)
        b = make_circle((2.05, 0), 1.0)
        with pytest.raises(ValueError, match="too close"):
            assemble_two_body(a, b, params, NodeGrid(16))


class TestDecoupling:
    def test_far_ball_decouples(self, params, wave):
        """With the ball moved far away, the obstacle's densities approach
        the single-body solution; the coupling error decays with distance."""
        curve = make_peanut()
        grid = NodeGrid(32)
        single = solve_forward(curve, params, wave, grid)
        devs = []
        for dist in (10.0, 100.0, 1000.0):
            ball = make_circle((dist, 0.0), 0.7)
            two = solve_two_body_forward(curve, ball, params, wave, grid)
            devs.append(np.abs(two.body_d.phi3_tilde - single.phi3_tilde).max())
        assert devs[0] > devs[1] > devs[2]
        # the ball's scattered field at the obstacle decays like 1/sqrt(r)
        assert devs[0] / devs[1] == pytest.approx(np.sqrt(10.0), rel=0.2)
        assert devs[2] / np.abs(single.phi3_tilde).max() < 0.05

    def test_far_field_sum_is_additive(self, params, wave):
        curve = make_peanut()
        ball = make_circle((6.6, 0.0), 0.71)
        grid = NodeGrid(32)
        dens = solve_two_body_forward(curve, ball, params, wave, grid)
        total = far_field_sum(dens, curve, ball, params, OBS, grid, grid)
        ff_d = far_field(dens.body_d, curve, params, OBS, grid)
        ff_b = far_field(dens.body_b, ball, params, OBS, grid)
        np.testing.assert_allclose(total.values, ff_d.values + ff_b.values, atol=1e-14)


class TestSelfConvergence:
    def test_total_far_field_converges(self, params, wave):
        curve = make_peanut()
        ball = make_circle((6.6, 0.0), 0.71)
        vals = {}
        for n in (32, 64):
            grid = NodeGrid(n)
            dens = solve_two_body_forward(curve, ball, params, wave, grid)
            vals[n] = far_field_sum(dens, curve, ball, params, OBS, grid, grid).values
        assert np.abs(vals[32] - vals[64]).max() < 1e-5


class TestReferenceBallMechanism:
    def test_modulus_translation_sensitivity(self, params, wave):
        """|u_inf| of the lone obstacle is blind to translations; the same
        modulus with a fixed reference ball in the scene is not."""
        from aescatter.geometry import translate

        curve = make_peanut()
        h = np.array([0.5, 0.0])
        moved = translate(curve, h)
        grid = NodeGrid(32)

        single = np.abs(far_field(solve_forward(curve, params, wave, grid),
                                  curve, params, OBS, grid).values)
        single_h = np.abs(far_field(solve_forward(moved, params, wave, grid),
                                    moved, params, OBS, grid).values)
        assert np.abs(single - single_h).max() < 1e-6

        ball = make_circle((6.6, 0.0), 0.71)
        two = np.abs(far_field_sum(
            solve_two_body_forward(curve, ball, params, wave, grid),
            curve, ball, params, OBS, grid, grid).values)
        two_h = np.abs(far_field_sum(
            solve_two_body_forward(moved, ball, params, wave, grid),
            moved, ball, params, OBS, grid, grid).values)
        assert np.abs(two - two_h).max() > 1e-3


def _pointwise_cross_block(jets_t, jets_s, grid_s, params):
    """Cross block from the pointwise phi / grad_phi / hess_phi formulas:
    rows the three equations at the target nodes, columns the source's
    three densities, weighted by the trapezoid rule times G^2."""
    kp, ks, ka = params.kappa_p, params.kappa_s, params.kappa_a
    lam, mu = params.lam, params.mu
    w2r = params.omega**2 * params.rho_a
    x, y = jets_t.p[:, None, :], jets_s.p[None, :, :]
    nu, tau = jets_t.nu, jets_t.tau
    wj = (np.pi / grid_s.n) * jets_s.G**2
    Hp, Hs = hess_phi(x, y, kp), hess_phi(x, y, ks)
    nuHp_nu = np.einsum("ik,ijkl,il->ij", nu, Hp, nu)
    tauHs_nu = np.einsum("ik,ijkl,il->ij", tau, Hs, nu)
    tauHp_nu = np.einsum("ik,ijkl,il->ij", tau, Hp, nu)
    nuHs_nu = np.einsum("ik,ijkl,il->ij", nu, Hs, nu)
    nu_gp = np.einsum("ik,ijk->ij", nu, grad_phi(x, y, kp))
    tau_gs = np.einsum("ik,ijk->ij", tau, grad_phi(x, y, ks))
    nu_ga = np.einsum("ik,ijk->ij", nu, grad_phi(x, y, ka))
    A11 = 2.0 * (mu * nuHp_nu - (lam + mu) * kp**2 * phi(x, y, kp)) * wj
    A12 = 2.0 * mu * tauHs_nu * wj
    A13 = 2.0 * phi(x, y, ka) * wj
    A21 = 2.0 * tauHp_nu * wj
    A22 = -2.0 * nuHs_nu * wj
    A31 = 2.0 * nu_gp * wj
    A32 = 2.0 * tau_gs * wj
    A33 = -2.0 * nu_ga * wj / w2r
    return np.block([[A11, A12, A13], [A21, A22, np.zeros_like(A13)], [A31, A32, A33]])


class TestCrossBlocks:
    @pytest.mark.parametrize("shape", [make_peanut, make_apple], ids=["peanut", "apple"])
    @pytest.mark.parametrize("n_d,n_b", [(32, 32), (32, 48)])
    def test_matches_pointwise_kernels(self, params, shape, n_d, n_b):
        """Both directions of the shared-Hankel builder against the
        pointwise Hessian / gradient formulas, on equal and unequal grids."""
        curve, ball = shape(), make_circle((6.6, 0.0), 0.71)
        grid_d, grid_b = NodeGrid(n_d), NodeGrid(n_b)
        jets_d, jets_b = jet(curve, grid_d.nodes), jet(ball, grid_b.nodes)
        A_db, A_bd = cross_blocks(curve, ball, params, grid_d, grid_b)
        for got, ref in (
            (A_db, _pointwise_cross_block(jets_d, jets_b, grid_b, params)),
            (A_bd, _pointwise_cross_block(jets_b, jets_d, grid_d, params)),
        ):
            assert got.shape == ref.shape
            assert np.abs(got - ref).max() / np.abs(ref).max() <= 1e-13


class TestCrossBlockSensitivity:
    @pytest.mark.parametrize("degree", [2, 6])
    def test_matches_differenced_cross_blocks(self, params, degree):
        """Both directions, every parameter, against central differences of
        ``cross_blocks`` on perturbed curves, with random densities."""
        curve = make_fourier((0.0, 0.1), [0.49, 0.02, -0.15], [0.03, 0.01])
        ball, grid_d, grid_b = make_circle((6.6, 0.0), 0.71), NodeGrid(32), NodeGrid(48)
        rng = np.random.default_rng(degree)
        x_d, x_b = (rng.standard_normal(3 * g.size) + 1j * rng.standard_normal(3 * g.size)
                    for g in (grid_d, grid_b))
        motion = _boundary_motion(jet(curve, grid_d.nodes), grid_d.nodes, degree)
        d_db, d_bd = cross_block_sensitivity(curve, ball, params, grid_d, grid_b,
                                             x_d, x_b, motion)
        n_par, h = 2 * degree + 3, 1e-6
        fd_db, fd_bd = np.empty_like(d_db), np.empty_like(d_bd)
        for i in range(n_par):
            xi = np.zeros(n_par)
            xi[i] = h
            bump = BoundaryUpdate(xi[:2], xi[2:3 + degree], xi[3 + degree:])
            (db_p, bd_p), (db_m, bd_m) = (
                cross_blocks(apply_update(curve, b), ball, params, grid_d, grid_b)
                for b in (bump, bump.scaled(-1.0))
            )
            fd_db[:, i] = (db_p - db_m) @ x_b / (2.0 * h)
            fd_bd[:, i] = (bd_p - bd_m) @ x_d / (2.0 * h)
        for got, ref in ((d_db, fd_db), (d_bd, fd_bd)):
            assert np.abs(got - ref).max() / np.abs(ref).max() <= 1e-6
