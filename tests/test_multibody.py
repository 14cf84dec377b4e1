"""Two-body (obstacle + reference ball) forward solver."""

import numpy as np
import pytest
from test_forward import optical_gap

from aescatter.forward import (
    IncidentWave,
    _fill_system,
    assemble_system,
    discretize,
    far_field,
    solve_forward,
)
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
    cross_pair,
    far_field_sum,
    solve_two_body_forward,
)

OBS = 2.0 * np.pi * np.arange(64) / 64


def _pair(curve_d, curve_b, params, grid_d, grid_b):
    """The ``cross_pair`` of two curves, from their node jets."""
    return cross_pair(jet(curve_d, grid_d.nodes), jet(curve_b, grid_b.nodes), params)


class TestSeparation:
    def test_close_bodies_rejected(self, params):
        a = make_circle((0, 0), 1.0)
        b = make_circle((2.05, 0), 1.0)
        grid = NodeGrid(16)
        with pytest.raises(ValueError, match="too close"):
            _pair(a, b, params, grid, grid)
        with pytest.raises(ValueError, match="too close"):
            solve_two_body_forward(a, b, params, IncidentWave(0.0), grid)


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


def two_body_far_field(curve, params, theta, angles, n_d, n_b):
    """u_inf of the obstacle and the ball (6.6, 0), 0.71 together at
    ``angles``, for the incident direction ``theta``."""
    ball, grid_d, grid_b = make_circle((6.6, 0.0), 0.71), NodeGrid(n_d), NodeGrid(n_b)
    dens = solve_two_body_forward(curve, ball, params, IncidentWave(theta), grid_d, grid_b)
    return far_field_sum(dens, curve, ball, params, angles, grid_d, grid_b).values


class TestTwoBodyOracles:
    """Colton & Kress's optical theorem and reciprocity
    u_inf(x; d) = u_inf(-d; -x), for the peanut and the reference ball
    together: neither is built into the solver, and both see every block of
    the coupled system, the cross blocks included. The apple is left out:
    its equispaced nodes do not resolve it at n_d = 64 (ROADMAP item 3),
    where the optical gap reads 4.1e-5 and the reciprocity gap 1.7e-3
    (4.1e-15 and 6.1e-14 for the peanut)."""

    @pytest.mark.parametrize("n_d,n_b", [(64, 22), (100, 100)])
    def test_optical_theorem(self, params, n_d, n_b):
        theta = np.pi / 8
        angles = theta + 2.0 * np.pi * np.arange(256) / 256
        u_inf = two_body_far_field(make_peanut(), params, theta, angles, n_d, n_b)
        assert optical_gap(u_inf, params.kappa_a) <= 1e-12

    @pytest.mark.parametrize("n_d,n_b", [(64, 22), (100, 100)])
    def test_reciprocity(self, params, n_d, n_b):
        thetas = np.array([0.3, 1.7, 4.0])
        # [b, a]: u_inf(thetas[b]; thetas[a]) and u_inf(thetas[b] + pi; thetas[a] + pi)
        forward_, reverse = (np.column_stack([
            two_body_far_field(make_peanut(), params, t + shift, thetas + shift, n_d, n_b)
            for t in thetas]) for shift in (0.0, np.pi))
        gap = np.abs(forward_ - reverse.T).max() / np.abs(forward_).max()
        assert gap <= 1e-12


def _pointwise_cross_block(jets_t, jets_s, grid_s, params):
    """Cross block from the pointwise phi / grad_phi / hess_phi formulas:
    rows the three equations at the target nodes, columns the source's
    three densities, weighted by the trapezoid rule times G^2."""
    kp, ks, ka = params.kappas
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
    @pytest.mark.parametrize("n_d,n_b", [(64, 22), (100, 100)])
    def test_matches_pointwise_kernels(self, params, wave, shape, n_d, n_b):
        """Both directions of the term-table blocks applied to solved
        two-body densities, against the pointwise Hessian / gradient
        formulas, on the criterion-9 grids and on equal grids. The blocks
        take the tangential derivatives through D and so differ from the
        pointwise ones entry by entry (2.5e-7 to 3.1e-7 at n_d = 32); on the
        smooth densities of a solve the products agree."""
        curve, ball = shape(), make_circle((6.6, 0.0), 0.71)
        grid_d, grid_b = NodeGrid(n_d), NodeGrid(n_b)
        jets_d, jets_b = jet(curve, grid_d.nodes), jet(ball, grid_b.nodes)
        dens = solve_two_body_forward(curve, ball, params, wave, grid_d, grid_b)
        x_d, x_b = (np.concatenate([s.phi1_tilde, s.phi2_tilde, s.phi3_tilde])
                    for s in (dens.body_d, dens.body_b))
        A_db, A_bd = cross_blocks(_pair(curve, ball, params, grid_d, grid_b))
        for got, ref, x in (
            (A_db, _pointwise_cross_block(jets_d, jets_b, grid_b, params), x_b),
            (A_bd, _pointwise_cross_block(jets_b, jets_d, grid_d, params), x_d),
        ):
            assert got.shape == ref.shape
            assert np.abs(got @ x - ref @ x).max() / np.abs(ref @ x).max() <= 1e-12


class TestAssembleTwoBody:
    @pytest.mark.parametrize("shape", [make_peanut, make_apple], ids=["peanut", "apple"])
    @pytest.mark.parametrize("n_d,n_b", [(16, 16), (32, 32), (32, 48)])
    def test_passed_ball_block_equals_fresh_blocks(self, params, shape, n_d, n_b):
        """The system of a Newton step, with the obstacle's block filled from
        its Discretization and the ball's passed in, is, bit for bit, the
        four blocks assembled afresh."""
        curve, ball = shape(), make_circle((6.6, 0.0), 0.71)
        grid_d, grid_b = NodeGrid(n_d), NodeGrid(n_b)
        disc = discretize(curve, params, grid_d)
        pair = cross_pair(disc.geom.jets, jet(ball, grid_b.nodes), params)
        A = assemble_two_body(pair, _fill_system(disc.geom.jets, disc.ops, params),
                              assemble_system(ball, params, grid_b))
        A_db, A_bd = cross_blocks(_pair(curve, ball, params, grid_d, grid_b))
        ref = np.block([[assemble_system(curve, params, grid_d), A_db],
                        [A_bd, assemble_system(ball, params, grid_b)]])
        assert np.array_equal(A, ref)


class TestCrossBlockSensitivity:
    def test_pair_of_the_assembly_equals_a_fresh_pair(self, params):
        """The pair data an assembly returns, after its cross blocks were
        built from it, gives bit for bit the derivatives of pair data built
        for the call alone."""
        curve = make_fourier((0.0, 0.1), [0.49, 0.02, -0.15], [0.03, 0.01])
        ball, grid_d, grid_b = make_circle((6.6, 0.0), 0.71), NodeGrid(32), NodeGrid(48)
        rng = np.random.default_rng(5)
        x_d, x_b = (rng.standard_normal(3 * g.size) + 1j * rng.standard_normal(3 * g.size)
                    for g in (grid_d, grid_b))
        motion = _boundary_motion(jet(curve, grid_d.nodes), grid_d.nodes, 6)
        shared = _pair(curve, ball, params, grid_d, grid_b)
        assemble_two_body(shared, assemble_system(curve, params, grid_d),
                          assemble_system(ball, params, grid_b))
        fresh = _pair(curve, ball, params, grid_d, grid_b)
        for got, ref in zip(cross_block_sensitivity(shared, x_d, x_b, motion),
                            cross_block_sensitivity(fresh, x_d, x_b, motion)):
            assert np.array_equal(got, ref)

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
        d_db, d_bd = cross_block_sensitivity(_pair(curve, ball, params, grid_d, grid_b),
                                             x_d, x_b, motion)
        n_par, h = 2 * degree + 3, 1e-6
        fd_db, fd_bd = np.empty_like(d_db), np.empty_like(d_bd)
        for i in range(n_par):
            xi = np.zeros(n_par)
            xi[i] = h
            bump = BoundaryUpdate(xi[:2], xi[2:3 + degree], xi[3 + degree:])
            (db_p, bd_p), (db_m, bd_m) = (
                cross_blocks(_pair(apply_update(curve, b), ball, params, grid_d, grid_b))
                for b in (bump, bump.scaled(-1.0))
            )
            fd_db[:, i] = (db_p - db_m) @ x_b / (2.0 * h)
            fd_bd[:, i] = (bd_p - bd_m) @ x_d / (2.0 * h)
        for got, ref in ((d_db, fd_db), (d_bd, fd_bd)):
            assert np.abs(got - ref).max() / np.abs(ref).max() <= 1e-6
