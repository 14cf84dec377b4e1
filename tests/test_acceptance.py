"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line with the measured values before
asserting, so the outcome is visible in the captured output either way.
Criteria that the implementation cannot reach at the stated tolerance are
asserted honestly (they fail red); the measured values and the supporting
investigation live in the project notes.
"""

import time

import numpy as np
import pytest

from aescatter.forward import (
    IncidentWave,
    MaterialParams,
    far_field,
    jump_check,
    solve_forward,
    translation_errors,
)
from aescatter.geometry import (
    NodeGrid,
    jet,
    make_apple,
    make_circle,
    make_peanut,
    translate,
)
from aescatter.inverse_phased import (
    BoundaryUpdate,
    InverseConfig,
    _frozen_far_field,
    add_noise_phased,
    frechet_fd_error,
    run_phased,
)
from aescatter.inverse_phaseless import (
    PhaselessData,
    ReferenceBallSpec,
    add_noise_phaseless,
    phaseless_columns,
    run_phaseless,
)
from aescatter.multibody import far_field_sum, solve_two_body_forward
from aescatter.quadrature import identity_errors
from aescatter.specfun import wronskian_error

PARAMS = MaterialParams.default()


def report(n, ok, detail):
    print(f"Criterion {n}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail


def test_criterion_01_quadrature_identities():
    t0 = time.time()
    errors = identity_errors(16, 5)
    worst = max(errors["log sum"], errors["log modes"])
    cauchy_err, diff_err = errors["cauchy"], errors["diff"]
    elapsed = time.time() - t0
    ok = worst < 1e-12 and cauchy_err < 1e-12 and diff_err < 1e-12 and elapsed < 1.0
    report(1, ok, f"log {worst:.2e}, cauchy {cauchy_err:.2e}, "
                  f"diff {diff_err:.2e}, {elapsed:.2f}s")


def test_criterion_02_wronskian():
    t0 = time.time()
    err = wronskian_error(np.linspace(1e-3, 50.0, 20000))
    elapsed = time.time() - t0
    ok = err < 1e-11 and elapsed < 1.0
    report(2, ok, f"max deviation {err:.2e}, {elapsed:.2f}s")


def test_criterion_03_kernel_split_recomposition():
    from scipy import special

    from aescatter.kernels import split_h, split_k, split_m

    t0 = time.time()
    worst = 0.0
    for make in (make_apple, make_peanut):
        curve = make()
        for kappa in (PARAMS.kappa_p, PARAMS.kappa_s, PARAMS.kappa_a):
            rng = np.random.default_rng(0)
            count = 0
            while count < 100:
                t, s = rng.uniform(0, 2 * np.pi, 2)
                if abs((t - s + np.pi) % (2 * np.pi) - np.pi) < 1e-3:
                    continue
                count += 1
                jt = jet(curve, t)
                pt, ps = curve.point(t), curve.point(s)
                d = ps - pt
                r = np.linalg.norm(d)
                ls = np.log(4.0 * np.sin((t - s) / 2.0) ** 2)
                m = split_m(curve, t, s, kappa)
                direct = 0.5j * special.hankel1(0, kappa * r)
                worst = max(worst, abs(m.m1 * ls + m.m2 - direct) / abs(direct))
                k = split_k(curve, t, s, kappa)
                direct = 0.5j * kappa * (jt.n @ d) * special.hankel1(1, kappa * r) / r
                scale = max(abs(direct), 1.0)
                worst = max(worst, abs(k.k1 * ls + k.k2 - direct) / scale)
                h = split_h(curve, t, s, kappa)
                direct = 0.5j * kappa * (jt.n_perp @ d) * special.hankel1(1, kappa * r) / r
                scale = max(abs(direct), 1.0)
                worst = max(worst, abs(h.h1 / np.sin(s - t) + h.h2 * ls + h.h3 - direct) / scale)
    elapsed = time.time() - t0
    ok = worst <= 1e-11 and elapsed < 1.0
    report(3, ok, f"worst relative recomposition error {worst:.2e}, {elapsed:.2f}s")


def test_criterion_04_forward_self_convergence():
    t0 = time.time()
    wave = IncidentWave(np.pi / 8)
    obs = np.pi * np.arange(128) / 64
    diffs = {}
    for make in (make_apple, make_peanut):
        curve = make()
        vals = {}
        for n in (32, 64):
            grid = NodeGrid(n)
            dens = solve_forward(curve, PARAMS, wave, grid)
            vals[n] = far_field(dens, curve, PARAMS, obs, grid).values
        diffs[make.__name__] = np.abs(vals[32] - vals[64]).max()
    elapsed = time.time() - t0
    ok = all(d <= 1e-8 for d in diffs.values()) and elapsed < 10.0
    report(4, ok, f"apple {diffs['make_apple']:.2e}, "
                  f"peanut {diffs['make_peanut']:.2e} (required <= 1e-8), {elapsed:.1f}s")


def test_criterion_05_translation_covariance():
    t0 = time.time()
    obs = np.pi * np.arange(128) / 64
    phase_err, mod_err = translation_errors(make_apple(), np.array([0.5, 0.3]), PARAMS,
                                            IncidentWave(np.pi / 8), NodeGrid(64), obs)
    elapsed = time.time() - t0
    ok = phase_err <= 1e-6 and mod_err <= 1e-6 and elapsed < 10.0
    report(5, ok, f"phase-corrected {phase_err:.2e}, modulus {mod_err:.2e}, {elapsed:.1f}s")


def test_criterion_06_jump_relations():
    t0 = time.time()
    curve = make_circle((0, 0), 1.0)
    rep = jump_check(curve, PARAMS, lambda t: np.cos(t) + 0.3)
    ok = all(entry["monotone"] for entry in rep.values())
    elapsed = time.time() - t0
    ok = ok and elapsed < 30.0
    detail = ", ".join(f"{k} {'mono' if v['monotone'] else 'NOT mono'}"
                       for k, v in rep.items())
    report(6, ok, f"{detail}, {elapsed:.1f}s")


def test_criterion_07_frechet_finite_differences():
    t0 = time.time()
    wave = IncidentWave(np.pi / 8)
    M = 6
    grid = NodeGrid(64)
    obs = np.pi * np.arange(128) / 64

    curve = make_apple()
    dens = solve_forward(curve, PARAMS, wave, grid)
    rng = np.random.default_rng(5)
    eps = 1e-5
    worst_phased = frechet_fd_error(curve, dens, PARAMS, obs, M, grid, rng)

    # phaseless matrix: same frozen-density derivative through |.|^2
    peanut = make_peanut()
    ball = ReferenceBallSpec((6.6, 0.0), 0.71)
    grid2 = NodeGrid(32)
    obs2 = 2 * np.pi * np.arange(64) / 64
    dens2 = solve_two_body_forward(peanut, ball.curve(), PARAMS, wave, grid2)
    total = far_field_sum(dens2, peanut, ball.curve(), PARAMS, obs2, grid2, grid2)
    A = phaseless_columns(peanut, dens2, PARAMS, total.values, obs2, M, grid2)
    ball_part = total.values - _frozen_far_field(
        peanut, dens2.body_d, PARAMS, obs2, grid2,
        BoundaryUpdate(np.zeros(2), np.zeros(M + 1), np.zeros(M)))
    worst_phaseless = 0.0
    for _ in range(5):
        xi = rng.standard_normal(2 * M + 3)
        xi /= np.linalg.norm(xi)
        upd = BoundaryUpdate(eps * xi[:2], eps * xi[2:3 + M], eps * xi[3 + M:])
        plus, minus = (np.abs(_frozen_far_field(peanut, dens2.body_d, PARAMS, obs2, grid2,
                                                upd.scaled(sign)) + ball_part) ** 2
                       for sign in (1.0, -1.0))
        fd = (plus - minus) / (2 * eps)
        worst_phaseless = max(worst_phaseless,
                              np.abs(fd - A @ xi).max() / np.abs(fd).max())
    elapsed = time.time() - t0
    ok = worst_phased <= 1e-4 and worst_phaseless <= 1e-4 and elapsed < 30.0
    report(7, ok, f"phased {worst_phased:.2e}, phaseless {worst_phaseless:.2e}, "
                  f"{elapsed:.1f}s")


def test_criterion_08_phased_reconstruction():
    t0 = time.time()
    truth = make_apple()
    wave = IncidentWave(np.pi / 8)
    grid = NodeGrid(100)
    obs = np.pi * np.arange(128) / 64
    dens = solve_forward(truth, PARAMS, wave, grid)
    ff = far_field(dens, truth, PARAMS, obs, grid)
    noisy = add_noise_phased(ff, 0.01, seed=3)
    cfg = InverseConfig(initial_center=(-0.6, -0.3), initial_radius=0.4, epsilon=0.2)
    records = run_phased(noisy, PARAMS, wave, cfg, ground_truth=truth)
    final = records[-1]
    elapsed = time.time() - t0
    converged = final.E_k <= cfg.epsilon and final.k < 50
    ok = converged and final.Err_k <= 0.05 and elapsed < 120.0
    report(8, ok, f"stopped k={final.k}, E={final.E_k:.3f} (eps 0.2), "
                  f"Err={final.Err_k:.3f} (required <= 0.05), {elapsed:.1f}s")


def test_criterion_09_phaseless_reconstruction():
    t0 = time.time()
    truth = make_peanut()
    wave = IncidentWave(np.pi / 6)
    ball = ReferenceBallSpec((6.6, 0.0), 0.71)
    grid = NodeGrid(100)
    obs = 2 * np.pi * np.arange(64) / 64
    dens = solve_two_body_forward(truth, ball.curve(), PARAMS, wave, grid)
    total = far_field_sum(dens, truth, ball.curve(), PARAMS, obs, grid, grid)
    data = PhaselessData(obs, np.abs(total.values) ** 2)
    noisy = add_noise_phaseless(data, 0.01, seed=7)
    cfg = InverseConfig(initial_center=(-0.7, 0.2), initial_radius=0.3, epsilon=0.1)
    records = run_phaseless(noisy, ball, PARAMS, wave, cfg, ground_truth=truth)
    final = records[-1]
    elapsed = time.time() - t0
    converged = final.E_k <= cfg.epsilon and final.k < 50
    ok = converged and final.Err_k <= 0.1 and elapsed < 300.0
    report(9, ok, f"stopped k={final.k}, E={final.E_k:.3f} (eps 0.1), "
                  f"Err={final.Err_k:.3f} (required <= 0.1), {elapsed:.1f}s")


def test_criterion_10_reference_ball_necessity():
    t0 = time.time()
    wave = IncidentWave(np.pi / 8)
    curve = make_peanut()
    h = np.array([0.5, 0.0])
    moved = translate(curve, h)
    grid = NodeGrid(64)
    obs = 2 * np.pi * np.arange(64) / 64

    single = np.abs(far_field(solve_forward(curve, PARAMS, wave, grid),
                              curve, PARAMS, obs, grid).values) ** 2
    single_h = np.abs(far_field(solve_forward(moved, PARAMS, wave, grid),
                                moved, PARAMS, obs, grid).values) ** 2
    invariance = np.abs(single - single_h).max()

    ball = make_circle((6.6, 0.0), 0.71)
    two = np.abs(far_field_sum(
        solve_two_body_forward(curve, ball, PARAMS, wave, grid),
        curve, ball, PARAMS, obs, grid, grid).values) ** 2
    two_h = np.abs(far_field_sum(
        solve_two_body_forward(moved, ball, PARAMS, wave, grid),
        moved, ball, PARAMS, obs, grid, grid).values) ** 2
    sensitivity = np.abs(two - two_h).max()
    elapsed = time.time() - t0
    ok = invariance <= 1e-6 and sensitivity > 1e-3 and elapsed < 30.0
    report(10, ok, f"single-body invariance {invariance:.2e} (<= 1e-6), "
                   f"two-body deviation {sensitivity:.2e} (> 1e-3), {elapsed:.1f}s")
