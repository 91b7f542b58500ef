"""Implicit stepper: cap, bound enforcement, steady states, trajectories."""

import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import fracstep
import fracstep.solver as solver
from fracstep.grid import Grid2D, grid_sum, laplacian, norm_inf
from fracstep.experiments import CoarsenSpec, run_coarsening, write_coarsening_outputs
from fracstep.kernels import build_kernels, min_step_ratio, stored_form_coeffs
from fracstep.mesh import TimeMesh, adaptive_next_step, build_graded_mesh, build_uniform_mesh
from fracstep.solver import (
    AdaptiveSchedule,
    BoundViolation,
    ConvergenceError,
    ManufacturedForcing,
    SolverConfig,
    StepCapError,
    _LevelRecord,
    _fixed_point,
    _predict,
    crank_nicolson_step,
    run,
    step,
    step_size_cap,
)
from oracles import history_quadratic

TWO_PI = 2.0 * math.pi


def _grid(M=8):
    return Grid2D(M=M, L=TWO_PI)


def _cfg(alpha=0.5, epsilon=0.5, M=8, **kw):
    return SolverConfig(alpha=alpha, epsilon=epsilon, grid=_grid(M), **kw)


def test_forcing_validation():
    with pytest.raises(ValueError):
        ManufacturedForcing(sigma=0.0)
    with pytest.raises(ValueError):
        ManufacturedForcing(sigma=-1.0)


def test_forcing_exact_profile():
    g = _grid(16)
    f = ManufacturedForcing(sigma=0.5)
    assert np.array_equal(f.exact(0.0, g), np.zeros((16, 16)))
    from fracstep.special import omega

    got = f.exact(0.7, g)
    want = float(omega(1.5, 0.7)) * g.field_from_function(lambda x, y: np.sin(x) * np.sin(y))
    assert np.allclose(got, want, rtol=1e-14)


def test_config_validation():
    with pytest.raises(ValueError):
        _cfg(alpha=1.0)
    # alpha/2 underflows to 0: refused here, not at step 1 as non-positive weights
    with pytest.raises(ValueError, match="alpha/2 > 0"):
        _cfg(alpha=5e-324)
    with pytest.raises(ValueError):
        _cfg(epsilon=0.0)


def test_step_size_cap_frozen_reaction_branch():
    # alpha = 1/2 with the diffusion branch slack: the reaction bound
    # (theta omega_{3/2}(3/4) / (2(1-theta)))^2
    assert step_size_cap(0.5, TWO_PI / 8, 0.5) == pytest.approx(
        0.02652582384864922, rel=1e-14
    )
    # same value when epsilon shrinks: reaction branch still governs
    assert step_size_cap(0.5, TWO_PI / 8, 0.05) == pytest.approx(
        0.02652582384864922, rel=1e-14
    )


def test_step_size_cap_integer_order_limit():
    # alpha -> 1: min(1/2, h^2 / (4 eps^2))
    assert step_size_cap(1.0 - 1e-9, 0.1, 0.1) == pytest.approx(0.25, rel=1e-7)
    assert step_size_cap(1.0 - 1e-9, 1.0, 0.01) == pytest.approx(0.5, rel=1e-7)


def test_step_size_cap_saturates_instead_of_raising():
    reaction = step_size_cap(0.5, TWO_PI / 8, 0.05)
    # eps^2 underflows to 0: no diffusion bound, the reaction bound governs
    assert step_size_cap(0.5, TWO_PI / 8, 1e-300) == step_size_cap(0.5, TWO_PI / 8, 5e-324) == reaction
    # eps^2 overflows: the diffusion bound is 0
    assert step_size_cap(0.5, TWO_PI / 8, 1e300) == 0.0
    # 1/alpha = 1e12: the reaction bound underflows to 0 and the diffusion bound overflows to inf
    assert step_size_cap(1e-12, TWO_PI / 8, 0.05) == 0.0
    assert step_size_cap(1e-300, TWO_PI / 8, 1e-150) == 0.0


def test_step_size_cap_diffusion_branch_scales_with_h():
    # once diffusion-limited, cap ~ h^(2/alpha)
    a, eps = 0.5, 0.5
    c1 = step_size_cap(a, 0.01, eps)
    c2 = step_size_cap(a, 0.02, eps)
    assert c2 / c1 == pytest.approx(2.0 ** (2.0 / a), rel=1e-12)


def test_linear_solver_recovers_known_field():
    # reaction weight 0: sweep 1 is one spectral solve, sweep 2 sees no change;
    # odd M checks the symbol on the real half-spectrum, nu = 0 the pure shift
    rng = np.random.default_rng(0)
    for M, nu in ((16, 0.3), (9, 0.3), (16, 0.0)):
        cfg = _cfg(M=M)
        x_true = rng.standard_normal((M, M))
        c = 2.0
        rhs = c * x_true - nu * laplacian(x_true, cfg.grid)
        x, sweeps = _fixed_point(rhs, c, nu, 0.0, cfg, np.zeros_like(rhs), "solve")
        assert norm_inf(x - x_true) <= 1e-12, (M, nu)
        assert sweeps == 2


def _fixed_point_2d_reference(rhs_fixed, c, nu, weight, cfg, x0):
    """The sweep loop as it was before the per-axis transforms: rfft2/irfft2
    and fresh temporaries each sweep.  Returns (psi, sweeps)."""
    M = cfg.grid.M
    s = np.sin(np.pi * np.arange(M) / M) ** 2
    symbol = c + (4.0 * nu / cfg.grid.h**2) * (s[:, None] + s[None, : M // 2 + 1])
    psi = x0
    for sweep in range(1, solver._FIXED_POINT_MAX_ITER + 1):
        rhs = rhs_fixed - weight * (psi * psi * psi - psi)
        psi_new = np.fft.irfft2(np.fft.rfft2(rhs) / symbol, s=rhs.shape)
        change = norm_inf(psi_new - psi)
        psi = psi_new
        if change <= solver._FIXED_POINT_TOL:
            return psi, sweep
    raise AssertionError("reference loop did not converge")


@pytest.mark.parametrize("M", [9, 16, 64, 128])
@pytest.mark.parametrize("weight", [0.0, 0.5, 0.8])
@pytest.mark.parametrize("nu", [0.0, 0.06])
def test_fixed_point_is_bitwise_the_2d_transform_loop(M, weight, nu):
    # the per-axis transforms and reused buffers do the same arithmetic as
    # the 2-D loop, read their inputs only and return an array of their own
    rng = np.random.default_rng(M + int(10 * weight) + int(100 * nu))
    cfg = _cfg(M=M)
    c = 3.0
    rhs_fixed = rng.uniform(-1.5, 1.5, (M, M))
    x0 = rng.uniform(-1.0, 1.0, (M, M))
    rhs_copy, x0_copy = rhs_fixed.copy(), x0.copy()
    psi, sweeps = _fixed_point(rhs_fixed, c, nu, weight, cfg, x0, "bitwise")
    want, want_sweeps = _fixed_point_2d_reference(rhs_fixed, c, nu, weight, cfg, x0)
    assert sweeps == want_sweeps and (weight == 0.0 or sweeps > 2)
    assert np.array_equal(psi.view(np.uint64), want.view(np.uint64))
    assert not np.shares_memory(psi, x0) and not np.shares_memory(psi, rhs_fixed)
    assert np.array_equal(rhs_fixed, rhs_copy) and np.array_equal(x0, x0_copy)


def test_late_non_finite_value_raises_at_its_sweep():
    # sweep 1 gives a finite field of size 1e120, whose cube overflows on
    # sweep 2; a reused buffer must not carry the overflow past that sweep
    cfg = _cfg(M=8)
    rhs_fixed = np.full((8, 8), 1e120)
    rhs_fixed[2, 5] = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ConvergenceError, match="non-finite values in the field at sweep 2$"):
            _fixed_point(rhs_fixed, 1.0, 0.06, 0.5, cfg, np.zeros((8, 8)), "late")


@pytest.mark.parametrize("value", [-1.0, 0.0, 1.0])
def test_steady_states_preserved(value):
    # the three zeros of phi^3 - phi are discrete fixed points
    cfg = _cfg()
    mesh = build_uniform_mesh(0.1, 5)
    traj = run(cfg, mesh, np.full((8, 8), value))
    for phi in traj.fields:
        assert norm_inf(phi - value) < 1e-12


def test_maximum_bound_random_data():
    rng = np.random.default_rng(42)
    cfg = _cfg(enforce_bound=True)
    phi0 = rng.uniform(-0.95, 0.95, (8, 8))
    mesh = build_uniform_mesh(0.2, 10)  # tau = 0.02 < cap 0.0265
    traj = run(cfg, mesh, phi0)
    assert np.all(traj.sup_norms <= 1.0 + 1e-10)
    assert np.all(traj.cap_ok)
    assert np.all(traj.ratio_ok)
    # unforced flow dissipates the modified energy
    e_alpha = traj.E_alpha.tolist()
    assert all(b <= a + 1e-10 for a, b in zip(e_alpha, e_alpha[1:]))


def test_step_rejects_over_cap_when_enforcing():
    cfg = _cfg(enforce_bound=True)
    mesh = build_uniform_mesh(0.5, 10)  # tau = 0.05 > cap
    with pytest.raises(StepCapError, match="step 1: .* exceeds the cap"):
        run(cfg, mesh, np.zeros((8, 8)))


def test_strict_run_raises_on_every_step_its_cap_flag_marks():
    # one cap and one slack: steps 1e-10 over the cap are flagged, so a
    # strict run must stop at the first; 1e-13 over is inside the slack
    cfg = SolverConfig(alpha=0.4, epsilon=0.05, grid=_grid(16), enforce_bound=True)
    cap = step_size_cap(cfg.alpha, cfg.grid.h, cfg.epsilon)
    with pytest.raises(StepCapError, match="step 1: "):
        run(cfg, TimeMesh(np.arange(4) * cap * (1.0 + 1e-10)), np.zeros((16, 16)))
    traj = run(cfg, TimeMesh(np.arange(4) * cap * (1.0 + 1e-13)), np.zeros((16, 16)))
    assert traj.cap_ok.tolist() == [True] * 3


def test_bound_violation_detected(monkeypatch):
    # a strict run audits every level it accepts against 1 + _BOUND_TOL: a
    # level at the slack passes, the next float above it raises at its step
    cfg = _cfg(enforce_bound=True)
    mesh = build_uniform_mesh(0.2, 10)
    edge = 1.0 + solver._BOUND_TOL
    levels = {1: edge, 2: np.nextafter(edge, 2.0)}
    monkeypatch.setattr(solver, "step", lambda fields, mesh, kernels, *args: (
        np.full((8, 8), -levels[kernels.n]), 1))
    with pytest.raises(BoundViolation, match="step 2: "):
        run(cfg, mesh, np.zeros((8, 8)))


def test_strict_run_checks_the_bound_that_step_leaves_to_it(monkeypatch):
    # step only solves: from data over the bound it returns a level over the
    # bound, and a strict run whose step returns that level raises at that
    # step, with the sup norm it records
    cfg = _cfg(enforce_bound=True)
    mesh = build_uniform_mesh(0.2, 10)
    phi0 = np.full((8, 8), 1.5)
    phi, _ = step([phi0], mesh.nodes, build_kernels(mesh.nodes, cfg.alpha, 1), cfg, norm_inf(phi0))
    assert norm_inf(phi) > 1.0 + solver._BOUND_TOL
    monkeypatch.setattr(solver, "step", lambda *args: (phi, 1))
    with pytest.raises(BoundViolation) as info:
        run(cfg, mesh, np.zeros((8, 8)))
    assert str(info.value) == f"step 1: max norm {norm_inf(phi):.15f} exceeds 1 + {solver._BOUND_TOL:.1e}"


def _bound_repro(enforce_bound):
    # 8^2, alpha 0.5, eps 0.3, 3 uniform steps to 0.01: every step under the cap
    cfg = SolverConfig(alpha=0.5, epsilon=0.3, grid=_grid(8), enforce_bound=enforce_bound)
    mesh = build_uniform_mesh(0.01, 3)
    assert mesh.steps.max() < step_size_cap(cfg.alpha, cfg.grid.h, cfg.epsilon)
    return cfg, mesh


def test_strict_run_rejects_phi0_over_the_bound_before_step_1(monkeypatch):
    # |phi0| <= 1 is the maximum bound's hypothesis, so data over it is an
    # input error, not an audit failure at step 1; the check allows the
    # slack that every accepted level may carry
    cfg, mesh = _bound_repro(enforce_bound=True)
    over = np.nextafter(1.0 + solver._BOUND_TOL, 2.0)
    with monkeypatch.context() as patch:
        patch.setattr(solver, "step", lambda *args: pytest.fail("run stepped"))
        for phi0 in (np.full((8, 8), 1.5), np.full((8, 8), -over)):
            with pytest.raises(ValueError, match="phi0"):
                run(cfg, mesh, phi0)
    plain, _ = _bound_repro(enforce_bound=False)
    assert np.isfinite(run(plain, mesh, np.full((8, 8), 1.5)).fields).all()


def test_strict_run_starts_from_phi0_at_the_bound():
    # exactly +-1, and the slack a strict run's own last level may carry
    cfg, mesh = _bound_repro(enforce_bound=True)
    signs = np.where(np.random.default_rng(8).random((8, 8)) < 0.5, -1.0, 1.0)
    for phi0 in (signs, np.full((8, 8), 1.0), np.full((8, 8), -(1.0 + solver._BOUND_TOL))):
        traj = run(cfg, mesh, phi0)
        assert traj.num_steps == 3 and traj.sup_norms.max() <= 1.0 + solver._BOUND_TOL


def test_run_records_energy_exactly_when_unforced():
    # the energy law is about the unforced equation, so a forced run has no records
    g = _grid(8)
    forcing = ManufacturedForcing(sigma=2.0)
    mesh = build_uniform_mesh(0.5, 5)
    phi0 = np.random.default_rng(2).uniform(-0.5, 0.5, (8, 8))
    forced = run(SolverConfig(alpha=0.5, epsilon=0.5, grid=g, forcing=forcing), mesh, phi0)
    unforced = run(SolverConfig(alpha=0.5, epsilon=0.5, grid=g), mesh, phi0)
    assert forced.E is forced.G is forced.E_alpha is forced.dissipation_lhs is None
    assert len(unforced.E) == len(unforced.G) == len(unforced.E_alpha) == mesh.num_steps + 1
    assert len(unforced.dissipation_lhs) == mesh.num_steps


def test_fixed_point_stall_raises(monkeypatch):
    rng = np.random.default_rng(1)
    monkeypatch.setattr(solver, "_FIXED_POINT_MAX_ITER", 1)
    cfg = _cfg()
    mesh = build_uniform_mesh(0.2, 10)
    kern = build_kernels(mesh.nodes, cfg.alpha, 1)
    with pytest.raises(ConvergenceError, match="fixed point"):
        step([rng.uniform(-0.9, 0.9, (8, 8))], mesh.nodes, kern, cfg, 0.9)


def test_crank_nicolson_implicit_relation():
    # the computed level satisfies the trapezoidal relation to solver accuracy
    rng = np.random.default_rng(3)
    g = _grid(16)
    cfg = SolverConfig(alpha=0.9, epsilon=0.3, grid=g)
    prev = 0.5 * rng.uniform(-1.0, 1.0, (16, 16))
    tau = 0.05
    phi, sweeps = crank_nicolson_step(prev, tau, cfg)
    res = (
        (phi - prev) / tau
        + 0.5 * ((prev**3 - prev) + (phi**3 - phi))
        - 0.5 * cfg.epsilon**2 * laplacian(prev + phi, g)
    )
    assert norm_inf(res) < 1e-10
    assert sweeps >= 2


def test_crank_nicolson_rejects_a_forcing():
    cfg = _cfg(forcing=ManufacturedForcing(sigma=1.0))
    with pytest.raises(ValueError, match="forcing"):
        crank_nicolson_step(np.zeros((8, 8)), 0.02, cfg)


def test_l21sigma_step_implicit_relation():
    # the computed level satisfies the split-form scheme to solver accuracy
    rng = np.random.default_rng(4)
    g = _grid(16)
    cfg = SolverConfig(alpha=0.6, epsilon=0.3, grid=g)
    mesh = build_graded_mesh(0.1, 6, 2.0)
    n = 4
    fields = [0.5 * rng.uniform(-1.0, 1.0, (16, 16)) for _ in range(n)]
    kern = build_kernels(mesh.nodes, cfg.alpha, n)
    phi, sweeps = step(fields, mesh.nodes, kern, cfg, norm_inf(fields[-1]))
    levels = fields + [phi]
    theta = cfg.alpha / 2.0
    deriv = kern.local * (phi - fields[-1])
    for k in range(1, n + 1):
        deriv = deriv + kern.hat_a[n - k] * (levels[k] - levels[k - 1])
    prev = fields[-1]
    res = (
        deriv
        + theta * (prev**3 - prev) + (1.0 - theta) * (phi**3 - phi)
        - cfg.epsilon**2 * laplacian(theta * prev + (1.0 - theta) * phi, g)
    )
    assert norm_inf(res) < 1e-10
    assert sweeps >= 2


def _lagrange_weights(nodes):
    # weights extrapolating values at nodes[:-1] to nodes[-1], from the
    # transposed Vandermonde system rather than the product formula
    past = np.asarray(nodes[:-1])
    return np.linalg.solve(np.vander(past, len(past), increasing=True).T,
                           nodes[-1] ** np.arange(len(past)))


@pytest.mark.parametrize("m", [2, 3, 4])
def test_predictor_reproduces_polynomials_below_its_level_count(m):
    # through m levels on non-uniform nodes the start is exact, up to
    # rounding, for every polynomial in t of degree at most m - 1
    rng = np.random.default_rng(20 + m)
    eps = np.finfo(float).eps
    for degree in range(m):
        nodes = np.cumsum(rng.uniform(0.01, 0.3, m + 1))
        coeffs = rng.uniform(-0.1, 0.1, (degree + 1, 8, 8))     # |p| < 1: no clip acts
        levels = [sum(c * t**d for d, c in enumerate(coeffs)) for t in nodes]
        x0 = _predict(levels[:-1], nodes, norm_inf(levels[-2]))
        scale = max(norm_inf(level) for level in levels)
        bound = 8 * m * eps * (np.abs(_lagrange_weights(nodes)).sum() + 1.0) * scale
        assert norm_inf(x0 - levels[-1]) <= bound, (m, degree)


def test_predictor_start_stays_in_the_bound_box(monkeypatch):
    # random levels on a graded mesh overshoot far outside [-1, 1] when
    # extrapolated; the start is clipped into [-R, R], R = max(1, radius),
    # with radius = |phi^{n-1}|_inf as given, not measured again
    rng = np.random.default_rng(6)
    nodes = build_graded_mesh(0.1, 6, 2.0).nodes[1:6]
    for scale in (0.5, 1.5):
        levels = [scale * rng.uniform(-1.0, 1.0, (8, 8)) for _ in range(4)]
        raw = sum(w * level for w, level in zip(_lagrange_weights(nodes), levels))
        bound = max(1.0, norm_inf(levels[-1]))
        assert norm_inf(raw) > bound                      # the clip is active here
        assert norm_inf(_predict(levels, nodes, norm_inf(levels[-1]))) == bound
        assert norm_inf(_predict(levels, nodes, 1.25)) == 1.25

    # under enforce_bound every level step accepts lies in [-1, 1] up to
    # _BOUND_TOL, so every start of a strict run lies there too
    starts = []
    real = solver._fixed_point

    def spy(rhs_fixed, c, nu, weight, cfg, x0, where):
        starts.append(norm_inf(x0))
        return real(rhs_fixed, c, nu, weight, cfg, x0, where)

    monkeypatch.setattr(solver, "_fixed_point", spy)
    cfg = _cfg(enforce_bound=True)
    traj = run(cfg, build_uniform_mesh(0.2, 10), rng.uniform(-1.0, 1.0, (8, 8)))
    assert len(starts) == 10
    assert all(s <= max(1.0, p) for s, p in zip(starts, traj.sup_norms))
    assert max(starts) <= 1.0 + solver._BOUND_TOL


def _steps_with_and_without_predictor(fields, nodes, cfg, monkeypatch):
    n = len(fields)
    kern = build_kernels(nodes, cfg.alpha, n)
    phi, _ = step(fields, nodes, kern, cfg, norm_inf(fields[-1]))
    with monkeypatch.context() as patch:
        patch.setattr(solver, "_predict", lambda levels, nodes, radius: levels[-1])
        plain, _ = step(fields, nodes, kern, cfg, norm_inf(fields[-1]))
    return phi, plain, kern


def _start_independence_bound(phi, plain, kern, cfg):
    # The lagged map psi -> (D - nu Lap)^{-1}(rhs - (1-theta) f(psi)) has
    # |(D - nu Lap)^{-1}|_inf <= 1/D (an M-matrix) and |f'| <= max(1, 3R^2 - 1)
    # on [-R, R], so it contracts with q below.  A sweep that stops at a change
    # <= tol is within q/(1-q) tol of the fixed point, so two runs from any
    # starts end within 2q/(1-q) tol of each other, plus FFT rounding.
    theta = cfg.alpha / 2.0
    D = kern.local + kern.hat_a[0]
    R = max(norm_inf(phi), norm_inf(plain)) + solver._FIXED_POINT_TOL
    q = (1.0 - theta) * max(1.0, 3.0 * R * R - 1.0) / D
    assert q < 1.0
    return 2.0 * q / (1.0 - q) * solver._FIXED_POINT_TOL + 64 * np.finfo(float).eps * R


def test_predicted_start_changes_the_level_only_within_the_tolerance(monkeypatch):
    # smooth history: the levels of a run from smooth data on a graded mesh
    g = _grid(16)
    cfg = SolverConfig(alpha=0.6, epsilon=0.3, grid=g)
    mesh = build_graded_mesh(0.2, 12, 2.0)
    x, y = g.coords()
    traj = run(cfg, mesh, 0.6 * np.sin(x) * np.cos(y))
    for n in range(2, 13):
        phi, plain, kern = _steps_with_and_without_predictor(traj.fields[:n], mesh.nodes[: n + 1], cfg, monkeypatch)
        assert norm_inf(phi - plain) <= _start_independence_bound(phi, plain, kern, cfg), n

    # random history (as in the implicit-relation test), where the clip acts
    rng = np.random.default_rng(4)
    mesh = build_graded_mesh(0.1, 6, 2.0)
    fields = [0.5 * rng.uniform(-1.0, 1.0, (16, 16)) for _ in range(4)]
    raw = sum(w * f for w, f in zip(_lagrange_weights(mesh.nodes[:5]), fields))
    assert norm_inf(raw) > 1.0
    phi, plain, kern = _steps_with_and_without_predictor(fields, mesh.nodes, cfg, monkeypatch)
    assert norm_inf(phi - plain) <= _start_independence_bound(phi, plain, kern, cfg)


def test_predictor_cuts_sweeps_on_a_strict_coarsen(monkeypatch):
    # the extrapolated start must save at least 30% of the sweeps a start
    # from phi^{n-1} takes, on the same steps and the same dissipation margin
    spec = CoarsenSpec(alpha=0.7, seed=7).quick()
    traj, _ = run_coarsening(spec)
    monkeypatch.setattr(solver, "_predict", lambda levels, nodes, radius: levels[-1])
    plain, _ = run_coarsening(spec)

    def worst_margin(t):
        return max(t.dissipation_lhs / (1e-10 * (1.0 + np.abs(t.E_alpha[1:]))))

    assert traj.num_steps == plain.num_steps
    assert traj.fp_iters.sum() <= 0.7 * plain.fp_iters.sum()
    assert abs(worst_margin(traj) - worst_margin(plain)) < 1e-2


def test_non_finite_field_raises_at_once():
    rng = np.random.default_rng(5)
    cfg = _cfg()
    prev = rng.uniform(-0.5, 0.5, (8, 8))
    prev[3, 4] = np.nan
    mesh = build_uniform_mesh(0.2, 10)
    with pytest.raises(ConvergenceError, match="non-finite"):
        step([prev], mesh.nodes, build_kernels(mesh.nodes, cfg.alpha, 1), cfg, norm_inf(prev))
    with pytest.raises(ConvergenceError, match="non-finite"):
        crank_nicolson_step(prev, 0.02, cfg)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "shape"])
def test_run_rejects_a_non_finite_or_misshapen_phi0_before_step_1(bad, monkeypatch):
    # an input error, not a stalled solve: no step is taken
    phi0 = np.random.default_rng(5).uniform(-0.5, 0.5, (8, 8))
    if bad == "shape":
        phi0 = phi0[:, :7]
    else:
        phi0[3, 4] = float(bad)
    monkeypatch.setattr(solver, "step", lambda *args: pytest.fail("run stepped"))
    for strict in (False, True):
        with pytest.raises(ValueError, match="phi0"):
            run(_cfg(enforce_bound=strict), build_uniform_mesh(0.01, 3), phi0)


def test_run_matches_manual_stepping():
    rng = np.random.default_rng(9)
    cfg = _cfg()
    mesh = build_uniform_mesh(0.06, 3)
    phi0 = rng.uniform(-0.5, 0.5, (8, 8))
    traj = run(cfg, mesh, phi0)

    fields = [phi0.copy()]
    for n in range(1, 4):
        kern = build_kernels(mesh.nodes[: n + 1], cfg.alpha, n)
        phi, _ = step(fields, mesh.nodes[: n + 1], kern, cfg, norm_inf(fields[-1]))
        fields.append(phi)
    for a, b in zip(traj.fields, fields):
        assert np.array_equal(a, b)


def test_run_deterministic():
    rng = np.random.default_rng(10)
    phi0 = rng.uniform(-0.5, 0.5, (8, 8))
    cfg = _cfg()
    mesh = build_graded_mesh(0.02, 6, 2.0)
    t1 = run(cfg, mesh, phi0)
    t2 = run(cfg, mesh, phi0)
    assert np.array_equal(t1.fields[-1], t2.fields[-1])
    assert t1.E_alpha.tolist() == t2.E_alpha.tolist()


def test_manufactured_solution_tracked():
    g = Grid2D(M=16, L=TWO_PI)
    f = ManufacturedForcing(sigma=2.0)
    cfg = SolverConfig(alpha=0.5, epsilon=math.sqrt(0.1), grid=g, forcing=f)
    mesh = build_uniform_mesh(1.0, 10)
    traj = run(cfg, mesh, f.exact(0.0, g))
    errs = [norm_inf(traj.fields[n] - f.exact(t, g)) for n, t in enumerate(mesh.nodes)]
    assert max(errs) < 5e-3


def test_snapshots_at_nodes():
    cfg = _cfg()
    mesh = build_uniform_mesh(1.0, 4)
    traj = run(cfg, mesh, np.full((8, 8), 0.3))
    assert [traj.level_at(t) for t in (0.0, 0.5, 1.0)] == [0, 2, 4]
    # the first node at or past t - 1e-12, and none past the last node
    assert [traj.level_at(t) for t in (0.25 + 1e-13, 0.25 + 1e-9, 1.0 + 1e-9)] == [1, 2, None]


def _ends_inside_the_end_window():
    """Runs whose last node lies within 1e-12 max(1, T) below the horizon T
    but more than 1e-12 below it: a warm-up that stops there, and a
    controller whose steps of 0.1 from t = 1 land there."""
    cfg = _cfg(alpha=0.9)
    warm = TimeMesh(np.array([0.0, 10.0, 20.0, 30.0, 40.0, 50.0 - 2e-11]))
    yield run(cfg, AdaptiveSchedule(warmup=warm, horizon=50.0, tau_min=1e-3, tau_max=0.1, eta=1e3),
              np.zeros((8, 8))), 50.0
    T = 1.2 + 1.1e-12
    yield run(cfg, AdaptiveSchedule(warmup=build_uniform_mesh(1.0, 10), horizon=T, tau_min=0.1, tau_max=0.1,
                                    eta=0.0), np.random.default_rng(1).uniform(-0.5, 0.5, (8, 8))), T


def test_level_at_finds_the_last_node_of_a_run_that_ends_inside_the_end_window(tmp_path):
    (traj, T), (clipped, T_clipped) = _ends_inside_the_end_window()
    assert traj.num_steps == 5 and traj.level_at(T) == 5
    assert clipped.num_steps == 12 and clipped.level_at(T_clipped) == 12
    for run_traj, horizon in ((traj, T), (clipped, T_clipped)):
        assert 1e-12 < horizon - run_traj.mesh.horizon <= 1e-12 * max(1.0, horizon)
    # so the snapshot at T is written, not silently skipped
    spec = CoarsenSpec(alpha=0.9, T=T, M=8, snapshot_times=(0.0, T))
    names = [os.path.basename(p) for p in write_coarsening_outputs(tmp_path, spec, traj)]
    assert names == ["energy.csv", "snapshot_t0.pgm", "snapshot_t0.raw", "snapshot_t50.pgm", "snapshot_t50.raw"]


def test_every_time_up_to_the_horizon_finds_a_level_of_a_finished_run():
    mesh = build_graded_mesh(1.0, 6, 2.0)
    fixed = run(_cfg(), mesh, np.full((8, 8), 0.3)), mesh.horizon
    for traj, T in (fixed, *_ends_inside_the_end_window()):
        nodes = traj.mesh.nodes
        near = np.concatenate([nodes, np.nextafter(nodes, -np.inf), np.nextafter(nodes, np.inf)])
        times = np.concatenate([np.linspace(0.0, T, 1001), near[(near >= 0.0) & (near <= T)], [T]])
        for t in times.tolist():
            n = traj.level_at(t)
            reach = solver._reach(t)
            assert n is not None and nodes[n] >= reach and (n == 0 or nodes[n - 1] < reach), t


def test_adaptive_schedule_validation():
    warm = build_graded_mesh(1.0, 4, 2.0)
    with pytest.raises(ValueError):
        AdaptiveSchedule(warmup=warm, horizon=0.5, tau_min=1e-3, tau_max=0.1, eta=1e3)


def test_adaptive_run_reaches_horizon_and_notes_clip():
    # quiescent data: the controller proposes tau_max each step, the last
    # step is clipped to land on the horizon and breaks the ratio floor
    cfg = _cfg()
    warm = build_graded_mesh(0.01, 2, 1.0)
    sched = AdaptiveSchedule(warmup=warm, horizon=0.1, tau_min=1e-3, tau_max=0.04, eta=1e3)
    traj = run(cfg, sched, np.zeros((8, 8)))
    assert traj.mesh.horizon == pytest.approx(0.1, abs=1e-14)
    assert traj.mesh.step(traj.num_steps) == pytest.approx(0.01, abs=1e-12)
    assert not traj.ratio_ok[-1]
    assert traj.cap_ok.size == traj.num_steps == traj.fp_iters.size


def test_field_history_growth_keeps_every_level():
    # a forced cfg records no energy, so take reads no kernels
    rng = np.random.default_rng(3)
    phi0 = rng.standard_normal((6, 6))
    borrowed = np.stack([phi0, phi0])[1]
    assert borrowed.base is not None
    cfg = _cfg(M=6, forcing=ManufacturedForcing(sigma=0.5))
    record = _LevelRecord(cfg, borrowed, norm_inf(phi0), 2)
    borrowed += 1.0
    fields, capacities = [phi0], [len(record._stack)]
    for i in range(60):
        phi = rng.standard_normal((6, 6))
        record.take(phi, None, norm_inf(phi), 1)
        fields.append(phi.copy())
        phi[...] = np.nan   # the record stores copies, so a caller may reuse its fields
        capacities.append(len(record._stack))
        # the record owns its buffer, so resize never runs on a borrowed one
        assert record._stack.base is None and record._stack.flags.owndata
    assert record.fields.shape == (61, 6, 6)
    assert np.array_equal(record.fields, np.stack(fields))
    # a full stack grows by exactly the level being taken
    assert capacities == [2, 2] + list(range(3, 62))


def _run_and_growths(monkeypatch, cfg, schedule, phi0):
    """run(cfg, schedule, phi0) and the capacities its field stack started at and grew to."""
    capacities = []
    take, init = _LevelRecord.take, _LevelRecord.__init__

    def first(record, cfg, phi, sup_norm, capacity):
        init(record, cfg, phi, sup_norm, capacity)
        capacities.append(len(record._stack))

    def counted(record, *args):
        step_sq = take(record, *args)
        if len(record._stack) != capacities[-1]:
            capacities.append(len(record._stack))
        return step_sq

    with monkeypatch.context() as patch:
        patch.setattr(_LevelRecord, "__init__", first)
        patch.setattr(_LevelRecord, "take", counted)
        return run(cfg, schedule, phi0), capacities


def test_adaptive_run_is_bitwise_the_fixed_run_over_its_own_nodes(monkeypatch):
    # the adaptive stack grows many times on the way to the horizon; a fixed
    # mesh of the same nodes sizes its stack once and never grows it
    rng = np.random.default_rng(6)
    cfg = _cfg(alpha=0.4, M=16)
    warm = build_graded_mesh(0.01, 2, 1.0)
    sched = AdaptiveSchedule(warmup=warm, horizon=0.08, tau_min=1e-3, tau_max=0.01, eta=1e3)
    phi0 = rng.uniform(-0.5, 0.5, (16, 16))
    grown, sizes = _run_and_growths(monkeypatch, cfg, sched, phi0)
    fixed, fixed_sizes = _run_and_growths(monkeypatch, cfg, TimeMesh(np.asarray(grown.mesh.nodes)), phi0)
    assert sizes[0] == len(warm.nodes)
    assert len(sizes) >= 4 and sizes[-1] == len(grown.fields)
    assert fixed_sizes == [len(fixed.fields)]
    assert np.array_equal(grown.mesh.nodes, fixed.mesh.nodes)
    assert np.array_equal(grown.fields, fixed.fields)
    assert np.array_equal(grown.sup_norms, fixed.sup_norms)
    assert np.array_equal(grown.fp_iters, fixed.fp_iters)
    for column in ("E", "E_alpha", "dissipation_lhs"):
        assert np.array_equal(getattr(grown, column), getattr(fixed, column)), column


def test_forced_adaptive_run_is_bitwise_the_forced_fixed_run_over_its_own_nodes():
    # a forced run records no energy, yet its controller reads the record's
    # h^2 ||delta||^2: the steps it takes from them must give the forced
    # fixed run over the same nodes, bit for bit
    cfg = _cfg(alpha=0.5, epsilon=0.3, forcing=ManufacturedForcing(sigma=0.4))
    sched = AdaptiveSchedule(warmup=build_graded_mesh(0.01, 4, 2.0), horizon=0.1, tau_min=1e-3,
                             tau_max=0.02, eta=10.0)
    phi0 = cfg.forcing.exact(0.0, cfg.grid)
    traj = run(cfg, sched, phi0)
    fixed = run(cfg, TimeMesh(traj.mesh.nodes), phi0)
    assert traj.num_steps > 50 and len(np.unique(traj.mesh.steps[4:])) > 5    # the controller moved
    assert np.array_equal(_bits(traj.mesh.nodes), _bits(fixed.mesh.nodes))
    for name in ("fields", "sup_norms", "fp_iters"):
        assert getattr(traj, name).tobytes() == getattr(fixed, name).tobytes(), name
    for run_ in (traj, fixed):
        assert run_.E is None and run_.G is None and run_.dissipation_lhs is None and run_.E_alpha is None
    # every controller node but the clipped last is t_n + adaptive_next_step
    # of the speed ||phi^n - phi^{n-1}|| / tau_n, read from the fields
    mesh, r_floor = traj.mesh, min_step_ratio(0.5)
    for n in range(4, traj.num_steps - 1):
        delta = traj.fields[n] - traj.fields[n - 1]
        speed = math.sqrt(cfg.grid.h**2 * grid_sum(delta * delta)) / mesh.step(n)
        assert mesh.nodes[n + 1] == mesh.nodes[n] + adaptive_next_step(mesh.step(n), speed, sched, r_floor, None), n


def _strict_at_cap():
    # alpha 0.4 at eps 0.05: the cap, 5.2e-3, sits below tau_max, and eta = 0
    # proposes tau_max, so every controller step is the cap but the clipped last
    cfg = _cfg(alpha=0.4, epsilon=0.05, enforce_bound=True)
    sched = AdaptiveSchedule(warmup=build_graded_mesh(0.01, 4, 2.0), horizon=0.3, tau_min=1e-3,
                             tau_max=0.1, eta=0.0)
    return cfg, sched


def _warm_up_over_the_floor():
    # the warm-up's last step, 0.1, exceeds tau_max / r* = 2.5e-3: the
    # controller's steps fall at the ratio floor, above tau_max, almost to
    # the horizon, so a bound that took tau_max alone would count too many
    nodes = np.append(np.linspace(0.0, 0.01, 41), 0.11)
    sched = AdaptiveSchedule(warmup=TimeMesh(nodes), horizon=0.174, tau_min=1e-4, tau_max=1e-3, eta=0.0)
    return _cfg(alpha=0.5), sched


@pytest.mark.parametrize("case", [_strict_at_cap, lambda: (_cfg(), AdaptiveSchedule(
    warmup=build_graded_mesh(0.01, 2, 1.0), horizon=0.08, tau_min=1e-3, tau_max=0.01, eta=1e3)),
    _warm_up_over_the_floor], ids=["strict-at-cap", "non-strict", "warm-up-over-the-floor"])
def test_run_ends_with_its_stack_holding_exactly_its_levels(monkeypatch, case):
    # each take past the warm-up grows the stack by one level, so it holds
    # exactly the levels the run stores, and the trajectory's fields are a
    # view of that stack from its start
    cfg, sched = case()
    rng = np.random.default_rng(4)
    traj, sizes = _run_and_growths(monkeypatch, cfg, sched, rng.uniform(-0.5, 0.5, (8, 8)))
    owner = traj.fields.base
    assert owner.flags.owndata and owner.base is None
    assert owner.shape == (traj.num_steps + 1, 8, 8)
    assert len(sizes) >= 2 and sizes[-1] == len(traj.fields)
    if case is _strict_at_cap:
        # at the cap, as everywhere past the warm-up, every take grows the
        # stack by exactly one level, from the warm-up's 5 to the last level
        assert traj.cap_ok.all() and np.allclose(traj.mesh.steps[4:-1], traj.cap, rtol=1e-9, atol=0.0)
        assert traj.num_steps > 50 and traj.mesh.step(traj.num_steps) < traj.cap
        assert sizes == list(range(5, traj.num_steps + 2))
    if case is _warm_up_over_the_floor:
        ratios = traj.mesh.ratios[40:-1]
        assert ratios.size == 4 and np.allclose(ratios, min_step_ratio(cfg.alpha), rtol=1e-9, atol=0.0)
        assert traj.mesh.step(traj.num_steps - 1) > sched.tau_max


def test_adaptive_run_grows_stack_and_matches_manual_stepping():
    # the stack starts at the warm-up's 3 nodes and grows several times
    # on the way to the horizon; every stored level must be the one a
    # plain list-fed step gives on the mesh the run built
    rng = np.random.default_rng(12)
    cfg = _cfg()
    warm = build_graded_mesh(0.01, 2, 1.0)
    sched = AdaptiveSchedule(warmup=warm, horizon=0.08, tau_min=1e-3, tau_max=0.01, eta=1e3)
    phi0 = rng.uniform(-0.5, 0.5, (8, 8))
    traj = run(cfg, sched, phi0)
    assert traj.num_steps > 4 * len(warm.nodes)
    assert traj.fields.shape == (traj.num_steps + 1, 8, 8)

    fields = [phi0]
    for n in range(1, traj.num_steps + 1):
        nodes = traj.mesh.nodes[: n + 1]
        phi, _ = step(fields, nodes, build_kernels(nodes, cfg.alpha, n), cfg, norm_inf(fields[-1]))
        fields.append(phi)
    assert np.array_equal(traj.fields, np.stack(fields))


def test_carried_distances_match_recomputed_G_at_every_step(monkeypatch):
    # G comes from squared distances carried across steps and across many
    # growths of the stack; at every level it must equal the stateless
    # recomputation within a worst-case round-off bound of the update
    rng = np.random.default_rng(5)
    cfg = _cfg(alpha=0.6, M=16)
    grid = cfg.grid
    warm = build_graded_mesh(0.01, 2, 1.0)
    sched = AdaptiveSchedule(warmup=warm, horizon=0.08, tau_min=1e-3, tau_max=0.01, eta=1e3)
    traj, sizes = _run_and_growths(monkeypatch, cfg, sched, rng.uniform(-0.5, 0.5, (16, 16)))
    # 3 -> 4 -> 5 -> ... levels, one per take to the last
    assert sizes == list(range(3, traj.num_steps + 2))
    assert sizes[-1] == len(traj.fields) == traj.num_steps + 1 > 10

    # Each update of dist_j takes two M^2-term inner products <delta, phi>
    # and ||delta||^2 (each off by at most M^2 eps ||delta||_1 ||phi||_inf),
    # plus a few roundings of the distances; the recomputed distances are
    # off by at most 2 M^2 eps dist_j.
    eps, m2 = np.finfo(float).eps, grid.M**2
    f = traj.fields
    drift = 0.0                         # bound on every carried dist_j's error so far
    for n in range(1, traj.num_steps + 1):
        d = f[:n] - f[n]
        dist_max = np.einsum("kij,kij->k", d, d).max()
        drift += 8 * m2 * eps * np.abs(f[n] - f[n - 1]).sum() * np.abs(f[: n + 1]).max()
        drift += 2 * eps * dist_max
        hat_a = build_kernels(traj.mesh.nodes, cfg.alpha, n).hat_a
        c = stored_form_coeffs(hat_a)
        oracle = history_quadratic(f[: n + 1], hat_a, grid)
        weight = 0.5 * grid.h**2 * np.abs(c).sum()
        bound = weight * (drift + 2 * m2 * eps * dist_max) + 2 * eps * oracle
        assert abs(traj.G[n] - oracle) <= bound, n


_THREADED_RUN = """
import sys
import numpy as np
from fracstep.grid import Grid2D
from fracstep.mesh import build_graded_mesh
from fracstep.solver import SolverConfig, run

grid = Grid2D(M=16, L=2.0 * np.pi)
phi0 = 0.5 * np.sin(grid.coords()[0]) * np.cos(grid.coords()[1])
traj = run(SolverConfig(alpha=0.4, epsilon=0.3, grid=grid), build_graded_mesh(0.5, 80, 2.0), phi0)
energies = np.column_stack([traj.E, traj.G, traj.E_alpha])
sys.stdout.write(traj.fields.tobytes().hex() + " " + energies.tobytes().hex())
"""


def test_run_bitwise_equal_across_blas_thread_counts():
    # the history sum and G avoid BLAS, so the BLAS thread count must not
    # move a single bit of the fields or the energies
    src = os.path.dirname(os.path.dirname(os.path.abspath(fracstep.__file__)))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", _THREADED_RUN], env=env,
                              capture_output=True, text=True, timeout=300, check=True)
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    fields_hex, energies_hex = outputs[0].split()
    assert len(fields_hex) == 2 * 81 * 16 * 16 * 8 and len(energies_hex) == 2 * 81 * 3 * 8


def test_adaptive_run_respects_controller_cap():
    # a strict run: the controller clips every step to the solver's cap
    cfg = _cfg(epsilon=0.05, enforce_bound=True)
    cap = step_size_cap(0.5, cfg.grid.h, 0.05)
    assert cap == pytest.approx(0.0265, rel=1e-2)
    warm = build_graded_mesh(0.01, 2, 1.0)
    sched = AdaptiveSchedule(warmup=warm, horizon=0.2, tau_min=1e-3, tau_max=0.1, eta=1e3)
    traj = run(cfg, sched, np.zeros((8, 8)))
    post_warm = np.asarray(traj.mesh.steps)[2:-1]       # the last step is clipped to the horizon
    assert post_warm.size > 0 and np.allclose(post_warm, cap, rtol=1e-12, atol=0.0)
    assert traj.cap_ok.all()


def test_adaptive_run_keeps_the_ratio_floor_it_audits():
    # at alpha = 0.9 a fast-moving field drives the proposal down to tau_min,
    # so the step shrinks by the ratio floor, and the run's own flag must hold
    cfg = _cfg(alpha=0.9, epsilon=0.05, M=16)
    phi0 = np.random.default_rng(5).uniform(-1.0, 1.0, (16, 16))
    # the steps after the warm-up are tau_min from t = 0.010545 on, so the
    # horizon clips the last one to 3.46e-5, a ratio of 0.346 < r*(0.9)
    sched = AdaptiveSchedule(warmup=build_graded_mesh(0.01, 30, 3.0), horizon=0.01088,
                             tau_min=1e-4, tau_max=0.1, eta=1e6)
    traj = run(cfg, sched, phi0)
    # only the final step, clipped to land on the horizon, may break the floor
    assert traj.ratio_ok[:-1].all()
    N = traj.num_steps
    assert not traj.ratio_ok[-1]
    assert traj.mesh.horizon == pytest.approx(sched.horizon, abs=1e-14)
    assert traj.mesh.step(N) < min_step_ratio(0.9) * traj.mesh.step(N - 1)
    r_star = min_step_ratio(0.9)
    assert np.any(np.abs(traj.mesh.ratios / r_star - 1.0) <= 1e-9)


def _spy_on_steps(patch, levels):
    """Patch solver.step to append each step's KernelSet to levels."""
    real = solver.step

    def spy(fields, mesh, kernels, cfg, radius):
        levels.append(kernels)
        return real(fields, mesh, kernels, cfg, radius)

    patch.setattr(solver, "step", spy)


def test_fixed_mesh_kernels_come_from_blocks_bitwise_as_built_alone(monkeypatch):
    # a small block size puts boundaries after levels 7 and 11 of a 14-level
    # mesh: every level's KernelSet must be build_kernels' bit for bit, and
    # only the levels an adaptive run appends past that mesh are built alone
    monkeypatch.setattr(solver, "_BLOCK_ENTRIES", 60)
    blocks, alone = [], []
    real_block, real_build = solver.build_kernel_block, solver.build_kernels
    monkeypatch.setattr(solver, "build_kernel_block",
                        lambda mesh, order, lo, hi: blocks.append((lo, hi)) or real_block(mesh, order, lo, hi))
    monkeypatch.setattr(solver, "build_kernels",
                        lambda nodes, order, n: alone.append(n) or real_build(nodes, order, n))
    cfg = _cfg(alpha=0.6)
    mesh = build_graded_mesh(0.2, 14, 2.0)
    phi0 = np.random.default_rng(2).uniform(-0.5, 0.5, (8, 8))
    adaptive = AdaptiveSchedule(warmup=mesh, horizon=0.3, tau_min=1e-3, tau_max=0.04, eta=1e3)
    for schedule in (mesh, adaptive):
        blocks.clear()
        levels = []
        with monkeypatch.context() as patch:
            _spy_on_steps(patch, levels)
            traj = run(cfg, schedule, phi0)
        assert blocks == [(1, 7), (8, 11), (12, 14)]
        assert alone == list(range(15, traj.num_steps + 1))
        assert [k.n for k in levels] == list(range(1, traj.num_steps + 1))
    assert all((hi - lo + 1) * (hi + 1) <= 60 for lo, hi in blocks) and len(alone) >= 2
    for got in levels:
        want = real_build(traj.mesh.nodes, 0.6, got.n)
        assert _bits(got.local) == _bits(want.local)
        assert np.array_equal(_bits(got.hat_a), _bits(want.hat_a)) and not got.hat_a.flags.writeable


def _bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


def _spy_on_blocks(patch, blocks):
    """Patch solver.build_kernel_block to append each block's (lo, hi) to blocks."""
    real = solver.build_kernel_block
    patch.setattr(solver, "build_kernel_block",
                  lambda nodes, order, lo, hi: blocks.append((lo, hi)) or real(nodes, order, lo, hi))


def test_cap_decided_levels_come_from_predicted_blocks_bitwise_as_built_alone(monkeypatch):
    # a strict run whose field moves slowly: the controller returns the cap
    # (0.0265) on every step after the 2-step warm-up, and the horizon clips
    # only the last.  With 200 entries per block the cap-decided levels come
    # from several predicted blocks; only the clipped step is built alone,
    # and every level's KernelSet is build_kernels' on the final mesh
    monkeypatch.setattr(solver, "_BLOCK_ENTRIES", 200)
    blocks, alone, levels = [], [], []
    real_build = solver.build_kernels
    _spy_on_blocks(monkeypatch, blocks)
    monkeypatch.setattr(solver, "build_kernels",
                        lambda nodes, order, n: alone.append(n) or real_build(nodes, order, n))
    _spy_on_steps(monkeypatch, levels)
    cfg = _cfg(epsilon=0.05, enforce_bound=True)
    cap = step_size_cap(0.5, cfg.grid.h, 0.05)
    phi0 = 1e-2 * np.random.default_rng(4).uniform(-1.0, 1.0, (8, 8))
    sched = AdaptiveSchedule(warmup=build_graded_mesh(0.01, 2, 1.0), horizon=1.0,
                             tau_min=1e-3, tau_max=0.1, eta=30.0)
    traj = run(cfg, sched, phi0)
    N = traj.num_steps
    assert np.allclose(traj.mesh.steps[2:-1], cap, rtol=1e-12, atol=0.0) and traj.mesh.step(N) < cap
    assert alone == [N]
    # the last prediction runs past the horizon: its block holds the level
    # before the clipped step and levels the run never takes
    assert blocks[0] == (1, 2) and len(blocks) >= 4 and blocks[-1][0] <= N - 1 <= blocks[-1][1]
    assert all((hi - lo + 1) * (hi + 1) <= 200 for lo, hi in blocks)
    assert [k.n for k in levels] == list(range(1, N + 1))
    for got in levels:
        want = real_build(traj.mesh.nodes, 0.5, got.n)
        for name in ("local", "hat_a"):
            assert np.array_equal(_bits(getattr(got, name)), _bits(getattr(want, name)))


def test_cap_nodes_are_the_bare_sums_of_the_cap():
    # _cap_nodes appends t + cap, (t + cap) + cap, ... up to level last, the
    # bits of a loop of run's t_n + tau, with no stop at any horizon: draws
    # of t over 24 decades and cap from far below half an ulp of t up to t
    rng = np.random.default_rng(35)
    for _ in range(2000):
        t = float(10.0 ** rng.uniform(-12.0, 12.0))
        cap = float(t * 10.0 ** rng.uniform(-20.0, 0.0))
        head = np.sort(rng.uniform(0.0, t, int(rng.integers(0, 4))))
        nodes = np.concatenate([[0.0], head, [t]])
        count = int(rng.integers(0, 70))
        want = [t]
        for _ in range(count):
            want.append(want[-1] + cap)
        got = solver._cap_nodes(nodes, cap, len(nodes) - 1 + count)
        assert np.array_equal(_bits(got), _bits(np.append(nodes, want[1:]))), (t, cap, count)
    # a cap below half an ulp of t repeats the node: run, not _cap_nodes, rejects that step
    t = 1.0 + 2.0 ** -52
    assert solver._cap_nodes(np.array([0.0, t]), 2.0 ** -54, 4).tolist() == [0.0, t, t, t, t]


def test_a_strict_run_that_leaves_the_cap_is_the_run_without_blocks(monkeypatch):
    # small random data at eps = 0.05 separate ever faster: the controller
    # returns the cap (0.0265) on levels 3..94, until the speed s makes
    # 0.1 / sqrt(1 + 30 s^2) drop below it, and the steps stay under the cap
    # from level 95 on.  The predicted block that holds level 95 is then
    # dropped, and the run must be the one built without any block, bit for
    # bit, with the same warnings
    cfg = _cfg(epsilon=0.05, enforce_bound=True)
    cap = step_size_cap(0.5, cfg.grid.h, 0.05)
    phi0 = 1e-2 * np.random.default_rng(4).uniform(-1.0, 1.0, (8, 8))
    sched = AdaptiveSchedule(warmup=build_graded_mesh(0.01, 2, 1.0), horizon=2.8,
                             tau_min=1e-3, tau_max=0.1, eta=30.0)
    runs, real_build = [], solver.build_kernels
    for blocks in (True, False):
        built, alone, levels = [], [], []
        with monkeypatch.context() as patch:
            if blocks:
                _spy_on_blocks(patch, built)
                patch.setattr(solver, "build_kernels",
                              lambda nodes, order, n: alone.append(n) or real_build(nodes, order, n))
            else:
                patch.setattr(solver, "_kernel_block", lambda nodes, order, lo, cap: {})
            _spy_on_steps(patch, levels)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                traj = run(cfg, sched, phi0)
        runs.append((traj, levels, [(w.category, str(w.message)) for w in caught]))
        if blocks:
            at_cap = np.isclose(traj.mesh.steps, cap, rtol=1e-12, atol=0.0)
            assert at_cap[2:94].all() and not at_cap[94:].any()
            # the predictions hold at every cap-decided level, so only the rest are built alone
            assert alone == list(range(95, traj.num_steps + 1))
            # the warm-up's block, then blocks as large as the bound allows from
            # levels 3 and 65: each prediction held until the run left the cap
            assert built == [(1, 2), (3, 64), (65, 103)]
            assert all((hi - lo + 1) * (hi + 1) <= solver._BLOCK_ENTRIES for lo, hi in built)
    (got, got_levels, got_warned), (want, want_levels, want_warned) = runs
    assert got_warned == want_warned
    for name in ("fields", "sup_norms", "E", "G", "dissipation_lhs", "fp_iters", "cap_ok", "ratio_ok"):
        assert np.array_equal(_bits(getattr(got, name)), _bits(getattr(want, name))), name
    assert np.array_equal(_bits(got.mesh.nodes), _bits(want.mesh.nodes))
    for x, y in zip(got_levels, want_levels, strict=True):
        for name in ("local", "hat_a"):
            assert np.array_equal(_bits(getattr(x, name)), _bits(getattr(y, name)))


@pytest.mark.parametrize("alpha, schedule, warned", [
    (1e-300, build_uniform_mesh(0.1, 6), []),
    (0.5, build_uniform_mesh(1e-300, 6), ["kernels.py"]),
    # strict: a warm-up step of 1e-150, then every step at the cap (0.0265)
    (0.5, AdaptiveSchedule(warmup=TimeMesh(np.array([0.0, 1e-150])), horizon=0.2,
                           tau_min=0.1, tau_max=0.1, eta=0.0), []),
], ids=["tiny-alpha", "tiny-mesh", "strict-tiny-first-step"])
def test_a_block_with_a_bad_level_fails_as_levels_built_alone(alpha, schedule, warned, monkeypatch):
    # level 1 is sound and level 2 has no positive moment weights, so the
    # block that holds level 2 raises: of all six levels of a fixed mesh, or
    # the levels that a strict run predicts from its first step at the cap.
    # The run must still take step 1 and fail at step 2 with the warnings
    # and the exception of building every level on its own; on the tiny
    # mesh only level 2's weights warn, as run evaluates step 1's
    # dissipation lhs only once the whole run is done
    cfg = _cfg(alpha=alpha, enforce_bound=isinstance(schedule, AdaptiveSchedule))
    phi0 = np.random.default_rng(3).uniform(-0.5, 0.5, (8, 8))
    outcomes, built = [], []
    real_block = solver._kernel_block

    def spy(nodes, order, lo, cap):
        built.append(real_block(nodes, order, lo, cap))
        return built[-1]

    for blocks in (True, False):
        levels = []
        with monkeypatch.context() as patch:
            patch.setattr(solver, "_kernel_block",
                          spy if blocks else lambda nodes, order, lo, cap: {})
            _spy_on_steps(patch, levels)
            with warnings.catch_warnings(record=True) as caught, pytest.raises(FloatingPointError) as exc:
                warnings.simplefilter("always")
                run(cfg, schedule, phi0)
        outcomes.append(([k.n for k in levels], str(exc.value),
                         [(w.category, str(w.message), w.filename, w.lineno) for w in caught]))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][:2] == ([1], "moment weights must be positive")
    assert [os.path.basename(w[2]) for w in outcomes[0][2]] == warned
    assert [(len(block) > 1, set(block.values())) for block in built if 2 in block] == [(True, {None})]
