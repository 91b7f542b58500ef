"""End-to-end acceptance checks for the solver stack.

One test per criterion, each printing a single summary line with the
measured quantities before asserting them.  The heavy inputs (kernel
fuzz audit, coarsening runs, accuracy tables) are shared module-scope
fixtures so each expensive computation happens once.
"""

import math
import time

import numpy as np
import pytest

from fracstep.energy import dissipation_audit
from fracstep.experiments import (
    AccuracySpec,
    CoarsenSpec,
    KernelAuditSpec,
    accuracy_table,
    fit_order,
    run_coarsening,
    run_kernel_audit,
)
from fracstep.grid import Grid2D, norm_inf
from fracstep.kernels import (
    as_order,
    build_kernels,
    min_step_ratio,
)
from fracstep.mesh import TimeMesh, build_uniform_mesh, random_ratio_mesh
from fracstep.solver import SolverConfig, crank_nicolson_step, frac_derivative, run
from oracles import derivative_quad, interval_weight_quad, level_weights, moment_weight_quad, worst_slack

TWO_PI = 2.0 * math.pi


# -- shared expensive inputs -------------------------------------------------


@pytest.fixture(scope="module")
def kernel_audit():
    t0 = time.monotonic()
    result = run_kernel_audit(KernelAuditSpec(seed=2024))
    return result, time.monotonic() - t0


@pytest.fixture(scope="module")
def coarsen_runs():
    out = {}
    t0 = time.monotonic()
    for alpha in (0.4, 0.7, 0.9, 0.95, 0.97):
        traj, _ = run_coarsening(CoarsenSpec(alpha=alpha, seed=7).quick())
        out[alpha] = traj
    return out, time.monotonic() - t0


@pytest.fixture(scope="module")
def accuracy_tables():
    t0 = time.monotonic()
    specs = (
        AccuracySpec(
            alpha=0.8, sigma=0.4, gammas=(2.5, 1.0), Ns=(20, 40, 80, 160),
            M=64, eps2=0.1, T=1.0, seed=1234, spatial_check=False,
        ),
        AccuracySpec(
            alpha=0.5, sigma=0.5, gammas=(4.0,), Ns=(20, 40, 80, 160),
            M=64, eps2=0.1, T=1.0, seed=1234, spatial_check=False,
        ),
    )
    return [(spec, accuracy_table(spec)) for spec in specs], time.monotonic() - t0


# -- criteria ----------------------------------------------------------------


def test_criterion_01_step_ratio_root_endpoints():
    t0 = time.monotonic()
    lo = min_step_ratio(1e-8)
    hi = min_step_ratio(1.0 - 1e-8)
    grid = np.arange(0.05, 0.951, 0.05)
    roots = [min_step_ratio(a) for a in grid]
    monotone = all(b > a for a, b in zip(roots, roots[1:]))
    elapsed = time.monotonic() - t0
    print(f"[criterion 1] r*(0+) = {lo:.6f} (want 0.3865 +- 5e-5), "
          f"r*(1-) = {hi:.6f} (want 0.4037 +- 5e-5), monotone = {monotone}, "
          f"{elapsed:.2f}s")
    assert abs(lo - 0.3865) <= 5e-5
    assert abs(hi - 0.4037) <= 5e-5
    assert monotone
    assert elapsed < 1.0


def test_criterion_02_kernel_weights_match_quadrature_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(202)
    worst = 0.0
    for alpha in (0.1, 0.5, 0.9):
        order = as_order(alpha)
        for _ in range(100):
            n = int(rng.integers(2, 13))
            raw = random_ratio_mesh(rng, n, min_step_ratio(alpha))
            # ratios are scale-invariant; unit horizon keeps the signed
            # moment integrals well conditioned for the oracle
            mesh = TimeMesh(np.asarray(raw.nodes) / raw.horizon)
            a, zeta = level_weights(mesh, order, n)
            for k in range(1, n + 1):
                q = interval_weight_quad(mesh, order, n, k)
                worst = max(worst, abs(a[n - k] - q) / abs(q))
            for k in range(1, n):
                q = moment_weight_quad(mesh, order, n, k)
                worst = max(worst, abs(zeta[n - k] - q) / abs(q))
    elapsed = time.monotonic() - t0
    print(f"[criterion 2] worst relative weight error {worst:.3e} "
          f"(want <= 1e-10) over 300 meshes, {elapsed:.1f}s")
    assert worst <= 1e-10
    assert elapsed < 60.0


def test_criterion_03_split_derivative_matches_direct_quadrature():
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        alpha = float(rng.uniform(0.05, 0.95))
        order = as_order(alpha)
        n = int(rng.integers(2, 13))
        mesh = random_ratio_mesh(rng, n, min_step_ratio(alpha))
        history = rng.standard_normal(n + 1)
        kern = build_kernels(mesh.nodes, order, n, n)[0]
        closed = frac_derivative(history, kern)
        direct = derivative_quad(mesh, order, n, history)
        worst = max(worst, abs(closed - direct) / max(abs(closed), abs(direct)))
    elapsed = time.monotonic() - t0
    print(f"[criterion 3] worst relative splitting error {worst:.3e} "
          f"(want <= 1e-12) over 50 histories, {elapsed:.1f}s")
    assert worst <= 1e-12
    assert elapsed < 60.0


def test_criterion_04_gradient_structure_identity(kernel_audit):
    result, elapsed = kernel_audit
    print(f"[criterion 4] DGS identity residual {result.dgs_residual:.3e} "
          f"(want <= 1e-11), min G = {result.dgs_min_G:.3e}, "
          f"min R = {result.dgs_min_R:.3e}, audit took {elapsed:.1f}s")
    assert result.dgs_residual <= 1e-11
    assert result.dgs_min_G >= 0.0
    assert result.dgs_min_R >= 0.0
    assert elapsed < 60.0


def test_criterion_05_kernel_inequality_audit(kernel_audit):
    result, elapsed = kernel_audit
    min_slack = min(s for _, summary in result.summaries for worst in worst_slack(summary)
                    for s, _, _ in worst.values())
    print(f"[criterion 5] {result.total_checks} inequality checks, "
          f"{len(result.violations)} violations (min slack {min_slack:.1e}), "
          f"{elapsed:.1f}s")
    assert result.total_checks > 1_000_000
    assert result.violations == [], [
        (a, m, e.prop, e.n, e.k, e.slack) for a, m, e in result.violations[:5]
    ]
    assert elapsed < 300.0


def test_criterion_06_convergence_orders(accuracy_tables):
    # For a t^sigma solution on a mesh graded with exponent gamma the error is
    # O(N^-min(gamma*sigma, 2)): second order needs gamma >= 2/sigma, which is
    # the usual 2/alpha only when sigma = alpha.  gamma = 1 is a uniform mesh
    # at T = 1, where the low target gets the tighter band.
    tables, elapsed = accuracy_tables
    checks = [
        (spec, gamma, table.orders[gamma][0], min(gamma * spec.sigma, 2.0),
         0.15 if gamma == 1.0 else 0.2)
        for spec, table in tables for gamma in spec.gammas
    ]
    print("[criterion 6] fitted orders (want min(gamma*sigma, 2) +- band): " + "; ".join(
        f"alpha={spec.alpha} sigma={spec.sigma} gamma={gamma} -> {order:.3f} "
        f"(want {target:.2f} +- {band})"
        for spec, gamma, order, target, band in checks
    ) + f"; {elapsed:.0f}s")
    for _, table in tables:
        assert table.failures == []
        for gamma in {r.gamma for r in table.rows}:
            errs = [r.error for r in table.rows if r.gamma == gamma]
            assert all(b < a for a, b in zip(errs, errs[1:])), (
                f"errors not strictly decreasing for gamma={gamma}: {errs}"
            )
    assert elapsed < 900.0
    for spec, gamma, order, target, band in checks:
        assert abs(order - target) <= band, (
            f"alpha={spec.alpha} sigma={spec.sigma} gamma={gamma} fitted order "
            f"{order:.3f} outside min(gamma*sigma, 2) = {target:.2f} +- {band}"
        )


def test_criterion_07_maximum_bound(coarsen_runs):
    runs, elapsed = coarsen_runs
    worst = {a: float(runs[a].sup_norms.max()) for a in (0.4, 0.7, 0.9)}
    clips = {a: int(not runs[a].ratio_ok[-1]) for a in (0.4, 0.7, 0.9)}
    print(f"[criterion 7] max sup norms {worst} (want <= 1 + 1e-12), "
          f"all steps cap-compliant; horizon-landing clips {clips}; "
          f"runs took {elapsed:.1f}s")
    for alpha in (0.4, 0.7, 0.9):
        traj = runs[alpha]
        assert worst[alpha] <= 1.0 + 1e-12, f"alpha={alpha}: sup norm {worst[alpha]}"
        assert traj.cap_ok.all(), f"alpha={alpha}: step cap violated"
        # a final step clipped to land on the horizon may undershoot the
        # ratio floor; its ratio_ok flag records that, and the bound and energy
        # checks above/below still hold there
        assert traj.ratio_ok[:-1].all(), f"alpha={alpha}: interior ratio floor violated"
    assert elapsed < 600.0


def test_criterion_08_energy_dissipation(coarsen_runs):
    runs, elapsed = coarsen_runs
    summary = {}
    for alpha in (0.4, 0.7, 0.9):
        traj = runs[alpha]
        bad = dissipation_audit(traj)
        e_alpha = traj.E_alpha.tolist()
        mono = all(
            b <= a + 1e-10 * (1.0 + abs(a)) for a, b in zip(e_alpha, e_alpha[1:])
        )
        e = traj.E.tolist()
        summary[alpha] = (len(bad), mono, e[-1] < e[0], e_alpha[-1] < e_alpha[0])
    print(f"[criterion 8] per-alpha (violations, E_alpha monotone, E drops, "
          f"E_alpha drops): {summary}")
    for alpha, (nbad, mono, e_drop, ea_drop) in summary.items():
        assert nbad == 0, f"alpha={alpha}: {nbad} dissipation violations"
        assert mono, f"alpha={alpha}: E_alpha not nonincreasing at 1e-10 relative"
        assert e_drop and ea_drop, f"alpha={alpha}: energies did not decrease overall"
    assert elapsed < 600.0


# the values of 1 - alpha over which criterion 9 fits its orders of convergence to Crank-Nicolson
_CN_GAPS = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)


def test_criterion_09_integer_order_limit(coarsen_runs):
    t0 = time.monotonic()
    grid = Grid2D(M=32, L=TWO_PI)
    phi0 = grid.field_from_function(lambda X, Y: 0.4 + 0.3 * np.sin(X) * np.sin(Y))
    mesh = build_uniform_mesh(1.0, 20)
    cn_cfg = SolverConfig(alpha=1.0 - _CN_GAPS[-1], epsilon=0.3, grid=grid)    # the step reads no alpha
    refs = [phi0]
    for _ in range(20):
        refs.append(crank_nicolson_step(refs[-1], 0.05, cn_cfg)[0])
    # asymptotic compatibility as a rate: as 1 - alpha -> 0 the fields tend to
    # Crank-Nicolson's and E_alpha to E, each at order 1 in 1 - alpha
    diffs, gaps = [], []
    for gap in _CN_GAPS:
        traj = run(SolverConfig(alpha=1.0 - gap, epsilon=0.3, grid=grid), mesh, phi0)
        diffs.append(max(norm_inf(traj.fields[n] - refs[n]) / norm_inf(refs[n]) for n in range(1, 21)))
        gaps.append(float(np.abs(traj.E_alpha - traj.E)[1:].max()))
    field_order, _ = fit_order([1.0 / gap for gap in _CN_GAPS], diffs)
    energy_order, _ = fit_order([1.0 / gap for gap in _CN_GAPS], gaps)
    worst_diff = diffs[-1]           # at 1 - alpha = 1e-6, the last run
    worst_gap = float((np.abs(traj.E_alpha - traj.E) / np.abs(traj.E))[1:].max())
    elapsed = time.monotonic() - t0

    runs, _ = coarsen_runs
    sweep = {
        a: float(np.abs(runs[a].E_alpha - runs[a].E)[1:].max())
        for a in (0.9, 0.95, 0.97)
    }
    print(f"[criterion 9] vs Crank-Nicolson: max relative diff {worst_diff:.3e} "
          f"(want <= 1e-4), max |E_alpha - E|/E {worst_gap:.3e} (want <= 1e-3); "
          f"orders in 1 - alpha over {_CN_GAPS}: fields {field_order:.4f}, "
          f"|E_alpha - E| {energy_order:.4f} (want both in [0.9, 1.1]); "
          f"energy gap sweep {sweep} strictly decreasing; {elapsed:.1f}s")
    assert worst_diff <= 1e-4
    assert worst_gap <= 1e-3
    assert 0.9 <= field_order <= 1.1
    assert 0.9 <= energy_order <= 1.1
    assert sweep[0.9] > sweep[0.95] > sweep[0.97]
    assert elapsed < 600.0


def test_criterion_10_steady_states_and_energy_collapse():
    t0 = time.monotonic()
    grid = Grid2D(M=16, L=TWO_PI)
    cfg = SolverConfig(alpha=0.5, epsilon=0.5, grid=grid)
    mesh = build_uniform_mesh(0.16, 8)
    steady_drift = 0.0
    for value in (-1.0, 0.0, 1.0):
        traj = run(cfg, mesh, np.full((16, 16), value))
        steady_drift = max(
            steady_drift, max(norm_inf(phi - value) for phi in traj.fields)
        )

    grid = Grid2D(M=32, L=TWO_PI)
    phi0 = grid.field_from_function(
        lambda X, Y: np.tanh((Y - math.pi / 2) / 0.2)
        * np.tanh((3 * math.pi / 2 - Y) / 0.2)
    )
    cfg = SolverConfig(alpha=0.5, epsilon=0.1, grid=grid)
    traj = run(cfg, build_uniform_mesh(12.0, 480), phi0)
    G = traj.G
    rel_gap = (traj.E_alpha[-1] - traj.E[-1]) / traj.E[-1]
    tail = G[G.size * 3 // 4 :]
    tail_mono = bool(np.all(np.diff(tail) <= 1e-12 * (1.0 + np.abs(tail[:-1]))))
    elapsed = time.monotonic() - t0
    print(f"[criterion 10] steady-state drift {steady_drift:.2e} (want < 1e-12); "
          f"near-steady tail: G down to {G[-1] / G.max():.3f} of its peak, "
          f"tail nonincreasing = {tail_mono}, final (E_alpha - E)/E = "
          f"{rel_gap:.2e}; {elapsed:.1f}s")
    assert steady_drift < 1e-12
    assert tail_mono
    assert G[-1] <= 0.5 * G.max()
    assert 0.0 <= rel_gap <= 0.01
    assert elapsed < 60.0
