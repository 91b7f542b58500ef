"""Discrete-derivative kernels: ratio root, coefficient identities, splitting,
gradient structure."""

import dataclasses
import math

import numpy as np
import pytest

from fracstep import kernels, solver
from fracstep.experiments import KernelAuditSpec, dgs_case, kernel_audit_meshes, run_kernel_audit
from fracstep.kernels import (
    FracOrder,
    as_order,
    build_kernels,
    dgs_forms,
    gradient_kernels,
    history_sum,
    kernel_tables,
    min_step_ratio,
    _SERIES_GAP,
    _moments,
    _offset_geometry,
    _ratio_equation,
)
from fracstep.mesh import (TimeMesh, build_graded_mesh, build_two_phase_mesh, build_uniform_mesh, offset_node,
                           random_ratio_mesh)
from fracstep.grid import Grid2D
from fracstep.solver import SolverConfig, frac_derivative, step_size_cap
from fracstep.special import omega
from oracles import level_weights, two_formula_moments

# mpmath root solve of the defining equation, 40 digits
RSTAR_FROZEN = [
    (0.0, 0.3864731243750908),
    (0.1, 0.3885937606227306),
    (0.5, 0.3960193029552813),
    (0.9, 0.4022360426489020),
    (1.0, 0.4036529074199914),
]


def test_order_validation():
    for alpha in (0.0, 1.0, 5e-324, math.nan):     # at 5e-324, theta = alpha/2 underflows to 0
        with pytest.raises(ValueError, match="alpha/2 > 0"):
            FracOrder(alpha)
    assert FracOrder(1e-323).theta == 5e-324 and FracOrder(np.nextafter(1.0, 0.0)).theta < 0.5
    assert as_order(0.8).theta == pytest.approx(0.4)
    assert as_order(as_order(0.3)) is not None


@pytest.mark.parametrize("alpha,want", RSTAR_FROZEN)
def test_min_step_ratio_frozen(alpha, want):
    got = min_step_ratio(alpha)
    assert got == pytest.approx(want, abs=1e-9)
    assert abs(_ratio_equation(got, alpha)) < 1e-11


def test_min_step_ratio_monotone():
    grid = np.arange(0.05, 0.96, 0.05)
    roots = [min_step_ratio(a) for a in grid]
    assert all(b > a for a, b in zip(roots, roots[1:]))
    assert all(0.25 < r < 0.5 for r in roots)


def test_interval_weight_head_uniform():
    # a_0 on a unit step at alpha = 1/2: omega_{3/2}(3/4); mpmath 40 digits
    mesh = build_uniform_mesh(1.0, 1)
    a, _ = level_weights(mesh, 0.5, 1)
    assert a[0] == pytest.approx(0.9772050238058398, rel=1e-14)


def test_interval_weights_positive_decreasing():
    rng = np.random.default_rng(11)
    for _ in range(20):
        alpha = float(rng.uniform(0.05, 0.95))
        mesh = random_ratio_mesh(rng, 10, min_step_ratio(alpha))
        a, _ = level_weights(mesh, alpha, 10)
        assert np.all(a > 0)
        assert np.all(np.diff(a) < 0)  # decays away from the active cell


def test_moment_weights_head_is_undefined():
    mesh = build_uniform_mesh(1.0, 5)
    _, zeta = level_weights(mesh, 0.4, 5)
    assert math.isnan(zeta[0])
    assert np.all(zeta[1:] > 0)


def test_moment_weights_branch_agreement():
    # meshes on both sides of the series/closed-form switch give values that
    # agree with the quadrature oracle (the two branches meet smoothly)
    from oracles import moment_weight_quad

    rng = np.random.default_rng(3)
    for alpha in (0.2, 0.7):
        mesh = random_ratio_mesh(rng, 9, 0.45, r_max=2.0)
        _, zeta = level_weights(mesh, alpha, 9)
        for k in range(1, 9):
            want = moment_weight_quad(mesh, as_order(alpha), 9, k)
            assert zeta[9 - k] == pytest.approx(want, rel=1e-10)


def _history_weights_loop(a, zeta, mesh, alpha, n):
    # the scalar loop the regrouping into hat_a replaced, kept as the reference
    hat = np.empty(n)
    head = 2.0 * (1.0 - alpha) / (2.0 - alpha) * a[0]
    if n == 1:
        hat[0] = head
        return hat
    r = mesh.steps[1:n] / mesh.steps[: n - 1]
    r_n = r[n - 2]
    hat[0] = head + zeta[1] / (r_n * (1.0 + r_n))
    for m in range(1, n - 1):
        k = n - m
        r_k = r[k - 2]
        r_k1 = r[k - 1]
        hat[m] = a[m] + zeta[m + 1] / (r_k * (1.0 + r_k)) - zeta[m] / (1.0 + r_k1)
    hat[n - 1] = a[n - 1] - zeta[n - 1] / (1.0 + r[0])
    return hat


def test_history_weights_equal_scalar_loop():
    rng = np.random.default_rng(31)
    cases = []
    for alpha in (0.1, 0.5, 0.9):
        mesh = random_ratio_mesh(rng, 40, min_step_ratio(alpha))
        cases += [(mesh, alpha, n) for n in range(1, 41)]
    two_phase = build_two_phase_mesh(1.0, 2.5, 300, 1234)
    cases += [(two_phase, 0.8, n) for n in range(1, 301)]
    for mesh, alpha, n in cases:
        a, zeta = level_weights(mesh, alpha, n)
        want = _history_weights_loop(a, zeta, mesh, alpha, n)
        assert np.array_equal(build_kernels(mesh.nodes, alpha, n, n)[0].hat_a, want), (alpha, n)


@pytest.mark.parametrize("alpha", [0.05, 0.4, 0.95])
def test_kernel_table_rows_equal_build_kernels(alpha):
    # row [j, n] of the one-pass tables is bit for bit level n's KernelSet of
    # mesh j, for a fuzz mesh, a ratio-4 mesh and a graded mesh with tau_1 ~ 1e-13
    n_max = 20
    meshes = [
        random_ratio_mesh(np.random.default_rng(17), n_max, min_step_ratio(alpha)),
        TimeMesh(np.concatenate([[0.0], np.cumsum(1e-3 * 4.0 ** np.arange(n_max))])),
        build_two_phase_mesh(1.0, 6.0, 160, 1234),
    ]
    for mesh in meshes:
        d, tau, _ = _offset_geometry([mesh.nodes], 0.5 * alpha, 2, n_max)
        gap = tau[..., 1:] / d[..., 1:-1]                        # tau_k / d_k, nan past each level
        assert np.any(gap <= _SERIES_GAP) and np.any(gap > _SERIES_GAP)   # both moment branches
    # one pass over all three meshes' nodes t_0..t_n_max: block j is mesh j's
    # tables, row i level lo + i, whatever the range; a mesh's whole node
    # vector, as one row, gives its block's bits
    rows = [mesh.nodes[: n_max + 1] for mesh in meshes]
    for lo, hi in ((1, n_max), (2, 2), (3, 11), (9, n_max), (n_max, n_max)):
        tables = kernel_tables(rows, alpha, lo, hi)
        alone = [kernel_tables(mesh.nodes, alpha, lo, hi) for mesh in meshes]
        assert tables.d.shape == (len(meshes), hi - lo + 1, hi + 1)
        for name in ("d", "a", "zeta", "hat_a"):
            table = getattr(tables, name)
            assert not table.flags.writeable
            for j in range(len(meshes)):
                assert getattr(alone[j], name).tobytes() == table[j : j + 1].tobytes(), (name, j, lo, hi)
            if name == "d":
                continue
            assert table.shape == (len(meshes), hi - lo + 1, hi)
            for j in range(len(meshes)):
                for i, n in enumerate(range(lo, hi + 1)):
                    assert np.isnan(table[j, i, n:]).all()
        # each row is the one-level pass of its level (nan zeta[0] too); a
        # KernelSet is a slice of the pass: hat_a's row, and local formed as
        # alpha / (2 - alpha) * a_0 from the row's head
        for j, mesh in enumerate(meshes):
            for i, n in enumerate(range(lo, hi + 1)):
                a, zeta = level_weights(mesh, alpha, n)
                assert tables.a[j, i, :n].tobytes() == a.tobytes(), (j, n)
                assert tables.zeta[j, i, :n].tobytes() == zeta.tobytes(), (j, n)
                ks = build_kernels(mesh.nodes, alpha, n, n)[0]
                assert tables.hat_a[j, i, :n].tobytes() == ks.hat_a.tobytes(), (j, n)
                assert (alpha / (2.0 - alpha) * tables.a[j, i, 0]).tobytes() == ks.local.tobytes(), (j, n)


def test_weight_builders_reject_levels_out_of_range():
    # raised, not asserted, so that python -O keeps the check
    mesh = build_uniform_mesh(1.0, 4)
    for lo, hi in ((0, 3), (3, 2), (2, 6), (-1, 2)):
        for build in (kernel_tables, build_kernels):
            with pytest.raises(ValueError, match=rf"levels {lo}\.\.{hi} out of range for 5 nodes"):
                build(mesh.nodes, 0.5, lo, hi)
    with pytest.raises(ValueError, match=r"levels 0\.\.0 out of range for 5 nodes"):
        build_kernels(mesh.nodes, 0.5, 0, 0)


def _interval_geometry(meshes, alpha, n_max):
    """(tau_k, d_k) of every interval k < n of the levels 1..n_max, as
    _weight_rows hands them to _moments: nan past each level."""
    d, tau, _ = _offset_geometry([mesh.nodes for mesh in meshes], 0.5 * alpha, 1, n_max)
    return tau[..., 1:n_max], d[..., 1:n_max]


def _assert_moments_bitwise(alpha, tau, lo):
    got, want = _moments(alpha, tau, lo), two_formula_moments(alpha, tau, lo)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))   # nan positions included


def _cap_mesh(levels=400):
    # coarsen-a04's mesh: the graded warm-up, then steps at the cap (64^2,
    # eps = 0.05, alpha = 0.4) summed one at a time, as run appends them
    t = build_graded_mesh(0.01, 30, 3.0).nodes.tolist()
    cap = step_size_cap(0.4, 2.0 * math.pi / 64, 0.05)
    while len(t) <= levels:
        t.append(t[-1] + cap)
    return TimeMesh(np.array(t))


@pytest.mark.parametrize("alpha", [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
def test_moments_evaluate_each_entry_by_the_formula_it_keeps(alpha):
    # each weight is computed only by the formula it keeps, and must carry
    # the bits of evaluating both everywhere and discarding one, on the
    # kernels fuzz's meshes (nan-padded tables) and on 400 levels at the cap
    spec = KernelAuditSpec()
    meshes = dict(kernel_audit_meshes(spec, np.random.default_rng(spec.seed)))[alpha]
    tau, lo = _interval_geometry(meshes, alpha, spec.n_max)
    gap = tau / lo
    assert np.isnan(gap).any() and (gap <= _SERIES_GAP).any() and (gap > _SERIES_GAP).any()
    _assert_moments_bitwise(alpha, tau, lo)
    tau, lo = _interval_geometry([_cap_mesh()], alpha, 400)
    gap = tau / lo
    assert np.mean(gap[~np.isnan(gap)] <= _SERIES_GAP) > 0.95      # the series' share grows with n
    _assert_moments_bitwise(alpha, tau, lo)


@pytest.mark.parametrize("alpha", [1e-12, 0.4, 0.95])
def test_moments_match_both_formulas_on_short_vectors_gap_edges_and_nan_rows(alpha):
    rng = np.random.default_rng(29)
    # every length up to 17 reaches the vector loops' tails, with both
    # formulas present and the gap far and near
    for size in range(1, 18):
        lo = np.exp(rng.uniform(-8.0, 2.0, size))
        tau = lo * np.exp(rng.uniform(-12.0, 1.0, size))
        _assert_moments_bitwise(alpha, tau, lo)
    # gaps of exactly _SERIES_GAP (tau = lo / 4 is exact) take the series
    lo = np.exp(rng.uniform(-8.0, 2.0, 17))
    tau = lo * _SERIES_GAP
    assert (tau / lo == _SERIES_GAP).all()
    _assert_moments_bitwise(alpha, tau, lo)
    tau[::2] = np.nextafter(tau[::2], np.inf)           # the next float up is far
    _assert_moments_bitwise(alpha, tau, lo)
    # nan-padded rows: a nan tau, a nan lo, both, or a whole row
    tau, lo = rng.uniform(0.01, 1.0, (4, 9)), rng.uniform(0.01, 1.0, (4, 9))
    tau[0, 5:] = np.nan
    lo[1, 3:] = np.nan
    tau[2, ::3] = lo[2, ::3] = np.nan
    tau[3] = np.nan
    _assert_moments_bitwise(alpha, tau, lo)


def test_gradient_kernel_head_doubling():
    hat = np.array([0.5, 0.2, 0.1])
    aux = gradient_kernels(hat)
    assert aux[0] == pytest.approx(1.0)
    assert np.array_equal(aux[1:], hat[1:])


def test_local_coefficient_fraction():
    mesh = build_uniform_mesh(1.0, 4)
    order = as_order(0.6)
    kern = build_kernels(mesh.nodes, order, 4, 4)[0]
    a, _ = level_weights(mesh, order, 4)
    assert kern.local == pytest.approx(0.6 / 1.4 * a[0], rel=1e-15)
    assert kern.local == 0.6 / (2.0 - 0.6) * a[0]     # the product order of the block pass, bit for bit


def test_split_head_sums_to_interval_weight():
    # local + first hat kernel reproduces the undecomposed head coefficient:
    # alpha/(2-alpha) a0 + hat_0 = a0 + zeta_1-correction
    rng = np.random.default_rng(8)
    for alpha in (0.15, 0.5, 0.85):
        order = as_order(alpha)
        mesh = random_ratio_mesh(rng, 7, min_step_ratio(alpha))
        a, _ = level_weights(mesh, order, 7)
        base = build_kernels(mesh.nodes, order, 7, 7)[0].local + 2.0 * (1.0 - alpha) / (2.0 - alpha) * a[0]
        assert base == pytest.approx(a[0], rel=1e-14)


def test_kernel_arrays_immutable():
    mesh = build_uniform_mesh(1.0, 3)
    kern = build_kernels(mesh.nodes, 0.5, 3, 3)[0]
    with pytest.raises(ValueError):
        kern.hat_a[0] = 0.0
    for table in level_weights(mesh, 0.5, 3):
        with pytest.raises(ValueError):
            table[0] = 0.0


def test_derivative_constant_history_is_zero():
    mesh = build_uniform_mesh(2.0, 6)
    kern = build_kernels(mesh.nodes, 0.3, 6, 6)[0]
    assert frac_derivative(np.full(7, 4.2), kern) == 0.0


def test_derivative_linear_history_exact():
    # the formula reproduces the Caputo derivative of v(t) = t exactly:
    # piecewise-quadratic interpolation is exact for linear data
    rng = np.random.default_rng(4)
    for alpha in (0.25, 0.5, 0.75):
        order = as_order(alpha)
        mesh = random_ratio_mesh(rng, 6, min_step_ratio(alpha))
        kern = build_kernels(mesh.nodes, order, 6, 6)[0]
        got = frac_derivative(np.asarray(mesh.nodes), kern)
        t_off = offset_node(mesh.nodes, 6, order.theta)
        want = omega(2.0 - alpha, t_off)
        assert got == pytest.approx(want, rel=1e-12)


def test_derivative_cubic_history_order():
    # v(t) = t^3 is not reproduced exactly; uniform refinement shows the
    # O(tau^{3-alpha}) consistency of the offset-point formula for smooth data
    alpha = 0.5
    order = as_order(alpha)
    errs = []
    Ns = [8, 16, 32, 64]
    for N in Ns:
        mesh = build_uniform_mesh(1.0, N)
        kern = build_kernels(mesh.nodes, order, N, N)[0]
        got = frac_derivative(np.asarray(mesh.nodes) ** 3, kern)
        t_off = offset_node(mesh.nodes, N, order.theta)
        # Caputo derivative of t^3 = 6 omega_4(t): 6 omega_{4-alpha}(t)
        want = 6.0 * omega(4.0 - alpha, t_off)
        errs.append(abs(got - want))
    fits = np.polyfit(np.log(Ns), np.log(errs), 1)
    assert -fits[0] == pytest.approx(3.0 - alpha, abs=0.2)


def test_derivative_alpha_near_one_is_difference_quotient():
    mesh = build_uniform_mesh(1.0, 10)
    alpha = 1.0 - 1e-6
    kern = build_kernels(mesh.nodes, alpha, 10, 10)[0]
    v = np.sin(np.asarray(mesh.nodes))
    got = frac_derivative(v, kern)
    want = (v[-1] - v[-2]) / mesh.step(10)
    assert got == pytest.approx(want, rel=1e-4)


def test_history_sum_matches_fsum_within_plain_bound():
    # a slowly varying O(1) history, like the solver's: the differences are
    # small, so the two contractions cancel; the result must still sit
    # within the plain-summation bound n eps sum_k w_k (|f_k| + |f_{k+1}|)
    # of the exactly summed products
    rng = np.random.default_rng(2)
    n = 200
    w = rng.random(n)
    fields = 0.5 + np.cumsum(1e-3 * rng.standard_normal((n + 1, 3, 4)), axis=0)
    got = history_sum(w, fields)
    assert got.shape == (3, 4)
    for idx in np.ndindex(3, 4):
        f = fields[(slice(None),) + idx]
        want = math.fsum([w[k] * f[k + 1] for k in range(n)] + [-w[k] * f[k] for k in range(n)])
        bound = n * np.finfo(float).eps * float(np.sum(w * (np.abs(f[:-1]) + np.abs(f[1:]))))
        assert abs(got[idx] - want) <= bound
    # empty weights: a one-level history has no differences
    assert np.array_equal(history_sum(np.empty(0), fields[:1]), np.zeros((3, 4)))


def test_differenced_weights_are_the_bits_of_the_diff_form():
    # tied weights difference to zeros, whose signs must be np.diff's too;
    # the stepper hands history_sum a reversed view
    rng = np.random.default_rng(4)
    ties = np.array([3.0, 3.0, 1.0, 1.0, 0.0, 0.0, -0.0, -0.0, 0.5, 0.5])
    for w in (ties, ties[::-1], np.array([-0.0]), np.array([0.0]), np.empty(0),
              np.repeat(rng.uniform(size=8), 3)[::-1]):
        want = -np.diff(w, prepend=0.0, append=0.0)
        assert np.array_equal(kernels._differenced(w).view(np.uint64), want.view(np.uint64))


def test_history_sum_with_level_kernel_on_graded_mesh_within_plain_bound():
    # the solver's own weights hat_a[1:n][::-1] at the last level of a
    # 300-step graded two-phase mesh, against the same plain-summation
    # bound as above
    rng = np.random.default_rng(8)
    n = 300
    kern = build_kernels(build_two_phase_mesh(1.0, 3.0, n, 1234).nodes, 0.4, n, n)[0]
    w = kern.hat_a[1:n][::-1]
    fields = 0.5 + np.cumsum(1e-3 * rng.standard_normal((n, 3, 4)), axis=0)
    got = history_sum(w, fields)
    for idx in np.ndindex(3, 4):
        f = fields[(slice(None),) + idx]
        want = math.fsum([w[k] * f[k + 1] for k in range(n - 1)] + [-w[k] * f[k] for k in range(n - 1)])
        bound = (n - 1) * np.finfo(float).eps * float(np.sum(w * (np.abs(f[:-1]) + np.abs(f[1:]))))
        assert abs(got[idx] - want) <= bound


def test_gradient_structure_identity():
    rng = np.random.default_rng(17)
    for _ in range(20):
        alpha = float(rng.uniform(0.05, 0.95))
        n = int(rng.integers(2, 11))
        lhs, rhs, G_n, G_prev, R_n = dgs_case(rng, alpha, n, min_step_ratio(alpha) + 1e-6)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
        assert G_n >= 0.0 and G_prev >= 0.0 and R_n >= 0.0


def test_gradient_structure_forms_fail_far_below_the_ratio_floor():
    # negative control: the kernels audit's DGS histories, on meshes whose
    # ratio floor is 0.3 r*(alpha), give a negative G or R (not a set count)
    rng = np.random.default_rng(0)
    least = math.inf
    for _ in range(2000):
        alpha = float(rng.uniform(0.05, 0.95))
        n = int(rng.integers(2, 11))
        *_, G_n, G_prev, R_n = dgs_case(rng, alpha, n, 0.3 * min_step_ratio(alpha))
        least = min(least, G_n, G_prev, R_n)
    assert least < 0.0


def test_kernel_audit_finds_a_dropped_history_weight(monkeypatch):
    # negative control: the audit's DGS identity takes the derivative through
    # the history_sum the stepper contracts with, solver's, so one that drops
    # its last weight must break the identity far beyond the 1e-11 limit
    real = solver.history_sum
    monkeypatch.setattr(solver, "history_sum", lambda weights, fields: real(weights[:-1], fields[:-1]))
    result = run_kernel_audit(KernelAuditSpec(alphas=(0.5,), num_meshes=1, n_max=4, dgs_histories=5))
    assert result.dgs_residual > 1e-11


def test_kernel_audit_finds_a_scaled_split_derivative(monkeypatch):
    # negative control: step and the audit's frac_derivative share one split
    # derivative, so a D of 1.5 local + hat_a[0] there must move a step's
    # field and break the DGS identity far beyond the 1e-11 limit
    mesh = build_uniform_mesh(0.1, 2)
    kern = build_kernels(mesh.nodes, 0.5, 2, 2)[0]
    cfg = SolverConfig(0.5, 0.5, Grid2D(M=8, L=2.0 * math.pi))
    fields = np.random.default_rng(5).uniform(-0.5, 0.5, (2, 8, 8))
    phi, _ = solver.step(fields, mesh.nodes, kern, cfg, 0.5)
    real = solver._split_derivative
    monkeypatch.setattr(solver, "_split_derivative", lambda kernels, levels:
                        real(dataclasses.replace(kernels, local=1.5 * kernels.local), levels))
    assert not np.allclose(solver.step(fields, mesh.nodes, kern, cfg, 0.5)[0], phi, rtol=1e-6, atol=0.0)
    result = run_kernel_audit(KernelAuditSpec(alphas=(0.5,), num_meshes=1, n_max=4, dgs_histories=5))
    assert result.dgs_residual > 1e-11


def test_gradient_structure_zero_history():
    mesh = build_uniform_mesh(1.0, 5)
    kp = build_kernels(mesh.nodes, 0.5, 4, 4)[0]
    kc = build_kernels(mesh.nodes, 0.5, 5, 5)[0]
    G_n, G_prev, R_n = dgs_forms(kp, kc, np.zeros(5))
    assert G_n == G_prev == R_n == 0.0


def test_stored_form_single_level():
    # n = 1: G = (1/2) A_0 (diff)^2 with A_0 = 2 hat_0, and no G_prev or R
    mesh = build_uniform_mesh(1.0, 1)
    kern = build_kernels(mesh.nodes, 0.5, 1, 1)[0]
    val, G_prev, R_n = dgs_forms(None, kern, np.array([3.0]))
    assert val == pytest.approx(gradient_kernels(kern.hat_a)[0] * 9.0, rel=1e-15)
    assert G_prev == R_n == 0.0


def test_remainder_form_empty_below_three_levels():
    mesh = build_uniform_mesh(1.0, 2)
    kp = build_kernels(mesh.nodes, 0.5, 1, 1)[0]
    kc = build_kernels(mesh.nodes, 0.5, 2, 2)[0]
    # n = 2: the remainder couples levels j = 1..n-2 with an empty inner sum
    *_, val = dgs_forms(kp, kc, np.array([1.0, 2.0]))
    assert val >= 0.0
