"""Free energy, history quadratic, and the dissipation audit."""

import math
from dataclasses import replace

import numpy as np
import pytest

from fracstep.energy import (
    DissipationViolation,
    dissipation_audit,
    dissipation_lhs,
    free_energy,
    modified_energy,
)
from fracstep.experiments import CoarsenSpec, run_coarsening
from fracstep.grid import Grid2D, grid_sum
from fracstep.kernels import build_kernels, distance_form, min_step_ratio, stored_form_coeffs
from fracstep.mesh import build_uniform_mesh
from fracstep.solver import SolverConfig, SolveTrajectory, run
from oracles import _G_BLOCK, history_quadratic, scalar_dissipation_lhs

TWO_PI = 2.0 * math.pi


def test_free_energy_zero_state():
    # phi = 0: no gradient, bulk (0-1)^2/4 integrates to L^2/4 = pi^2
    g = Grid2D(M=16, L=TWO_PI)
    assert free_energy(np.zeros((16, 16)), 0.5, g) == pytest.approx(math.pi**2, rel=1e-14)


def test_free_energy_pure_phase_is_zero():
    g = Grid2D(M=16, L=TWO_PI)
    assert free_energy(np.ones((16, 16)), 0.5, g) == 0.0
    assert free_energy(-np.ones((16, 16)), 0.5, g) == 0.0


def test_free_energy_sine_mode_continuum():
    # E[sin(x)sin(y)] = eps^2 pi^2 + 41 pi^2 / 64 on the torus
    eps = 0.3
    g = Grid2D(M=256, L=TWO_PI)
    u = g.field_from_function(lambda X, Y: np.sin(X) * np.sin(Y))
    want = eps**2 * math.pi**2 + 41.0 * math.pi**2 / 64.0
    assert free_energy(u, eps, g) == pytest.approx(want, rel=1e-3)


def test_history_quadratic_level_zero():
    g = Grid2D(M=8, L=1.0)
    assert history_quadratic([np.zeros((8, 8))], np.array([1.0]), g) == 0.0


def test_history_quadratic_matches_pointwise_form():
    # summing the form over the grid, each point's on the squares of its
    # own suffix sums, must reproduce the collapsed squared-distance
    # evaluation, within one block of levels and across block boundaries
    rng = np.random.default_rng(3)
    g = Grid2D(M=8, L=TWO_PI)
    for n in (5, 2 * _G_BLOCK + 3):
        mesh = build_uniform_mesh(1.0, n)
        kern = build_kernels(mesh.nodes, 0.6, n, n)[0]
        fields = rng.standard_normal((n + 1, 8, 8))
        got = history_quadratic(fields, kern.hat_a, g)

        diffs = np.diff(fields, axis=0)
        c = stored_form_coeffs(kern.hat_a)
        acc = 0.0
        for i in range(8):
            for j in range(8):
                acc += distance_form(c, np.cumsum(diffs[::-1, i, j])[::-1] ** 2)
        want = 0.5 * g.h**2 * acc
        assert got == pytest.approx(want, rel=1e-12), n


def test_modified_energy_level_zero():
    # level 0 is seeded, not computed: E = free_energy(phi0), G = 0 and the
    # newest field's distance to itself, [0]
    g = Grid2D(M=8, L=TWO_PI)
    phi0 = np.zeros((8, 8))
    E, G, dist = free_energy(phi0, 0.5, g), 0.0, np.zeros(1)
    with pytest.raises(ValueError, match="level 0"):
        modified_energy([phi0], dist, build_kernels(build_uniform_mesh(0.1, 1).nodes, 0.5, 1, 1)[0], 0.5, g,
                        np.zeros((8, 8)), 0.0)
    # run's columns carry these at level 0, and the lhs column starts at step 1
    traj = run(SolverConfig(alpha=0.5, epsilon=0.5, grid=g), build_uniform_mesh(0.1, 1), phi0)
    assert (traj.E[0], traj.G[0], traj.E_alpha[0]) == (E, 0.0, E)
    assert traj.dissipation_lhs.shape == (traj.num_steps,) == (1,)


def test_modified_energy_steady_history():
    # a constant-in-time history stores nothing in the kernel quadratic
    g = Grid2D(M=8, L=TWO_PI)
    mesh = build_uniform_mesh(1.0, 4)
    kern = build_kernels(mesh.nodes, 0.5, 4, 4)[0]
    phi = np.full((8, 8), 0.7)
    dist = np.zeros(4)                  # carried distances of level 3
    E, G, moved = modified_energy([phi] * 5, dist, kern, 0.2, g, np.zeros((8, 8)), 0.0)
    assert np.array_equal(moved, np.zeros(5))
    assert G == 0.0
    assert E + G == E


def test_modified_energy_writes_none_of_its_arguments():
    # two calls at one level on read-only inputs: any write would raise, and
    # the second call returns the first one's bits
    g = Grid2D(M=8, L=TWO_PI)
    mesh = build_uniform_mesh(1.0, 3)
    fields = np.random.default_rng(0).uniform(-1.0, 1.0, (4, 8, 8))
    deltas = np.diff(fields, axis=0)
    dist = np.zeros(1)
    for n in (1, 2):
        delta = deltas[n - 1]
        _, _, dist = modified_energy(fields[: n + 1], dist, build_kernels(mesh.nodes, 0.5, n, n)[0], 0.3, g, delta,
                                     grid_sum(delta * delta))
    for array in (fields, dist, deltas):
        array.flags.writeable = False
    kern = build_kernels(mesh.nodes, 0.5, 3, 3)[0]
    delta_sq = grid_sum(deltas[2] * deltas[2])
    first = modified_energy(fields, dist, kern, 0.3, g, deltas[2], delta_sq)
    second = modified_energy(fields, dist, kern, 0.3, g, deltas[2], delta_sq)
    as_bits = lambda x: np.asarray(x, dtype=float).view(np.uint64)
    for a, b in zip(first, second, strict=True):
        assert np.array_equal(as_bits(a), as_bits(b))
    assert first[1] == pytest.approx(history_quadratic(fields, kern.hat_a, g), rel=1e-12)


def test_modified_energy_takes_the_newest_distance_as_given():
    # dist'_{n-1} is the grid sum it was handed, bit for bit, on a delta
    # whose einsum norm has other bits
    g = Grid2D(M=8, L=TWO_PI)
    mesh = build_uniform_mesh(1.0, 3)
    fields = np.random.default_rng(1).uniform(-1.0, 1.0, (4, 8, 8))
    dist = np.zeros(1)
    for n in (1, 2, 3):
        delta = fields[n] - fields[n - 1]
        delta_sq = grid_sum(delta * delta)
        _, _, dist = modified_energy(fields[: n + 1], dist, build_kernels(mesh.nodes, 0.5, n, n)[0], 0.3, g, delta,
                                     delta_sq)
        assert dist[n - 1] == delta_sq and dist[n] == 0.0
    assert delta_sq != np.einsum("ij,ij->", delta, delta)


def test_dissipation_lhs_arithmetic():
    # rate = (1.5 - 2) / 0.5 = -1, damping = 0.5 * (0.5/1.5) * 0.1 / 0.5 = 1/30
    lhs = dissipation_lhs(np.array([2.0, 1.5]), np.array([0.5 / 1.5]), np.array([0.5]), np.array([0.1]))
    assert lhs.tolist() == pytest.approx([-29.0 / 30.0], rel=1e-14)
    assert lhs.dtype == np.float64
    assert lhs[0] == scalar_dissipation_lhs(2.0, 1.5, 0.5 / 1.5, 0.5, 0.1)


@pytest.mark.parametrize("alpha", [0.4, 0.9])
def test_run_columns_carry_the_bits_of_the_scalar_law(alpha):
    # run evaluates the lhs and both flags once, over the finished run;
    # recompute each step's from its scalar definition, as a run once did
    # at the step, over a strict quick coarsen (its last step, clipped to
    # the horizon, breaks the ratio floor at alpha 0.4); G level by level
    # through modified_energy, fed the grid sum that the damping reads, so
    # a run whose G reduced the step's difference by another path differs
    traj, cfg = run_coarsening(replace(CoarsenSpec(alpha=alpha).quick(), M=8, seed=7))
    mesh, grid = traj.mesh, cfg.grid
    r_floor = min_step_ratio(alpha)
    E_alpha = [float(e) + float(g) for e, g in zip(traj.E, traj.G, strict=True)]
    G0, dist = 0.0, np.zeros(1)
    G, lhs, cap_ok, ratio_ok = [G0], [], [], []
    for n in range(1, traj.num_steps + 1):
        tau_n = mesh.step(n)
        kern = build_kernels(mesh.nodes, alpha, n, n)[0]
        delta = traj.fields[n] - traj.fields[n - 1]
        delta_sq = grid_sum(delta * delta)
        _, G_n, dist = modified_energy(traj.fields[: n + 1], dist, kern, cfg.epsilon, grid, delta, delta_sq)
        assert dist[n - 1] == delta_sq
        G.append(G_n)
        step_sq = grid.h**2 * delta_sq
        lhs.append(scalar_dissipation_lhs(E_alpha[n - 1], E_alpha[n], kern.local, tau_n,
                                          step_sq))
        cap_ok.append(tau_n <= traj.cap * (1.0 + 1e-12))
        ratio_ok.append(n == 1 or float(mesh.ratios[n - 2]) >= r_floor * (1.0 - 1e-12))
    as_bits = lambda x: np.asarray(x, dtype=float).view(np.uint64)
    assert np.array_equal(as_bits(traj.G), as_bits(G))
    assert np.array_equal(as_bits(traj.E_alpha), as_bits(E_alpha))
    assert np.array_equal(as_bits(traj.dissipation_lhs), as_bits(lhs))
    assert traj.cap_ok.tolist() == cap_ok and traj.ratio_ok.tolist() == ratio_ok
    assert len(lhs) == traj.num_steps > 100
    assert ratio_ok[-1] == (alpha == 0.9)       # the False path is checked too


def _traj(e_alpha, lhs, cap_ok, ratio_ok):
    # a trajectory of len(lhs) unit steps whose E_alpha is e_alpha (G = 0)
    N = len(lhs)
    return SolveTrajectory(
        mesh=build_uniform_mesh(float(N), N), fields=np.zeros((N + 1, 4, 4)), sup_norms=np.zeros(N + 1),
        E=np.array(e_alpha, dtype=float), G=np.zeros(N + 1), dissipation_lhs=np.array(lhs, dtype=float),
        fp_iters=np.ones(N, dtype=int), cap=1.0, cap_ok=np.array(cap_ok), ratio_ok=np.array(ratio_ok),
    )


def test_dissipation_audit_flags_and_classifies():
    traj = _traj(
        [3.0, 2.9, 2.95, 3.1],
        [-1e-3,
         5e-4,     # positive: cap broken at step 2
         2e-3],    # positive: clean hypothesis
        cap_ok=[True, False, True],
        ratio_ok=[True, True, True],
    )
    out = dissipation_audit(traj)
    assert [v.n for v in out] == [2, 3]
    assert not out[0].hypothesis_ok
    assert "step cap" in out[0].describe()
    assert out[1].hypothesis_ok
    assert "dissipation law broken" in out[1].describe()


def test_dissipation_audit_tolerance_scales_with_energy():
    # a 1e-5 residual on a 1e6 energy is round-off, not a violation
    assert dissipation_audit(_traj([1e6, 1e6], [1e-5], [True], [True])) == []
    assert len(dissipation_audit(_traj([1.0, 1.0], [1e-5], [True], [True]))) == 1


def test_dissipation_audit_flags_non_finite_energies():
    # a broken hypothesis does not explain a nan, so the flags do not excuse it
    traj = _traj([3.0, math.nan, 2.0], [math.nan, -math.inf], cap_ok=[False, True], ratio_ok=[False, True])
    out = dissipation_audit(traj)
    assert [v.n for v in out] == [1, 2]
    assert all(v.unexplained and not v.finite for v in out)
    assert not out[0].hypothesis_ok
    assert "non-finite" in out[0].describe() and "non-finite" in out[1].describe()


def test_violation_describe_ratio_floor():
    v = DissipationViolation(n=4, lhs=1e-3, tol=1e-10, cap_ok=True, ratio_ok=False)
    assert "ratio floor" in v.describe()
    assert not v.hypothesis_ok
