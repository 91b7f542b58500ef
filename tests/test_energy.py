"""Free energy, history quadratic, and the dissipation audit."""

import math

import numpy as np
import pytest

from fracstep.energy import (
    DissipationViolation,
    EnergyRecord,
    dissipation_audit,
    dissipation_lhs,
    free_energy,
    modified_energy,
)
from fracstep.grid import Grid2D
from fracstep.kernels import build_kernels, distance_form, stored_form_coeffs
from fracstep.mesh import build_uniform_mesh
from fracstep.solver import SolverConfig, run
from oracles import _G_BLOCK, history_quadratic

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
        kern = build_kernels(mesh, 0.6, n)
        fields = rng.standard_normal((n + 1, 8, 8))
        got = history_quadratic(fields, kern.aux_a, g)

        diffs = np.diff(fields, axis=0)
        c = stored_form_coeffs(kern.aux_a)
        acc = 0.0
        for i in range(8):
            for j in range(8):
                acc += distance_form(c, np.cumsum(diffs[::-1, i, j])[::-1] ** 2)
        want = 0.5 * g.h**2 * acc
        assert got == pytest.approx(want, rel=1e-12), n


def test_modified_energy_level_zero():
    g = Grid2D(M=8, L=TWO_PI)
    phi0 = np.zeros((8, 8))
    E, G, dist = modified_energy([phi0], None, None, 0.5, g)
    assert np.array_equal(dist, [0.0])  # the newest field's distance to itself
    assert G == 0.0
    assert E == free_energy(phi0, 0.5, g)
    # run's record of level 0 carries these, with no dissipation lhs
    traj = run(SolverConfig(alpha=0.5, epsilon=0.5, grid=g), build_uniform_mesh(0.1, 1), phi0)
    first = traj.energy[0]
    assert (first.n, first.E, first.G_term, first.E_alpha) == (0, E, 0.0, E)
    assert first.dissipation_lhs is None


def test_modified_energy_steady_history():
    # a constant-in-time history stores nothing in the kernel quadratic
    g = Grid2D(M=8, L=TWO_PI)
    mesh = build_uniform_mesh(1.0, 4)
    kern = build_kernels(mesh, 0.5, 4)
    phi = np.full((8, 8), 0.7)
    dist = np.zeros(4)                  # carried distances of level 3
    E, G, moved = modified_energy([phi] * 5, dist, kern, 0.2, g)
    assert np.array_equal(moved, np.zeros(5))
    assert G == 0.0
    assert E + G == E


def test_modified_energy_writes_none_of_its_arguments():
    # two calls at one level on read-only inputs: any write would raise, and
    # the second call returns the first one's bits
    g = Grid2D(M=8, L=TWO_PI)
    mesh = build_uniform_mesh(1.0, 3)
    fields = np.random.default_rng(0).uniform(-1.0, 1.0, (4, 8, 8))
    dist = None
    for n in range(3):
        kern = build_kernels(mesh, 0.5, n) if n else None
        _, _, dist = modified_energy(fields[: n + 1], dist, kern, 0.3, g)
    fields.flags.writeable = False
    dist.flags.writeable = False
    kern = build_kernels(mesh, 0.5, 3)
    first = modified_energy(fields, dist, kern, 0.3, g)
    second = modified_energy(fields, dist, kern, 0.3, g)
    as_bits = lambda x: np.asarray(x, dtype=float).view(np.uint64)
    for a, b in zip(first, second, strict=True):
        assert np.array_equal(as_bits(a), as_bits(b))
    assert first[1] == pytest.approx(history_quadratic(fields, kern.aux_a, g), rel=1e-12)


def test_dissipation_lhs_arithmetic():
    # rate = (1.5 - 2) / 0.5 = -1, damping = 0.5 * (0.5/1.5) * 0.1 / 0.5 = 1/30
    lhs = dissipation_lhs(2.0, 1.5, local=0.5 / 1.5, tau_n=0.5, step_l2_sq=0.1)
    assert lhs == pytest.approx(-29.0 / 30.0, rel=1e-14)
    assert isinstance(lhs, float)


def _rec(n, e_alpha, lhs):
    return EnergyRecord(n=n, E=e_alpha, G_term=0.0, E_alpha=e_alpha, dissipation_lhs=lhs)


def test_dissipation_audit_flags_and_classifies():
    records = [
        _rec(0, 3.0, None),
        _rec(1, 2.9, -1e-3),
        _rec(2, 2.95, 5e-4),   # positive: cap broken at step 2
        _rec(3, 3.1, 2e-3),    # positive: clean hypothesis
    ]
    cap_ok = [True, False, True]
    ratio_ok = [True, True, True]
    out = dissipation_audit(records, cap_ok, ratio_ok)
    assert [v.n for v in out] == [2, 3]
    assert not out[0].hypothesis_ok
    assert "step cap" in out[0].describe()
    assert out[1].hypothesis_ok
    assert "dissipation law broken" in out[1].describe()


def test_dissipation_audit_tolerance_scales_with_energy():
    # a 1e-5 residual on a 1e6 energy is round-off, not a violation
    records = [_rec(0, 1e6, None), _rec(1, 1e6, 1e-5)]
    assert dissipation_audit(records, [True], [True]) == []
    records = [_rec(0, 1.0, None), _rec(1, 1.0, 1e-5)]
    assert len(dissipation_audit(records, [True], [True])) == 1


def test_dissipation_audit_flags_non_finite_energies():
    # a broken hypothesis does not explain a nan, so the flags do not excuse it
    records = [_rec(0, 3.0, None), _rec(1, math.nan, math.nan), _rec(2, 2.0, -math.inf)]
    out = dissipation_audit(records, cap_ok=[False, True], ratio_ok=[False, True])
    assert [v.n for v in out] == [1, 2]
    assert all(v.unexplained and not v.finite for v in out)
    assert not out[0].hypothesis_ok
    assert "non-finite" in out[0].describe() and "non-finite" in out[1].describe()


def test_violation_describe_ratio_floor():
    v = DissipationViolation(n=4, lhs=1e-3, tol=1e-10, cap_ok=True, ratio_ok=False)
    assert "ratio floor" in v.describe()
    assert not v.hypothesis_ok
