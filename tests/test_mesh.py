"""Time meshes: graded, two-phase, adaptive schedule and controller."""

import csv
import math

import numpy as np
import pytest

from fracstep.experiments import CoarsenSpec, write_coarsening_outputs
from fracstep.mesh import (
    AdaptiveSchedule,
    MeshError,
    TimeMesh,
    adaptive_next_step,
    build_graded_mesh,
    build_two_phase_mesh,
    offset_node,
    random_ratio_mesh,
)
from fracstep.solver import SolveTrajectory


def test_timemesh_requires_zero_start_and_increase():
    with pytest.raises(MeshError):
        TimeMesh(np.array([0.1, 0.2, 0.3]))
    with pytest.raises(MeshError):
        TimeMesh(np.array([0.0, 0.2, 0.2]))


def test_timemesh_accessors():
    mesh = TimeMesh(np.array([0.0, 0.1, 0.4, 1.0]))
    assert mesh.num_steps == 3
    assert mesh.horizon == 1.0
    assert mesh.step(2) == pytest.approx(0.3)
    assert mesh.ratios.tolist() == pytest.approx([3.0, 2.0])     # r_2, r_3
    # offset node sits strictly inside the step for theta in (0, 1/2)
    t_off = offset_node(mesh.nodes, 3, 0.25)
    assert mesh.nodes[2] < t_off < mesh.nodes[3]
    assert t_off == pytest.approx(0.4 + 0.75 * 0.6)


def test_graded_gamma_one_is_uniform():
    mesh = build_graded_mesh(1.0, 4, 1.0)
    assert np.allclose(mesh.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert mesh.ratios.shape == (3,) and np.allclose(mesh.ratios, 1.0)


def test_graded_gamma_two_exact_powers():
    mesh = build_graded_mesh(1.0, 4, 2.0)
    assert np.allclose(mesh.nodes, [0.0, 1 / 16, 4 / 16, 9 / 16, 1.0])
    assert mesh.ratios.tolist() == pytest.approx([3.0, 5 / 3, 7 / 5])


def test_graded_coarsening_warmup_ratios():
    # the warm-up mesh used by the coarsening runs: largest ratio is r_2 = 7,
    # ratios then decrease monotonically toward 1
    mesh = build_graded_mesh(0.01, 30, 3.0)
    ratios = mesh.ratios                # r_2..r_30
    assert ratios[0] == pytest.approx(7.0, rel=1e-13)
    assert ratios.min() > 1.0
    assert np.all(np.diff(ratios) < 0.0)


def test_graded_rejects_bad_parameters():
    with pytest.raises(MeshError):
        build_graded_mesh(1.0, 4, 0.5)
    with pytest.raises(MeshError):
        build_graded_mesh(0.0, 4, 2.0)
    with pytest.raises(MeshError):
        build_graded_mesh(1.0, 0, 2.0)


def test_node_sum_consistency():
    for mesh in (build_graded_mesh(0.01, 30, 3.0), build_two_phase_mesh(1.0, 2.0, 40, 7)):
        assert math.fsum(mesh.steps) == pytest.approx(mesh.horizon, rel=1e-13)


def test_two_phase_split_and_pinned_endpoint():
    # T=1, gamma=2: T0 = 1/2, N0 = ceil(40/1.5) = 27 graded + 13 random steps
    mesh = build_two_phase_mesh(1.0, 2.0, 40, seed=7)
    assert mesh.num_steps == 40
    assert mesh.nodes[-1] == 1.0
    graded = build_graded_mesh(0.5, 27, 2.0)
    assert np.allclose(mesh.nodes[:28], graded.nodes)
    # random phase sums to T - T0 exactly by the endpoint pin
    assert math.fsum(mesh.steps[27:]) == pytest.approx(0.5, rel=1e-14)


def test_two_phase_gamma_one_is_pure_graded():
    # T0 = min(1/gamma, T) = T leaves no random phase
    mesh = build_two_phase_mesh(1.0, 1.0, 10, seed=3)
    assert mesh.num_steps == 10
    assert np.allclose(mesh.nodes, np.linspace(0.0, 1.0, 11))


def test_two_phase_seeds_share_graded_prefix():
    a = build_two_phase_mesh(1.0, 2.0, 40, seed=1)
    b = build_two_phase_mesh(1.0, 2.0, 40, seed=2)
    assert np.array_equal(a.nodes[:28], b.nodes[:28])
    assert not np.array_equal(a.nodes[28:], b.nodes[28:])


def test_two_phase_rejects_no_room_for_random_phase():
    # T just above 1/gamma makes N0 = N
    with pytest.raises(MeshError):
        build_two_phase_mesh(0.51, 2.0, 40, seed=0)


def _schedule(tau_min=1e-3, tau_max=0.1, eta=1e3):
    return AdaptiveSchedule(warmup=build_graded_mesh(0.01, 2, 1.0), horizon=1.0,
                            tau_min=tau_min, tau_max=tau_max, eta=eta)


def test_adaptive_zero_change_gives_tau_max():
    assert adaptive_next_step(0.05, 0.0, _schedule(), 0.4, None) == pytest.approx(0.1)


def test_adaptive_scalar_example():
    # Pi = sqrt(1 + 1e3 * 100) ~ 316.23 pushes tau_ada to the floor tau_min
    got = adaptive_next_step(1e-3, 10.0, _schedule(), 0.2, None)
    assert got == pytest.approx(1e-3)
    assert 0.1 / math.sqrt(1.0 + 1e3 * 100.0) == pytest.approx(3.1623e-4, rel=1e-4)


def test_adaptive_ratio_floor_binds():
    # tau_ada = 1e-3 but the ratio floor lifts the step to 0.4037 * 0.05
    got = adaptive_next_step(0.05, 1e6, _schedule(), 0.4037, None)
    assert got == pytest.approx(0.020185)


def test_adaptive_cap_applied_after_floor():
    # floor would demand 0.4 * 0.05 = 0.02; the cap wins
    assert adaptive_next_step(0.05, 0.0, _schedule(eta=0.0), 0.4, 0.01) == pytest.approx(0.01)


@pytest.mark.parametrize("eta", [1e3, 0.0])
def test_adaptive_saturates_where_the_speed_squared_overflows(eta):
    # the square of 1e160 overflows a float, and 0 * inf is nan: a speed
    # whose square overflows proposes 0, so the ratio floor 0.39 * 0.01
    # binds, while eta = 0 proposes tau_max at every speed; every finite
    # square keeps the bits of tau_max / sqrt(1 + eta speed^2)
    floor = 0.39 * 0.01
    for speed in (1e150, 1e160, math.inf):
        assert adaptive_next_step(0.01, speed, _schedule(eta=eta), 0.39, None) == (floor if eta else 0.1)
    for speed in (0.0, 1e-3, 3.7, 0.31, 1e6, 1e150):
        want = max(1e-3, 0.1 / np.sqrt(1.0 + eta * speed**2), floor)
        assert adaptive_next_step(0.01, speed, _schedule(eta=eta), 0.39, None) == want


def test_adaptive_config_validation():
    with pytest.raises(ValueError):
        _schedule(tau_min=0.2, tau_max=0.1, eta=1.0)
    with pytest.raises(ValueError):
        _schedule(tau_min=1e-3, tau_max=0.1, eta=-1.0)


def test_random_ratio_mesh_respects_bounds():
    rng = np.random.default_rng(5)
    hit_floor = 0
    for _ in range(50):
        mesh = random_ratio_mesh(rng, 12, 0.39)
        ratios = mesh.ratios            # r_2..r_12
        assert np.all(ratios >= 0.39 * (1.0 - 1e-12))
        assert np.all(ratios <= 4.0 * (1.0 + 1e-12))
        hit_floor += int(np.any(np.isclose(ratios, 0.39)))
    assert hit_floor > 5  # the fuzzer exercises the boundary case


def test_energy_csv_round_trips_the_mesh(tmp_path):
    # energy.csv is a run's one per-step table: its t_n, tau_n and r_n parse
    # back exactly to the mesh's nodes, steps and ratios
    mesh = build_graded_mesh(0.5, 6, 2.0)
    N = mesh.num_steps
    traj = SolveTrajectory(
        mesh=mesh, fields=np.zeros((N + 1, 4, 4)), sup_norms=np.zeros(N + 1), fp_iters=np.ones(N, dtype=int),
        E=np.zeros(N + 1), G=np.zeros(N + 1), dissipation_lhs=np.zeros(N),
        cap=1.0, cap_ok=np.ones(N, dtype=bool), ratio_ok=np.ones(N, dtype=bool),
    )
    (path,) = write_coarsening_outputs(tmp_path, CoarsenSpec(alpha=0.5, T=1.0, M=4, snapshot_times=()), traj)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:3] == ["n", "t_n", "tau_n"] and rows[0][9] == "r_n"
    assert len(rows) == 8  # header + n = 0..6
    assert [int(row[0]) for row in rows[1:]] == list(range(N + 1))
    assert [float(row[1]) for row in rows[1:]] == mesh.nodes.tolist()
    assert [float(row[2]) for row in rows[2:]] == mesh.steps.tolist()
    assert [float(row[9]) for row in rows[3:]] == mesh.ratios.tolist()
    assert rows[1][2] == rows[1][9] == rows[2][9] == ""
    last = rows[-1]
    assert float(last[1]) == pytest.approx(0.5)
    assert float(last[9]) == pytest.approx(mesh.ratios[-1])
