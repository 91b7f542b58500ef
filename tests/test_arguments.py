"""Public helpers reject bad arguments with ValueError, never by assert.

An assert is stripped by python -O, and the helper then goes on with the
wrong input (TimeMesh.step(0) once returned tau_N); CI runs this module
under python -O too.  The problem's data classes and the mesh builders
reject a nan, and an inf where the run needs a finite number, naming the
argument.
"""

import math
import warnings

import numpy as np
import pytest

from fracstep.energy import modified_energy
from fracstep.grid import Grid2D, save_raw
from fracstep.kernels import build_kernels, dgs_forms, kernel_tables, min_step_ratio
from fracstep.mesh import (AdaptiveSchedule, MeshError, TimeMesh, adaptive_next_step, build_graded_mesh,
                           build_two_phase_mesh, build_uniform_mesh, offset_node)
from fracstep.solver import ManufacturedForcing, SolverConfig, frac_derivative, run, step

MESH = build_uniform_mesh(1.0, 4)
KERNELS = {n: build_kernels(MESH.nodes, 0.5, n, n)[0] for n in (2, 3)}
GRID = Grid2D(M=4, L=2.0 * math.pi)
SCHEDULE = AdaptiveSchedule(warmup=MESH, horizon=2.0, tau_min=1e-3, tau_max=0.1, eta=1.0)
FIELDS = np.zeros((4, 4, 4))


def _modified_energy(kernels, dist):
    return modified_energy(FIELDS, dist, kernels, 0.5, GRID, np.zeros((4, 4)), 0.0)


CASES = {
    "TimeMesh.step k=0": lambda path: MESH.step(0),
    "TimeMesh.step k=N+1": lambda path: MESH.step(5),
    "TimeMesh one node": lambda path: TimeMesh(np.array([0.0])),
    "TimeMesh 2-D nodes": lambda path: TimeMesh(np.zeros((2, 2))),
    "build_two_phase_mesh N=0": lambda path: build_two_phase_mesh(1.0, 2.0, 0, 0),
    "TimeMesh.offset_node theta=1/2": lambda path: offset_node(MESH.nodes, 1, 0.5),
    "TimeMesh.offset_node k=0": lambda path: offset_node(MESH.nodes, 0, 0.25),
    "TimeMesh.offset_node k=N+1": lambda path: offset_node(MESH.nodes, 5, 0.25),
    "adaptive_next_step tau_n=0": lambda path: adaptive_next_step(0.0, 1.0, SCHEDULE, 0.5, None),
    "adaptive_next_step negative speed": lambda path: adaptive_next_step(0.1, -1.0, SCHEDULE, 0.5, None),
    "adaptive_next_step nan speed": lambda path: adaptive_next_step(0.1, math.nan, SCHEDULE, 0.5, None),
    "min_step_ratio alpha=-0.1": lambda path: min_step_ratio(-0.1),
    "min_step_ratio alpha=1.5": lambda path: min_step_ratio(1.5),
    "min_step_ratio alpha=nan": lambda path: min_step_ratio(math.nan),
    "build_kernels 2-D nodes": lambda path: build_kernels(np.array([MESH.nodes, 2 * MESH.nodes]), 0.5, 1, 2),
    "frac_derivative": lambda path: frac_derivative(np.arange(6.0), KERNELS[3]),
    "dgs_forms current level": lambda path: dgs_forms(None, KERNELS[3], np.ones(2)),
    "dgs_forms no previous": lambda path: dgs_forms(None, KERNELS[3], np.ones(3)),
    "dgs_forms previous level": lambda path: dgs_forms(KERNELS[3], KERNELS[3], np.ones(3)),
    "step": lambda path: step(FIELDS[:2], MESH.nodes, KERNELS[3], SolverConfig(0.5, 0.5, GRID), 0.0),
    "step nodes short of t_n": lambda path: step(FIELDS[:3], MESH.nodes[:3], KERNELS[3],
                                                 SolverConfig(0.5, 0.5, GRID), 0.0),
    "modified_energy kernels": lambda path: _modified_energy(KERNELS[2], np.zeros(3)),
    "modified_energy distances": lambda path: _modified_energy(KERNELS[3], np.zeros(4)),
    "save_raw": lambda path: save_raw(path, np.zeros((4, 3)), GRID),
}


@pytest.mark.parametrize("call", CASES.values(), ids=CASES.keys())
def test_public_helpers_raise_value_error_on_bad_arguments(call, tmp_path):
    path = tmp_path / "field.raw"
    with pytest.raises(ValueError):
        call(path)
    assert not path.exists()


def test_step_names_the_nodes_it_lacks():
    # short nodes failed before as well, but inside the predictor's einsum
    with pytest.raises(ValueError, match="step 3 needs 4 nodes, got 3"):
        step(FIELDS[:3], MESH.nodes[:3], KERNELS[3], SolverConfig(0.5, 0.5, GRID), 0.0)


def test_kernel_tables_refuse_interval_weights_that_are_not_positive():
    # at alpha = 1 - 2^-53, omega_{2-alpha}(t) = t^(2^-53) / Gamma(1 + 2^-53)
    # is 1 at every subnormal t: over steps of 1e-310 the head weights 1 / tau
    # overflow, and the history weights, differences of it, are 0
    with pytest.warns(RuntimeWarning, match="overflow"), \
            pytest.raises(FloatingPointError, match="interval weights must be positive"):
        kernel_tables([0.0, 1e-310, 2e-310, 3e-310], 1.0 - 2.0**-53, 1, 3)


def _schedule(**kw):
    return AdaptiveSchedule(**{"warmup": MESH, "horizon": 2.0, "tau_min": 1e-3, "tau_max": 0.1, "eta": 1.0, **kw})


# each was accepted once: an infinite or nan horizon made run loop forever,
# a nan eta left every step at the floors, an infinite eta made the
# controller's proposal inf * 0 = nan at speed 0, an infinite tau_max
# proposed inf, a nan epsilon or L failed at step 1 as a ConvergenceError,
# and a nan or inf T0, T or gamma of a mesh builder raised naming the
# mesh's first node (after a RuntimeWarning) or a bare ValueError; a TimeMesh
# took an infinite last node (run then failed at step 2 as a
# FloatingPointError), and refused two infinite nodes after a RuntimeWarning;
# a TimeMesh whose step ratio overflowed stored inf after a RuntimeWarning,
# and run on it failed as a FloatingPointError
NON_FINITE = {
    "AdaptiveSchedule horizon=inf": (lambda: _schedule(horizon=math.inf), MeshError, "horizon"),
    "AdaptiveSchedule horizon=nan": (lambda: _schedule(horizon=math.nan), MeshError, "horizon"),
    "AdaptiveSchedule eta=nan": (lambda: _schedule(eta=math.nan), MeshError, "eta"),
    "AdaptiveSchedule eta=inf": (lambda: _schedule(eta=math.inf), MeshError, "eta"),
    "AdaptiveSchedule tau_max=inf": (lambda: _schedule(tau_max=math.inf), MeshError, "tau_max"),
    "AdaptiveSchedule tau_max=nan": (lambda: _schedule(tau_max=math.nan), MeshError, "tau_max"),
    "build_graded_mesh T0=inf": (lambda: build_graded_mesh(math.inf, 4, 1.0), MeshError, "T0"),
    "build_graded_mesh T0=nan": (lambda: build_graded_mesh(math.nan, 4, 1.0), MeshError, "T0"),
    "build_graded_mesh gamma=inf": (lambda: build_graded_mesh(1.0, 4, math.inf), MeshError, "gamma"),
    "build_graded_mesh gamma=nan": (lambda: build_graded_mesh(1.0, 4, math.nan), MeshError, "gamma"),
    "build_two_phase_mesh T=inf": (lambda: build_two_phase_mesh(math.inf, 2.0, 10, 0), MeshError, "horizon T"),
    "build_two_phase_mesh T=nan": (lambda: build_two_phase_mesh(math.nan, 2.0, 10, 0), MeshError, "horizon T"),
    "build_two_phase_mesh gamma=inf": (lambda: build_two_phase_mesh(1.0, math.inf, 10, 0), MeshError, "gamma"),
    "build_two_phase_mesh gamma=nan": (lambda: build_two_phase_mesh(1.0, math.nan, 10, 0), MeshError, "gamma"),
    "SolverConfig epsilon=nan": (lambda: SolverConfig(0.5, math.nan, GRID), ValueError, "epsilon"),
    "SolverConfig epsilon=inf": (lambda: SolverConfig(0.5, math.inf, GRID), ValueError, "epsilon"),
    "Grid2D L=nan": (lambda: Grid2D(M=4, L=math.nan), ValueError, "length L"),
    "Grid2D L=inf": (lambda: Grid2D(M=4, L=math.inf), ValueError, "length L"),
    "ManufacturedForcing sigma=nan": (lambda: ManufacturedForcing(math.nan), ValueError, "sigma"),
    "ManufacturedForcing sigma=inf": (lambda: ManufacturedForcing(math.inf), ValueError, "sigma"),
    "TimeMesh node=inf": (lambda: TimeMesh(np.array([0.0, 0.01, math.inf])), MeshError, r"finite, got t_2 = inf"),
    "TimeMesh node=nan": (lambda: TimeMesh(np.array([0.0, 0.01, math.nan])), MeshError, r"finite, got t_2 = nan"),
    "TimeMesh nodes=inf, inf": (lambda: TimeMesh(np.array([0.0, math.inf, math.inf])), MeshError, r"got t_1 = inf"),
    "TimeMesh ratio=1e300/1e-320": (lambda: TimeMesh(np.array([0.0, 1e-320, 1e300])), MeshError,
                                    r"ratios must be finite, got tau_2/tau_1 = inf"),
    "TimeMesh ratio=1e300/1e-300": (lambda: TimeMesh(np.array([0.0, 1e-300, 1e300])), MeshError,
                                    r"ratios must be finite, got tau_2/tau_1 = inf"),
}


@pytest.mark.parametrize("call, error, name", NON_FINITE.values(), ids=NON_FINITE.keys())
def test_non_finite_problem_data_raise_naming_the_argument(call, error, name):
    # raised by the argument's own check, before any arithmetic on it can warn
    with warnings.catch_warnings(), pytest.raises(error, match=name):
        warnings.simplefilter("error")
        call()


# node arrays in place of a schedule, or of a warm-up mesh, each failed with
# an AttributeError on a name the caller never wrote
WRONG_TYPE = {
    "run schedule=ndarray": (lambda: run(SolverConfig(0.5, 0.5, GRID), np.array([0.0, 0.1, 0.2]), FIELDS[0]),
                             "schedule must be a TimeMesh or an AdaptiveSchedule, got ndarray"),
    "run schedule=list": (lambda: run(SolverConfig(0.5, 0.5, GRID), [0.0, 0.1, 0.2], FIELDS[0]), "schedule.*got list"),
    "run schedule=None": (lambda: run(SolverConfig(0.5, 0.5, GRID), None, FIELDS[0]), "schedule.*got NoneType"),
    "AdaptiveSchedule warmup=ndarray": (lambda: _schedule(warmup=np.array([0.0, 0.1])),
                                        "warmup must be a TimeMesh, got ndarray"),
}


@pytest.mark.parametrize("call, name", WRONG_TYPE.values(), ids=WRONG_TYPE.keys())
def test_a_schedule_of_the_wrong_type_raises_naming_the_argument(call, name):
    with pytest.raises(TypeError, match=name):
        call()
