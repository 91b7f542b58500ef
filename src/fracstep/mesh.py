"""Nonuniform time meshes: graded, graded-plus-random, and adaptive steps.

A mesh is a strictly increasing node vector 0 = t_0 < t_1 < ... < t_N.
Graded meshes t_k = T0 * (k/N0)^gamma concentrate steps near t = 0 to
resolve the weak initial singularity of time-fractional problems.  The
two-phase builder glues a graded prefix on [0, T0] to random steps on
[T0, T].  The adaptive controller shrinks the step where the solution
moves fast, with a hard floor on the step ratio so that the kernel
monotonicity needed by the energy analysis is preserved.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .special import saturating_power


class MeshError(ValueError):
    """Raised when a requested mesh cannot be built."""


@dataclass(frozen=True)
class TimeMesh:
    """Immutable node/step/ratio view of a time mesh.

    nodes[k] = t_k for k = 0..N, steps[k-1] = tau_k = t_k - t_{k-1} for
    k = 1..N, ratios[k-2] = tau_k / tau_{k-1} for k = 2..N.  The nodes are
    finite and rise strictly from 0.
    """

    nodes: np.ndarray
    steps: np.ndarray = field(init=False)
    ratios: np.ndarray = field(init=False)

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 2:
            raise MeshError("mesh needs at least two nodes")
        if nodes[0] != 0.0:
            raise MeshError(f"mesh must start at t = 0, got {nodes[0]}")
        bad = np.flatnonzero(~np.isfinite(nodes))   # checked first: inf - inf would warn in np.diff
        if bad.size:
            raise MeshError(f"mesh nodes must be finite, got t_{bad[0]} = {nodes[bad[0]]}")
        steps = np.diff(nodes)
        if not np.all(steps > 0.0):
            raise MeshError("mesh nodes must be strictly increasing")
        ratios = steps[1:] / steps[:-1]
        for name, arr in (("nodes", nodes), ("steps", steps), ("ratios", ratios)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def num_steps(self) -> int:
        return self.steps.size

    @property
    def horizon(self) -> float:
        return float(self.nodes[-1])

    def step(self, k: int) -> float:
        """tau_k for 1 <= k <= N; ValueError for any other k."""
        if not 1 <= k <= self.num_steps:
            raise ValueError(f"step index {k} out of range 1..{self.num_steps}")
        return float(self.steps[k - 1])


def offset_node(nodes, k: int, theta: float) -> float:
    """t_{k-theta} = t_{k-1} + (1-theta) tau_k of nodes, theta = alpha/2, for
    1 <= k < len(nodes) and 0 < theta < 1/2; ValueError otherwise."""
    if not 1 <= k < len(nodes):
        raise ValueError(f"step index {k} out of range 1..{len(nodes) - 1}")
    if not 0.0 < theta < 0.5:
        raise ValueError(f"offset must lie in (0, 1/2), got {theta}")
    return float(nodes[k - 1] + (1.0 - theta) * (nodes[k] - nodes[k - 1]))


def build_graded_mesh(T0: float, N0: int, gamma: float) -> TimeMesh:
    """Graded mesh t_k = T0 * (k/N0)^gamma on [0, T0].

    gamma = 1 is uniform; gamma > 1 clusters nodes at the origin.
    """
    if not 0.0 < T0 < np.inf:
        raise MeshError(f"graded mesh needs a finite T0 > 0, got {T0}")
    if N0 < 1:
        raise MeshError(f"graded mesh needs N0 >= 1, got {N0}")
    if not 1.0 <= gamma < np.inf:
        raise MeshError(f"grading exponent gamma must be finite and >= 1, got {gamma}")
    k = np.arange(N0 + 1, dtype=float)
    return TimeMesh(T0 * (k / N0) ** gamma)


def build_two_phase_mesh(T: float, gamma: float, N: int, seed: int) -> TimeMesh:
    """Graded prefix on [0, T0] plus random steps on [T0, T], N steps total.

    T0 = min(1/gamma, T) and the prefix gets N0 = ceil(N / (T + 1 - 1/gamma))
    of the N subintervals.  The remaining N - N0 steps are drawn uniformly
    and rescaled so they sum to T - T0 exactly; the final node is pinned to
    T.  When T0 == T the mesh degenerates to a pure graded mesh with all N
    steps (uniform for gamma = 1).
    """
    if not 0.0 < T < np.inf:
        raise MeshError(f"horizon T must be positive and finite, got {T}")
    if not 1.0 <= gamma < np.inf:
        raise MeshError(f"grading exponent gamma must be finite and >= 1, got {gamma}")
    if N < 1:
        raise MeshError(f"need at least one step, got N = {N}")
    T0 = min(1.0 / gamma, T)
    if T0 >= T:
        return build_graded_mesh(T, N, gamma)
    N0 = int(np.ceil(N / (T + 1.0 - 1.0 / gamma)))
    if N0 >= N:
        raise MeshError(
            f"graded prefix uses N0 = {N0} of N = {N} steps; no room for the random phase"
        )
    rng = np.random.default_rng(seed)
    eps = rng.random(N - N0)
    while np.any(eps <= 0.0):  # astronomically rare, but (0,1) is the contract
        eps = rng.random(N - N0)
    tail_steps = (T - T0) * eps / eps.sum()
    prefix = T0 * (np.arange(N0 + 1, dtype=float) / N0) ** gamma
    nodes = np.concatenate([prefix, T0 + np.cumsum(tail_steps)])
    nodes[-1] = T
    return TimeMesh(nodes)


def build_uniform_mesh(T: float, N: int) -> TimeMesh:
    """Uniform mesh with N steps on [0, T]."""
    return build_graded_mesh(T, N, 1.0)


@dataclass(frozen=True)
class AdaptiveSchedule:
    """Graded warm-up mesh, then controller-driven steps until the horizon.

    The controller (adaptive_next_step) proposes tau_max / sqrt(1 + eta *
    speed^2), where speed is the L2 norm of the divided difference of the
    last accepted step, and clips it from below by tau_min.  The ratio
    floor and the step cap are not settings: the runner derives both from
    the problem it solves.
    """

    warmup: TimeMesh
    horizon: float
    tau_min: float
    tau_max: float
    eta: float

    def __post_init__(self):
        if not isinstance(self.warmup, TimeMesh):
            raise TypeError(f"warmup must be a TimeMesh, got {type(self.warmup).__name__}")
        if not self.warmup.horizon < self.horizon < np.inf:
            raise MeshError(f"horizon {self.horizon} must be finite and past the warm-up's end {self.warmup.horizon}")
        if not 0.0 < self.tau_min <= self.tau_max < np.inf:
            raise MeshError(f"need 0 < tau_min <= tau_max < inf, got ({self.tau_min}, {self.tau_max})")
        if not 0.0 <= self.eta < np.inf:
            raise MeshError(f"controller weight eta must be finite and >= 0, got {self.eta}")


def adaptive_next_step(
    tau_n: float, change_norm: float, schedule: AdaptiveSchedule, r_floor: float, cap: float | None
) -> float:
    """Next step from the last step and the solution speed of that step.

    Applies, in order: the inverse-speed proposal, the tau_min floor, the
    ratio floor r_floor * tau_n, and last the step cap unless it is None.
    The cap wins even when it undercuts the ratio floor; the runner's
    per-step ratio flag records that.  A speed whose square overflows
    proposes 0, so the floors decide, and eta = 0 proposes tau_max.
    Raises ValueError unless tau_n > 0 and change_norm >= 0.
    """
    if not (tau_n > 0.0 and change_norm >= 0.0):
        raise ValueError(f"need tau_n > 0 and change_norm >= 0, got ({tau_n}, {change_norm})")
    speed_sq = saturating_power(change_norm, 2) if schedule.eta else 0.0    # not 0 * inf = nan
    proposal = schedule.tau_max / np.sqrt(1.0 + schedule.eta * speed_sq)
    tau = max(schedule.tau_min, proposal, r_floor * tau_n)
    if cap is not None:
        tau = min(tau, cap)
    return float(tau)


def random_ratio_mesh(rng: np.random.Generator, n: int, r_min: float, r_max: float = 4.0) -> TimeMesh:
    """Random mesh with n steps whose ratios all lie in [r_min, r_max].

    Used to fuzz the kernel audits; the first step is log-uniform in
    [1e-3, 1] and roughly one draw in ten sits exactly at the floor.
    """
    tau1 = float(np.exp(rng.uniform(np.log(1e-3), np.log(1.0))))
    ratios = rng.uniform(r_min, r_max, size=n - 1)
    at_floor = rng.random(n - 1) < 0.1
    ratios[at_floor] = r_min
    steps = tau1 * np.concatenate([[1.0], np.cumprod(ratios)])
    return TimeMesh(np.concatenate([[0.0], np.cumsum(steps)]))
