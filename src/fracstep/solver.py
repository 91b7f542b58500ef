"""Implicit time stepping for the time-fractional Allen-Cahn equation.

The field phi on a periodic grid evolves by

    (d^alpha_t phi)(t_{n-theta}) = -f(phi)^{n-theta} + eps^2 Lap phi^{n-theta},

with f(phi) = phi^3 - phi and the theta-weighted averages
w^{n-theta} = theta w^{n-1} + (1-theta) w^n, theta = alpha/2.  The
fractional derivative uses the split form from kernels.py, so each step
solves a nonlinear equation in phi^n with all history frozen.  A plain
fixed-point iteration lags the cubic term; each sweep inverts the
constant-coefficient operator (D I - (1-theta) eps^2 Lap) exactly by one
real 2-D FFT, since the periodic five-point Laplacian is diagonal in the
discrete Fourier basis.  The Crank-Nicolson reference step shares the
same sweep loop.

Each step's sweeps start from the Lagrange extrapolation to t_n through
the last min(n, 4) levels (phi^0 itself at n = 1), clipped pointwise into
[-R, R] with R = max(1, |phi^{n-1}|_inf).  The clip keeps the start in the
box on which the cap makes the lagged map a contraction; the converged
level differs from the one reached from phi^{n-1} only within the
fixed-point tolerance.

Below the step-size cap the discrete maximum bound |phi| <= 1 is
inherited from the initial data; the stepper never clips a level it
returns, it audits.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .energy import EnergyRecord, dissipation_lhs, free_energy, modified_energy
from .grid import Grid2D, grid_sum, laplacian, norm_inf
from .kernels import (
    KernelSet,
    as_order,
    build_kernels,
    history_sum,
    local_coefficient,
    min_step_ratio,
)
from .mesh import AdaptiveSchedule, TimeMesh, adaptive_next_step
from .special import omega


class ConvergenceError(RuntimeError):
    """Fixed-point iteration stalled or produced non-finite values."""


class BoundViolation(RuntimeError):
    """Computed field left [-1, 1] although the hypotheses guarantee it."""


class StepCapError(RuntimeError):
    """A step exceeds the cap while the maximum bound is enforced."""


_PREDICTOR_LEVELS = 4    # past levels in the extrapolated start of each step's fixed point
_FIXED_POINT_TOL = 1e-12   # max-norm change between sweeps that ends a fixed point
_FIXED_POINT_MAX_ITER = 200
_BOUND_TOL = 1e-10         # slack above |phi| = 1 before a strict run raises BoundViolation


def _reaction(phi: np.ndarray) -> np.ndarray:
    return phi * phi * phi - phi


@functools.lru_cache(maxsize=4)
def _sin_profile(grid: Grid2D) -> np.ndarray:
    """sin(x) sin(y) on the grid, evaluated once per grid; read-only, as every caller shares it."""
    S = grid.field_from_function(lambda x, y: np.sin(x) * np.sin(y))
    S.flags.writeable = False
    return S


@dataclass(frozen=True)
class ManufacturedForcing:
    """Source term that makes omega_{1+sigma}(t) sin(x) sin(y) the exact solution.

    The power factor has Caputo derivative omega_{1+sigma-alpha}(t) and the
    profile is a Laplacian eigenfunction (eigenvalue -2), so the force is
    assembled from the same closed forms the error is measured against.
    """

    sigma: float

    def __post_init__(self):
        if self.sigma <= 0.0:
            raise ValueError(f"solution regularity exponent must be positive, got {self.sigma}")

    def exact(self, t: float, grid: Grid2D) -> np.ndarray:
        factor = float(omega(1.0 + self.sigma, t)) if t > 0.0 else 0.0
        return factor * _sin_profile(grid)

    def force(self, t: float, grid: Grid2D, order, epsilon: float) -> np.ndarray:
        alpha = as_order(order).alpha
        S = _sin_profile(grid)
        phi = self.exact(t, grid)
        dphi = float(omega(1.0 + self.sigma - alpha, t)) * S
        return dphi + _reaction(phi) + 2.0 * epsilon**2 * phi


@dataclass(frozen=True)
class SolverConfig:
    """Problem data for one run."""

    alpha: float
    epsilon: float
    grid: Grid2D
    forcing: ManufacturedForcing | None = None
    enforce_bound: bool = False

    def __post_init__(self):
        as_order(self.alpha)  # validates the range
        if self.epsilon <= 0.0:
            raise ValueError(f"interface width must be positive, got {self.epsilon}")


def step_size_cap(alpha: float, h: float, epsilon: float) -> float:
    """Largest step for which solvability, the maximum bound, and the energy law hold.

    min of a reaction bound (theta * omega_{2-alpha}(1-theta) / (2(1-theta)))^(1/alpha)
    and a diffusion bound (h^2 omega_{2-alpha}(1-theta) / (4 eps^2))^(1/alpha);
    tends to min(1/2, h^2/(4 eps^2)) as alpha -> 1.
    """
    order = as_order(alpha)
    theta = order.theta
    w = float(omega(2.0 - order.alpha, 1.0 - theta))
    reaction = (theta * w / (2.0 * (1.0 - theta))) ** (1.0 / order.alpha)
    diffusion = (h * h * w / (4.0 * epsilon**2)) ** (1.0 / order.alpha)
    return min(reaction, diffusion)


def _fixed_point(rhs_fixed, c: float, nu: float, weight: float, cfg: SolverConfig, x0, where: str):
    """Lagged fixed point of (c I - nu Lap) psi = rhs_fixed - weight f(psi), from x0.

    c > 0 and nu >= 0, so the periodic five-point operator is invertible
    and diagonal in the 2-D DFT with symbol
    c + (4 nu / h^2) (sin^2(pi k / M) + sin^2(pi l / M)); each sweep
    inverts it exactly on the real half-spectrum.  Returns (psi, sweeps).
    """
    M = cfg.grid.M
    s = np.sin(np.pi * np.arange(M) / M) ** 2
    symbol = c + (4.0 * nu / cfg.grid.h**2) * (s[:, None] + s[None, : M // 2 + 1])
    psi = x0
    for sweep in range(1, _FIXED_POINT_MAX_ITER + 1):
        rhs = rhs_fixed - weight * _reaction(psi)
        psi_new = np.fft.irfft2(np.fft.rfft2(rhs) / symbol, s=rhs.shape)
        # A difference is finite only if both iterates are, so this one
        # check catches a non-finite field on the sweep it appears.
        change = norm_inf(psi_new - psi)
        if not math.isfinite(change):
            raise ConvergenceError(f"{where} hit non-finite values in the field at sweep {sweep}")
        psi = psi_new
        if change <= _FIXED_POINT_TOL:
            return psi, sweep
    raise ConvergenceError(f"{where} stalled at change {change:.3e} after {_FIXED_POINT_MAX_ITER} sweeps")


def _predict(fields, nodes):
    """Start of a fixed point at nodes[-1] from the levels fields at nodes[:-1].

    The Lagrange extrapolation through all of them, clipped pointwise into
    [-R, R] with R = max(1, |fields[-1]|_inf): on a graded mesh the
    extrapolation of a rough history can overshoot far outside the box on
    which the lagged map contracts.
    """
    t = nodes[-1]
    x0 = 0.0
    for k, (t_k, phi) in enumerate(zip(nodes[:-1], fields)):
        weight = math.prod((t - t_j) / (t_k - t_j) for j, t_j in enumerate(nodes[:-1]) if j != k)
        x0 = x0 + weight * phi
    bound = max(1.0, norm_inf(fields[-1]))
    return np.clip(x0, -bound, bound)


def step(fields, mesh: TimeMesh, kernels: KernelSet, cfg: SolverConfig):
    """Advance one level: fields stacks phi^0..phi^{n-1}, returns (phi^n, sweeps).

    Fixed-point sweeps lag the reaction term; all history contributions
    are frozen.  The sweeps start from _predict over the last
    m = min(n, 4) levels: cubic extrapolation from n = 4 on, quadratic at
    n = 3, linear at n = 2, phi^0 at n = 1.  Convergence is measured by the
    max-norm change between sweeps against _FIXED_POINT_TOL.  The step
    cap is checked by run, which decides it.
    """
    order = as_order(cfg.alpha)
    n = kernels.n
    assert len(fields) == n, f"need {n} history fields, got {len(fields)}"
    theta = order.theta
    grid = cfg.grid
    eps2 = cfg.epsilon**2

    prev = fields[-1]
    D = local_coefficient(order, kernels) + kernels.hat_a[0]
    hist = history_sum(kernels.hat_a[1:n][::-1], fields)   # ascending k = 1..n-1

    rhs_fixed = D * prev - hist - theta * _reaction(prev) + theta * eps2 * laplacian(prev, grid)
    if cfg.forcing is not None:
        t_off = mesh.offset_node(n, theta)
        rhs_fixed = rhs_fixed + cfg.forcing.force(t_off, grid, order, cfg.epsilon)

    m = min(n, _PREDICTOR_LEVELS)
    x0 = _predict(fields[n - m :], mesh.nodes[n - m : n + 1])
    psi, sweeps = _fixed_point(
        rhs_fixed, D, (1.0 - theta) * eps2, 1.0 - theta, cfg, x0, f"step {n}: fixed point"
    )
    if cfg.enforce_bound and norm_inf(psi) > 1.0 + _BOUND_TOL:
        raise BoundViolation(f"step {n}: max norm {norm_inf(psi):.15f} exceeds 1 + {_BOUND_TOL:.1e}")
    return psi, sweeps


def crank_nicolson_step(prev: np.ndarray, tau: float, cfg: SolverConfig):
    """Reference half-offset step of the unforced integer-order equation, same machinery.

    Solves (phi - prev)/tau = -(f(prev) + f(phi))/2 + eps^2 Lap (prev + phi)/2.
    """
    if cfg.forcing is not None:
        raise ValueError("the Crank-Nicolson reference step takes no forcing")
    grid = cfg.grid
    eps2 = cfg.epsilon**2
    c = 1.0 / tau
    rhs_fixed = c * prev - 0.5 * _reaction(prev) + 0.5 * eps2 * laplacian(prev, grid)
    return _fixed_point(rhs_fixed, c, 0.5 * eps2, 0.5, cfg, prev, "reference step")


@dataclass
class SolveTrajectory:
    """Everything a run produced: mesh as built, fields, norms, energies, flags."""

    mesh: TimeMesh
    fields: np.ndarray
    sup_norms: np.ndarray
    fp_iters: np.ndarray
    energy: list | None
    cap: float
    cap_ok: np.ndarray
    ratio_ok: np.ndarray
    notes: list
    history_capacity: int           # levels allocated in the field stack

    @property
    def num_steps(self) -> int:
        return self.mesh.num_steps

    def level_at(self, t: float) -> int | None:
        """Index of the first node at or past t - 1e-12; None when every node lies before it."""
        n = int(np.searchsorted(self.mesh.nodes, t - 1e-12))
        return n if n < len(self.mesh.nodes) else None


def run(cfg: SolverConfig, schedule, phi0: np.ndarray, record_energy: bool = True) -> SolveTrajectory:
    """Integrate from phi0 over a fixed TimeMesh or an AdaptiveSchedule.

    The energy law's two hypotheses are decided here, once: the ratio
    floor r*(alpha) and the step cap.  Both are audited as per-step flags,
    and an adaptive schedule's controller is handed the same two: the
    floor always, the cap only when cfg.enforce_bound is set.  A strict run
    raises StepCapError on the first step that its cap flag marks.

    phi^0..phi^n live in one (capacity, M, M) stack, doubled when an
    adaptive run fills it; step and modified_energy read views of it.
    Next to it runs dist, the squared distances from the newest field to
    every stored one, which grows with the stack and which modified_energy
    updates in place each step, so G costs one pass over the stack.
    Energy records are optional.
    """
    order = as_order(cfg.alpha)
    grid = cfg.grid
    phi0 = np.asarray(phi0, dtype=float)
    assert phi0.shape == (grid.M, grid.M), "initial data must match the grid"
    cap = step_size_cap(order.alpha, grid.h, cfg.epsilon)
    r_floor = min_step_ratio(order.alpha)

    adaptive = isinstance(schedule, AdaptiveSchedule)
    if adaptive:
        nodes = list(schedule.warmup.nodes)
        horizon = schedule.horizon
    else:
        nodes = list(np.asarray(schedule.nodes))
        horizon = nodes[-1]

    fields = np.empty((len(nodes), grid.M, grid.M))
    fields[0] = phi0
    dist = np.empty(len(nodes))
    sup_norms = [norm_inf(phi0)]
    fp_iters = []
    cap_ok = []
    ratio_ok = []
    notes = []
    records = None
    if record_energy:
        records = [modified_energy(fields[:1], dist[:1], None, cfg.epsilon, grid)]

    n = 0
    change_norm = 0.0
    while True:
        if n >= len(nodes) - 1:
            if not adaptive or nodes[-1] >= horizon - 1e-12 * max(1.0, horizon):
                break
            tau_last = nodes[-1] - nodes[-2]
            tau_next = adaptive_next_step(tau_last, change_norm, schedule, r_floor,
                                          cap if cfg.enforce_bound else None)
            if nodes[-1] + tau_next > horizon:
                tau_next = horizon - nodes[-1]
                if tau_next < r_floor * tau_last:
                    notes.append((n + 1, "final step clipped below the ratio floor"))
            nodes.append(nodes[-1] + tau_next)
        n += 1
        if n == len(fields):
            grown = np.empty((2 * n, grid.M, grid.M))
            grown[:n] = fields
            fields = grown
            dist = np.concatenate((dist, np.empty(n)))
        mesh_n = TimeMesh(np.asarray(nodes[: n + 1]))
        tau_n = mesh_n.step(n)
        within_cap = tau_n <= cap * (1.0 + 1e-12)
        if cfg.enforce_bound and not within_cap:
            raise StepCapError(
                f"step {n}: tau = {tau_n:.6e} exceeds the cap {cap:.6e} while the bound is enforced"
            )
        kernels = build_kernels(mesh_n, order, n)
        phi, sweeps = step(fields[:n], mesh_n, kernels, cfg)
        fields[n] = phi
        sup_norms.append(norm_inf(phi))
        fp_iters.append(sweeps)
        cap_ok.append(within_cap)
        ratio_ok.append(n == 1 or mesh_n.ratio(n) >= r_floor * (1.0 - 1e-12))
        step_sq = grid.h**2 * grid_sum((phi - fields[n - 1]) ** 2)
        change_norm = math.sqrt(step_sq) / tau_n
        if record_energy:
            rec = modified_energy(fields[: n + 1], dist[: n + 1], kernels, cfg.epsilon, grid)
            lhs = dissipation_lhs(records[-1], rec, order, kernels.a[0], tau_n, step_sq)
            records.append(EnergyRecord(rec.n, rec.E, rec.G_term, rec.E_alpha, lhs))

    mesh = TimeMesh(np.asarray(nodes))
    return SolveTrajectory(
        mesh=mesh,
        fields=fields[: n + 1],
        sup_norms=np.asarray(sup_norms),
        fp_iters=np.asarray(fp_iters, dtype=int),
        energy=records,
        cap=cap,
        cap_ok=np.asarray(cap_ok, dtype=bool),
        ratio_ok=np.asarray(ratio_ok, dtype=bool),
        notes=notes,
        history_capacity=len(fields),
    )
