"""Implicit time stepping for the time-fractional Allen-Cahn equation.

The field phi on a periodic grid evolves by

    (d^alpha_t phi)(t_{n-theta}) = -f(phi)^{n-theta} + eps^2 Lap phi^{n-theta},

with f(phi) = phi^3 - phi and the theta-weighted averages
w^{n-theta} = theta w^{n-1} + (1-theta) w^n, theta = alpha/2.  The
fractional derivative uses the split form from kernels.py, so each step
solves a nonlinear equation in phi^n with all history frozen.  A plain
fixed-point iteration lags the cubic term; each sweep inverts the
constant-coefficient operator (D I - (1-theta) eps^2 Lap) exactly by one
real 2-D FFT, taken one axis at a time, since the periodic five-point
Laplacian is diagonal in the discrete Fourier basis; the inverse symbol
is applied as a real multiply, which gives the complex division's bits
on every finite spectrum up to the sign of a zero.  The Crank-Nicolson
reference step shares the same sweep loop.

The weights of level n depend only on the nodes up to t_n, so run builds
the kernels of most levels before their steps, in blocks from one
kernels.build_kernel_block pass each: bit for bit the one-level
build_kernels (see run); a block past the appended nodes reads predicted
ones.  run ends once a node reaches _reach(horizon), and level_at(t) looks
from _reach(t), so every t in [0, horizon] finds a level of a finished run.

Each step's sweeps start from a clipped Lagrange extrapolation through
the last levels (_predict); the converged level differs from the one
reached from phi^{n-1} only within the fixed-point tolerance.

Below the step-size cap the discrete maximum bound |phi| <= 1 is
inherited from the initial data; the stepper never clips a level it
returns, and run audits it.

The history convolution and G read every past level, so a run stores
phi^0..phi^n and its per-level columns in one _LevelRecord, and t_0..t_n in
one node vector that step and the kernels read; it returns them, with the
one TimeMesh of its nodes, as a SolveTrajectory.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .energy import dissipation_lhs, free_energy, modified_energy
from .grid import Grid2D, grid_sum, laplacian, norm_inf
from .kernels import (
    KernelSet,
    as_order,
    build_kernel_block,
    build_kernels,
    history_sum,
    min_step_ratio,
)
from .mesh import AdaptiveSchedule, TimeMesh, adaptive_next_step, offset_node
from .special import omega, saturating_power


class ConvergenceError(RuntimeError):
    """Fixed-point iteration stalled or produced non-finite values, or an
    adaptive step did not advance t."""


class BoundViolation(RuntimeError):
    """Computed field left [-1, 1] although the hypotheses guarantee it."""


class StepCapError(RuntimeError):
    """A step exceeds the cap while the maximum bound is enforced."""


_PREDICTOR_LEVELS = 4    # past levels in the extrapolated start of each step's fixed point
_FIXED_POINT_TOL = 1e-12   # max-norm change between sweeps that ends a fixed point
_FIXED_POINT_MAX_ITER = 200
_BOUND_TOL = 1e-10         # slack above |phi| = 1 before a strict run raises BoundViolation
_BLOCK_ENTRIES = 1 << 12   # (level, offset) entries per table of one kernel block of run
_SCHEDULES = (TimeMesh, AdaptiveSchedule)   # the classes, bound before perfbench may wrap the name TimeMesh


def _reach(t: float) -> float:
    """t less 1e-12 max(1, t): the end rule of run and of level_at."""
    return t - 1e-12 * max(1.0, t)


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
        if not 0.0 < self.sigma < math.inf:
            raise ValueError(f"solution regularity exponent sigma must be positive and finite, got {self.sigma}")

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
        if not 0.0 < self.epsilon < math.inf:
            raise ValueError(f"interface width epsilon must be positive and finite, got {self.epsilon}")


def step_size_cap(alpha: float, h: float, epsilon: float) -> float:
    """Largest step for which solvability, the maximum bound, and the energy law hold.

    min of a reaction bound (theta * omega_{2-alpha}(1-theta) / (2(1-theta)))^(1/alpha)
    and a diffusion bound (h^2 omega_{2-alpha}(1-theta) / (4 eps^2))^(1/alpha);
    tends to min(1/2, h^2/(4 eps^2)) as alpha -> 1.  Each bound saturates
    instead of raising: to inf where it overflows or eps^2 underflows to 0,
    and to 0 where eps^2 overflows.
    """
    order = as_order(alpha)
    theta = order.theta
    w = float(omega(2.0 - order.alpha, 1.0 - theta))
    reaction = saturating_power(theta * w / (2.0 * (1.0 - theta)), 1.0 / order.alpha)
    eps2 = saturating_power(epsilon, 2)
    diffusion = saturating_power(h * h * w / (4.0 * eps2), 1.0 / order.alpha) if eps2 > 0.0 else math.inf
    return min(reaction, diffusion)


@functools.lru_cache(maxsize=4)
def _half_spectrum_sines(grid: Grid2D) -> np.ndarray:
    """sin^2(pi k / M) + sin^2(pi l / M) on the real half-spectrum, once per grid; read-only."""
    M = grid.M
    s = np.sin(np.pi * np.arange(M) / M) ** 2
    S = s[:, None] + s[None, : M // 2 + 1]
    S.flags.writeable = False
    return S


def _fixed_point(rhs_fixed, c: float, nu: float, weight: float, cfg: SolverConfig, x0, where: str):
    """Lagged fixed point of (c I - nu Lap) psi = rhs_fixed - weight f(psi), from x0.

    c > 0 and nu >= 0, so the periodic five-point operator is invertible
    and diagonal in the 2-D DFT with symbol
    c + (4 nu / h^2) (sin^2(pi k / M) + sin^2(pi l / M)); each sweep
    inverts it exactly on the real half-spectrum.  Returns (psi, sweeps).

    The transforms run one axis at a time (rfft along rows, fft along
    columns, and back), which gives the same bits as rfft2/irfft2, and
    every sweep writes into buffers made once per call.  x0 and rhs_fixed
    are only read; the returned psi is a buffer that no later sweep writes.
    """
    M = cfg.grid.M
    symbol = c + (4.0 * nu / cfg.grid.h**2) * _half_spectrum_sines(cfg.grid)
    # numpy divides x + iy by b + 0j as (x + 0 y) (1/b) + i (y - 0 x) (1/b),
    # so multiplying both parts of spec, through its real view, by the
    # interleaved 1/b gives the quotient's bits without a complex division,
    # for every finite spec and up to the sign of a zero part
    inverse = np.repeat(1.0 / symbol, 2, axis=1)
    spec = np.empty(symbol.shape, dtype=complex)
    spec_parts = spec.view(float)
    work = np.empty((M, M))                        # the reaction, the rhs, then the change
    levels = (np.empty((M, M)), np.empty((M, M)))  # psi_new alternates between the two
    psi = x0
    for sweep in range(1, _FIXED_POINT_MAX_ITER + 1):
        np.multiply(psi, psi, out=work)
        work *= psi
        work -= psi
        work *= weight
        np.subtract(rhs_fixed, work, out=work)
        np.fft.rfft(work, axis=1, out=spec)
        np.fft.fft(spec, axis=0, out=spec)
        spec_parts *= inverse
        np.fft.ifft(spec, axis=0, out=spec)
        psi_new = np.fft.irfft(spec, n=M, axis=1, out=levels[sweep % 2])
        # A difference is finite only if both iterates are, and max
        # propagates nan, so this one check catches a non-finite field on
        # the sweep it appears.
        np.subtract(psi_new, psi, out=work)
        change = float(np.abs(work, out=work).max())
        if not math.isfinite(change):
            raise ConvergenceError(f"{where} hit non-finite values in the field at sweep {sweep}")
        psi = psi_new
        if change <= _FIXED_POINT_TOL:
            return psi, sweep
    raise ConvergenceError(f"{where} stalled at change {change:.3e} after {_FIXED_POINT_MAX_ITER} sweeps")


def _predict(fields, nodes, radius: float):
    """Start of a fixed point at nodes[-1] from the levels fields at nodes[:-1].

    The Lagrange extrapolation through all of them (one einsum), clipped
    pointwise into [-R, R] with R = max(1, radius), radius = |fields[-1]|_inf:
    on a graded mesh the extrapolation of a rough history can overshoot far
    outside the box on which the lagged map contracts.
    """
    t, past = nodes[-1], nodes[:-1]
    weights = [math.prod((t - t_j) / (t_k - t_j) for j, t_j in enumerate(past) if j != k)
               for k, t_k in enumerate(past)]
    x0 = np.einsum("k,kij->ij", weights, fields)
    bound = max(1.0, radius)
    return np.clip(x0, -bound, bound, out=x0)


def step(fields, nodes, kernels: KernelSet, cfg: SolverConfig, radius: float):
    """Advance one level from phi^0..phi^{n-1} (fields) and t_0..t_n (nodes); returns (phi^n, sweeps).

    Fixed-point sweeps lag the reaction term; all history contributions
    are frozen.  The sweeps start from _predict over the last
    m = min(n, 4) levels: cubic extrapolation from n = 4 on, quadratic at
    n = 3, linear at n = 2, phi^0 at n = 1, clipped by radius =
    |phi^{n-1}|_inf, which run has recorded.  Convergence is measured by the
    max-norm change between sweeps against _FIXED_POINT_TOL.  run checks the
    step cap and the maximum bound.  Raises ValueError unless fields holds n
    levels and nodes t_0..t_n at least.
    """
    order = as_order(cfg.alpha)
    n = kernels.n
    if len(fields) != n:
        raise ValueError(f"step {n} needs {n} history fields, got {len(fields)}")
    if len(nodes) <= n:
        raise ValueError(f"step {n} needs {n + 1} nodes, got {len(nodes)}")
    theta = order.theta
    grid = cfg.grid
    eps2 = cfg.epsilon**2

    prev = fields[-1]
    D = kernels.local + kernels.hat_a[0]
    hist = history_sum(kernels.hat_a[1:n][::-1], fields)   # ascending k = 1..n-1

    rhs_fixed = D * prev - hist - theta * _reaction(prev) + theta * eps2 * laplacian(prev, grid)
    if cfg.forcing is not None:
        t_off = offset_node(nodes, n, theta)
        rhs_fixed = rhs_fixed + cfg.forcing.force(t_off, grid, order, cfg.epsilon)

    m = min(n, _PREDICTOR_LEVELS)
    x0 = _predict(fields[n - m :], nodes[n - m : n + 1], radius)
    return _fixed_point(
        rhs_fixed, D, (1.0 - theta) * eps2, 1.0 - theta, cfg, x0, f"step {n}: fixed point"
    )


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
    """Everything a run produced, as columns: the mesh it stepped, the fields,
    per level the sup norms and the energies E and G, and per step (entry
    n - 1 for step n) the dissipation lhs, the sweeps and the two
    hypothesis flags.  The energy columns are None for a forced run."""

    mesh: TimeMesh
    fields: np.ndarray
    sup_norms: np.ndarray
    E: np.ndarray | None
    G: np.ndarray | None
    dissipation_lhs: np.ndarray | None
    fp_iters: np.ndarray
    cap: float
    cap_ok: np.ndarray
    ratio_ok: np.ndarray

    @property
    def E_alpha(self) -> np.ndarray | None:
        """The modified energy E + G per level."""
        return None if self.E is None else self.E + self.G

    @property
    def num_steps(self) -> int:
        return self.mesh.num_steps

    def level_at(self, t: float) -> int | None:
        """Index of the first node at or past _reach(t), run's end rule; None when every node lies before it."""
        n = int(np.searchsorted(self.mesh.nodes, _reach(t)))
        return n if n < len(self.mesh.nodes) else None


class _LevelRecord:
    """Everything a run stores per level: phi^0..phi^n and the per-level columns.

    One (capacity, M, M) stack holds the levels, from a copy of phi0.  take
    stores each accepted level n, growing a full stack by exactly one level
    with ndarray.resize, so the stack never holds more levels than the run
    stores.  For a large block realloc remaps the pages (mremap) instead of
    copying them, so the held levels are never copied and two stacks are
    never resident at once.  The record is the only owner of its buffer,
    and resize runs with refcheck off.  A view of fields (and the last
    levels of it that step's predictor reads) is therefore valid only until
    the next take, which may move the buffer; callers take fresh views
    after each take and keep none across one.

    take also records the level's sup norm, its sweeps and h^2 s, s =
    grid_sum(delta * delta) of delta = phi^n - phi^{n-1}, the one reduction
    the law and the controller read.  Energy is recorded exactly when
    cfg.forcing is None (the law is about the unforced equation): E of
    phi^0 and G = 0 seed it, and modified_energy carries G's squared
    distances with s as the newest.
    """

    def __init__(self, cfg: SolverConfig, phi0: np.ndarray, sup_norm: float, capacity: int):
        self._cfg = cfg
        self._stack = np.empty((capacity, *phi0.shape))
        self._stack[0] = phi0
        self.sup_norms, self.sweeps, self._step_sq, self._local = [sup_norm], [], [], []
        self._E = self._G = None
        if cfg.forcing is None:
            self._dist = np.zeros(1)
            self._E, self._G = [free_energy(self._stack[0], cfg.epsilon, cfg.grid)], [0.0]

    @property
    def fields(self) -> np.ndarray:
        """View of phi^0..phi^n, one level per sup norm; valid until the next take."""
        return self._stack[: len(self.sup_norms)]

    def take(self, phi: np.ndarray, kernels: KernelSet, sup_norm: float, sweeps: int) -> float:
        """Store phi as level n = len(fields) and record it; returns its h^2 ||delta||^2."""
        n = len(self.sup_norms)
        if n == len(self._stack):
            self._stack.resize((n + 1, *self._stack.shape[1:]), refcheck=False)
        self._stack[n] = phi
        self.sup_norms.append(sup_norm)
        self.sweeps.append(sweeps)
        fields, grid = self.fields, self._cfg.grid
        delta = fields[-1] - fields[-2]
        delta_sq = grid_sum(delta * delta)
        self._step_sq.append(grid.h**2 * delta_sq)
        if self._E is not None:
            E, G, self._dist = modified_energy(fields, self._dist, kernels, self._cfg.epsilon, grid, delta, delta_sq)
            self._E.append(E)
            self._G.append(G)
            self._local.append(kernels.local)
        return self._step_sq[-1]

    def energy(self, steps: np.ndarray):
        """(E, G, lhs) over the final mesh's steps, each None for a forced run."""
        if self._E is None:
            return None, None, None
        E, G = np.asarray(self._E), np.asarray(self._G)
        return E, G, dissipation_lhs(E + G, np.asarray(self._local), steps, np.asarray(self._step_sq))


def _block_end(lo: int, last: int) -> int:
    """The highest level hi <= last (lo at least) whose block lo..hi holds
    at most _BLOCK_ENTRIES (level, offset) entries per table."""
    hi = lo
    while hi < last and (hi + 2 - lo) * (hi + 2) <= _BLOCK_ENTRIES:
        hi += 1
    return hi


def _kernel_block(nodes, order, lo: int):
    """(hi, kernels): the KernelSets of levels lo..hi by level, from one
    build_kernel_block pass over nodes, with hi = _block_end(lo, len(nodes) - 1).

    The pass runs with every floating-point flag raised as an error.  When
    it raises, kernels is empty and each level of the block is left to its
    own build_kernels call, so that a level whose weights warn or fail does
    so at its own step, as it would without blocks.
    """
    hi = _block_end(lo, len(nodes) - 1)
    try:
        with np.errstate(all="raise"):
            return hi, dict(zip(range(lo, hi + 1), build_kernel_block(nodes, order, lo, hi)))
    except FloatingPointError:
        return hi, {}


def _cap_nodes(nodes, cap: float, last: int) -> np.ndarray:
    """nodes followed by the nodes up to level last that steps of exactly cap
    would append, each summed from the one before (t + cap, as run forms
    t_n + tau), past the horizon or onto a repeated node alike: run decides."""
    head = np.append(nodes[-1], np.full(last + 1 - len(nodes), cap))
    return np.append(nodes[:-1], np.add.accumulate(head))


def run(cfg: SolverConfig, schedule, phi0: np.ndarray) -> SolveTrajectory:
    """Integrate from phi0 over a fixed TimeMesh or an AdaptiveSchedule.

    Any other schedule raises TypeError.  A phi0 that is not a finite
    (M, M) field raises ValueError before step 1, and so does, under
    cfg.enforce_bound, one whose sup norm exceeds 1 + _BOUND_TOL: the
    maximum bound's hypothesis is then not met.  The
    check allows _BOUND_TOL because every level a strict run accepts may
    carry it, so a strict run restarted from its own last level starts.
    The energy law's two hypotheses are decided here, once: the ratio
    floor r*(alpha) and the step cap.  An adaptive schedule's controller is
    handed the same two: the floor always, the cap only when
    cfg.enforce_bound is set.  A strict run raises StepCapError on the
    first step over the cap and BoundViolation on the first level whose
    sup norm exceeds 1 + _BOUND_TOL.  An adaptive run raises
    ConvergenceError on a step tau with t_n + tau == t_n.  The final step,
    clipped to land on the horizon, may fall below the floor; its ratio
    flag then reads False.

    phi^0..phi^n and their columns live in one _LevelRecord, its stack sized
    to the mesh or to the warm-up: the controller's speed is the root of the
    h^2 ||delta||^2 that its take returns, over tau_n.

    One loop steps over one node vector, the warm-up's (a fixed mesh is its
    own), until a node reaches _reach(schedule.horizon), as a fixed mesh's
    last does.  Only a schedule steps past it, appending the controller's
    steps.  After the loop the run builds its one TimeMesh from the nodes,
    and evaluates the lhs and the flags from it, each with its step's bits.

    The kernels of the levels it does not append (a fixed mesh's or the
    warm-up's) come from blocks (_kernel_block), each built when the loop
    reaches its first level.  So do those the cap decides: when a strict
    run's controller returns the cap unclipped, the level just appended and
    those that bare steps of the cap would append (_cap_nodes) are built in
    one block over the predicted nodes, used only while each node equals
    the predicted one bit for bit; the loop alone ends the run and clips its
    steps.  Any other appended level comes from build_kernels.  A block that
    raises a floating-point flag is dropped and its levels are built one by
    one, so a level that warns or fails does so at its own step.
    """
    if not isinstance(schedule, _SCHEDULES):
        raise TypeError(f"schedule must be a TimeMesh or an AdaptiveSchedule, got {type(schedule).__name__}")
    order = as_order(cfg.alpha)
    grid = cfg.grid
    phi0 = np.asarray(phi0, dtype=float)
    if phi0.shape != (grid.M, grid.M) or not np.isfinite(phi0).all():
        raise ValueError(f"phi0 must be a {grid.M}x{grid.M} field with no nan or inf, got shape {phi0.shape}")
    sup_norm = norm_inf(phi0)
    if cfg.enforce_bound and sup_norm > 1.0 + _BOUND_TOL:
        raise ValueError(f"phi0 has max norm {sup_norm:.15f} over 1 + {_BOUND_TOL:.1e}: "
                         "a strict run needs the maximum bound to hold at t = 0")
    cap = step_size_cap(order.alpha, grid.h, cfg.epsilon)
    cap_limit = cap * (1.0 + 1e-12)
    r_floor = min_step_ratio(order.alpha)

    nodes = (schedule.warmup if isinstance(schedule, AdaptiveSchedule) else schedule).nodes
    horizon = schedule.horizon

    record = _LevelRecord(cfg, phi0, sup_norm, len(nodes))
    end = _reach(horizon)     # a run whose last node reaches it is done
    fixed = len(nodes) - 1      # levels that the run does not append itself
    block, block_nodes, block_hi = {}, None, 0
    n, tau_n, change_norm = 0, 0.0, 0.0
    while True:
        at_cap = False
        if n == len(nodes) - 1:
            t_n = float(nodes[n])
            if t_n >= end:
                break
            tau = adaptive_next_step(tau_n, change_norm, schedule, r_floor,
                                     cap if cfg.enforce_bound else None)
            at_cap = cfg.enforce_bound and tau == cap
            if t_n + tau > horizon:
                tau, at_cap = horizon - t_n, False
            if t_n + tau == t_n:
                raise ConvergenceError(f"step {n + 1}: tau = {tau:.6e} does not advance "
                                       f"t_n = {t_n:.17g} in floating point")
            nodes = np.append(nodes, t_n + tau)
        n += 1
        tau_n = float(nodes[n] - nodes[n - 1])
        if cfg.enforce_bound and not tau_n <= cap_limit:
            raise StepCapError(f"step {n}: tau = {tau_n:.6e} exceeds the cap {cap:.6e} "
                               "while the bound is enforced")
        if n > block_hi or block_nodes[n] != nodes[n]:
            # no block holds this level's nodes: start one where the coming nodes are known
            block_hi, block = n, {}
            if n <= fixed or at_cap:
                block_nodes = nodes if n <= fixed else _cap_nodes(nodes, cap, _block_end(n, math.inf))
                block_hi, block = _kernel_block(block_nodes, order, n)
        kernels = block.get(n) or build_kernels(nodes, order, n)
        phi, sweeps = step(record.fields, nodes, kernels, cfg, sup_norm)
        sup_norm = norm_inf(phi)
        if cfg.enforce_bound and sup_norm > 1.0 + _BOUND_TOL:
            raise BoundViolation(f"step {n}: max norm {sup_norm:.15f} exceeds 1 + {_BOUND_TOL:.1e}")
        change_norm = math.sqrt(record.take(phi, kernels, sup_norm, sweeps)) / tau_n
    mesh = TimeMesh(nodes)
    E, G, lhs = record.energy(mesh.steps)
    return SolveTrajectory(
        mesh=mesh, fields=record.fields, sup_norms=np.asarray(record.sup_norms), E=E, G=G, dissipation_lhs=lhs,
        fp_iters=np.asarray(record.sweeps, dtype=int), cap=cap, cap_ok=mesh.steps <= cap_limit,
        ratio_ok=np.append(True, mesh.ratios >= r_floor * (1.0 - 1e-12)),
    )
