"""Experiment drivers behind the CLI: accuracy study, coarsening study,
kernel certification, and the step-ratio root table.

Each driver is a plain function from a parameter dataclass to an in-memory
result; file emission (CSV, PGM, raw fields) is separated so tests can
inspect results without touching the filesystem.  The kernel certification
keeps only what its files need: each alpha's audit is folded into an
AuditSummary as soon as it returns, so its memory does not grow with the
number of alphas.
"""

from __future__ import annotations

import csv
import functools
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .audits import audit_kernel_properties
from .grid import Grid2D, grid_sum, save_pgm, save_raw
from .kernels import (
    admissible_order,
    as_order,
    build_kernels,
    dgs_forms,
    min_step_ratio,
    _ratio_equation,
)
from .mesh import (
    AdaptiveSchedule,
    MeshError,
    TimeMesh,
    build_graded_mesh,
    build_two_phase_mesh,
    random_ratio_mesh,
)
from .solver import (
    BoundViolation,
    ConvergenceError,
    ManufacturedForcing,
    SolveTrajectory,
    SolverConfig,
    frac_derivative,
    run,
)


def fit_order(Ns, errors):
    """Least-squares slope of log error against log N, with the fit residual.

    Returns (order, residual) where order = -slope, fitted in closed form
    over the centred logs as sum(dx dy) / sum(dx^2) (no BLAS or LAPACK);
    residual is the rms misfit of the line in log space.  Both are nan,
    and no log is taken, when an error is not finite and positive (an
    underflowed error is 0).  Fewer than two Ns, or a repeated N, raise.
    """
    if len(Ns) < 2 or len(set(Ns)) < len(Ns):
        raise ValueError(f"order fit needs two or more mesh levels, none repeated, got {list(Ns)}")
    errors = np.asarray(errors, dtype=float)
    if not np.all(np.isfinite(errors) & (errors > 0.0)):
        return math.nan, math.nan
    x, y = np.log(np.asarray(Ns, dtype=float)), np.log(errors)
    dx, dy = x - x.mean(), y - y.mean()
    slope = np.sum(dx * dy) / np.sum(dx * dx)
    resid = dy - slope * dx
    return float(-slope), math.sqrt(float(np.mean(resid * resid)))


def _require(key: str, value, ok, want: str) -> None:
    """Raise ValueError naming config key (key[i] for entry i of a tuple) at
    the first value for which ok is false; want says what it must be."""
    named = [(f"{key}[{i}]", v) for i, v in enumerate(value)] if isinstance(value, tuple) else [(key, value)]
    for name, v in named:
        if not ok(v):
            raise ValueError(f"config key '{name}' must {want}, got {v!r}")


def _require_distinct(key: str, value: tuple, least: int) -> None:
    """Raise ValueError naming config key unless value has at least least entries, none repeated."""
    if len(value) < least or len(set(value)) < len(value):
        raise ValueError(f"config key '{key}' must list {least} or more entries, none repeated, "
                         f"got {list(value)}")


_ORDER = (admissible_order, "lie in (0, 1) with alpha/2 > 0")

_STUDY_L = 2.0 * np.pi     # both field studies run on the periodic square (0, _STUDY_L)^2


# -- accuracy study ----------------------------------------------------------


@dataclass(frozen=True)
class AccuracySpec:
    alpha: float
    sigma: float
    gammas: tuple[float, ...]
    Ns: tuple[int, ...]
    M: int = 64
    eps2: float = 0.1
    T: float = 1.0
    seed: int = 0
    spatial_check: bool = True

    def __post_init__(self):
        _require("alpha", self.alpha, *_ORDER)
        _require("sigma", self.sigma, lambda sigma: sigma > 0.0, "be positive")
        _require("gammas", self.gammas, lambda gamma: gamma >= 1.0, "be at least 1")
        _require_distinct("gammas", self.gammas, 1)
        _require("Ns", self.Ns, lambda N: N >= 1, "be at least 1")
        _require_distinct("Ns", self.Ns, 2)         # an order fit needs two levels
        _require("M", self.M, lambda M: M >= 4, "be at least 4")
        _require("eps2", self.eps2, lambda eps2: eps2 > 0.0, "be positive")
        _require("T", self.T, lambda T: T > 0.0, "be positive")

    def quick(self) -> "AccuracySpec":
        """CI profile: drop the finest N when more than two remain."""
        return replace(self, Ns=self.Ns[:-1]) if len(self.Ns) > 2 else self


@dataclass
class AccuracyRow:
    gamma: float
    N: int
    error: float
    fitted_order: float


@dataclass
class AccuracyTable:
    rows: list
    orders: dict                    # gamma -> (order, fit residual)
    spatial_estimate: float | None  # |e_M - e_2M| at the sharpest table entry
    spatial_ok: bool | None
    failures: list                  # (gamma, N, exception) for aborted rows


def _solution_error(cfg: SolverConfig, forcing: ManufacturedForcing, mesh: TimeMesh) -> float:
    """max_n of the discrete L2 error against the manufactured solution."""
    grid = cfg.grid
    traj = run(cfg, mesh, forcing.exact(0.0, grid))
    worst = 0.0
    for n in range(1, mesh.num_steps + 1):
        diff = traj.fields[n] - forcing.exact(float(mesh.nodes[n]), grid)
        worst = max(worst, math.sqrt(grid.h**2 * grid_sum(diff * diff)))
    return worst


def accuracy_table(spec: AccuracySpec) -> AccuracyTable:
    """Manufactured-solution error table over (gamma, N) on two-phase meshes.

    A run that fails in the solver aborts its row, not the table.  When
    spatial_check is on, the sharpest (gamma, N) entry is recomputed on a
    doubled grid; the difference estimates the spatial floor, reported
    against 10% of the smallest tabulated error.
    """
    forcing = ManufacturedForcing(sigma=spec.sigma)
    epsilon = math.sqrt(spec.eps2)

    def one(gamma, N, M):
        cfg = SolverConfig(alpha=spec.alpha, epsilon=epsilon, grid=Grid2D(M=M, L=_STUDY_L), forcing=forcing)
        mesh = build_two_phase_mesh(spec.T, gamma, N, spec.seed)
        return _solution_error(cfg, forcing, mesh)

    rows, orders, failures = [], {}, []
    for gamma in spec.gammas:
        errs, Ns_done = [], []
        for N in spec.Ns:
            try:
                errs.append(one(gamma, N, spec.M))
                Ns_done.append(N)
            except (ConvergenceError, BoundViolation, MeshError, FloatingPointError) as exc:
                # a solver failure aborts its row, not the table; anything else is a bug
                failures.append((gamma, N, exc.with_traceback(None)))   # no frames kept alive
        if len(Ns_done) >= 2:
            order, resid = fit_order(Ns_done, errs)
        else:
            order, resid = math.nan, math.nan
        orders[gamma] = (order, resid)
        for N, e in zip(Ns_done, errs):
            rows.append(AccuracyRow(gamma=gamma, N=N, error=e, fitted_order=order))

    spatial_estimate = spatial_ok = None
    if spec.spatial_check and rows:
        best = min(rows, key=lambda r: r.error)
        fine = one(best.gamma, best.N, 2 * spec.M)
        spatial_estimate = abs(best.error - fine)
        spatial_ok = spatial_estimate < 0.1 * best.error
    return AccuracyTable(rows, orders, spatial_estimate, spatial_ok, failures)


def write_accuracy_csv(path, table: AccuracyTable) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["gamma", "N", "error", "fitted_order"])
        for r in table.rows:
            w.writerow([f"{r.gamma:.6g}", r.N, f"{r.error:.16e}", f"{r.fitted_order:.6f}"])


# -- coarsening study --------------------------------------------------------

# Every coarsening run starts from data uniform in +-_INIT_AMPLITUDE, with a warm-up
# of _WARMUP_N0 steps graded with _WARMUP_GAMMA on [0, _WARMUP_T0] before the controller.
_INIT_AMPLITUDE = 1e-3
_WARMUP_T0 = 0.01
_WARMUP_N0 = 30
_WARMUP_GAMMA = 3.0


def _snapshot_stem(t: float) -> str:
    """The file name, less its suffix, of the snapshot at time t."""
    return f"snapshot_t{t:g}"


@dataclass(frozen=True)
class CoarsenSpec:
    alpha: float
    T: float = 50.0
    M: int = 128
    epsilon: float = 0.05
    tau_min: float = 1e-3
    tau_max: float = 0.1
    eta: float = 1e3
    enforce_cap: bool = False     # strict mode: cap clips steps and bound is enforced
    snapshot_times: tuple[float, ...] = (1.0, 10.0, 30.0, 50.0)
    seed: int = 0

    def __post_init__(self):
        _require("alpha", self.alpha, *_ORDER)
        _require("T", self.T, lambda T: T > _WARMUP_T0, f"exceed the warm-up's end t = {_WARMUP_T0:g}")
        _require("M", self.M, lambda M: M >= 4, "be at least 4")
        _require("epsilon", self.epsilon, lambda eps: eps > 0.0 and math.isfinite(eps * eps),
                 "be positive with a finite square")
        _require("tau_max", self.tau_max, lambda tau: tau > 0.0, "be positive")
        _require("tau_min", self.tau_min, lambda tau: 0.0 < tau <= self.tau_max,
                 f"lie in (0, tau_max = {self.tau_max:g}]")
        _require("eta", self.eta, lambda eta: eta >= 0.0, "be nonnegative")
        outside = [t for t in self.snapshot_times if not 0.0 <= t <= self.T]
        if outside:
            raise ValueError(f"config key 'snapshot_times' has {outside} outside [0, T = {self.T:g}]")
        times = sorted(set(self.snapshot_times))
        clash = [(a, b) for a, b in zip(times, times[1:]) if _snapshot_stem(a) == _snapshot_stem(b)]
        if clash:
            raise ValueError(f"config key 'snapshot_times' has distinct times {clash[0]} that share "
                             f"the file name {_snapshot_stem(clash[0][0])}")

    def quick(self) -> "CoarsenSpec":
        """CI profile: short horizon, coarse grid, strict hypotheses; keeps
        only the snapshot times t <= 5, the profile's horizon."""
        return replace(self, T=5.0, M=64, enforce_cap=True,
                       snapshot_times=tuple(t for t in self.snapshot_times if t <= 5.0))


def random_initial_field(grid: Grid2D, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return _INIT_AMPLITUDE * (2.0 * rng.random((grid.M, grid.M)) - 1.0)


def run_coarsening(spec: CoarsenSpec) -> tuple:
    """Random-data coarsening run: graded warm-up, then adaptive stepping.

    Returns (trajectory, config).  In strict mode run applies the step cap
    inside the controller and enforces the maximum bound; otherwise both
    are recorded as per-step audit flags only.
    """
    grid = Grid2D(M=spec.M, L=_STUDY_L)
    cfg = SolverConfig(
        alpha=spec.alpha,
        epsilon=spec.epsilon,
        grid=grid,
        enforce_bound=spec.enforce_cap,
    )
    warmup = build_graded_mesh(_WARMUP_T0, _WARMUP_N0, _WARMUP_GAMMA)
    schedule = AdaptiveSchedule(warmup=warmup, horizon=spec.T, tau_min=spec.tau_min,
                                tau_max=spec.tau_max, eta=spec.eta)
    phi0 = random_initial_field(grid, spec.seed)
    traj = run(cfg, schedule, phi0)
    return traj, cfg


def _reprs(column) -> list:
    """The round-trip repr of each float of column."""
    return [repr(x) for x in np.asarray(column, dtype=float).tolist()]


def write_coarsening_outputs(outdir, spec: CoarsenSpec, traj: SolveTrajectory) -> list:
    """Emit energy.csv, the run's one per-step table, and the snapshot at
    each level_at(t); returns the paths.

    energy.csv has one row per level n with the columns n, t_n, tau_n, E,
    E_alpha, G_term, dissipation_lhs, max_norm, fp_iters, r_n, cap_ok and
    ratio_ok, read from the trajectory's columns: every float in
    round-trip repr, the flags as 1 or 0, and a cell left empty where the
    level has no such value (the step columns at n = 0, r_n at n = 1).
    """
    grid = Grid2D(M=spec.M, L=_STUDY_L)
    mesh = traj.mesh
    t, E, E_alpha, G, norms = (_reprs(col) for col in
                               (mesh.nodes, traj.E, traj.E_alpha, traj.G, traj.sup_norms))
    energy_path = os.path.join(outdir, "energy.csv")
    with open(energy_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["n", "t_n", "tau_n", "E", "E_alpha", "G_term", "dissipation_lhs", "max_norm",
                    "fp_iters", "r_n", "cap_ok", "ratio_ok"])
        w.writerow([0, t[0], "", E[0], E_alpha[0], G[0], "", norms[0], "", "", "", ""])
        w.writerows(zip(range(1, mesh.num_steps + 1), t[1:], _reprs(mesh.steps), E[1:], E_alpha[1:],
                        G[1:], _reprs(traj.dissipation_lhs), norms[1:], traj.fp_iters.tolist(),
                        ["", *_reprs(mesh.ratios)], traj.cap_ok.astype(int).tolist(),
                        traj.ratio_ok.astype(int).tolist()))
    paths = [energy_path]
    for t_snap in sorted(set(spec.snapshot_times)):
        n = traj.level_at(t_snap)
        if n is not None:
            stem = os.path.join(outdir, _snapshot_stem(t_snap))
            save_pgm(stem + ".pgm", traj.fields[n])
            save_raw(stem + ".raw", traj.fields[n], grid)
            paths.extend([stem + ".pgm", stem + ".raw"])
    return paths


# -- kernel certification ----------------------------------------------------

# random_ratio_mesh's steps are at most 4^(n-1); the moment series cubes half
# a step, finite for every draw up to this n_max and not for all past it
_FUZZ_N_MAX = 172


@dataclass(frozen=True)
class KernelAuditSpec:
    alphas: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    num_meshes: int = 100
    n_max: int = 20
    dgs_histories: int = 50
    seed: int = 0

    def __post_init__(self):
        _require("alphas", self.alphas, *_ORDER)
        _require_distinct("alphas", self.alphas, 1)
        # an audit needs one mesh, one DGS history and one step past the first level
        _require("num_meshes", self.num_meshes, lambda count: count >= 1, "be at least 1")
        _require("n_max", self.n_max, lambda n: 2 <= n <= _FUZZ_N_MAX, f"lie in [2, {_FUZZ_N_MAX}]")
        _require("dgs_histories", self.dgs_histories, lambda count: count >= 1, "be at least 1")

    def quick(self) -> "KernelAuditSpec":
        """CI profile: at most 20 meshes per alpha."""
        return replace(self, num_meshes=min(self.num_meshes, 20))


@dataclass
class KernelAuditResult:
    summaries: list            # (alpha, AuditSummary of its meshes' AuditReport)
    dgs_residual: float        # worst relative DGS identity residual, nan if any is not finite
    dgs_min_G: float
    dgs_min_R: float
    dgs_worst_history: int = 0     # the history with the worst (or first non-finite) residual

    @functools.cached_property
    def total_checks(self) -> int:
        return sum(len(summary) for _, summary in self.summaries)

    @functools.cached_property
    def violations(self) -> list:
        """(alpha, mesh index, AuditEntry) of every summary's violations, in alpha order."""
        return [(alpha, m, bad) for alpha, summary in self.summaries for m, bad in summary.violations]


def dgs_case(rng, alpha: float, n: int, r_min: float):
    """(lhs, rhs, G_n, G_{n-1}, R_n) of the gradient-structure identity (see
    dgs_forms) for n standard-normal differences on a random mesh of n steps
    with ratios at least r_min; lhs takes the stepper's split derivative."""
    order = as_order(alpha)
    mesh = random_ratio_mesh(rng, n, r_min)
    diffs = rng.standard_normal(n)
    kern_prev, kern_curr = build_kernels(mesh.nodes, order, n - 1, n)
    history = np.concatenate([[0.0], np.cumsum(diffs)])
    lhs = 2.0 * diffs[-1] * frac_derivative(history, kern_curr)
    G_n, G_prev, R_n = dgs_forms(kern_prev, kern_curr, diffs)
    rhs = G_n - G_prev + R_n + 2.0 * kern_curr.local * diffs[-1] ** 2
    return lhs, rhs, G_n, G_prev, R_n


def kernel_audit_meshes(spec: KernelAuditSpec, rng):
    """Yield (alpha, meshes) for each of spec.alphas in turn: the
    spec.num_meshes random meshes of spec.n_max steps, with ratios at least
    r*(alpha), that run_kernel_audit audits for alpha, drawn from rng as the
    generator advances.  Given default_rng(spec.seed), it redraws the
    fuzz's meshes, from which audit_kernel_properties rebuilds each alpha's
    per-check rows."""
    for alpha in spec.alphas:
        r_star = min_step_ratio(alpha)
        yield alpha, [random_ratio_mesh(rng, spec.n_max, r_star) for _ in range(spec.num_meshes)]


def run_kernel_audit(spec: KernelAuditSpec) -> KernelAuditResult:
    """Fuzz admissible meshes, audit every kernel inequality (the meshes of
    one alpha in one call), and check the gradient-structure identity on
    random histories.

    Each alpha's AuditReport is folded into its AuditSummary as soon as it
    is audited, so the rows of one alpha at most are held at a time; the
    DGS histories draw from the generator after every alpha's meshes."""
    rng = np.random.default_rng(spec.seed)
    summaries = [(alpha, audit_kernel_properties(meshes, as_order(alpha), spec.n_max).fold())
                 for alpha, meshes in kernel_audit_meshes(spec, rng)]

    residuals, Gs, Rs = [], [], []
    for _ in range(spec.dgs_histories):
        alpha = float(rng.uniform(0.05, 0.95))
        n = int(rng.integers(2, 11))
        lhs, rhs, G_n, G_prev, R_n = dgs_case(rng, alpha, n, min_step_ratio(alpha))
        scale = max(abs(lhs), abs(rhs), 1.0)
        residuals.append(abs(lhs - rhs) / scale)    # nan when lhs, rhs, G or R is not finite
        Gs += [G_n, G_prev]
        Rs.append(R_n)
    # numpy's max, min and argmax propagate nan, where Python's max and min skip it
    worst_at = int(np.argmax(residuals)) if residuals else 0
    return KernelAuditResult(summaries, float(np.max(residuals, initial=0.0)),
                             float(np.min(Gs, initial=math.inf)), float(np.min(Rs, initial=math.inf)),
                             worst_at)


def write_kernel_audit_csv(outdir, result: KernelAuditResult) -> list:
    """Write the audit as kernel_audit.csv, one row per (alpha, mesh,
    property) with its checks, its violations and its row of least slack,
    and kernel_violations.csv, every row of result.violations (those of
    AuditReport.violations()) in full, only the header when the audit is
    clean.  Returns both paths.

    Every lhs, rhs and summary slack is written as round-trip %.16e; the
    per-check rows stay reproducible from (config, seed): kernel_audit_meshes
    redraws each alpha's meshes for audit_kernel_properties.
    """
    summary_path = os.path.join(outdir, "kernel_audit.csv")
    violations_path = os.path.join(outdir, "kernel_violations.csv")
    with open(summary_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["alpha", "mesh", "property", "checks", "violations",
                    "worst_n", "worst_k", "worst_lhs", "worst_rhs", "worst_slack"])
        for alpha, s in result.summaries:
            per_mesh = zip(*(col.tolist() for col in (s.bad, s.worst_n, s.worst_k, s.worst_lhs, s.worst_rhs)))
            for m, cols in enumerate(per_mesh):
                w.writerows([float(alpha), m, prop, c, v, n, k, f"{x:.16e}", f"{y:.16e}", f"{x - y:.16e}"]
                            for prop, c, v, n, k, x, y in zip(s.names, s.checks.tolist(), *cols))
    with open(violations_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["alpha", "mesh", "n", "property", "k", "lhs", "rhs", "slack"])
        w.writerows([float(alpha), m, e.n, e.prop, e.k, f"{e.lhs:.16e}", f"{e.rhs:.16e}", f"{e.slack:.6e}"]
                    for alpha, m, e in result.violations)
    return [summary_path, violations_path]


# -- step-ratio root table ---------------------------------------------------


@dataclass(frozen=True)
class RstarSpec:
    alphas: tuple[float, ...]

    def __post_init__(self):
        _require("alphas", self.alphas, lambda alpha: 0.0 <= alpha <= 1.0, "lie in [0, 1]")
        _require_distinct("alphas", self.alphas, 1)

    def quick(self) -> "RstarSpec":
        return self                 # the table is cheap: the CI profile is the full one


@dataclass
class RstarRow:
    alpha: float
    r_star: float
    residual: float


def rstar_table(alphas) -> list:
    """r*(alpha) rows, in the order of alphas, with the defining-equation
    residual; the caller checks the residuals and that r* increases with alpha."""
    rows = []
    for alpha in alphas:
        r = min_step_ratio(alpha)
        rows.append(RstarRow(alpha=alpha, r_star=r, residual=abs(_ratio_equation(r, alpha))))
    return rows


def write_rstar_csv(path, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["alpha", "r_star", "residual"])
        for row in rows:
            w.writerow([f"{row.alpha:.6g}", f"{row.r_star:.12f}", f"{row.residual:.3e}"])
