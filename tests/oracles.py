"""Test-only references for the package's closed forms and carried state.

Everything in fracstep.kernels has a closed form; the quadratures here
recompute the same quantities by numerically integrating the defining
integrands (scipy's QUADPACK), so the two routes can be checked against
each other.  The quadratures also back the curvature diagnostics, whose
integrals have no closed form that is independent of the weight
identities.  The rest are stateless recomputations that no run calls:
the moment weights as first written (both formulas on every entry), the
level weights a and zeta of one level, read from the one weight pass, the
one-level endpoint gaps the vectorised kernel audit is compared with,
the worst slack per property of an audit report or summary, the history quadratic G
from the fields, the per-step scalar dissipation lhs, and the grid inner
product and L2 norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import rgamma

from fracstep.audits import AuditReport, AuditSummary, _gaps
from fracstep.grid import Grid2D, grid_sum
from fracstep.kernels import (_SERIES_GAP, FracOrder, _moment_series, _offset_geometry, as_order, distance_form,
                              kernel_tables, stored_form_coeffs)
from fracstep.mesh import TimeMesh
from fracstep.special import omega, omega_diff


# -- adaptive quadrature of the derivative weights ---------------------------


class QuadratureError(RuntimeError):
    """Raised when an adaptive quadrature cannot reach the requested accuracy."""


_EPSABS = 1e-14
_EPSREL = 1e-12
_LIMIT = 200


def _run_quad(fn, lo, hi, **kwargs):
    val, err, info, *tail = quad(
        fn, lo, hi, epsabs=_EPSABS, epsrel=_EPSREL, limit=_LIMIT,
        full_output=1, **kwargs,
    )
    # QUADPACK flags round-off chatter even when the achieved estimate is
    # tight; only give up when the estimate is genuinely loose.
    if tail and err > max(5e-13, 1e-11 * abs(val)):
        raise QuadratureError(f"quadrature failed on [{lo}, {hi}]: {tail[0]} (est {err:.2e})")
    return val, err


def _geometry(mesh: TimeMesh, order: FracOrder, n: int):
    t_off = mesh.nodes[n - 1] + (1.0 - order.theta) * mesh.steps[n - 1]
    return mesh.nodes, mesh.steps, t_off


def weight_fn(order, t_off: float):
    """The integrand weight omega_{1-alpha}(t_off - t) as a scalar callable."""
    alpha = as_order(order).alpha
    scale = rgamma(1.0 - alpha)
    return lambda t: (t_off - t) ** (-alpha) * scale


def curvature_fn(order, t_off: float):
    """Derivative of the weight: alpha * (t_off - t)^(-alpha-1) / Gamma(1-alpha)."""
    alpha = as_order(order).alpha
    scale = alpha * rgamma(1.0 - alpha)
    return lambda t: (t_off - t) ** (-alpha - 1.0) * scale


def interval_weight_quad(mesh: TimeMesh, order, n: int, k: int) -> float:
    """Average of the weight over interval k at level n, by quadrature.

    For k = n the integral stops at t_{n-theta} and the endpoint
    singularity (t_off - t)^(-alpha) is handled with a weighted rule.
    """
    order = as_order(order)
    nodes, steps, t_off = _geometry(mesh, order, n)
    assert 1 <= k <= n
    if k < n:
        val, _ = _run_quad(weight_fn(order, t_off), nodes[k - 1], nodes[k])
        return val / steps[k - 1]
    scale = rgamma(1.0 - order.alpha)
    val, _ = _run_quad(
        lambda t: scale, nodes[n - 1], t_off,
        weight="alg", wvar=(0.0, -order.alpha),
    )
    return val / steps[n - 1]


def moment_weight_quad(mesh: TimeMesh, order, n: int, k: int, form: str = "auto") -> float:
    """First-moment weight for interval k < n at level n, by quadrature.

    form="signed" integrates (t - t_{k-1/2}) times the weight, which is the
    defining integral but cancels for intervals far from the evaluation
    point; form="curvature" integrates the positive-definite equivalent
    (t - t_{k-1})(t_k - t) times the weight derivative.  "auto" picks
    "signed" when the interval is within a factor hundred of the
    backdistance and "curvature" otherwise.
    """
    order = as_order(order)
    nodes, steps, t_off = _geometry(mesh, order, n)
    assert 1 <= k <= n - 1
    lo, hi = nodes[k - 1], nodes[k]
    tau = steps[k - 1]
    if form == "auto":
        form = "signed" if tau / (t_off - hi) >= 1e-2 else "curvature"
    if form == "signed":
        mid = lo + 0.5 * tau
        wfn = weight_fn(order, t_off)
        val, _ = _run_quad(lambda t: (t - mid) * wfn(t), lo, hi)
        return 2.0 * val / tau**2
    if form == "curvature":
        cfn = curvature_fn(order, t_off)
        val, _ = _run_quad(lambda t: (t - lo) * (hi - t) * cfn(t), lo, hi)
        return val / tau**2
    raise ValueError(f"unknown form {form!r}")


def derivative_quad(mesh: TimeMesh, order, n: int, history) -> float:
    """Discrete derivative at t_{n-theta} straight from the interpolants.

    Integrates the derivative of the piecewise quadratic (history
    intervals) and final linear interpolant against the weight, which
    bypasses the closed-form weights entirely.
    """
    order = as_order(order)
    v = np.asarray(history, dtype=float)
    assert v.size == n + 1
    nodes, steps, t_off = _geometry(mesh, order, n)
    diffs = np.diff(v)
    total = 0.0
    wfn = weight_fn(order, t_off)
    for k in range(1, n):
        tau_k, tau_k1 = steps[k - 1], steps[k]
        r_k1 = tau_k1 / tau_k
        mid = nodes[k - 1] + 0.5 * tau_k
        slope = diffs[k - 1] / tau_k
        curve = 2.0 * (diffs[k] - r_k1 * diffs[k - 1]) / (tau_k1 * (tau_k + tau_k1))
        val, _ = _run_quad(
            lambda t: (slope + curve * (t - mid)) * wfn(t), nodes[k - 1], nodes[k]
        )
        total += val
    scale = rgamma(1.0 - order.alpha)
    head, _ = _run_quad(
        lambda t: scale, nodes[n - 1], t_off,
        weight="alg", wvar=(0.0, -order.alpha),
    )
    return total + head * diffs[n - 1] / steps[n - 1]


def endpoint_moment_quad(mesh: TimeMesh, order, n: int, k: int, side: str) -> float:
    """Curvature integral weighted toward one interval endpoint.

    side="right" is the integral of ((t - t_{k-1})/tau_k) * curvature over
    interval k (controls the gap between the weight at t_k and the interval
    average); side="left" weights (t_k - t)/tau_k instead.  Defined for
    k <= n-1, where the curvature is integrable.
    """
    order = as_order(order)
    nodes, steps, t_off = _geometry(mesh, order, n)
    assert 1 <= k <= n - 1
    lo, hi = nodes[k - 1], nodes[k]
    tau = steps[k - 1]
    cfn = curvature_fn(order, t_off)
    if side == "right":
        val, _ = _run_quad(lambda t: (t - lo) / tau * cfn(t), lo, hi)
    elif side == "left":
        val, _ = _run_quad(lambda t: (hi - t) / tau * cfn(t), lo, hi)
    else:
        raise ValueError(f"unknown side {side!r}")
    return val


@dataclass(frozen=True)
class DiagnosticSet:
    """Quadrature-evaluated curvature integrals at level n, indexed by
    offset m = n-k (entry 0 nan)."""

    n: int
    I: np.ndarray
    J: np.ndarray


def diagnostics(mesh: TimeMesh, order, n: int) -> DiagnosticSet:
    """Recompute I and J by adaptive quadrature of the weight curvature."""
    order = as_order(order)
    I = np.full(n, np.nan)
    J = np.full(n, np.nan)
    for k in range(1, n):
        m = n - k
        I[m] = endpoint_moment_quad(mesh, order, n, k, side="left")
        J[m] = endpoint_moment_quad(mesh, order, n, k, side="right")
    return DiagnosticSet(n=n, I=I, J=J)


# -- one-level and scalar references for the kernel audit --------------------


def two_formula_moments(alpha: float, tau: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """kernels._moments as it was first written: the closed form on every
    entry, swapped for the midpoint series (on a safe stand-in step away
    from the near entries) wherever tau/lo <= _SERIES_GAP.  Reference for
    the one-formula-per-entry evaluation."""
    gap = tau / lo
    with np.errstate(all="ignore"):       # the discarded closed-form values may overflow
        direct = omega_diff(3.0 - alpha, lo, tau) - 0.5 * tau * (
            omega(2.0 - alpha, lo + tau) + omega(2.0 - alpha, lo)
        )
        direct = 2.0 * direct / (tau * tau)
    near = gap <= _SERIES_GAP
    if near.any():
        safe_tau = np.where(near, tau, 0.1 * lo)
        series = _moment_series(alpha, safe_tau, lo + 0.5 * safe_tau)
        direct = np.where(near, series, direct)
    return direct


def _weight_at_nodes(mesh: TimeMesh, order: FracOrder, n: int) -> np.ndarray:
    """w'(t_j) = omega_{1-alpha}(d_j), d_j = t_{n-theta} - t_j, for j = 0..n-1."""
    d, _, _ = _offset_geometry((mesh.nodes,), order.theta, n, n)    # by node offset p = n - j
    # reverse after evaluating: numpy's power takes another code path, with
    # other last bits, on a negatively strided view
    return omega(1.0 - order.alpha, d[0, 0])[n:0:-1]


def level_weights(mesh: TimeMesh, order, n: int):
    """(a, zeta) of level n by offset m = n - k, zeta[0] nan: row 0 of a
    kernel_tables pass over level n alone, of which build_kernels(nodes,
    order, n, n) slices hat_a and local."""
    t = kernel_tables(mesh.nodes, order, n, n)
    return t.a[0, 0, :n], t.zeta[0, 0, :n]


def endpoint_gaps(mesh: TimeMesh, order, n: int):
    """(I, J) by offset m = n-k for k = 1..n-1, from the interval-average identities.

    I[m] = a[m] - w'(t_{k-1}) and J[m] = w'(t_k) - a[m], with a from
    level_weights; both are positive because the weight is convex.  Offset
    0 is nan (the head interval has no integrable curvature).
    """
    wp = _weight_at_nodes(mesh, as_order(order), n)
    return _gaps(level_weights(mesh, order, n)[0], np.concatenate(([np.nan], wp[::-1])))


def worst_slack(audit: AuditReport | AuditSummary):
    """Minimum slack per mesh and property, as one {prop: (slack, n, k)} per
    mesh in names order, read from the worst_* columns of a summary (a
    report is folded first)."""
    s = audit.fold() if isinstance(audit, AuditReport) else audit
    cols = (s.worst_n, s.worst_k, s.worst_lhs, s.worst_rhs)
    return [{prop: (x - y, n, k) for prop, n, k, x, y in zip(s.names, *row)}
            for row in zip(*(col.tolist() for col in cols))]


# -- stateless recomputations of carried or reduced field quantities ---------


_G_BLOCK = 32        # history levels per squared-distance block (the oracle's only temporary)


def history_quadratic(fields, hat_a: np.ndarray, grid: Grid2D) -> float:
    """Half the integrated gradient-structure form G over the grid, recomputed.

    fields stacks phi^0..phi^n; the partial sums of first differences
    collapse to field differences phi^n - phi^j, so the form is a
    coefficient-weighted sum of squared L2 distances, taken blockwise by
    einsum.  This is the stateless reference for the distances that a run
    carries from step to step through energy.modified_energy.
    """
    fields = np.asarray(fields, dtype=float)
    n = len(fields) - 1
    if n == 0:
        return 0.0
    dist = np.empty(n)                 # dist[j] = grid sum of (phi^n - phi^j)^2
    for lo in range(0, n, _G_BLOCK):
        d = fields[lo : min(lo + _G_BLOCK, n)] - fields[n]
        dist[lo : lo + len(d)] = np.einsum("kij,kij->k", d, d)
    return 0.5 * grid.h**2 * distance_form(stored_form_coeffs(hat_a), dist)


def scalar_dissipation_lhs(prev_E_alpha: float, curr_E_alpha: float, local: float, tau_n: float,
                           step_l2_sq: float) -> float:
    """Left-hand side of step n's dissipation law from scalars, as a run
    once evaluated it at each step: the reference for the column that
    energy.dissipation_lhs evaluates over a finished run."""
    rate = (curr_E_alpha - prev_E_alpha) / tau_n
    damping = 0.5 * local * step_l2_sq / tau_n
    return float(rate + damping)


def inner(u: np.ndarray, v: np.ndarray, grid: Grid2D) -> float:
    """Discrete L2 inner product h^2 * sum(u * v)."""
    return grid.h**2 * grid_sum(u * v)


def norm_l2(u: np.ndarray, grid: Grid2D) -> float:
    return math.sqrt(grid.h**2 * grid_sum(u * u))
