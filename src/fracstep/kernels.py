"""Variable-step L2-1sigma weights for the Caputo derivative of order alpha.

The derivative of order alpha in (0,1) is discretised at the offset point
t_{n-theta}, theta = alpha/2, by integrating the weight

    w'(t) = omega_{1-alpha}(t_{n-theta} - t)

against piecewise interpolants of the unknown: quadratic on each history
interval [t_{k-1}, t_k] (k < n) and linear on [t_{n-1}, t_{n-theta}].
This produces, per level n, interval-average weights a and first-moment
weights zeta.  Regrouping by first differences splits the operator into a
local part (alpha/(2-alpha)) * a_0 * (v^n - v^{n-1}) plus a discrete
convolution with history weights hat_a.  Doubling the head of hat_a
(gradient_kernels, exact) gives the kernels A, never stored, whose
monotonicity (for step ratios above the threshold computed by
min_step_ratio) yields a discrete gradient structure: the product
2*(v^n - v^{n-1}) * derivative splits into the increment of a nonnegative
quadratic form G plus nonnegative remainders.

kernel_tables is the one weight pass, over the levels lo..hi of rows of
nodes.  build_kernel_block slices its tables into KernelSets,
build_kernels is its one-level case, and the kernel audit reads them, so
all share each weight formula.  Every weight is evaluated elementwise, and
each moment weight by the one formula (closed form or midpoint series) it
keeps, so a level's row has the same bits whichever levels are built with
it.  solver.run takes from blocks the levels of a mesh it does not append
to and those its step cap decides; it builds any other level its
controller appends alone.  The gradient-structure check (dgs_forms) runs
the run's own code: solver.frac_derivative, the split form the stepper
solves, and distance_form, the one G form, also energy.modified_energy's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .special import omega, omega_diff

# Relative interval/backdistance gap below which the moment weights are
# evaluated by a midpoint series instead of the closed form.  The closed
# form cancels two orders of magnitude in tau/d; at gap = 0.25 the direct
# path still holds ~1e-12 relative accuracy, and the series converges in
# ~12 terms with ratio <= (gap/2)^2.
_SERIES_GAP = 0.25
_SERIES_TERMS = 14


def admissible_order(alpha) -> bool:
    """alpha in (0, 1) with a positive offset alpha/2 (5e-324 halves to 0); false for nan."""
    return 0.0 < 0.5 * alpha < 0.5


@dataclass(frozen=True)
class FracOrder:
    """Fractional order alpha in (0,1) with its offset theta = alpha/2."""

    alpha: float

    def __post_init__(self):
        if not admissible_order(self.alpha):
            raise ValueError(f"fractional order must lie in (0, 1) with alpha/2 > 0, got {self.alpha}")

    @property
    def theta(self) -> float:
        return 0.5 * self.alpha


def as_order(order) -> FracOrder:
    return order if isinstance(order, FracOrder) else FracOrder(float(order))


def comparison_factor(alpha: float, r):
    """beta = 2 s r / (1 + alpha + s r) with s = 1 - alpha/2, for a step
    ratio r or elementwise over an array of them; a nan ratio gives a nan
    beta.  It weighs the moment weight in the left curvature gap of the
    kernel audit and enters the admissible-ratio equation."""
    s = 1.0 - 0.5 * alpha
    return 2.0 * s * r / (1.0 + alpha + s * r)


def _ratio_equation(r: float, alpha: float) -> float:
    """Residual whose unique root in (1/4, 1/2) is the admissible-ratio floor.

    Increasing in r and decreasing in alpha, which makes bisection safe.
    """
    inner = comparison_factor(alpha, r) + r / (1.0 + r)
    return 2.0 * math.sqrt(inner) + 3.0 - 1.0 / (r * r * (1.0 + r))


def min_step_ratio(alpha: float) -> float:
    """Smallest step ratio for which the gradient-structure kernels stay monotone.

    Root of the threshold equation, bracketed in [1/4, 1/2]; approximately
    0.3865 as alpha -> 0 and 0.4037 as alpha -> 1, increasing in alpha.
    Accepts the closed interval [0, 1] so the limit orders can be tabulated.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"order must lie in [0, 1], got {alpha}")
    lo, hi = 0.25, 0.5
    flo = _ratio_equation(lo, alpha)
    fhi = _ratio_equation(hi, alpha)
    assert flo < 0.0 < fhi, "threshold equation must bracket in [1/4, 1/2]"
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if _ratio_equation(mid, alpha) < 0.0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    # one polish step with a central-difference slope
    step = 1e-7
    slope = (_ratio_equation(root + step, alpha) - _ratio_equation(root - step, alpha)) / (2.0 * step)
    root -= _ratio_equation(root, alpha) / slope
    return float(min(max(root, lo - 1e-12), hi + 1e-12))


def _offset_geometry(nodes, theta: float, lo: int, hi: int):
    """Backdistances, steps and ratios of the levels n = lo..hi of each mesh, by offset.

    nodes holds one row per mesh, t_0..t_hi at least.  Returns tables d,
    tau, r with one block per mesh, one row per level and the columns
    m = 0..hi of d (tau and r stop at m = hi-1 and hi-2, where every later
    entry would be nan), read backwards from each level at k = n - m:

      d[j, i, m]   = t_{n-theta} - t_k   (1 <= m <= n; nan at m = 0 and past n)
      tau[j, i, m] = tau_k               (k >= 1, else nan)
      r[j, i, m]   = r_k                 (k >= 2, else nan)

    Only the nodes are copied per level; tau and r are their differences
    and quotients, the same operations on the same values as mesh.steps
    and mesh.ratios, so they are those bit for bit.  The head backdistance
    d[j, i, 1] = (1-theta) tau_n has an exact expression and is not taken
    as a difference.  The rows are copied into contiguous tables: on a
    reversed view numpy's power, log1p and expm1 take another code path
    with other last bits.
    """
    nodes = np.asarray(nodes)[:, : hi + 1]
    t = np.full((len(nodes), hi - lo + 1, hi + 1), np.nan)
    for i, n in enumerate(range(lo, hi + 1)):
        t[:, i, : n + 1] = nodes[:, n::-1]
    tau = t[..., :-1] - t[..., 1:]
    r = tau[..., :-1] / tau[..., 1:]
    head = (1.0 - theta) * tau[..., 0]
    d = (t[..., 1] + head)[..., None] - t
    d[..., 0] = np.nan
    d[..., 1] = head
    return d, tau, r


def _moment_series(alpha: float, tau, c):
    """Moment weight via the odd-derivative midpoint series, for tau << c.

    zeta = -(2/tau^2) * sum_{j>=1} (4j/(2j+1)!) (tau/2)^{2j+1} f^{(2j+1)}(c)
    with f = omega_{3-alpha}, so f^{(2j+1)} = omega_{2-alpha-2j}.
    """
    half = 0.5 * tau
    # term = (tau/2)^(2j+1) f^(2j+1)(c), stepped by q = (tau/2c)^2: powers of 1/c would overflow
    term = half**3 * omega(-alpha, c)  # f''' < 0: reciprocal gamma < 0
    q = (half / c) ** 2
    fact = 6.0                        # (2j+1)! at j = 1
    total = np.zeros_like(c)
    for j in range(1, _SERIES_TERMS + 1):
        total += (4.0 * j / fact) * term
        beta = 2.0 - alpha - 2.0 * j
        term = term * ((beta - 1.0) * (beta - 2.0) * q)
        fact = fact * (2.0 * j + 2.0) * (2.0 * j + 3.0)
    return -2.0 * total / (tau * tau)


def _moments(alpha: float, tau: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """Moment weights of the intervals of lengths tau at backdistances lo = d_k.

    For an interval [t_{k-1}, t_k] below the offset point the weight is
    (2/tau_k^2) times the integral of (t - t_{k-1/2}) * omega_{1-alpha}(t_{n-theta} - t);
    integration by parts gives the closed form

      (2/tau_k^2) [ omega_{3-alpha}(d_{k-1}) - omega_{3-alpha}(d_k)
                    - (tau_k/2)(omega_{2-alpha}(d_{k-1}) + omega_{2-alpha}(d_k)) ]

    whose cancellation grows as tau_k / d_k shrinks, so the midpoint series
    (_moment_series) takes over where tau_k / d_k <= _SERIES_GAP.  Each
    entry is evaluated by the one formula it keeps: the far and the near
    entries are gathered into contiguous vectors and each set is computed
    once, elementwise, so an entry's bits do not depend on the others.  An
    entry whose gap is nan (a nan tau or lo) is nan, as either formula
    would make it.  tau and lo share one shape.
    """
    gap = tau / lo
    zeta = np.full(gap.shape, np.nan)
    far, near = gap > _SERIES_GAP, gap <= _SERIES_GAP       # neither where the gap is nan
    t, d = tau[far], lo[far]
    # stable difference for the omega_{3-alpha} part
    direct = omega_diff(3.0 - alpha, d, t) - 0.5 * t * (omega(2.0 - alpha, d + t) + omega(2.0 - alpha, d))
    zeta[far] = 2.0 * direct / (t * t)
    t, d = tau[near], lo[near]
    zeta[near] = _moment_series(alpha, t, d + 0.5 * t)
    return zeta


def _regroup(a: np.ndarray, zeta: np.ndarray, r: np.ndarray, alpha: float) -> np.ndarray:
    """Regroup rows of (a, zeta) into the first-difference convolution
    weights hat_a, all by offset m = n - k on the last axis; r is the ratio
    table of _offset_geometry.

    hat_a[m] multiplies v^{n-m} - v^{n-m-1}; together with the local part
    (alpha/(2-alpha)) a[0] (v^n - v^{n-1}) the convolution reproduces the
    interpolation-based derivative exactly.  Offset m pairs interval
    k = n-m with its neighbours:

      hat_a[m] = a[m] + zeta[m+1] / (r_k (1 + r_k)) - zeta[m] / (1 + r_{k+1}),

    where the head takes 2(1-alpha)/(2-alpha) a[0] for a[0] and has no zeta[0]
    term, and the last offset m = n-1 has no zeta[n] term.
    """
    r_k = r[..., : a.shape[-1] - 1]            # r_k at m = 0..w-2, which is r_{k+1} at m + 1
    one_r, z = 1.0 + r_k, zeta[..., 1:]
    hat = a.copy()
    hat[..., 0] *= 2.0 * (1.0 - alpha) / (2.0 - alpha)
    # an absent term adds 0.0, which leaves the sum bit for bit as it is
    hat[..., :-1] += np.where(np.isnan(r_k), 0.0, z / (r_k * one_r))
    hat[..., 1:] -= z / one_r
    return hat


def _weight_rows(nodes, order: FracOrder, lo: int, hi: int):
    """(d, a, zeta, hat_a) of the levels n = lo..hi of each mesh, one block
    per mesh (a row of nodes, t_0..t_hi at least) and one row per level.

    d holds the backdistances by node offset p (see _offset_geometry).  The
    weights are indexed by offset m = n - k, the row of level n holding it
    in its first n entries and nan past them:

      a[0]   = omega_{2-alpha}((1-theta) tau_n) / tau_n
      a[n-k] = (omega_{2-alpha}(d_{k-1}) - omega_{2-alpha}(d_k)) / tau_k,  k < n

    zeta[n-k] is the moment weight of interval k < n (_moments); there is no
    zero-offset moment weight, hence a nan zeta[0].  hat_a is _regroup's.
    All a and zeta entries are strictly positive.  Every entry is evaluated
    elementwise, so a level's row does not depend on which other levels or
    meshes are built with it.
    """
    alpha = order.alpha
    d, tau, r = _offset_geometry(nodes, order.theta, lo, hi)
    d_k, tau_k = d[..., 1:hi], tau[..., 1:hi]    # the intervals k = n - m < n
    a = np.empty((*d.shape[:2], hi))
    a[..., 0] = omega(2.0 - alpha, d[..., 1]) / tau[..., 0]
    a[..., 1:] = omega_diff(2.0 - alpha, d_k, tau_k) / tau_k
    # every entry past a level is nan, so all in-level entries are positive
    # exactly when the positive ones number the level sizes' sum
    levels = hi - lo + 1
    count = len(d) * ((lo + hi) * levels // 2)
    if np.count_nonzero(a > 0.0) != count:
        raise FloatingPointError("interval weights must be positive")
    zeta = np.empty_like(a)
    zeta[..., 0] = np.nan
    zeta[..., 1:] = _moments(alpha, tau_k, d_k)
    if np.count_nonzero(zeta > 0.0) != count - len(d) * levels:
        raise FloatingPointError("moment weights must be positive")
    return d, a, zeta, _regroup(a, zeta, r, alpha)


def gradient_kernels(hat_a: np.ndarray) -> np.ndarray:
    """The kernels A of the gradient-structure identity: hat_a with its
    head doubled (exact in floating point), the rest shared.

    Takes one level's hat_a or a table of them, offset on the last axis,
    and returns a new array.
    """
    aux = hat_a.copy()
    aux[..., 0] *= 2.0
    return aux


@dataclass(frozen=True)
class KernelSet:
    """What a run reads of level n: local = alpha/(2-alpha) a[0], the
    coefficient of (v^n - v^{n-1}) in the split derivative, and hat_a, the
    history-convolution weights by offset m = n - k, from which
    gradient_kernels derives the gradient-structure kernels.  The split
    derivative's coefficient of v^n is D = local + hat_a[0].
    """

    n: int
    local: float
    hat_a: np.ndarray


@dataclass(frozen=True)
class KernelTables:
    """kernel_tables' read-only weights, indexed by mesh j, row i (level
    n = lo + i) and offset: a, zeta and hat_a, shape (meshes, hi-lo+1, hi),
    hold level n's weights in their first n entries and nan past them; d,
    one column wider, the backdistances d[j, i, p] = t_{n-theta}
    - t_{n-p} by node offset p, 1 <= p <= n, and nan elsewhere."""

    d: np.ndarray
    a: np.ndarray
    zeta: np.ndarray
    hat_a: np.ndarray


def kernel_tables(nodes, order, lo: int, hi: int) -> KernelTables:
    """The one weight pass: the levels n = lo..hi of one node vector or of
    each row of a 2-D nodes (a vector is one row), t_0..t_hi at least.

    Row [j, i] of each table is, bit for bit, a pass over level lo + i
    alone of any mesh that begins with row j.  Raises ValueError
    unless 1 <= lo <= hi < the number of nodes.
    """
    nodes = np.atleast_2d(np.asarray(nodes, dtype=float))
    if not 1 <= lo <= hi < nodes.shape[-1]:
        raise ValueError(f"levels {lo}..{hi} out of range for {nodes.shape[-1]} nodes")
    tables = _weight_rows(nodes, as_order(order), lo, hi)
    for table in tables:
        table.flags.writeable = False
    return KernelTables(*tables)


def build_kernel_block(nodes, order, lo: int, hi: int) -> tuple:
    """build_kernels(nodes, order, n) for n = lo..hi: one kernel_tables pass
    over the nodes t_0..t_hi of any mesh that begins with them, by level.

    A level's weights depend only on its own nodes, so a caller may pass
    nodes that no mesh reaches yet (solver.run's predicted nodes).  Each
    KernelSet holds a read-only view of the pass's hat_a table, which stays
    alive while any of them does, and its local coefficient, the product
    alpha / (2 - alpha) * a[0] of its level.
    """
    t = kernel_tables(nodes, order, lo, hi)
    alpha = as_order(order).alpha
    local = alpha / (2.0 - alpha) * t.a[0, :, 0]
    return tuple(KernelSet(n, local[i], t.hat_a[0, i, :n]) for i, n in enumerate(range(lo, hi + 1)))


def build_kernels(nodes, order, n: int) -> KernelSet:
    """The KernelSet of level n of the node vector nodes, t_0..t_n at least (hat_a read-only)."""
    return build_kernel_block(nodes, order, n, n)[0]


def history_sum(weights: np.ndarray, fields) -> np.ndarray:
    """Sum of weights[k] * (fields[k+1] - fields[k]) over ascending k.

    fields stacks len(weights) + 1 equal-shaped arrays; empty weights give
    zeros.  The sum is taken as one contraction sum_j c_j fields[j] with the
    differenced weights c_0 = -w_0, c_j = w_{j-1} - w_j, c_last = w_last.
    einsum without optimize runs numpy's own loops, never BLAS, so the
    result does not depend on the thread count.
    """
    return np.einsum("k,k...->...", _differenced(weights), np.asarray(fields, dtype=float))


def _differenced(weights) -> np.ndarray:
    """history_sum's c_j = -(w_j - w_{j-1}) with w_{-1} = w_len = 0, the
    bits of -np.diff(w, prepend=0.0, append=0.0) signed zeros included
    (c_0 = -w_0, as w_0 - 0.0 is w_0), from three dispatches instead of
    np.diff's concatenation."""
    w = np.asarray(weights, dtype=float)
    c = np.append(w, 0.0)
    c[1:] -= w
    return np.negative(c, out=c)


def stored_form_coeffs(hat_a: np.ndarray) -> np.ndarray:
    """Coefficients c of the quadratic form G at this level n = hat_a.size.

    With A = gradient_kernels(hat_a), G[w] = sum_{j=0}^{n-1} c[j]
    (sum_{l>j} w_l)^2 with c[j] = A[n-j-1] - A[n-j] and A[n] = 0, so
    c[0] = A[n-1].  All coefficients are nonnegative when the mesh
    respects the ratio floor.
    """
    A = gradient_kernels(hat_a)
    return (A - np.append(A[1:], 0.0))[::-1]


def distance_form(c, dist) -> float:
    """sum_j c[j] dist[j], summed exactly (fsum).

    With c from stored_form_coeffs and dist[j] the squared distance
    (sum_{l>j} w_l)^2 of a history, this is the form G of the
    gradient-structure identity; modified_energy takes it on the grid sums
    of (phi^n - phi^j)^2 and dgs_forms on scalar histories.
    """
    return math.fsum(c * dist)


def dgs_forms(kernels_prev, kernels_curr: KernelSet, diffs):
    """(G_n, G_{n-1}, R_n) for the identity

    2 w_n * derivative = G_n - G_{n-1} + R_n + 2 kernels_curr.local * w_n^2,

    each a distance_form on the squared suffix sums of w^1..w^n or w^1..w^{n-1};
    R takes the level-(n-1) coefficients minus the level-n ones.
    kernels_prev may be None when n = 1.  Raises ValueError unless
    kernels_curr is level n's and kernels_prev level n - 1's.
    """
    w = np.asarray(diffs, dtype=float)
    n = w.size
    if kernels_curr.n != n:
        raise ValueError(f"{n} differences need level-{n} kernels, got level {kernels_curr.n}")
    c = stored_form_coeffs(kernels_curr.hat_a)
    g_curr = distance_form(c, np.cumsum(w[::-1])[::-1] ** 2)
    if n == 1:
        return g_curr, 0.0, 0.0
    if kernels_prev is None or kernels_prev.n != n - 1:
        got = None if kernels_prev is None else f"level {kernels_prev.n}"
        raise ValueError(f"{n} differences need level-{n - 1} previous kernels, got {got}")
    c_prev = stored_form_coeffs(kernels_prev.hat_a)
    dist = np.cumsum(w[: n - 1][::-1])[::-1] ** 2
    return g_curr, distance_form(c_prev, dist), distance_form(c_prev - c[: n - 1], dist)
