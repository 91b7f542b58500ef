"""Variable-step L2-1sigma weights for the Caputo derivative of order alpha.

The derivative of order alpha in (0,1) is discretised at the offset point
t_{n-theta}, theta = alpha/2, by integrating the weight

    w'(t) = omega_{1-alpha}(t_{n-theta} - t)

against piecewise interpolants of the unknown: quadratic on each history
interval [t_{k-1}, t_k] (k < n) and linear on [t_{n-1}, t_{n-theta}].
This produces, per level n, interval-average weights a and first-moment
weights zeta.  Regrouping by first differences splits the operator into a
local part (alpha/(2-alpha)) * a_0 * (v^n - v^{n-1}) plus a discrete
convolution with history weights hat_a; doubling the head of hat_a gives
the kernels aux_a whose monotonicity (for step ratios above the threshold
computed by min_step_ratio) yields a discrete gradient structure: the
product 2*(v^n - v^{n-1}) * derivative splits into the increment of a
nonnegative quadratic form G plus nonnegative remainders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mesh import TimeMesh
from .special import omega, omega_diff

# Relative interval/backdistance gap below which the moment weights are
# evaluated by a midpoint series instead of the closed form.  The closed
# form cancels two orders of magnitude in tau/d; at gap = 0.25 the direct
# path still holds ~1e-12 relative accuracy, and the series converges in
# ~12 terms with ratio <= (gap/2)^2.
_SERIES_GAP = 0.25
_SERIES_TERMS = 14


@dataclass(frozen=True)
class FracOrder:
    """Fractional order alpha in (0,1) with its offset theta = alpha/2."""

    alpha: float

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"fractional order must lie in (0, 1), got {self.alpha}")

    @property
    def theta(self) -> float:
        return 0.5 * self.alpha


def as_order(order) -> FracOrder:
    return order if isinstance(order, FracOrder) else FracOrder(float(order))


def _ratio_equation(r: float, alpha: float) -> float:
    """Residual whose unique root in (1/4, 1/2) is the admissible-ratio floor.

    Increasing in r and decreasing in alpha, which makes bisection safe.
    """
    s = 1.0 - 0.5 * alpha
    inner = 2.0 * s * r / (1.0 + alpha + s * r) + r / (1.0 + r)
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


def _level_geometry(mesh: TimeMesh, order: FracOrder, n: int):
    """Steps tau_1..tau_n and backdistances d_j = t_{n-theta} - t_j, j = 0..n-1."""
    assert 1 <= n <= mesh.num_steps, f"level {n} out of range"
    steps = mesh.steps[:n]
    t_off = mesh.offset_node(n, order.theta)
    d = t_off - mesh.nodes[:n]
    # the head backdistance has an exact expression; avoid the subtraction
    d[n - 1] = (1.0 - order.theta) * steps[n - 1]
    return steps, d


def interval_weights(mesh: TimeMesh, order, n: int) -> np.ndarray:
    """Average of the power weight over each interval, head entry first by offset.

    Returns a[m] for offsets m = n-k, m = 0..n-1:
      a[0]   = omega_{2-alpha}((1-theta) tau_n) / tau_n
      a[n-k] = (omega_{2-alpha}(d_{k-1}) - omega_{2-alpha}(d_k)) / tau_k,  k < n
    All entries are strictly positive.
    """
    order = as_order(order)
    alpha = order.alpha
    steps, d = _level_geometry(mesh, order, n)
    a = np.empty(n)
    a[0] = omega(2.0 - alpha, d[n - 1]) / steps[n - 1]
    if n > 1:
        tau = steps[: n - 1]          # tau_k, k = 1..n-1
        lo = d[1:n]                   # d_k
        diffs = omega_diff(2.0 - alpha, lo, tau)
        a[1:] = (diffs / tau)[::-1]
    if not np.all(a > 0.0):
        raise FloatingPointError("interval weights must be positive")
    return a


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


def moment_weights(mesh: TimeMesh, order, n: int) -> np.ndarray:
    """First-moment weights by offset; entry 0 is a nan placeholder.

    For k <= n-1 the weight is (2/tau_k^2) times the integral over
    [t_{k-1}, t_k] of (t - t_{k-1/2}) * omega_{1-alpha}(t_{n-theta} - t);
    integration by parts gives the closed form

      (2/tau_k^2) [ omega_{3-alpha}(d_{k-1}) - omega_{3-alpha}(d_k)
                    - (tau_k/2)(omega_{2-alpha}(d_{k-1}) + omega_{2-alpha}(d_k)) ]

    which is swapped for a midpoint series once tau_k / d_k drops below the
    cancellation threshold.  There is no zero-offset moment weight (the
    formula never uses one), hence the nan head.
    """
    order = as_order(order)
    alpha = order.alpha
    zeta = np.full(n, np.nan)
    if n == 1:
        return zeta
    steps, d = _level_geometry(mesh, order, n)
    tau = steps[: n - 1]
    lo = d[1:n]
    gap = tau / lo
    # direct closed form, stable difference for the omega_{3-alpha} part
    direct = omega_diff(3.0 - alpha, lo, tau) - 0.5 * tau * (
        omega(2.0 - alpha, lo + tau) + omega(2.0 - alpha, lo)
    )
    direct = 2.0 * direct / (tau * tau)
    near = gap <= _SERIES_GAP
    if np.any(near):
        safe_tau = np.where(near, tau, 0.1 * lo)
        series = _moment_series(alpha, safe_tau, lo + 0.5 * safe_tau)
        direct = np.where(near, series, direct)
    if not np.all(direct > 0.0):
        raise FloatingPointError("moment weights must be positive")
    zeta[1:] = direct[::-1]
    return zeta


def history_weights(a: np.ndarray, zeta: np.ndarray, mesh: TimeMesh, order, n: int) -> np.ndarray:
    """Regroup (a, zeta) into the first-difference convolution weights hat_a.

    hat_a[m] multiplies v^{n-m} - v^{n-m-1}; together with the local part
    (alpha/(2-alpha)) a[0] (v^n - v^{n-1}) the convolution reproduces the
    interpolation-based derivative exactly.
    """
    order = as_order(order)
    alpha = order.alpha
    hat = np.empty(n)
    head = 2.0 * (1.0 - alpha) / (2.0 - alpha) * a[0]
    if n == 1:
        hat[0] = head
        return hat
    r = mesh.ratios[: n - 1]                    # r[j] = ratio at step j+2
    r_n = r[n - 2]
    hat[0] = head + zeta[1] / (r_n * (1.0 + r_n))
    # middle offsets m = 1..n-2 pair interval k = n-m with its neighbours:
    # r_k = r[n-m-2] and r_{k+1} = r[n-m-1], reversed to run over ascending m
    r_k = r[: n - 2][::-1]
    r_k1 = r[1:][::-1]
    hat[1 : n - 1] = a[1 : n - 1] + zeta[2:] / (r_k * (1.0 + r_k)) - zeta[1 : n - 1] / (1.0 + r_k1)
    hat[n - 1] = a[n - 1] - zeta[n - 1] / (1.0 + r[0])
    return hat


def gradient_kernels(hat_a: np.ndarray) -> np.ndarray:
    """Kernels of the gradient-structure identity: the head doubled, rest shared."""
    aux = hat_a.copy()
    aux[0] *= 2.0
    return aux


@dataclass(frozen=True)
class KernelSet:
    """All level-n weight vectors, indexed by offset m = n - k.

    a, zeta are the raw interpolation weights (zeta[0] is nan, unused);
    hat_a are the history-convolution weights of the split form; aux_a the
    gradient-structure kernels (aux_a[0] = 2 hat_a[0]).
    """

    n: int
    a: np.ndarray
    zeta: np.ndarray
    hat_a: np.ndarray
    aux_a: np.ndarray


def build_kernels(mesh: TimeMesh, order, n: int) -> KernelSet:
    """Assemble a, zeta, hat_a and aux_a for level n of the given mesh."""
    order = as_order(order)
    a = interval_weights(mesh, order, n)
    zeta = moment_weights(mesh, order, n)
    hat = history_weights(a, zeta, mesh, order, n)
    for name, arr in (("a", a), ("zeta", zeta), ("hat_a", hat)):
        arr.flags.writeable = False
    aux = gradient_kernels(hat)
    aux.flags.writeable = False
    return KernelSet(n=n, a=a, zeta=zeta, hat_a=hat, aux_a=aux)


def local_coefficient(order, kernels: KernelSet) -> float:
    """Coefficient of (v^n - v^{n-1}) in the split derivative: alpha/(2-alpha) a_0."""
    order = as_order(order)
    return order.alpha / (2.0 - order.alpha) * kernels.a[0]


def frac_derivative(history, kernels: KernelSet, order) -> float:
    """Evaluate the discrete derivative at t_{n-theta} from values v^0..v^n.

    Split form: (alpha/(2-alpha)) a_0 (v^n - v^{n-1}) plus the convolution
    of hat_a with the first differences, summed over ascending k with
    exact (fsum) accumulation.
    """
    order = as_order(order)
    v = np.asarray(history, dtype=float)
    n = kernels.n
    assert v.size == n + 1, f"need {n + 1} history values, got {v.size}"
    diffs = np.diff(v)
    terms = [kernels.hat_a[n - k] * diffs[k - 1] for k in range(1, n + 1)]
    terms.append(local_coefficient(order, kernels) * diffs[n - 1])
    return math.fsum(terms)


def history_sum(weights: np.ndarray, fields) -> np.ndarray:
    """Sum of weights[k] * (fields[k+1] - fields[k]) over ascending k.

    fields stacks len(weights) + 1 equal-shaped arrays; empty weights give
    zeros.  The sum is taken as one contraction sum_j c_j fields[j] with the
    differenced weights c_0 = -w_0, c_j = w_{j-1} - w_j, c_last = w_last.
    einsum without optimize runs numpy's own loops, never BLAS, so the
    result does not depend on the thread count.
    """
    w = np.asarray(weights, dtype=float)
    c = -np.diff(w, prepend=0.0, append=0.0)
    return np.einsum("k,k...->...", c, np.asarray(fields, dtype=float))


def stored_form_coeffs(aux_a: np.ndarray):
    """Coefficients of the quadratic form G at this level.

    Returns (diff_coeffs, tail): G[w] = sum_{j=1}^{n-1} diff_coeffs[j-1] *
    (sum_{l>j} w_l)^2 + tail * (sum_l w_l)^2, with diff_coeffs[j-1] =
    aux_a[n-j-1] - aux_a[n-j].  All coefficients are nonnegative when the
    mesh respects the ratio floor.
    """
    n = aux_a.size
    if n == 0:
        return np.empty(0), 0.0
    d = aux_a[:-1] - aux_a[1:]        # index i -> offset pair (i, i+1)
    # j-th coefficient uses offsets (n-j-1, n-j): reverse the difference array
    return d[::-1], float(aux_a[n - 1])


def stored_form(aux_a: np.ndarray, diffs) -> float:
    """Quadratic form G[w^n] of the gradient-structure identity (scalar history).

    diffs holds w^1..w^n.  Partial sums sum_{l=j+1}^n w_l are taken as
    suffix sums; the form is zero for an empty history.
    """
    w = np.asarray(diffs, dtype=float)
    n = w.size
    if n == 0:
        return 0.0
    coeffs, tail = stored_form_coeffs(aux_a)
    suffix = np.cumsum(w[::-1])[::-1]          # suffix[j] = sum_{l=j+1}^n w_l
    terms = [coeffs[j - 1] * suffix[j] ** 2 for j in range(1, n)]
    terms.append(tail * suffix[0] ** 2)
    return math.fsum(terms)


def remainder_form(aux_prev: np.ndarray, aux_curr: np.ndarray, diffs) -> float:
    """Nonnegative remainder R[w^n] of the gradient-structure identity.

    Couples the level-(n-1) and level-n kernels; the inner sums stop at
    w^{n-1}, so the j = n-1 term is empty and the form vanishes for n <= 1.
    """
    w = np.asarray(diffs, dtype=float)
    n = w.size
    if n <= 1:
        return 0.0
    head = w[: n - 1]
    suffix = np.cumsum(head[::-1])[::-1]       # suffix[j] = sum_{l=j+1}^{n-1} w_l
    terms = []
    for j in range(1, n - 1):
        coeff = (
            aux_prev[n - j - 2]
            - aux_prev[n - j - 1]
            - aux_curr[n - j - 1]
            + aux_curr[n - j]
        )
        terms.append(coeff * suffix[j] ** 2)
    terms.append((aux_prev[n - 2] - aux_curr[n - 1]) * suffix[0] ** 2)
    return math.fsum(terms)


def dgs_forms(kernels_prev, kernels_curr: KernelSet, diffs):
    """(G_n, G_{n-1}, R_n) for the identity

    2 w_n * derivative = G_n - G_{n-1} + R_n + (2 alpha/(2-alpha)) a_0 w_n^2.
    kernels_prev may be None when n = 1.
    """
    w = np.asarray(diffs, dtype=float)
    n = w.size
    assert kernels_curr.n == n
    g_curr = stored_form(kernels_curr.aux_a, w)
    if n == 1:
        return g_curr, 0.0, 0.0
    assert kernels_prev is not None and kernels_prev.n == n - 1
    g_prev = stored_form(kernels_prev.aux_a, w[: n - 1])
    r_curr = remainder_form(kernels_prev.aux_a, kernels_curr.aux_a, w)
    return g_curr, g_prev, r_curr
