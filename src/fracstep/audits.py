"""Inequality certificates for the split derivative kernels.

The energy analysis of the scheme rests on sign and monotonicity
properties of the gradient-structure kernels aux_a, of the moment weights
zeta, and of two endpoint-weighted curvature integrals per interval.  The
audit recomputes every inequality numerically on a given mesh and reports
the raw slack (positive means satisfied), so hypothesis violations are
observable instead of silent.  Every level's kernels come from one
kernel_tables pass, each property is evaluated as one array expression
over all levels, and the report is built once from read-only columns
(n, property, k, lhs, rhs) rather than one object per check.

Checked per level n (prev = level n-1 kernels, A = aux_a, Z = zeta).
A report groups its rows by property in this order (the properties that
start at level 2, then 3, then 4), and orders each one's rows by n, then k.
  kernel_decreasing        A[n-k-1] > A[n-k]
  kernel_positive          A[n-k] > 0
  kernel_level_decay       A_prev[n-1-k] > A[n-k]
  left_curvature_gap       I[n-k] > (1 + beta_{k+1}) Z[n-k]
  right_curvature_gap      J[n-k] > 3 Z[n-k]
  head_moment_bound        r_n Z[1] < alpha/(3(2-alpha)) * weight(t_{n-1})
  kernel_diff_decay        A_prev gaps dominate A gaps, offset by one
  moment_level_decay       Z[n-k] < Z_prev[n-1-k]
  moment_ratio_gap         Z[n-k-1] > r_{k+1} Z[n-k]
  left_curvature_gap_decay the same gap grows at level n-1
  right_curvature_gap_decay the same gap grows at level n-1
  moment_ratio_gap_decay   the same gap grows when moving to level n-1

I and J are the curvature integrals weighted toward the left/right
endpoint of each interval.  Inside the audit they are obtained from the
exact identities I = a - w'(t_{k-1}) and J = w'(t_k) - a; the diagnostics
routine recomputes them by adaptive quadrature so the identities
themselves can be cross-checked.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .kernels import FracOrder, KernelSet, _offset_geometry, as_order, kernel_tables
from .kernels import build_kernels  # noqa: F401  (unused here; perfbench/tracer.py hooks this name)
from .mesh import TimeMesh
from .special import omega


@dataclass(frozen=True)
class AuditEntry:
    n: int
    prop: str
    k: int
    lhs: float
    rhs: float

    @property
    def slack(self) -> float:
        return self.lhs - self.rhs


_SLACK_FLOOR = 1e-13    # relative round-off floor below which a negative slack is a violation


def _column(values, dtype) -> np.ndarray:
    """values as a read-only array of dtype, shared when it is one already
    and owns its data (a read-only view could change through its base)."""
    if isinstance(values, np.ndarray) and values.dtype == dtype and values.flags.owndata \
            and not values.flags.writeable:
        return values
    col = np.array(values, dtype=dtype)
    col.flags.writeable = False
    return col


class AuditReport:
    """All audit rows for one mesh, built once as read-only columns.

    names lists the properties that have rows, in order of their first
    row; code indexes names, and n, code, k, lhs and rhs are arrays of one
    length.  A column that is already a read-only array of its dtype owning
    its data is shared, not copied (every report of one n_max shares the
    n, code and k of _layout); any other column is copied and the copy
    made read-only.  len() is the row count and iteration yields AuditEntry
    rows.  summary() condenses the rows per property, and
    experiments.write_kernel_audit_csv writes that summary and the
    violations() rows.
    """

    def __init__(self, names, n, code, k, lhs, rhs):
        cols = [_column(c, t) for c, t in zip((n, code, k, lhs, rhs), (np.int64,) * 3 + (np.float64,) * 2)]
        if len({c.shape for c in cols}) != 1 or cols[0].ndim != 1:
            raise ValueError(f"columns must be 1-D arrays of one length, got shapes {[c.shape for c in cols]}")
        self.names = tuple(names)
        self.n, self.code, self.k, self.lhs, self.rhs = cols
        self.size = self.n.size

    def __len__(self) -> int:
        return self.size

    def __iter__(self):
        return (AuditEntry(*row[:5]) for row in self.records())

    @property
    def entries(self) -> "AuditReport":
        """The rows, as the report itself: a sized iterable of AuditEntry."""
        return self

    def records(self):
        """Rows as (n, prop, k, lhs, rhs, slack) tuples of Python scalars."""
        prop = np.array(self.names, dtype=object)[self.code]
        return zip(self.n.tolist(), prop.tolist(), self.k.tolist(),
                   self.lhs.tolist(), self.rhs.tolist(), (self.lhs - self.rhs).tolist())

    def _entry(self, i: int) -> AuditEntry:
        return AuditEntry(int(self.n[i]), self.names[self.code[i]], int(self.k[i]),
                          float(self.lhs[i]), float(self.rhs[i]))

    @functools.cached_property
    def _violating(self) -> np.ndarray:
        """Read-only row mask: slack negative beyond round-off (_SLACK_FLOOR at
        the row's scale), or lhs, rhs or slack not finite."""
        slack = self.lhs - self.rhs       # not finite whenever lhs or rhs is not
        tol = _SLACK_FLOOR * np.maximum(1.0, np.maximum(np.abs(self.lhs), np.abs(self.rhs)))
        mask = (slack < -tol) | ~np.isfinite(slack)
        mask.flags.writeable = False
        return mask

    def violations(self):
        """Entries whose slack is negative beyond round-off (_SLACK_FLOOR at
        their scale), and every entry whose lhs, rhs or slack is not finite."""
        return [self._entry(i) for i in np.flatnonzero(self._violating)]

    def summary(self):
        """Per property in names order, (checks, violations, worst) as int
        arrays: the row count, the violations() count and the row of least
        slack (np.argmin takes the first nan, so a nan slack ranks worst)."""
        size, slack = len(self.names), self.lhs - self.rhs
        rows = (np.flatnonzero(self.code == c) for c in range(size))
        worst = np.array([r[np.argmin(slack[r])] for r in rows], dtype=np.int64)
        checks = np.bincount(self.code, minlength=size)
        return checks, np.bincount(self.code[self._violating], minlength=size), worst

    def worst_slack(self):
        """Minimum slack per property, as {prop: (slack, n, k)} in names order."""
        worst = (self._entry(i) for i in self.summary()[2].tolist())
        return {e.prop: (e.slack, e.n, e.k) for e in worst}


def beta_factors(mesh: TimeMesh, order, n: int) -> np.ndarray:
    """Comparison factors beta_k = 2(1-alpha/2) r_k / (1+alpha+(1-alpha/2) r_k).

    Returned as beta[k] for k = 2..n (entries 0..1 are nan placeholders).
    """
    alpha = as_order(order).alpha
    s = 1.0 - 0.5 * alpha
    beta = np.full(n + 1, np.nan)
    r = mesh.ratios[: n - 1]
    beta[2:] = 2.0 * s * r / (1.0 + alpha + s * r)
    return beta


def _weight_at_nodes(mesh: TimeMesh, order: FracOrder, n: int) -> np.ndarray:
    """w'(t_j) = omega_{1-alpha}(d_j), d_j = t_{n-theta} - t_j, for j = 0..n-1."""
    d, _, _ = _offset_geometry(mesh, order.theta, n, n)    # by node offset p = n - j
    # reverse after evaluating: numpy's power takes another code path, with
    # other last bits, on a negatively strided view
    return omega(1.0 - order.alpha, d[0])[n:0:-1]


def endpoint_gaps(kernels: KernelSet, mesh: TimeMesh, order, n: int):
    """(I, J) by offset m = n-k for k = 1..n-1, from the interval-average identities.

    I[m] = a[m] - w'(t_{k-1}) and J[m] = w'(t_k) - a[m]; both are positive
    because the weight is convex.  Offset 0 is nan (the head interval has
    no integrable curvature).
    """
    wp = _weight_at_nodes(mesh, as_order(order), n)
    return _gaps(kernels.a, np.concatenate(([np.nan], wp[::-1])))


def _gaps(a: np.ndarray, wp: np.ndarray):
    """endpoint_gaps from the weights a by offset m and w' by node offset
    p = n - j (nan at p = 0), for one level or for tables of levels."""
    I = a - wp[..., 1:]        # w'(t_{k-1}) sits at p = m + 1
    J = wp[..., :-1] - a       # w'(t_k) at p = m
    I[..., 0] = J[..., 0] = np.nan
    return I, J


@dataclass(frozen=True)
class DiagnosticSet:
    """Quadrature-evaluated curvature integrals and comparison factors at level n.

    I and J are indexed by offset m = n-k (entry 0 nan), beta by step
    index k (entries 0..1 nan).
    """

    n: int
    I: np.ndarray
    J: np.ndarray
    beta: np.ndarray


def diagnostics(mesh: TimeMesh, order, n: int) -> DiagnosticSet:
    """Recompute I and J by adaptive quadrature of the weight curvature."""
    from . import quadrature    # loads scipy.integrate, which no CLI path needs

    order = as_order(order)
    I = np.full(n, np.nan)
    J = np.full(n, np.nan)
    for k in range(1, n):
        m = n - k
        I[m] = quadrature.endpoint_moment_quad(mesh, order, n, k, side="left")
        J[m] = quadrature.endpoint_moment_quad(mesh, order, n, k, side="right")
    return DiagnosticSet(n=n, I=I, J=J, beta=beta_factors(mesh, order, n))


@functools.lru_cache(maxsize=16)
def _pairs(n_max: int):
    """Read-only (n, k, m = n - k) arrays, ordered by n and then by k, over
    1 <= k <= n-1-shrink for the shrinks 0, 1 and 2, then over the head
    pairs (n, n-1, 1) for n = 2..n_max."""
    n, k = np.tril_indices(n_max + 1, -1)       # 0 <= k < n, ordered by n and then by k
    masks = [(k > 0) & (k < n - s) for s in (0, 1, 2)] + [(k > 0) & (k == n - 1)]
    pairs = tuple((n[c], k[c], (n - k)[c]) for c in masks)
    for arr in (x for p in pairs for x in p):
        arr.flags.writeable = False
    return pairs


@functools.lru_cache(maxsize=16)
def _layout(n_max: int, groups: tuple):
    """Read-only n, code and k columns of properties over the _pairs(n_max)
    indices `groups`, joined in order: every report of one n_max shares them."""
    pn, pk, _ = zip(*(_pairs(n_max)[g] for g in groups))
    cols = (np.concatenate(pn), np.repeat(np.arange(len(groups)), [x.size for x in pn]), np.concatenate(pk))
    for col in cols:
        col.flags.writeable = False
    return cols


def audit_kernel_properties(mesh: TimeMesh, order, n_max: int) -> AuditReport:
    """Run every kernel inequality for levels 2..n_max and report slacks.

    Every level's weights come from one kernel_tables pass, and each
    property is one array expression over its (n, k) pairs, with level n-1
    read from the row above.  The rows are grouped by property in the module
    docstring's order, less the properties without rows (n_max < 4).

    The caller is responsible for the mesh hypothesis (ratios >= r*(alpha)).
    """
    order = as_order(order)
    alpha = order.alpha
    n_max = min(n_max, mesh.num_steps)
    if n_max < 2:
        return AuditReport((), [], [], [], [], [])
    t = kernel_tables(mesh, order, n_max)
    A, Z = t.aux_a, t.zeta
    wp = omega(1.0 - alpha, t.d)                 # wp[n, p] = w'(t_{n-p}) at level n
    I, J = _gaps(t.a, wp)
    beta = beta_factors(mesh, order, n_max)
    r = np.concatenate(([np.nan, np.nan], mesh.ratios[: n_max - 1]))    # r[j] = ratio at step j

    (n, k, m), (n1, k1, m1), (n2, k2, m2), (nh, _, _) = pairs = _pairs(n_max)
    props = (       # name, the index of its pairs in _pairs, lhs, rhs
        ("kernel_decreasing", 0, A[n, m - 1], A[n, m]),
        ("kernel_positive", 0, A[n, m], np.zeros(k.size)),
        ("kernel_level_decay", 0, A[n - 1, m - 1], A[n, m]),
        ("left_curvature_gap", 0, I[n, m], (1.0 + beta[k + 1]) * Z[n, m]),
        ("right_curvature_gap", 0, J[n, m], 3.0 * Z[n, m]),
        # r_n Z[1] < alpha/(3(2-alpha)) w'(t_{n-1})
        ("head_moment_bound", 3, alpha / (3.0 * (2.0 - alpha)) * wp[nh, 1], r[nh] * Z[nh, 1]),
        ("kernel_diff_decay", 1, A[n1 - 1, m1 - 2] - A[n1 - 1, m1 - 1], A[n1, m1 - 1] - A[n1, m1]),
        # the level decays are flipped so that lhs > rhs holds like the other rows
        ("moment_level_decay", 1, Z[n1 - 1, m1 - 1], Z[n1, m1]),
        ("moment_ratio_gap", 1, Z[n1, m1 - 1], r[k1 + 1] * Z[n1, m1]),
        ("left_curvature_gap_decay", 1,
         I[n1 - 1, m1 - 1] - (1.0 + beta[k1 + 1]) * Z[n1 - 1, m1 - 1],
         I[n1, m1] - (1.0 + beta[k1 + 1]) * Z[n1, m1]),
        ("right_curvature_gap_decay", 1,
         J[n1 - 1, m1 - 1] - 3.0 * Z[n1 - 1, m1 - 1], J[n1, m1] - 3.0 * Z[n1, m1]),
        ("moment_ratio_gap_decay", 2,
         Z[n2 - 1, m2 - 2] - r[k2 + 1] * Z[n2 - 1, m2 - 1], Z[n2, m2 - 1] - r[k2 + 1] * Z[n2, m2]),
    )
    names, groups, lhs, rhs = zip(*(p for p in props if pairs[p[1]][0].size))
    lhs, rhs = np.concatenate(lhs), np.concatenate(rhs)
    lhs.flags.writeable = rhs.flags.writeable = False      # so the report shares them
    return AuditReport(names, *_layout(n_max, groups), lhs, rhs)
