"""Inequality certificates for the split derivative kernels.

The energy analysis of the scheme rests on sign and monotonicity
properties of the gradient-structure kernels aux_a, of the moment weights
zeta, and of two endpoint-weighted curvature integrals per interval.  The
audit recomputes every inequality numerically on a given mesh and reports
the raw slack (positive means satisfied), so hypothesis violations are
observable instead of silent.  Each property is evaluated at each level as
one array expression over k, and the report holds its rows as columns
(n, property, k, lhs, rhs) rather than one object per check.

Checked per level n (prev = level n-1 kernels, A = aux_a, Z = zeta):
  kernel_decreasing        A[m-1] > A[m] > 0
  kernel_level_decay       A_prev[n-1-k] > A[n-k]
  kernel_diff_decay        A_prev gaps dominate A gaps, offset by one
  moment_level_decay       Z[n-k] < Z_prev[n-1-k]
  moment_ratio_gap         Z[n-k-1] > r_{k+1} Z[n-k]
  moment_ratio_gap_decay   the same gap grows when moving to level n-1
  left_curvature_gap       I[n-k] > (1 + beta_{k+1}) Z[n-k]
  left_curvature_gap_decay the same gap grows at level n-1
  right_curvature_gap      J[n-k] > 3 Z[n-k]
  right_curvature_gap_decay the same gap grows at level n-1
  head_moment_bound        r_n Z[1] < alpha/(3(2-alpha)) * weight(t_{n-1})

I and J are the curvature integrals weighted toward the left/right
endpoint of each interval.  Inside the audit they are obtained from the
exact identities I = a - w'(t_{k-1}) and J = w'(t_k) - a; the diagnostics
routine recomputes them by adaptive quadrature so the identities
themselves can be cross-checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .kernels import FracOrder, KernelSet, _level_geometry, as_order, build_kernels
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


class AuditEntries:
    """Row view of an AuditReport: len() is the row count, iteration yields AuditEntry."""

    def __init__(self, report: "AuditReport"):
        self._report = report

    def __len__(self) -> int:
        return self._report.size

    def __iter__(self):
        return (AuditEntry(*row[:5]) for row in self._report.records())


class AuditReport:
    """All audit rows for one mesh as columns n, prop, k, lhs, rhs, plus the
    violations under a round-off floor.

    Rows arrive in blocks (one property, or several interleaved, over an
    array of k at one level); the columns are concatenated on first read.
    """

    def __init__(self):
        self.size = 0
        self._codes = {}       # property name -> code, in order of first row
        self._blocks = []      # (n, codes, k, lhs, rhs) per block, k/lhs/rhs per row
        self._cols = None

    def extend(self, n: int, k, /, **props) -> None:
        """Append level-n rows over the index array k; each keyword maps a
        property to its (lhs, rhs) arrays over k.  With several properties the
        rows interleave: for each k, one row per property in keyword order."""
        k = np.asarray(k, dtype=np.int64)
        lhs, rhs = zip(*props.values())
        if any(np.shape(v) != k.shape for v in lhs + rhs):
            raise ValueError(f"level {n}: every lhs and rhs must have the shape of k, {k.shape}")
        if k.size == 0:
            return
        codes = [self._codes.setdefault(name, len(self._codes)) for name in props]
        if len(codes) > 1:
            k = np.repeat(k, len(codes))
            lhs, rhs = np.column_stack(lhs).ravel(), np.column_stack(rhs).ravel()
        else:
            lhs, rhs = lhs[0], rhs[0]
        self._blocks.append((n, codes, k, lhs, rhs))
        self.size += k.size
        self._cols = None

    def add(self, n: int, prop: str, k: int, lhs: float, rhs: float) -> None:
        self.extend(n, [k], **{prop: ([float(lhs)], [float(rhs)])})

    def _columns(self):
        if self._cols is None:
            ns, codes, ks, lhs, rhs = list(zip(*self._blocks)) or [()] * 5
            sizes = [x.size for x in ks]
            cols = (
                np.repeat(np.array(ns, dtype=np.int64), sizes),
                np.fromiter(chain.from_iterable(c * (s // len(c)) for c, s in zip(codes, sizes)),
                            dtype=np.int64, count=self.size),
                np.concatenate([np.empty(0, dtype=np.int64), *ks]),
                np.concatenate([np.empty(0), *lhs]),
                np.concatenate([np.empty(0), *rhs]),
            )
            for c in cols:
                c.flags.writeable = False
            self._cols = cols
        return self._cols

    @property
    def n(self) -> np.ndarray:
        return self._columns()[0]

    @property
    def prop(self) -> np.ndarray:
        return np.array(list(self._codes), dtype=object)[self._columns()[1]]

    @property
    def k(self) -> np.ndarray:
        return self._columns()[2]

    @property
    def lhs(self) -> np.ndarray:
        return self._columns()[3]

    @property
    def rhs(self) -> np.ndarray:
        return self._columns()[4]

    @property
    def entries(self) -> AuditEntries:
        return AuditEntries(self)

    def records(self):
        """Rows as (n, prop, k, lhs, rhs, slack) tuples of Python scalars."""
        n, code, k, lhs, rhs = self._columns()
        return zip(n.tolist(), self.prop.tolist(), k.tolist(),
                   lhs.tolist(), rhs.tolist(), (lhs - rhs).tolist())

    def _entry(self, i: int) -> AuditEntry:
        n, code, k, lhs, rhs = self._columns()
        return AuditEntry(int(n[i]), list(self._codes)[code[i]], int(k[i]), float(lhs[i]), float(rhs[i]))

    def violations(self):
        """Entries whose slack is negative beyond round-off (_SLACK_FLOOR at
        their scale), and every entry whose lhs, rhs or slack is not finite."""
        _, _, _, lhs, rhs = self._columns()
        slack = lhs - rhs                 # not finite whenever lhs or rhs is not
        tol = _SLACK_FLOOR * np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
        return [self._entry(i) for i in np.flatnonzero((slack < -tol) | ~np.isfinite(slack))]

    def worst_slack(self):
        """Minimum slack per property, as {prop: (slack, n, k)}."""
        _, code, _, lhs, rhs = self._columns()
        slack = lhs - rhs
        worst = {}
        for name, c in self._codes.items():
            rows = np.flatnonzero(code == c)
            e = self._entry(rows[np.argmin(slack[rows])])
            worst[name] = (e.slack, e.n, e.k)
        return worst

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("n,property,k,lhs,rhs,slack\r\n")
            fh.write("".join("%d,%s,%d,%r,%r,%r\r\n" % row for row in self.records()))


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
    _, d = _level_geometry(mesh, order, n)
    return omega(1.0 - order.alpha, d)


def endpoint_gaps(kernels: KernelSet, mesh: TimeMesh, order, n: int):
    """(I, J) by offset m = n-k for k = 1..n-1, from the interval-average identities.

    I[m] = a[m] - w'(t_{k-1}) and J[m] = w'(t_k) - a[m]; both are positive
    because the weight is convex.  Offset 0 is nan (the head interval has
    no integrable curvature).
    """
    return _gaps(kernels.a, _weight_at_nodes(mesh, as_order(order), n))


def _gaps(a: np.ndarray, wp: np.ndarray):
    """endpoint_gaps from the level-n weights a and w'(t_j), j = 0..n-1."""
    n = len(wp)
    I = np.full(n, np.nan)
    J = np.full(n, np.nan)
    if n >= 2:
        ks = np.arange(1, n)
        ms = n - ks
        I[ms] = a[ms] - wp[ks - 1]
        J[ms] = wp[ks] - a[ms]
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


def audit_kernel_properties(mesh: TimeMesh, order, n_max: int) -> AuditReport:
    """Run every kernel inequality for levels 2..n_max and report slacks.

    The caller is responsible for the mesh hypothesis (ratios >= r*(alpha)).
    """
    order = as_order(order)
    alpha = order.alpha
    report = AuditReport()
    n_max = min(n_max, mesh.num_steps)
    prev = build_kernels(mesh, order, 1)
    prev_IJ = endpoint_gaps(prev, mesh, order, 1)
    for n in range(2, n_max + 1):
        ks = build_kernels(mesh, order, n)
        A, Ap = ks.aux_a, prev.aux_a
        Z, Zp = ks.zeta, prev.zeta
        beta = beta_factors(mesh, order, n)
        wp = _weight_at_nodes(mesh, order, n)
        I, J = _gaps(ks.a, wp)
        Ip, Jp = prev_IJ
        r = mesh.ratios[: n - 1]                     # r[j-2] = ratio at step j

        k = np.arange(1, n)                          # k = 1..n-1, offsets m = n-k
        m = n - k
        j = k[:-1]                                   # k = 1..n-2
        i = k[:-2]                                   # k = 1..n-3
        report.extend(n, k, kernel_decreasing=(A[m - 1], A[m]), kernel_positive=(A[m], np.zeros(k.size)))
        report.extend(n, k, kernel_level_decay=(Ap[n - 1 - k], A[n - k]))
        report.extend(n, j, kernel_diff_decay=(Ap[n - 2 - j] - Ap[n - 1 - j], A[n - j - 1] - A[n - j]))
        # the level decays are flipped so that lhs > rhs holds like the other rows
        report.extend(n, j, moment_level_decay=(Zp[n - 1 - j], Z[n - j]))
        report.extend(n, j, moment_ratio_gap=(Z[n - j - 1], r[j - 1] * Z[n - j]))
        report.extend(n, i, moment_ratio_gap_decay=(
            Zp[n - i - 2] - r[i - 1] * Zp[n - i - 1],
            Z[n - i - 1] - r[i - 1] * Z[n - i],
        ))
        report.extend(
            n, k,
            left_curvature_gap=(I[m], (1.0 + beta[k + 1]) * Z[m]),
            right_curvature_gap=(J[m], 3.0 * Z[m]),
        )
        report.extend(
            n, j,
            left_curvature_gap_decay=(
                Ip[n - 1 - j] - (1.0 + beta[j + 1]) * Zp[n - 1 - j],
                I[n - j] - (1.0 + beta[j + 1]) * Z[n - j],
            ),
            right_curvature_gap_decay=(Jp[n - 1 - j] - 3.0 * Zp[n - 1 - j], J[n - j] - 3.0 * Z[n - j]),
        )
        # head_moment_bound: r_n Z[1] < alpha/(3(2-alpha)) w'(t_{n-1})
        report.extend(n, [n - 1], head_moment_bound=([alpha / (3.0 * (2.0 - alpha)) * wp[n - 1]], [r[n - 2] * Z[1]]))
        prev = ks
        prev_IJ = (I, J)
    return report
