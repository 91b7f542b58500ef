"""Inequality certificates for the split derivative kernels.

The energy analysis of the scheme rests on sign and monotonicity
properties of the gradient-structure kernels A, of the moment weights
zeta, and of two endpoint-weighted curvature integrals per interval.  The
audit recomputes every inequality numerically on a given mesh and reports
the raw slack (positive means satisfied), so hypothesis violations are
observable instead of silent.  The meshes of one call are audited
together: every level's kernels of every mesh come from one kernel_tables
pass, each property is evaluated as one array expression over all meshes
and levels, and the call returns one report of read-only columns: the
(n, property, k) layout the meshes share, and lhs and rhs by mesh and row,
rather than one object per check.  A report folds into an AuditSummary,
one row per mesh and property and the violating rows, which is what a
run of many audits keeps.

Checked per level n (prev = level n-1, A = gradient_kernels(hat_a), Z = zeta).
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
endpoint of each interval.  The audit obtains them from the exact
identities I = a - w'(t_{k-1}) and J = w'(t_k) - a; the tests recompute
them by adaptive quadrature, so the identities themselves are
cross-checked there and the package needs no quadrature.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .kernels import FracOrder, as_order, comparison_factor, gradient_kernels, kernel_tables
from .kernels import build_kernels  # noqa: F401  (unused here; perfbench/tracer.py hooks this name)
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


class AuditReport:
    """All audit rows of one call, for one or more meshes, held as
    read-only copies of the columns it is given.

    n, code and k are 1-D and give the row layout that every mesh shares:
    code indexes names, its rows are grouped by property in names order,
    and every name has rows.  lhs and rhs are (meshes, rows), row m being
    mesh m's; a 1-D lhs or rhs is one mesh's.  len() is meshes x rows, and
    iteration yields each mesh's AuditEntry rows in turn.  fold()
    condenses the rows per mesh and property and keeps the violations()
    rows, which is all that experiments.write_kernel_audit_csv writes.
    """

    def __init__(self, names, n, code, k, lhs, rhs):
        # copies, so that a caller's array is never made read-only behind its back
        self.names = tuple(names)
        self.n, self.code, self.k = (np.array(c, dtype=np.int64) for c in (n, code, k))
        self.lhs, self.rhs = (np.array(c, dtype=np.float64, ndmin=2) for c in (lhs, rhs))
        cols = (self.n, self.code, self.k, self.lhs, self.rhs)
        for col in cols:
            col.flags.writeable = False
        if len({self.n.shape, self.code.shape, self.k.shape, self.lhs.shape[1:]}) != 1 \
                or self.n.ndim != 1 or self.rhs.shape != self.lhs.shape:
            raise ValueError(f"n, code and k must be 1-D of one length and lhs and rhs (meshes, rows), "
                             f"got shapes {[c.shape for c in cols]}")
        outside = self.code[(self.code < 0) | (self.code >= len(self.names))]
        if outside.size:
            raise ValueError(f"code {outside[0]} is outside range({len(self.names)}) of the names {self.names}")
        if np.any(self.code[1:] < self.code[:-1]):
            raise ValueError(f"rows must be grouped by property in the names order {self.names}")
        self._bounds = np.searchsorted(self.code, np.arange(len(self.names) + 1)).tolist()
        empty = [p for p, a, b in zip(self.names, self._bounds, self._bounds[1:]) if a == b]
        if empty:
            raise ValueError(f"names without rows: {empty}")

    def __len__(self) -> int:
        return self.lhs.size

    def __iter__(self):
        meshes = len(self.lhs)
        prop = np.array(self.names, dtype=object)[self.code].tolist()
        return map(AuditEntry, self.n.tolist() * meshes, prop * meshes, self.k.tolist() * meshes,
                   self.lhs.ravel().tolist(), self.rhs.ravel().tolist())

    def _entry(self, m: int, i: int) -> AuditEntry:
        return AuditEntry(int(self.n[i]), self.names[self.code[i]], int(self.k[i]),
                          float(self.lhs[m, i]), float(self.rhs[m, i]))

    @functools.cached_property
    def _violating(self) -> np.ndarray:
        """Read-only (meshes, rows) mask: slack negative beyond round-off
        (_SLACK_FLOOR at the row's scale), or lhs, rhs or slack not finite."""
        # in place, so that at most two (meshes, rows) float arrays are live
        tol = np.abs(self.lhs)
        slack = np.abs(self.rhs)
        np.maximum(tol, slack, out=tol)
        np.maximum(tol, 1.0, out=tol)
        tol *= -_SLACK_FLOOR                          # the negated tolerance, bit for bit
        np.subtract(self.lhs, self.rhs, out=slack)   # not finite whenever lhs or rhs is not
        mask = slack < tol
        mask |= ~np.isfinite(slack)
        mask.flags.writeable = False
        return mask

    def violations(self):
        """(mesh, entry) pairs, mesh by mesh, of the entries whose slack is
        negative beyond round-off (_SLACK_FLOOR at their scale), and of every
        entry whose lhs, rhs or slack is not finite."""
        meshes, rows = np.nonzero(self._violating)
        return [(m, self._entry(m, i)) for m, i in zip(meshes.tolist(), rows.tolist())]

    def fold(self) -> "AuditSummary":
        """The report condensed to what the kernel audit's outputs read:
        the row count of each property in names order, and, per mesh and
        property, the violations() count and the n, k, lhs and rhs of the
        first row of least slack (np.argmin takes the first nan, so a nan
        slack ranks worst), with the violations() pairs."""
        segments = list(zip(self._bounds, self._bounds[1:]))
        shape = (len(segments), len(self.lhs))
        bad = [self._violating[:, a:b].sum(axis=1) for a, b in segments]
        worst = [a + np.argmin(self.lhs[:, a:b] - self.rhs[:, a:b], axis=1) for a, b in segments]
        worst = np.array(worst, dtype=np.int64).reshape(shape).T
        cols = (np.diff(self._bounds), np.array(bad, dtype=np.int64).reshape(shape).T, self.n[worst],
                self.k[worst], np.take_along_axis(self.lhs, worst, axis=1),
                np.take_along_axis(self.rhs, worst, axis=1))
        for col in cols:
            col.flags.writeable = False
        return AuditSummary(self.names, *cols, tuple(self.violations()))


@dataclass(frozen=True, eq=False)
class AuditSummary:
    """An AuditReport folded to one row per mesh and property, so that a
    run of many audits keeps no (meshes, rows) column: the names, the
    check count of each property in names order, and as read-only
    (meshes, names) arrays each mesh's violation count per property (bad)
    and the n, k, lhs and rhs of its first row of least slack (worst_*),
    with the report's violations() pairs.  len() is the report's.
    AuditReport.fold() builds it."""

    names: tuple
    checks: np.ndarray
    bad: np.ndarray
    worst_n: np.ndarray
    worst_k: np.ndarray
    worst_lhs: np.ndarray
    worst_rhs: np.ndarray
    violations: tuple       # (mesh, AuditEntry), mesh by mesh

    def __len__(self) -> int:
        return len(self.bad) * int(self.checks.sum())


def _gaps(a: np.ndarray, wp: np.ndarray):
    """(I, J) by offset m = n - k from the weights a by offset m and w' by
    node offset p = n - j (nan at p = 0), for one level or for tables of
    levels: I[m] = a[m] - w'(t_{k-1}) and J[m] = w'(t_k) - a[m], both
    positive because the weight is convex, and nan at m = 0 (the head
    interval has no integrable curvature)."""
    I = a - wp[..., 1:]        # w'(t_{k-1}) sits at p = m + 1
    J = wp[..., :-1] - a       # w'(t_k) at p = m
    I[..., 0] = J[..., 0] = np.nan
    return I, J


@functools.lru_cache(maxsize=16)
def _pairs(n_max: int):
    """Read-only (n, k) arrays, ordered by n and then by k, over
    1 <= k <= n-1-shrink for the shrinks 0, 1 and 2, then over the head
    pairs (n, n-1) for n = 2..n_max."""
    n, k = np.tril_indices(n_max + 1, -1)       # 0 <= k < n, ordered by n and then by k
    masks = [(k > 0) & (k < n - s) for s in (0, 1, 2)] + [(k > 0) & (k == n - 1)]
    pairs = tuple((n[c], k[c]) for c in masks)
    for arr in (x for p in pairs for x in p):
        arr.flags.writeable = False
    return pairs


def audit_kernel_properties(meshes, order, n_max: int) -> AuditReport:
    """Run every kernel inequality for levels 2..n_max of the meshes, which
    must all reach one level min(n_max, num_steps), and report the slacks
    in one AuditReport whose lhs and rhs row m is mesh m's.

    The meshes are audited in one pass; each mesh's row is bit for bit
    the one it gets when audited alone.  The rows are grouped by property
    in the module docstring's order, less the properties without rows
    (levels below 4).

    The report is built by AuditReport's constructor, like any other.
    The caller is responsible for the mesh hypothesis (ratios >= r*(alpha)).
    """
    order = as_order(order)
    levels = sorted({min(n_max, mesh.num_steps) for mesh in meshes})
    if len(levels) != 1:
        raise ValueError(f"the meshes must all reach one level min(n_max, num_steps), got levels {levels}")
    return AuditReport(*_audit(meshes, order, levels[0]))


def _audit(meshes, order: FracOrder, n_max: int) -> tuple:
    """(names, n, code, k, lhs, rhs) of meshes that all reach level n_max:
    the report's row layout and its (meshes, rows) lhs and rhs.

    Every level's weights come from one kernel_tables pass over all the
    meshes (level n at row n - 1, A formed once from hat_a), and each
    property is one array expression over its meshes and (n, k) pairs.
    """
    if n_max < 2:
        return (), [], [], [], *np.empty((2, len(meshes), 0))
    alpha = order.alpha
    t = kernel_tables([mesh.nodes[: n_max + 1] for mesh in meshes], order, 1, n_max)
    wp = omega(1.0 - alpha, t.d)                 # wp[:, n-1, p] = w'(t_{n-p}) at level n
    A, Z, (I, J) = gradient_kernels(t.hat_a), t.zeta, _gaps(t.a, wp)
    r = np.full((len(meshes), n_max + 1), np.nan)      # r[:, j] = ratio at step j
    r[:, 2:] = [mesh.ratios[: n_max - 1] for mesh in meshes]
    beta = comparison_factor(alpha, r)

    @functools.cache
    def index(group, dn, dk):
        """The (row, offset) index pair of at, built once per call."""
        n, k = pairs[group]
        return n - dn - 1, n - k - (dn + dk)

    def at(table, group, dn, dk):
        """table, a (meshes, row, offset) weight table, at level n - dn
        and step k + dk, which is offset n - dn - k - dk, of each (n, k)
        pair of the group, as (meshes, pairs): with the docstring's
        notation, at(A, g, 0, 0) is A[n-k], (0, 1) is A[n-k-1], (1, 0) is
        A_prev[n-1-k] and (1, 1) is A_prev[n-2-k]."""
        row, offset = index(group, dn, dk)
        return table[:, row, offset]

    (_, k), (_, k1), (_, k2), (nh, _) = pairs = _pairs(n_max)
    props = (       # name, the index of its pairs in _pairs, and its (lhs, rhs) by mesh and pair
        ("kernel_decreasing", 0, lambda: (at(A, 0, 0, 1), at(A, 0, 0, 0))),
        ("kernel_positive", 0, lambda: (at(A, 0, 0, 0), 0.0)),
        ("kernel_level_decay", 0, lambda: (at(A, 0, 1, 0), at(A, 0, 0, 0))),
        ("left_curvature_gap", 0, lambda: (at(I, 0, 0, 0), (1.0 + beta[:, k + 1]) * at(Z, 0, 0, 0))),
        ("right_curvature_gap", 0, lambda: (at(J, 0, 0, 0), 3.0 * at(Z, 0, 0, 0))),
        # r_n Z[1] < alpha/(3(2-alpha)) w'(t_{n-1})
        ("head_moment_bound", 3, lambda: (alpha / (3.0 * (2.0 - alpha)) * wp[:, nh - 1, 1], r[:, nh] * at(Z, 3, 0, 0))),
        ("kernel_diff_decay", 1,
         lambda: (at(A, 1, 1, 1) - at(A, 1, 1, 0), at(A, 1, 0, 1) - at(A, 1, 0, 0))),
        # the level decays are flipped so that lhs > rhs holds like the other rows
        ("moment_level_decay", 1, lambda: (at(Z, 1, 1, 0), at(Z, 1, 0, 0))),
        ("moment_ratio_gap", 1, lambda: (at(Z, 1, 0, 1), r[:, k1 + 1] * at(Z, 1, 0, 0))),
        ("left_curvature_gap_decay", 1,
         lambda: (at(I, 1, 1, 0) - (1.0 + beta[:, k1 + 1]) * at(Z, 1, 1, 0),
                  at(I, 1, 0, 0) - (1.0 + beta[:, k1 + 1]) * at(Z, 1, 0, 0))),
        ("right_curvature_gap_decay", 1,
         lambda: (at(J, 1, 1, 0) - 3.0 * at(Z, 1, 1, 0), at(J, 1, 0, 0) - 3.0 * at(Z, 1, 0, 0))),
        ("moment_ratio_gap_decay", 2,
         lambda: (at(Z, 2, 1, 1) - r[:, k2 + 1] * at(Z, 2, 1, 0), at(Z, 2, 0, 1) - r[:, k2 + 1] * at(Z, 2, 0, 0))),
    )
    names, groups, sides = zip(*(p for p in props if pairs[p[1]][0].size))
    pn, pk = zip(*(pairs[g] for g in groups))
    sizes = [x.size for x in pn]
    lhs, rhs = np.empty((2, len(meshes), sum(sizes)))
    stop = 0
    for size, side in zip(sizes, sides):
        start, stop = stop, stop + size
        lhs[:, start:stop], rhs[:, start:stop] = side()
    return names, np.concatenate(pn), np.repeat(np.arange(len(names)), sizes), np.concatenate(pk), lhs, rhs
