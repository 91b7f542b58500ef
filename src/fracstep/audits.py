"""Inequality certificates for the split derivative kernels.

The energy analysis of the scheme rests on sign and monotonicity
properties of the gradient-structure kernels aux_a, of the moment weights
zeta, and of two endpoint-weighted curvature integrals per interval.  The
audit recomputes every inequality numerically on a given mesh and reports
the raw slack (positive means satisfied), so hypothesis violations are
observable instead of silent.  The meshes of one call are audited
together: every level's kernels of every mesh come from one kernel_tables
pass, each property is evaluated as one array expression over all meshes
and levels, and each mesh's report is built once from read-only columns
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
endpoint of each interval.  The audit obtains them from the exact
identities I = a - w'(t_{k-1}) and J = w'(t_k) - a; the tests recompute
them by adaptive quadrature, so the identities themselves are
cross-checked there and the package needs no quadrature.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .kernels import FracOrder, as_order, comparison_factor, kernel_tables
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
# Meshes audited in one kernel_tables pass.  A pass holds every table of its
# meshes at once, so the cap bounds the audit's peak memory; past about 16
# meshes a larger pass saves no time.
_MESHES_PER_PASS = 16


def _column(values, dtype) -> np.ndarray:
    """values as a read-only array of dtype, shared when it is one already
    and its data belongs to a read-only array: itself, or the base of a view
    (a read-only view of a writable base could change through it)."""
    if isinstance(values, np.ndarray) and values.dtype == dtype and not values.flags.writeable:
        owner = values if values.base is None else values.base
        if isinstance(owner, np.ndarray) and owner.flags.owndata and not owner.flags.writeable:
            return values
    col = np.array(values, dtype=dtype)
    col.flags.writeable = False
    return col


class AuditReport:
    """All audit rows for one mesh, built once as read-only columns.

    names lists the properties that have rows; code indexes names, every
    name has rows, and n, code, k, lhs and rhs are arrays of one length.
    The rows need not be grouped by property.  A column that is already a
    read-only array of its dtype whose data belongs to a read-only array is
    shared, not copied (every report of one n_max shares the n, code and k
    of _layout, and the reports of one audit pass share the block of their
    lhs and rhs rows); any other column is copied and the copy made
    read-only.  len() is the row count and iteration yields AuditEntry
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
        try:
            checks = np.bincount(self.code, minlength=len(self.names))
        except ValueError:      # a negative code
            checks = None
        if checks is None or checks.size > len(self.names):
            bad = self.code[(self.code < 0) | (self.code >= len(self.names))][0]
            raise ValueError(f"code {bad} is outside range({len(self.names)}) of the names {self.names}")
        if not checks.all():
            raise ValueError(f"names without rows: {[p for p, c in zip(self.names, checks) if not c]}")
        checks.flags.writeable = False
        self._checks = checks

    def __len__(self) -> int:
        return self.size

    def __iter__(self):
        prop = np.array(self.names, dtype=object)[self.code]
        return map(AuditEntry, self.n.tolist(), prop.tolist(), self.k.tolist(),
                   self.lhs.tolist(), self.rhs.tolist())

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
        arrays: the row count, the violations() count and the first row of
        least slack (np.argmin takes the first nan, so a nan slack ranks
        worst).  A stable sort by code puts each property's rows in one
        segment, in row order."""
        size, checks = len(self.names), self._checks
        rows = np.argsort(self.code, kind="stable")
        slack = (self.lhs - self.rhs)[rows]
        ends = np.cumsum(checks).tolist()
        worst = np.array([rows[a + np.argmin(slack[a:b])] for a, b in zip([0] + ends, ends)], dtype=np.int64)
        return checks, np.bincount(self.code[self._violating], minlength=size), worst


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


@functools.lru_cache(maxsize=256)
def _positions(n_max: int, group: int, dn: int, dk: int) -> np.ndarray:
    """Read-only flat positions, in one mesh's (n_max+1, n_max) weight table,
    of level n - dn at step k + dk, which is offset n - dn - k - dk, for
    the pairs _pairs(n_max)[group]."""
    n, k = _pairs(n_max)[group]
    pos = (n - dn) * (n_max + 1) - k - dk
    pos.flags.writeable = False
    return pos


@functools.lru_cache(maxsize=16)
def _layout(n_max: int, groups: tuple):
    """Read-only n, code and k columns of properties over the _pairs(n_max)
    indices `groups`, joined in order: every report of one n_max shares them."""
    pn, pk = zip(*(_pairs(n_max)[g] for g in groups))
    cols = (np.concatenate(pn), np.repeat(np.arange(len(groups)), [x.size for x in pn]), np.concatenate(pk))
    for col in cols:
        col.flags.writeable = False
    return cols


def audit_kernel_properties(meshes, order, n_max: int) -> list:
    """Run every kernel inequality for levels 2..n_max of each mesh and
    report slacks: one AuditReport per mesh, in order.

    Meshes are audited together, grouped by the level they reach,
    min(n_max, num_steps), in passes of at most _MESHES_PER_PASS meshes;
    each report is bit for bit the one its mesh gets when audited alone.
    The rows are grouped by property in the module docstring's order, less
    the properties without rows (levels below 4).

    The caller is responsible for the mesh hypothesis (ratios >= r*(alpha)).
    """
    order = as_order(order)
    tops = [min(n_max, mesh.num_steps) for mesh in meshes]
    reports = {}
    for top in set(tops):
        same = [j for j, t in enumerate(tops) if t == top]
        for start in range(0, len(same), _MESHES_PER_PASS):
            batch = same[start : start + _MESHES_PER_PASS]
            reports.update(zip(batch, _audit([meshes[j] for j in batch], order, top)))
    return [reports[j] for j in range(len(meshes))]


def _audit(meshes, order: FracOrder, n_max: int) -> list:
    """The reports of meshes that all reach level n_max.

    Every level's weights come from one kernel_tables pass over all the
    meshes, and each property is one array expression over its meshes and
    (n, k) pairs, with level n-1 read from the row above.  Each property's
    lhs and rhs go into one (2, meshes, rows) block; each report's lhs and
    rhs are read-only rows of it.
    """
    if n_max < 2:
        return [AuditReport((), [], [], [], [], []) for _ in meshes]
    alpha = order.alpha
    t = kernel_tables(meshes, order, n_max)
    wp = omega(1.0 - alpha, t.d)                 # wp[:, n, p] = w'(t_{n-p}) at level n
    A, Z, I, J = (x.reshape(len(meshes), -1) for x in (t.aux_a, t.zeta, *_gaps(t.a, wp)))
    r = np.full((len(meshes), n_max + 1), np.nan)      # r[:, j] = ratio at step j
    r[:, 2:] = [mesh.ratios[: n_max - 1] for mesh in meshes]
    beta = comparison_factor(alpha, r)

    def at(table, group, dn, dk):
        """table, a flat weight table per mesh, at level n - dn and step
        k + dk of each (n, k) pair of the group, as (meshes, pairs): with
        the docstring's notation, at(A, g, 0, 0) is A[n-k], (0, 1) is
        A[n-k-1], (1, 0) is A_prev[n-1-k] and (1, 1) is A_prev[n-2-k]."""
        return table.take(_positions(n_max, group, dn, dk), axis=1)

    (_, k), (_, k1), (_, k2), (nh, _) = pairs = _pairs(n_max)
    props = (       # name, the index of its pairs in _pairs, and its (lhs, rhs) by mesh and pair
        ("kernel_decreasing", 0, lambda: (at(A, 0, 0, 1), at(A, 0, 0, 0))),
        ("kernel_positive", 0, lambda: (at(A, 0, 0, 0), 0.0)),
        ("kernel_level_decay", 0, lambda: (at(A, 0, 1, 0), at(A, 0, 0, 0))),
        ("left_curvature_gap", 0, lambda: (at(I, 0, 0, 0), (1.0 + beta[:, k + 1]) * at(Z, 0, 0, 0))),
        ("right_curvature_gap", 0, lambda: (at(J, 0, 0, 0), 3.0 * at(Z, 0, 0, 0))),
        # r_n Z[1] < alpha/(3(2-alpha)) w'(t_{n-1})
        ("head_moment_bound", 3, lambda: (alpha / (3.0 * (2.0 - alpha)) * wp[:, nh, 1], r[:, nh] * at(Z, 3, 0, 0))),
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
    layout = _layout(n_max, groups)
    block = np.empty((2, len(meshes), layout[0].size))
    lhs, rhs = block
    stop = 0
    for g, side in zip(groups, sides):
        start, stop = stop, stop + pairs[g][0].size
        lhs[:, start:stop], rhs[:, start:stop] = side()
    block.flags.writeable = False      # so the reports share its rows
    return [AuditReport(names, *layout, x, y) for x, y in zip(*block)]
