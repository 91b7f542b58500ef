"""Kernel inequality audits: comparison factors, curvature identities,
report bookkeeping."""

import csv
import math

import numpy as np
import pytest

from fracstep.audits import (
    AuditEntry,
    AuditReport,
    _gaps,
    audit_kernel_properties,
)
from fracstep.experiments import (
    KernelAuditResult,
    KernelAuditSpec,
    kernel_audit_meshes,
    run_kernel_audit,
    write_kernel_audit_csv,
)
from fracstep.kernels import (as_order, build_kernels, comparison_factor, gradient_kernels, kernel_tables,
                              min_step_ratio)
from fracstep.mesh import build_graded_mesh, build_uniform_mesh, random_ratio_mesh
from fracstep.special import omega
from oracles import _weight_at_nodes, diagnostics, endpoint_gaps, level_weights, worst_slack


def test_beta_factors_uniform_alpha_one_limit():
    # alpha -> 1, r = 1: 2(1 - 1/2)/(1 + 1 + 1/2) = 0.4
    mesh = build_uniform_mesh(1.0, 6)
    beta = comparison_factor(1.0 - 1e-9, np.concatenate(([np.nan, np.nan], mesh.ratios[:5])))
    assert math.isnan(beta[0]) and math.isnan(beta[1])
    assert np.allclose(beta[2:], 0.4, rtol=1e-8)


def test_beta_factors_formula():
    # alpha = 1/2, r = 2: 2 * 3/4 * 2 / (3/2 + 3/4 * 2) = 1
    from fracstep.mesh import TimeMesh

    steps = np.array([0.1, 0.2, 0.4, 0.8])
    mesh = TimeMesh(np.concatenate([[0.0], np.cumsum(steps)]))
    beta = comparison_factor(0.5, mesh.ratios[:3])
    assert np.allclose(beta, 1.0, rtol=1e-13)


def test_endpoint_gaps_match_quadrature():
    # I and J as the audit computes them, from the kernel tables of every level at once
    rng = np.random.default_rng(13)
    for alpha in (0.2, 0.5, 0.8):
        order = as_order(alpha)
        n = 6
        mesh = random_ratio_mesh(rng, n, min_step_ratio(alpha))
        t = kernel_tables(mesh.nodes, order, 1, n)
        I_tab, J_tab = _gaps(t.a, omega(1.0 - alpha, t.d))
        for level in range(2, n + 1):
            I_id, J_id = I_tab[0, level - 1, :level], J_tab[0, level - 1, :level]
            diag = diagnostics(mesh, order, level)
            assert math.isnan(I_id[0]) and math.isnan(diag.I[0])
            assert np.allclose(I_id[1:], diag.I[1:], rtol=1e-9)
            assert np.allclose(J_id[1:], diag.J[1:], rtol=1e-9)
            assert np.all(I_id[1:] > 0) and np.all(J_id[1:] > 0)


def test_audit_clean_on_uniform_mesh():
    mesh = build_uniform_mesh(1.0, 12)
    for alpha in (0.1, 0.5, 0.9):
        report = audit_kernel_properties([mesh], alpha, 12)
        assert report.violations() == []


def test_audit_clean_on_graded_mesh():
    mesh = build_graded_mesh(1.0, 15, 3.0)
    report = audit_kernel_properties([mesh], 0.7, 15)
    assert report.violations() == []
    (worst,) = worst_slack(report)
    assert set(worst) >= {
        "kernel_decreasing",
        "kernel_positive",
        "kernel_level_decay",
        "moment_ratio_gap",
        "left_curvature_gap",
        "right_curvature_gap",
        "head_moment_bound",
    }


def test_audit_respects_level_cap():
    mesh = build_uniform_mesh(1.0, 5)
    report = audit_kernel_properties([mesh], 0.5, 50)
    assert max(e.n for e in report) == 5


def _report(rows):
    # a one-mesh report of (n, prop, k, lhs, rhs) rows, through the one
    # constructor: grouped by property in order of first appearance
    names = list(dict.fromkeys(prop for _, prop, *_ in rows))
    n, prop, k, lhs, rhs = zip(*sorted(rows, key=lambda row: names.index(row[1])))
    return AuditReport(names, n, [names.index(p) for p in prop], k, lhs, rhs)


def test_violation_floor_is_scale_relative():
    report = _report([
        (2, "demo", 1, 1.0, 1.0 + 1e-14),         # round-off at scale 1
        (2, "demo", 2, 0.0, 1e-12),               # genuine sign violation
        (2, "demo", 3, 1e6, 1e6 * (1 + 1e-14)),   # round-off at scale 1e6
    ])
    ((m, bad),) = report.violations()
    assert m == 0 and bad.k == 2
    assert bad.slack == pytest.approx(-1e-12)


def test_non_finite_rows_are_violations():
    # an overflowed kernel must not audit clean: +inf rhs gives slack -inf
    # against tol inf, and a nan lhs gives a nan slack
    report = _report([(2, "p", 1, 0.0, math.inf), (2, "p", 2, math.nan, 1.0), (2, "p", 3, 2.0, 1.0)])
    assert [(m, e.k) for m, e in report.violations()] == [(0, 1), (0, 2)]


def test_worst_slack_groups_by_property():
    report = _report([(2, "p", 1, 5.0, 1.0), (3, "p", 1, 2.0, 1.0), (3, "q", 1, 0.5, 0.0)])
    (worst,) = worst_slack(report)
    assert worst["p"] == (1.0, 3, 1)
    assert worst["q"] == (0.5, 3, 1)


def _audit_loop(mesh, alpha, n_max):
    # the per-check loops the vectorised audit replaced, kept as the reference
    order = as_order(alpha)
    rows = []
    add = lambda n, prop, k, lhs, rhs: rows.append(AuditEntry(n, prop, k, float(lhs), float(rhs)))
    prev, Zp = build_kernels(mesh.nodes, order, 1), level_weights(mesh, order, 1)[1]
    Ip, Jp = endpoint_gaps(mesh, order, 1)
    for n in range(2, min(n_max, mesh.num_steps) + 1):
        ks, Z = build_kernels(mesh.nodes, order, n), level_weights(mesh, order, n)[1]
        A, Ap = gradient_kernels(ks.hat_a), gradient_kernels(prev.hat_a)
        beta = comparison_factor(order.alpha, np.concatenate(([np.nan, np.nan], mesh.ratios[: n - 1])))
        I, J = endpoint_gaps(mesh, order, n)
        r = mesh.steps[1:n] / mesh.steps[: n - 1]
        for k in range(1, n):
            add(n, "kernel_decreasing", k, A[n - k - 1], A[n - k])
            add(n, "kernel_positive", k, A[n - k], 0.0)
        for k in range(1, n):
            add(n, "kernel_level_decay", k, Ap[n - 1 - k], A[n - k])
        for k in range(1, n - 1):
            add(n, "kernel_diff_decay", k, Ap[n - 2 - k] - Ap[n - 1 - k], A[n - k - 1] - A[n - k])
        for k in range(1, n - 1):
            add(n, "moment_level_decay", k, Zp[n - 1 - k], Z[n - k])
        for k in range(1, n - 1):
            add(n, "moment_ratio_gap", k, Z[n - k - 1], r[k - 1] * Z[n - k])
        for k in range(1, n - 2):
            add(n, "moment_ratio_gap_decay", k, Zp[n - k - 2] - r[k - 1] * Zp[n - k - 1],
                Z[n - k - 1] - r[k - 1] * Z[n - k])
        for k in range(1, n):
            add(n, "left_curvature_gap", k, I[n - k], (1.0 + beta[k + 1]) * Z[n - k])
            add(n, "right_curvature_gap", k, J[n - k], 3.0 * Z[n - k])
        for k in range(1, n - 1):
            add(n, "left_curvature_gap_decay", k, Ip[n - 1 - k] - (1.0 + beta[k + 1]) * Zp[n - 1 - k],
                I[n - k] - (1.0 + beta[k + 1]) * Z[n - k])
            add(n, "right_curvature_gap_decay", k, Jp[n - 1 - k] - 3.0 * Zp[n - 1 - k],
                J[n - k] - 3.0 * Z[n - k])
        wp_tail = float(_weight_at_nodes(mesh, order, n)[n - 1])
        add(n, "head_moment_bound", n - 1, alpha / (3.0 * (2.0 - alpha)) * wp_tail, r[n - 2] * Z[1])
        prev, Zp, Ip, Jp = ks, Z, I, J
    return rows


def _bits(entries):
    return [(e.n, e.prop, e.k, e.lhs.hex(), e.rhs.hex()) for e in entries]


def _audit_meshes():
    rng = np.random.default_rng(5)
    return [
        (build_uniform_mesh(1.0, 12), 0.5, 12),
        (build_graded_mesh(1.0, 15, 3.0), 0.7, 15),
        (random_ratio_mesh(rng, 20, min_step_ratio(0.2)), 0.2, 20),
        (random_ratio_mesh(rng, 20, min_step_ratio(0.9)), 0.9, 20),
        (random_ratio_mesh(rng, 20, min_step_ratio(0.5)), 0.5, 2),     # no k <= n-2 rows
        (random_ratio_mesh(rng, 20, min_step_ratio(0.6)), 0.6, 3),     # no k <= n-3 rows
        (build_graded_mesh(1.0, 8, 2.0), 0.3, 50),                     # n_max past the mesh
    ]


def test_audit_rows_equal_scalar_loop():
    # the report holds the loop's rows grouped by property in names order, each group in loop order
    for mesh, alpha, n_max in _audit_meshes():
        report = audit_kernel_properties([mesh], alpha, n_max)
        rows = _audit_loop(mesh, alpha, n_max)
        assert set(report.names) == {e.prop for e in rows}
        rows.sort(key=lambda e: report.names.index(e.prop))      # a stable sort
        assert _bits(report) == _bits(rows)
        assert report.violations() == [(0, e) for e in _violations_loop(rows)]
        (worst,) = worst_slack(report)
        assert list(worst.items()) == list(_worst_slack_loop(rows).items())


def test_entries_len_is_check_count():
    # per level: 5 properties over n-1 indices, 5 over n-2, one over n-3, the head bound
    for mesh, alpha, n_max in _audit_meshes():
        report = audit_kernel_properties([mesh], alpha, n_max)
        levels = range(2, min(n_max, mesh.num_steps) + 1)
        want = sum(5 * (n - 1) + 5 * (n - 2) + max(n - 3, 0) + 1 for n in levels)
        assert len(report) == want == sum(1 for _ in report)
        assert report.n.size == report.k.size == report.code.size == want
        assert report.lhs.shape == report.rhs.shape == (1, want)


def test_empty_report():
    # a 1-step mesh, or a level cap of 1, has no level n >= 2 to audit
    for mesh, n_max in ((build_uniform_mesh(1.0, 1), 10), (build_uniform_mesh(1.0, 6), 1)):
        report = audit_kernel_properties([mesh], 0.5, n_max)
        assert len(report) == 0 and report.lhs.shape == (1, 0)
        assert report.violations() == []
        assert worst_slack(report) == [{}]
        summary = report.fold()
        assert [col.size for col in (summary.checks, summary.bad, summary.worst_n, summary.worst_k,
                                     summary.worst_lhs, summary.worst_rhs)] == [0] * 6
        assert summary.violations == () and len(summary) == 0
        assert list(report) == []


def _same_bits(text, value):
    # %.16e round-trips every float; a nan keeps neither its sign nor its payload
    got = float(text)
    if math.isnan(value):
        return math.isnan(got)
    return np.float64(got).view(np.int64) == np.float64(value).view(np.int64)


def _stack(*reports):
    # the one-mesh reports of one row layout as one report, mesh by mesh
    first = reports[0]
    return AuditReport(first.names, first.n, first.code, first.k,
                       [r.lhs[0] for r in reports], [r.rhs[0] for r in reports])


def _mesh_rows(report, m):
    # mesh m's rows, in the order iteration yields them
    return list(report)[m * report.n.size : (m + 1) * report.n.size]


def _rebuilt_reports(spec):
    # each alpha's per-check rows, from the meshes the fuzz of spec draws
    rng = np.random.default_rng(spec.seed)
    return [(alpha, audit_kernel_properties(meshes, alpha, spec.n_max))
            for alpha, meshes in kernel_audit_meshes(spec, rng)]


def _entry_bits(violations):
    # each (mesh, AuditEntry) with its floats as bits, so that nans compare
    return [(m, e.n, e.prop, e.k, np.float64(e.lhs).tobytes(), np.float64(e.rhs).tobytes())
            for m, e in violations]


def _assert_same_summary(got, want):
    # bit for bit: names, len(), every column's dtype, shape and bytes, and the violations
    assert got.names == want.names and len(got) == len(want)
    for name in ("checks", "bad", "worst_n", "worst_k", "worst_lhs", "worst_rhs"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
    assert _entry_bits(got.violations) == _entry_bits(want.violations)


def _audit_results():
    # (result, the (alpha, AuditReport) pairs it was folded from)
    spec = KernelAuditSpec(alphas=(0.3, 0.7), num_meshes=3, n_max=8, dgs_histories=2, seed=4)
    results = [(run_kernel_audit(spec), _rebuilt_reports(spec))]
    fixed = [(alpha, audit_kernel_properties([mesh], alpha, n_max)) for mesh, alpha, n_max in _audit_meshes()[:2]]
    # a fuzz below the ratio floor, which breaks kernel_decreasing
    below = [(alpha, audit_kernel_properties(meshes, alpha, 10))
             for alpha, meshes in _fuzz_meshes((0.1,), 6, 10, floor=0.8).items()]
    assert any(report.violations() for _, report in below)
    # values a summary could get wrong: signed zeros, nans (one with a payload), infinities, subnormals
    nan_payload = float(np.array(0x7FF8000000000001).view(np.float64))
    special = [0.0, -0.0, math.nan, -math.nan, nan_payload, math.inf, -math.inf, 5e-324, -2.5e-310]
    rows = [(2, "p", i + 1, v, w) for i, (v, w) in enumerate(zip(special, special[::-1]))]
    rows += [(3, "q", 1, 1.5, -0.0), (3, "p", 2, 0.25, 1.5)]
    # either side of the round-off floor at scale 1e6
    floor = [(4, "r", 1, 1e6, 1e6 * (1 + 1e-14)), (4, "r", 2, 1e6, 1e6 * (1 + 1e-11)), (4, "r", 3, 2.0, 1.0)]
    same_columns = _report([(2, "q", i + 1, v, 0.0) for i, v in enumerate(special)])
    ties = _report([(n, p, k, 1.0, 0.0) for n, p, k, *_ in rows])           # every slack 1: the first row is worst
    swapped = _report([(n, p, k, y, x) for n, p, k, x, y in rows[-2:] + floor])
    empty = AuditReport((), [], [], [], np.empty((2, 0)), np.empty((2, 0)))
    hand = [(0.5, _stack(_report(rows), ties)), (0.75, empty), (0.625, _report(rows[:9])),
            (0.25, same_columns), (0.125, _stack(_report(rows[-2:] + floor), swapped))]
    for reports in (fixed, below, hand):
        results.append((KernelAuditResult([(alpha, r.fold()) for alpha, r in reports], 0.0, 0.0, 0.0), reports))
    return results


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_kernel_audit_summary_matches_report_columns(tmp_path):
    for result, reports in _audit_results():
        # the result keeps each report's fold, and the files are checked against the report
        assert [alpha for alpha, _ in result.summaries] == [alpha for alpha, _ in reports]
        for (_, summary), (_, report) in zip(result.summaries, reports):
            _assert_same_summary(summary, report.fold())
        paths = write_kernel_audit_csv(tmp_path, result)
        assert paths == [str(tmp_path / "kernel_audit.csv"), str(tmp_path / "kernel_violations.csv")]
        header, *summary = _read_rows(paths[0])
        assert header == ["alpha", "mesh", "property", "checks", "violations",
                          "worst_n", "worst_k", "worst_lhs", "worst_rhs", "worst_slack"]
        assert [(float(a), int(m), p) for a, m, p, *_ in summary] == \
            [(alpha, m, p) for alpha, r in reports for m in range(len(r.lhs)) for p in r.names]
        assert sum(int(row[3]) for row in summary) == result.total_checks
        assert sum(int(row[4]) for row in summary) == len(result.violations)
        by_alpha = dict(reports)
        for a, m, prop, checks, bad, n, k, lhs, rhs, slack in summary:
            report = by_alpha[float(a)]
            entries = [e for e in _mesh_rows(report, int(m)) if e.prop == prop]
            assert int(checks) == len(entries)
            assert int(bad) == len(_violations_loop(entries))
            worst, wn, wk = worst_slack(report)[int(m)][prop]
            assert (int(n), int(k)) == (wn, wk) and _same_bits(slack, worst)
            (row,) = [e for e in entries if (e.n, e.k) == (wn, wk)]
            assert _same_bits(lhs, row.lhs) and _same_bits(rhs, row.rhs)
        # the violations file keeps the per-check row format, exactly the violations() rows
        header, *violating = _read_rows(paths[1])
        assert header == ["alpha", "mesh", "n", "property", "k", "lhs", "rhs", "slack"]
        assert violating == [[repr(float(alpha)), str(m), str(e.n), e.prop, str(e.k),
                              f"{e.lhs:.16e}", f"{e.rhs:.16e}", f"{e.slack:.6e}"]
                             for alpha, r in reports for m, e in r.violations()]
        assert len(violating) == len(result.violations)
    # a nan slack is the worst of its property and a violation; the floor splits the scale-1e6 rows
    by_row = {(a, m, p): row for a, m, p, *row in _read_rows(paths[0])[1:]}
    assert by_row["0.625", "0", "p"][:4] == ["9", "5", "2", "3"] and math.isnan(float(by_row["0.625", "0", "p"][-1]))
    assert by_row["0.5", "0", "p"][:4] == ["10", "6", "2", "3"] and by_row["0.5", "1", "p"][:4] == ["10", "0", "2", "1"]
    assert by_row["0.125", "0", "r"][:4] == ["3", "1", "4", "2"]
    assert [(a, m, n, k) for a, m, n, p, k, *_ in violating if p == "r"] == [("0.125", "0", "4", "2"),
                                                                           ("0.125", "1", "4", "3")]


_PROPERTY_ORDER = (
    "kernel_decreasing", "kernel_positive", "kernel_level_decay", "left_curvature_gap", "right_curvature_gap",
    "head_moment_bound",                                        # the properties with rows from level 2
    "kernel_diff_decay", "moment_level_decay", "moment_ratio_gap", "left_curvature_gap_decay",
    "right_curvature_gap_decay",                                # from level 3
    "moment_ratio_gap_decay",                                   # from level 4
)


def test_report_names_keep_the_summary_property_order():
    # kernel_audit.csv lists each report's properties in names order
    mesh = build_graded_mesh(1.0, 12, 2.0)
    for n_max, size in ((2, 6), (3, 11), (4, 12), (5, 12), (12, 12), (40, 12)):
        report = audit_kernel_properties([mesh], 0.5, n_max)
        assert report.names == _PROPERTY_ORDER[:size]
        assert np.array_equal(report.code, np.sort(report.code))          # grouped by property
        for c in range(size):
            n, k = report.n[report.code == c], report.k[report.code == c]
            assert np.all((n[1:] > n[:-1]) | ((n[1:] == n[:-1]) & (k[1:] > k[:-1])))   # by n, then k


def test_reports_at_one_n_max_share_their_row_layout():
    rng = np.random.default_rng(3)
    first, second = (audit_kernel_properties([random_ratio_mesh(rng, 10, min_step_ratio(0.4))], 0.4, 10)
                     for _ in range(2))
    for name in ("n", "code", "k"):
        assert np.array_equal(getattr(first, name), getattr(second, name))
    assert not np.shares_memory(first.lhs, second.lhs)
    for report in (first, second):
        for name in ("n", "code", "k", "lhs", "rhs"):
            assert not getattr(report, name).flags.writeable
    base = np.array([2.0, 3.0])
    view = base[:]
    view.flags.writeable = False
    report = AuditReport(("p",), [2, 2], [0, 0], [1, 2], view, np.ones(2))
    base[0] = -1.0                         # a read-only view of a writable array is copied
    assert report.violations() == []


def _violations_loop(entries, floor=1e-13):
    # a row passes only with a finite slack at or above the floor at its scale
    return [e for e in entries
            if not (math.isfinite(e.slack) and e.slack >= -floor * max(1.0, abs(e.lhs), abs(e.rhs)))]


def _worst_slack_loop(entries):
    worst = {}
    for e in entries:
        if e.prop not in worst or e.slack < worst[e.prop][0]:
            worst[e.prop] = (e.slack, e.n, e.k)
    return worst


def test_violations_and_worst_slack_match_scalar_recomputation():
    audited = audit_kernel_properties([build_graded_mesh(1.0, 10, 2.0)], 0.6, 10)
    assert audited.violations() == [] and _violations_loop(audited) == []
    report = _report([(e.n, e.prop, e.k, e.lhs, e.rhs) for e in audited] + [
        (11, "kernel_positive", 3, 1e-9, 2e-9),              # new worst of an audited property
        (11, "injected", 1, 1e6, 1e6 * (1 + 1e-14)),         # round-off at scale 1e6
        (11, "injected", 2, 1e6, 1e6 * (1 + 1e-11)),         # violation at scale 1e6
        (12, "injected", 4, 2.0, 1.0),
        (12, "injected", 5, 3.0, 1.0),
    ])
    entries = list(report)
    bad = report.violations()
    assert bad == [(0, e) for e in _violations_loop(entries)]
    assert [(m, e.prop, e.n, e.k) for m, e in bad] == [(0, "kernel_positive", 11, 3), (0, "injected", 11, 2)]
    assert worst_slack(report) == [_worst_slack_loop(entries)]
    assert worst_slack(report)[0]["kernel_positive"] == (1e-9 - 2e-9, 11, 3)


def test_report_columns_are_one_length_and_read_only():
    with pytest.raises(ValueError):
        AuditReport(("p",), [2, 2], [0, 0], [1, 2], np.zeros(2), np.zeros(3))
    lhs = np.array([2.0, 3.0])
    report = AuditReport(("p",), [2, 2], [0, 0], [1, 2], lhs, np.ones(2))
    lhs[0] = -1.0                          # the report holds its own copy
    assert report.violations() == []
    with pytest.raises(ValueError):        # numpy refuses writes to a read-only array
        report.lhs[0] = -1.0


def test_report_rejects_codes_outside_its_names():
    # a code of -1 would otherwise name its row after the last property
    for code in (2, -1):
        with pytest.raises(ValueError, match=rf"code {code} is outside range\(2\)"):
            AuditReport(("p", "q"), [2, 2], [0, code], [1, 2], [1.0, 1.0], [0.0, 0.0])


def test_report_rejects_names_without_rows():
    with pytest.raises(ValueError, match=r"names without rows: \['q'\]"):
        AuditReport(("p", "q"), [2], [0], [1], [1.0], [0.0])
    with pytest.raises(ValueError, match=r"names without rows: \['p'\]"):
        AuditReport(("p",), [], [], [], [], [])


def test_summary_on_rows_not_grouped_by_property():
    # a report takes its rows grouped by property in names order, and no other way
    with pytest.raises(ValueError, match=r"grouped by property in the names order \('p', 'q'\)"):
        AuditReport(("p", "q"), [2, 2, 3], [0, 1, 0], [1, 1, 1], [1.0] * 3, [0.0] * 3)
    # each mesh's worst is its first row of least slack per property, a nan slack first
    rows = [(2, "p", 1, 1.0, 0.0), (3, "p", 1, 0.0, 0.5), (4, "p", 1, 0.0, 0.5), (5, "p", 2, 3.0, 0.0),
            (2, "q", 1, 0.0, 0.0), (3, "q", 2, math.nan, 0.0), (4, "q", 3, -1.0, 0.0), (5, "r", 1, 2.0, 1.0)]
    report = _stack(_report(rows), _report([(n, p, k, 1.0, 0.0) for n, p, k, *_ in rows]))
    summary = report.fold()
    assert report.names == summary.names == ("p", "q", "r")
    assert summary.checks.tolist() == [4, 3, 1] and summary.bad.tolist() == [[2, 2, 0], [0, 0, 0]]
    # mesh 0's p rows (3, 1) and (4, 1) tie at slack -0.5 and the first is kept;
    # q's nan slack (3, 2) ranks below its -1.0
    assert summary.worst_n.tolist() == [[3, 3, 5], [2, 2, 5]]
    assert summary.worst_k.tolist() == [[1, 2, 1], [1, 1, 1]]
    assert np.array_equal(summary.worst_lhs - summary.worst_rhs, [[-0.5, np.nan, 1.0], [1.0, 1.0, 1.0]],
                          equal_nan=True)


def _fuzz_meshes(alphas, count, n_max, seed=0, floor=None):
    # the meshes run_kernel_audit draws for each alpha, by alpha; with a
    # floor, the same draw with the ratio floor lowered to floor * r*(alpha)
    rng = np.random.default_rng(seed)
    if floor is None:
        spec = KernelAuditSpec(alphas=alphas, num_meshes=count, n_max=n_max, seed=seed)
        return dict(kernel_audit_meshes(spec, rng))
    return {alpha: [random_ratio_mesh(rng, n_max, floor * min_step_ratio(alpha)) for _ in range(count)]
            for alpha in alphas}


def test_a_rebuilt_report_folds_to_the_fuzz_summary():
    # the per-check rows behind kernel_audit.csv come back from (config,
    # seed) by redrawing the fuzz's meshes; here the second alpha's
    spec = KernelAuditSpec(alphas=(0.2, 0.6, 0.9), num_meshes=4, n_max=9, dgs_histories=1, seed=5)
    result = run_kernel_audit(spec)
    draws = kernel_audit_meshes(spec, np.random.default_rng(spec.seed))
    next(draws)
    alpha, meshes = next(draws)
    report = audit_kernel_properties(meshes, alpha, spec.n_max)
    want_alpha, summary = result.summaries[1]
    assert want_alpha == alpha == 0.6
    _assert_same_summary(summary, report.fold())
    assert len(summary) == len(report) > 0 and summary.bad.shape == (4, 12)


def _assert_mesh_row(report, m, mesh, alpha, n_max):
    # mesh m's row of report is bit for bit the audit of that mesh alone
    want = audit_kernel_properties([mesh], alpha, n_max)
    assert report.names == want.names
    for name in ("n", "code", "k"):
        assert np.array_equal(getattr(report, name), getattr(want, name)), name
    for name in ("lhs", "rhs"):
        assert getattr(report, name)[m].tobytes() == getattr(want, name)[0].tobytes(), name


def test_batch_audit_equals_one_mesh_audits():
    for alpha, meshes in _fuzz_meshes((0.1, 0.5, 0.9), 6, 20).items():
        report = audit_kernel_properties(meshes, alpha, 20)
        assert report.lhs.shape[0] == len(meshes)
        for m, mesh in enumerate(meshes):
            _assert_mesh_row(report, m, mesh, alpha, 20)
        for name in ("lhs", "rhs"):
            assert not getattr(report, name).flags.writeable


def test_batch_audit_of_meshes_that_reach_different_levels():
    rng = np.random.default_rng(0)
    meshes = [random_ratio_mesh(rng, steps, min_step_ratio(0.6)) for steps in (20, 3, 1, 12, 20, 2, 4, 12)]
    with pytest.raises(ValueError, match=r"one level min\(n_max, num_steps\), got levels \[1, 2, 3, 4, 12\]"):
        audit_kernel_properties(meshes, 0.6, 12)
    with pytest.raises(ValueError, match=r"got levels \[\]"):
        audit_kernel_properties([], 0.6, 12)
    # meshes of 20 and of 12 steps both reach level 12
    same = [mesh for mesh in meshes if mesh.num_steps >= 12]
    report = audit_kernel_properties(same, 0.6, 12)
    assert report.n.max() == 12
    for m, mesh in enumerate(same):
        _assert_mesh_row(report, m, mesh, 0.6, 12)
    # many meshes in one call
    (meshes,) = _fuzz_meshes((0.3,), 35, 8).values()
    report = audit_kernel_properties(meshes, 0.3, 8)
    assert report.lhs.shape[0] == len(meshes)
    for m, mesh in enumerate(meshes):
        _assert_mesh_row(report, m, mesh, 0.3, 8)


def test_audit_finds_kernel_decreasing_violations_below_the_ratio_floor():
    # negative control: the fuzz's meshes with their floor at 0.8 r*(alpha)
    # break the hypothesis, and the audit must report it (not a set count)
    for alpha, meshes in _fuzz_meshes((0.1, 0.4, 0.7, 0.9), 50, 20, floor=0.8).items():
        failed = {e.prop for _, e in audit_kernel_properties(meshes, alpha, 20).violations()}
        assert "kernel_decreasing" in failed, (alpha, failed)
