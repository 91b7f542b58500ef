"""Experiment drivers: order fits, accuracy tables, coarsening runs, audits."""

import csv
import gc
import math
import os
import tracemalloc
import types
import warnings
from dataclasses import replace

import numpy as np
import pytest

import fracstep.experiments as exps
import fracstep.solver as solver
from fracstep.audits import AuditReport, AuditSummary, audit_kernel_properties
from fracstep.experiments import (
    AccuracySpec,
    CoarsenSpec,
    KernelAuditSpec,
    accuracy_table,
    fit_order,
    random_initial_field,
    rstar_table,
    run_coarsening,
    run_kernel_audit,
    write_accuracy_csv,
    write_coarsening_outputs,
    write_kernel_audit_csv,
    write_rstar_csv,
)
from fracstep.grid import Grid2D, load_raw
from fracstep.kernels import as_order
from fracstep.mesh import TimeMesh, build_uniform_mesh
from fracstep.solver import SolveTrajectory


def test_fit_order_exact_power_law():
    Ns = [10, 20, 40, 80]
    errs = [3.0 * N**-1.7 for N in Ns]
    order, resid = fit_order(Ns, errs)
    assert order == pytest.approx(1.7, rel=1e-12)
    assert resid < 1e-12


def test_fit_order_is_nan_without_a_finite_positive_error():
    # an underflowed (0), negative or non-finite error has no log: no fit, and no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for errs in ([0.0, 0.0], [0.1, 0.0], [-0.1, 0.05], [math.inf, 0.1], [0.1, math.nan]):
            order, resid = fit_order([4, 8], errs)
            assert math.isnan(order) and math.isnan(resid), errs


def test_fit_order_needs_two_levels():
    with pytest.raises(ValueError):
        fit_order([10], [0.1])


def test_fit_order_needs_distinct_levels():
    # the closed form divides by the spread of log N
    for Ns in ([8, 8], [4, 8, 4]):
        with pytest.raises(ValueError, match="repeated"):
            fit_order(Ns, [0.1] * len(Ns))


def _polyfit_order(Ns, errs):
    # the LAPACK least-squares line through the logs, and its rms misfit
    x, y = np.log(np.asarray(Ns, dtype=float)), np.log(errs)
    line = np.polyfit(x, y, 1)
    resid = y - np.polyval(line, x)
    return -line[0], math.sqrt(np.mean(resid * resid))


def test_fit_order_matches_polyfit():
    rng = np.random.default_rng(8)
    for Ns in ([10, 20, 40], [20, 40, 80, 160], [3, 7, 50, 51, 400], [1.0 / g for g in (0.1, 0.05, 0.025)]):
        for rate in (0.47, 1.7, 2.0):
            exact = [3.0 * N**-rate for N in Ns]
            order, resid = fit_order(Ns, exact)
            assert order == pytest.approx(_polyfit_order(Ns, exact)[0], rel=1e-12) and resid < 1e-12
            noisy = [e * math.exp(rng.normal(0.0, 0.2)) for e in exact]
            want = _polyfit_order(Ns, noisy)
            assert fit_order(Ns, noisy) == pytest.approx(want, rel=1e-12), (Ns, rate)


def _tiny_accuracy_spec(**kw):
    base = dict(
        alpha=0.5, sigma=2.0, gammas=(1.0,), Ns=(4, 8),
        M=8, eps2=0.1, T=0.5, seed=0, spatial_check=False,
    )
    base.update(kw)
    return AccuracySpec(**base)


def test_accuracy_table_structure():
    table = accuracy_table(_tiny_accuracy_spec())
    assert len(table.rows) == 2
    assert table.failures == []
    assert [r.N for r in table.rows] == [4, 8]
    assert all(r.error > 0 and math.isfinite(r.error) for r in table.rows)
    order, resid = table.orders[1.0]
    assert math.isfinite(order) and math.isfinite(resid)


def test_accuracy_table_spatial_check():
    table = accuracy_table(_tiny_accuracy_spec(spatial_check=True))
    assert table.spatial_estimate is not None and table.spatial_estimate >= 0.0
    assert isinstance(table.spatial_ok, bool)


def test_manufactured_profile_is_evaluated_once_per_grid(monkeypatch):
    # every force and exact-solution call reuses one read-only sin x sin y
    # per grid: here the M = 8 table grid and the M = 16 spatial check
    calls = []
    real = Grid2D.field_from_function

    def counted(grid, fn):
        calls.append(grid.M)
        return real(grid, fn)

    monkeypatch.setattr(Grid2D, "field_from_function", counted)
    solver._sin_profile.cache_clear()
    table = accuracy_table(_tiny_accuracy_spec(spatial_check=True))
    assert len(table.rows) == 2
    assert calls == [8, 16]
    with pytest.raises(ValueError):
        solver._sin_profile(Grid2D(M=8, L=2.0 * np.pi))[0, 0] = 1.0


def test_accuracy_table_captures_row_failures():
    # this horizon/grading pair admits no valid two-phase mesh at either N
    # (N0 >= N), so each row aborts and is reported instead of raising
    table = accuracy_table(
        _tiny_accuracy_spec(T=0.51, gammas=(2.0,), Ns=(40, 80))
    )
    assert table.rows == []
    assert [(gamma, N) for gamma, N, _ in table.failures] == [(2.0, 40), (2.0, 80)]
    assert math.isnan(table.orders[2.0][0])


def test_accuracy_table_lets_programming_errors_escape(monkeypatch):
    # only the solver's own failures become row failures; a TypeError is a bug
    def broken(*args):
        raise TypeError("unsupported operand")

    monkeypatch.setattr(exps, "_solution_error", broken)
    with pytest.raises(TypeError, match="unsupported operand"):
        accuracy_table(_tiny_accuracy_spec())


def test_accuracy_csv(tmp_path):
    table = accuracy_table(_tiny_accuracy_spec())
    path = tmp_path / "acc.csv"
    write_accuracy_csv(path, table)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["gamma", "N", "error", "fitted_order"]
    assert len(rows) == 3
    assert float(rows[1][2]) == pytest.approx(table.rows[0].error, rel=1e-15)


def test_random_initial_field_deterministic_and_bounded():
    g = Grid2D(M=16, L=2.0 * math.pi)
    a = random_initial_field(g, seed=5)
    b = random_initial_field(g, seed=5)
    c = random_initial_field(g, seed=6)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.max(np.abs(a)) <= 1e-3


def _tiny_coarsen_spec():
    return CoarsenSpec(
        alpha=0.7, T=0.5, M=16, epsilon=0.3,
        tau_min=1e-3, tau_max=0.05, eta=1e3,
        enforce_cap=True, snapshot_times=(0.5,), seed=3,
    )


def test_quick_profile_tightens_hypotheses():
    spec = CoarsenSpec(alpha=0.4, snapshot_times=(1.0, 10.0, 30.0, 50.0))
    q = spec.quick()
    assert q.T == 5.0 and q.M == 64 and q.enforce_cap
    assert q.snapshot_times == (1.0,)
    assert q.alpha == spec.alpha


def test_coarsening_run_strict_mode():
    spec = _tiny_coarsen_spec()
    traj, cfg = run_coarsening(spec)
    assert cfg.enforce_bound
    assert traj.mesh.horizon == pytest.approx(spec.T, abs=1e-12)
    assert np.all(traj.sup_norms <= 1.0 + 1e-10)
    assert np.all(traj.cap_ok)
    assert traj.level_at(0.5) == traj.num_steps
    e_alpha = traj.E_alpha.tolist()
    assert all(b <= a + 1e-10 * (1 + abs(a)) for a, b in zip(e_alpha, e_alpha[1:]))


def test_coarsening_outputs(tmp_path):
    # a repeated snapshot time is written once
    spec = replace(_tiny_coarsen_spec(), snapshot_times=(0.5, 0.25, 0.5))
    traj, _ = run_coarsening(spec)
    paths = write_coarsening_outputs(tmp_path, spec, traj)
    assert [os.path.basename(p) for p in paths] == ["energy.csv", "snapshot_t0.25.pgm", "snapshot_t0.25.raw",
                                                   "snapshot_t0.5.pgm", "snapshot_t0.5.raw"]
    names = {p.split("/")[-1] for p in map(str, paths)}
    assert {"energy.csv", "snapshot_t0.5.pgm", "snapshot_t0.5.raw"} <= names
    # energy.csv is the one per-step table: no mesh.csv beside it
    assert "mesh.csv" not in names and not (tmp_path / "mesh.csv").exists()
    snap, _ = load_raw(tmp_path / "snapshot_t0.5.raw")
    assert np.array_equal(snap, traj.fields[traj.level_at(0.5)])
    for p in paths:
        assert len(open(p, "rb").read()) > 0
    with open(tmp_path / "energy.csv", newline="") as fh:
        header = next(csv.reader(fh))
        fh.seek(0)
        rows = list(csv.DictReader(fh))
    assert header[0] == "n" and "E_alpha" in header
    assert [row["cap_ok"] for row in rows[1:]] == [str(int(ok)) for ok in traj.cap_ok]
    assert [row["ratio_ok"] for row in rows[1:]] == [str(int(ok)) for ok in traj.ratio_ok]
    assert rows[0]["cap_ok"] == rows[0]["ratio_ok"] == ""


def test_energy_csv_layout(tmp_path):
    mesh = build_uniform_mesh(1.0, 2)
    traj = SolveTrajectory(
        mesh=mesh, fields=np.zeros((3, 4, 4)), sup_norms=np.array([0.9, 0.91, 0.92]),
        E=np.array([2.0, 1.9, 1.8]), G=np.zeros(3), dissipation_lhs=np.array([-1e-4, -2e-4]),
        fp_iters=np.array([3, 2]), cap=0.6, cap_ok=np.array([True, False]),
        ratio_ok=np.array([True, False]),
    )
    spec = CoarsenSpec(alpha=0.5, T=1.0, M=4, snapshot_times=())
    assert write_coarsening_outputs(tmp_path, spec, traj) == [str(tmp_path / "energy.csv")]
    with open(tmp_path / "energy.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "n", "t_n", "tau_n", "E", "E_alpha", "G_term", "dissipation_lhs", "max_norm", "fp_iters",
        "r_n", "cap_ok", "ratio_ok",
    ]
    assert rows[1][2] == "" and rows[1][6] == "" and rows[1][8] == ""
    assert float(rows[2][2]) == 0.5
    assert float(rows[2][6]) == -1e-4
    assert rows[2][8] == "3"
    # repr round-trip keeps full precision
    assert float(rows[3][3]) == 1.8
    # r_n from n = 2, the flags from n = 1, as 1 or 0
    assert [row[9:] for row in rows[1:]] == [["", "", ""], ["", "1", "1"], ["1.0", "0", "0"]]


def test_kernel_audit_fuzz_small():
    spec = KernelAuditSpec(alphas=(0.3, 0.7), num_meshes=3, n_max=6, dgs_histories=5, seed=1)
    result = run_kernel_audit(spec)
    assert result.violations == []
    assert result.total_checks > 0
    assert [(alpha, len(summary.bad)) for alpha, summary in result.summaries] == [(0.3, 3), (0.7, 3)]
    assert result.dgs_residual < 1e-11
    assert result.dgs_min_G >= 0.0
    assert result.dgs_min_R >= 0.0


def test_kernel_audit_csv_is_a_summary_and_its_violations(tmp_path):
    spec = KernelAuditSpec(alphas=(0.5,), num_meshes=2, n_max=4, dgs_histories=1, seed=2)
    result = run_kernel_audit(spec)
    summary_path, violations_path = write_kernel_audit_csv(tmp_path, result)
    with open(summary_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:5] == ["alpha", "mesh", "property", "checks", "violations"]
    assert len(rows) == 1 + sum(len(s.names) * len(s.bad) for _, s in result.summaries) == 1 + 2 * 12
    assert sum(int(row[3]) for row in rows[1:]) == result.total_checks
    with open(violations_path, newline="") as fh:
        assert list(csv.reader(fh)) == [["alpha", "mesh", "n", "property", "k", "lhs", "rhs", "slack"]]


def _peak_bytes(spec):
    tracemalloc.start()
    try:
        run_kernel_audit(spec)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_kernel_audit_memory_does_not_grow_with_the_alphas():
    # each alpha's rows are folded away before the next alpha is audited, so
    # nine alphas peak near one (a run that kept every report peaks near 5x)
    spec = KernelAuditSpec(num_meshes=40, n_max=20, dgs_histories=1)
    one = replace(spec, alphas=spec.alphas[:1])
    run_kernel_audit(one)           # untimed warm-up: caches and first-call allocations
    assert len(spec.alphas) == 9
    assert _peak_bytes(spec) <= 2.0 * _peak_bytes(one)


def _reachable(root):
    # every object reachable from root through references and array bases,
    # without entering types, modules or functions
    seen, stack = {}, [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen[id(obj)] = obj
        stack.extend(gc.get_referents(obj))
        if isinstance(obj, np.ndarray) and obj.base is not None:
            stack.append(obj.base)
    return list(seen.values())


def test_kernel_audit_n_max_stops_where_a_fuzzed_step_could_overflow():
    # the largest step random_ratio_mesh can draw, 4^(n-1), keeps the moment
    # series' cube of half a step finite up to _FUZZ_N_MAX, and no further
    limit = exps._FUZZ_N_MAX
    assert math.isfinite((0.5 * 4.0 ** (limit - 1)) ** 3)
    with pytest.raises(OverflowError):
        (0.5 * 4.0**limit) ** 3
    assert KernelAuditSpec(n_max=limit).n_max == limit
    with pytest.raises(ValueError, match="'n_max'"):
        KernelAuditSpec(n_max=limit + 1)
    # the mesh of largest steps, with its first step 1 and every ratio 4,
    # audits at the limit with every row finite and no violation
    steps = 4.0 ** np.arange(limit)
    mesh = TimeMesh(np.concatenate([[0.0], np.cumsum(steps)]))
    for alpha in (0.1, 0.5, 0.9):
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            report = audit_kernel_properties([mesh], as_order(alpha), limit)
        assert np.isfinite(report.lhs).all() and np.isfinite(report.rhs).all()
        assert not report.violations(), alpha


def test_kernel_audit_result_holds_no_rows():
    spec = KernelAuditSpec(alphas=(0.3, 0.7), num_meshes=5, n_max=12, dgs_histories=2)
    result = run_kernel_audit(spec)
    assert result.violations == [] and result.total_checks == 2 * 5 * 661     # cached on the result too
    reachable = _reachable(result)
    assert sum(isinstance(obj, AuditSummary) for obj in reachable) == 2
    assert not [obj for obj in reachable if isinstance(obj, AuditReport)]
    # nothing larger than one (meshes, properties) column per alpha
    sizes = [obj.size for obj in reachable if isinstance(obj, np.ndarray)]
    assert sizes and max(sizes) <= spec.num_meshes * 12


def test_rstar_table_monotone_with_tight_residuals(tmp_path):
    rows = rstar_table([0.1, 0.5, 0.9])
    assert [r.alpha for r in rows] == [0.1, 0.5, 0.9]
    vals = [r.r_star for r in rows]
    assert vals[0] < vals[1] < vals[2]
    assert all(r.residual < 1e-11 for r in rows)
    path = tmp_path / "rstar.csv"
    write_rstar_csv(path, rows)
    with open(path, newline="") as fh:
        out = list(csv.reader(fh))
    assert out[0] == ["alpha", "r_star", "residual"]
    assert out[2][1] == f"{vals[1]:.12f}"
