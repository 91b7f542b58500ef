"""CLI harness: exit codes, output files, run metadata."""

import ast
import collections
import csv
import dataclasses
import glob
import hashlib
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from numpy.lib import introspect
from typing import get_args, get_origin, get_type_hints

import fracstep
import fracstep.experiments as xp

from fracstep.cli import _COMMANDS, EXIT_AUDIT, EXIT_CONFIG, EXIT_NONCONV, EXIT_OK, _spec_from_config, main

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _write_cfg(tmp_path, name, payload):
    # a str payload is written as it is: JSON that no dict dumps to
    path = tmp_path / name
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return str(path)


def _reject_constant(name):
    raise ValueError(f"run_meta.json is not strict JSON: it holds {name}")


def _meta(outdir):
    # strict JSON: NaN, Infinity and -Infinity are refused
    with open(outdir / "run_meta.json") as fh:
        return json.load(fh, parse_constant=_reject_constant)


def test_missing_config_file(tmp_path, capsys):
    code = main(["rstar", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_invalid_json(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    code = main(["rstar", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert "not valid JSON" in capsys.readouterr().err


def test_missing_required_key(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "cfg.json", {"seed": 1})
    code = main(["rstar", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert "alphas" in capsys.readouterr().err


def test_negative_seed_rejected(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "cfg.json", {"alphas": [0.5]})
    code = main(["rstar", "--config", cfg, "--out", str(tmp_path / "o"), "--seed", "-3"])
    assert code == EXIT_CONFIG
    assert "--seed must be nonnegative, got -3" in capsys.readouterr().err   # the flag, not a config key


def test_config_root_must_be_object(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    assert main(["rstar", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG


def test_rstar_happy_path(tmp_path):
    cfg = _write_cfg(tmp_path, "cfg.json", {"alphas": [0.1, 0.5, 0.9]})
    out = tmp_path / "out"
    code = main(["rstar", "--config", cfg, "--out", str(out)])
    assert code == EXIT_OK
    assert (out / "rstar.csv").exists()
    meta = _meta(out)
    assert meta["subcommand"] == "rstar"
    assert len(meta["config_sha256"]) == 64
    assert meta["files"] == ["rstar.csv"]
    assert meta["rows"] == 3
    assert meta["worst_residual"] < 1e-11


def test_kernels_happy_path_with_seed_override(tmp_path, capsys):
    cfg = _write_cfg(
        tmp_path, "cfg.json",
        {"alphas": [0.4], "num_meshes": 2, "n_max": 5, "dgs_histories": 3, "seed": 1},
    )
    out = tmp_path / "out"
    code = main(["kernels", "--config", cfg, "--out", str(out), "--seed", "7"])
    assert code == EXIT_OK
    assert "0 violations" in capsys.readouterr().out
    meta = _meta(out)
    assert meta["seed"] == 7          # CLI flag wins over the config value
    assert meta["violations"] == 0
    assert meta["dgs_worst_residual"] < 1e-11
    assert (out / "kernel_audit.csv").exists() and (out / "kernel_violations.csv").exists()
    assert meta["files"] == ["kernel_audit.csv", "kernel_violations.csv"]
    with open(out / "kernel_violations.csv", newline="") as fh:
        assert list(csv.reader(fh)) == [["alpha", "mesh", "n", "property", "k", "lhs", "rhs", "slack"]]
    # one summary row per property of each report: 2 meshes, n_max = 5 has all 12 properties
    with open(out / "kernel_audit.csv", newline="") as fh:
        summary = list(csv.DictReader(fh))
    spec = xp.KernelAuditSpec(alphas=(0.4,), num_meshes=2, n_max=5, dgs_histories=3, seed=7)
    result = xp.run_kernel_audit(spec)
    assert [(row["mesh"], row["property"]) for row in summary] == \
        [(str(m), p) for _, s in result.summaries for m in range(len(s.bad)) for p in s.names]
    assert len(summary) == 2 * 12
    assert sum(int(row["checks"]) for row in summary) == meta["total_checks"]
    # the history of the worst DGS residual is recorded on success too
    assert meta["dgs_worst_history"] == result.dgs_worst_history
    assert meta["dgs_worst_history"] in range(3)


def test_kernel_inequality_violation_is_an_audit_failure(tmp_path, capsys, monkeypatch):
    # one negative-slack row and one nan row: exit 2, naming the worst, both rows in kernel_violations.csv
    rows = [(2, "kernel_positive", 1, 1.0, 0.0), (3, "kernel_positive", 1, -2.0, 0.0),
            (3, "moment_ratio_gap", 2, math.nan, 1.0), (3, "moment_ratio_gap", 1, 2.0, 1.0)]
    names = ["kernel_positive", "moment_ratio_gap"]
    n, prop, k, lhs, rhs = zip(*rows)
    code = [names.index(p) for p in prop]
    monkeypatch.setattr(xp, "audit_kernel_properties", lambda meshes, order, n_max: fracstep.AuditReport(
        names, n, code, k, [lhs] * len(meshes), [rhs] * len(meshes)))
    cfg = _write_cfg(tmp_path, "cfg.json", {"alphas": [0.5], "num_meshes": 1, "n_max": 4, "dgs_histories": 1})
    out = tmp_path / "out"
    assert main(["kernels", "--config", cfg, "--out", str(out)]) == EXIT_AUDIT
    err = capsys.readouterr().err
    assert ("audit failure: 2 kernel inequality violations; the worst is alpha 0.5, mesh 0, "
            "moment_ratio_gap at n = 3, k = 2, slack nan (all rows in kernel_violations.csv)") in err
    assert _meta(out)["violations"] == 2
    with open(out / "kernel_violations.csv", newline="") as fh:
        assert list(csv.reader(fh))[1:] == [
            ["0.5", "0", "3", "kernel_positive", "1", "-2.0000000000000000e+00", "0.0000000000000000e+00",
             "-2.000000e+00"],
            ["0.5", "0", "3", "moment_ratio_gap", "2", "nan", "1.0000000000000000e+00", "nan"],
        ]


def test_kernels_quick_caps_mesh_count(tmp_path):
    # --quick must take effect even when the config sets num_meshes
    base = {"alphas": [0.4], "n_max": 5, "dgs_histories": 3, "seed": 1}
    checks = {}
    for num_meshes, flags in ((100, ["--quick"]), (20, [])):
        cfg = _write_cfg(tmp_path, f"cfg{num_meshes}.json", dict(base, num_meshes=num_meshes))
        out = tmp_path / f"out{num_meshes}"
        assert main(["kernels", "--config", cfg, "--out", str(out)] + flags) == EXIT_OK
        checks[num_meshes] = _meta(out)["total_checks"]
    assert checks[100] == checks[20] > 0


# enforce_cap in the config gives the strict hypotheses without the fixed
# --quick profile (which pins T = 5, M = 64 and is too slow here)
_TINY_COARSEN = {"alpha": 0.7, "T": 0.5, "M": 16, "epsilon": 0.3, "tau_max": 0.05,
                 "enforce_cap": True, "snapshot_times": [0.5], "seed": 3}
_TINY_ACCURACY = {"alpha": 0.5, "sigma": 2.0, "gammas": [1.0], "Ns": [4, 8], "M": 8,
                  "T": 0.5, "spatial_check": False, "seed": 0}
_TINY_KERNELS = {"alphas": [0.4], "num_meshes": 2, "n_max": 5, "dgs_histories": 3, "seed": 1}


def test_coarsen_strict_tiny(tmp_path, monkeypatch):
    real = xp.run_coarsening
    runs = []

    def kept(spec):
        runs.append(real(spec))
        return runs[-1]

    monkeypatch.setattr(xp, "run_coarsening", kept)
    cfg = _write_cfg(tmp_path, "cfg.json", _TINY_COARSEN)
    out = tmp_path / "out"
    code = main(["coarsen", "--config", cfg, "--out", str(out)])
    assert code == EXIT_OK
    meta = _meta(out)
    assert meta["dissipation_violations"] == 0
    assert meta["all_steps_cap_compliant"] is True
    assert meta["max_sup_norm"] <= 1.0 + 1e-10
    # the field stack holds phi^0..phi^N in exactly the levels it used
    assert meta["history_levels_used"] == meta["steps"] + 1
    assert "history_levels_allocated" not in meta
    assert meta["history_bytes_allocated"] == meta["history_levels_used"] * 16 * 16 * 8
    # energy.csv is the one per-step table: no mesh.csv
    assert (out / "energy.csv").exists() and not (out / "mesh.csv").exists()
    assert "mesh.csv" not in meta["files"]
    with open(out / "energy.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    sweeps = [int(row["fp_iters"]) for row in rows if row["fp_iters"]]
    assert len(sweeps) == meta["steps"]
    assert meta["fp_sweeps"] == sum(sweeps) and meta["fp_sweeps_max"] == max(sweeps)
    (traj, _), = runs
    assert [row["cap_ok"] for row in rows[1:]] == [str(int(ok)) for ok in traj.cap_ok]
    assert [row["ratio_ok"] for row in rows[1:]] == [str(int(ok)) for ok in traj.ratio_ok]
    assert meta["explained_dissipation_violations"] == 0


def test_step_over_cap_is_an_audit_failure(tmp_path, capsys):
    # a warm-up step over the cap breaks the strict run's hypothesis at run
    # time: an audit failure (2), not a config error.  At alpha = 0.1 the
    # reaction cap (1.5e-16) lies below the warm-up's first step (3.7e-7).
    payload = {"alpha": 0.1, "T": 2.0, "M": 16, "enforce_cap": True, "snapshot_times": []}
    cfg = _write_cfg(tmp_path, "cfg.json", payload)
    out = tmp_path / "o"
    assert main(["coarsen", "--config", cfg, "--out", str(out), "--seed", "5"]) == EXIT_AUDIT
    err = capsys.readouterr().err
    assert "audit failure" in err and "exceeds the cap" in err
    # the failed run still leaves its metadata: seed, config hash, no files, the error
    meta = _meta(out)
    assert meta["seed"] == 5 and meta["files"] == [] and meta["subcommand"] == "coarsen"
    assert len(meta["config_sha256"]) == 64
    assert meta["failure"].startswith("StepCapError: step 1: tau = ")
    assert os.listdir(out) == ["run_meta.json"]


def test_step_that_does_not_advance_t_is_a_solver_failure(tmp_path, capsys):
    # a vanishing tau_min and a huge eta let the controller propose, at step
    # 68, a tau below the spacing of doubles at t_n: the run fails (3) there
    # instead of reaching TimeMesh as a config error (4)
    payload = {"alpha": 0.4, "T": 0.5, "M": 8, "epsilon": 0.05, "tau_min": 1e-300, "tau_max": 0.1,
               "eta": 1e300, "snapshot_times": []}
    cfg = _write_cfg(tmp_path, "cfg.json", payload)
    out = tmp_path / "o"
    assert main(["coarsen", "--config", cfg, "--out", str(out)]) == EXIT_NONCONV
    err = capsys.readouterr().err
    assert "solver failure: step 68: tau = " in err and "does not advance t_n = " in err
    assert _meta(out)["failure"].startswith("ConvergenceError: step 68: tau = ")


def test_non_positive_weights_are_an_audit_failure(tmp_path, capsys, monkeypatch):
    # a FloatingPointError from the kernel build reaches main as exit 2, not a traceback
    def broken(spec):
        raise FloatingPointError("moment weights must be positive")

    monkeypatch.setattr(xp, "run_coarsening", broken)
    cfg = _write_cfg(tmp_path, "cfg.json", _TINY_COARSEN)
    out = tmp_path / "out"
    assert main(["coarsen", "--config", cfg, "--out", str(out)]) == EXIT_AUDIT
    assert "audit failure: moment weights must be positive" in capsys.readouterr().err
    assert _meta(out)["failure"] == "FloatingPointError: moment weights must be positive"


def test_coarsen_non_finite_energy_is_an_audit_failure(tmp_path, capsys, monkeypatch):
    # a nan energy fails the audit even at a step whose hypothesis flags are broken
    real = xp.run_coarsening

    def nan_at_last_step(spec):
        traj, cfg = real(spec)
        traj.G[-1] = math.nan                   # E_alpha = E + G is nan, E stays finite
        traj.dissipation_lhs[-1] = math.nan
        traj.cap_ok[-1] = False
        return traj, cfg

    monkeypatch.setattr(xp, "run_coarsening", nan_at_last_step)
    cfg = _write_cfg(tmp_path, "cfg.json", _TINY_COARSEN)
    out = tmp_path / "out"
    assert main(["coarsen", "--config", cfg, "--out", str(out)]) == EXIT_AUDIT
    assert "non-finite" in capsys.readouterr().err
    assert _meta(out)["dissipation_violations"] == 1
    assert _meta(out)["explained_dissipation_violations"] == 0


def test_coarsen_explained_dissipation_violation_is_a_note(tmp_path, capsys, monkeypatch):
    # a positive finite lhs on a step below the ratio floor is explained by
    # the broken hypothesis: a note on stderr and a count, not a failure
    real = xp.run_coarsening

    def positive_at_last_step(spec):
        traj, cfg = real(spec)
        traj.dissipation_lhs[-1] = 1.0
        traj.ratio_ok[-1] = False
        return traj, cfg

    monkeypatch.setattr(xp, "run_coarsening", positive_at_last_step)
    cfg = _write_cfg(tmp_path, "cfg.json", _TINY_COARSEN)
    out = tmp_path / "out"
    assert main(["coarsen", "--config", cfg, "--out", str(out)]) == EXIT_OK
    meta = _meta(out)
    err = capsys.readouterr().err
    assert f"note: step {meta['steps']}: lhs 1.000e+00 positive, hypothesis not met (ratio floor)" in err
    assert meta["explained_dissipation_violations"] == 1 and meta["dissipation_violations"] == 0


def test_non_finite_dgs_form_is_an_audit_failure(tmp_path, capsys, monkeypatch):
    # a nan G_n must not vanish in the worst residual or the least G: exit 2, naming the history
    real = xp.dgs_forms
    calls = []

    def nan_at_second_history(kern_prev, kern_curr, diffs):
        G_n, G_prev, R_n = real(kern_prev, kern_curr, diffs)
        calls.append(None)
        return (math.nan if len(calls) == 2 else G_n), G_prev, R_n

    monkeypatch.setattr(xp, "dgs_forms", nan_at_second_history)
    cfg = _write_cfg(tmp_path, "cfg.json", {"alphas": [0.5], "num_meshes": 1, "n_max": 4, "dgs_histories": 3})
    out = tmp_path / "out"
    assert main(["kernels", "--config", cfg, "--out", str(out)]) == EXIT_AUDIT
    captured = capsys.readouterr()
    assert "DGS residual nan" in captured.out
    assert "audit failure: DGS identity residual nan at history 1" in captured.err
    meta = _meta(out)                  # a nan is written as null
    assert meta["dgs_worst_residual"] is None and meta["dgs_min_G"] is None


def test_non_finite_root_residual_is_an_audit_failure(tmp_path, capsys, monkeypatch):
    # a nan residual after a finite one is still the worst
    real = xp.rstar_table

    def nan_last(alphas):
        rows = real(alphas)
        rows[-1] = dataclasses.replace(rows[-1], residual=math.nan)
        return rows

    monkeypatch.setattr(xp, "rstar_table", nan_last)
    cfg = _write_cfg(tmp_path, "cfg.json", {"alphas": [0.1, 0.5]})
    out = tmp_path / "out"
    assert main(["rstar", "--config", cfg, "--out", str(out)]) == EXIT_AUDIT
    assert "audit failure: root residual nan" in capsys.readouterr().err
    with pytest.raises(ValueError, match="holds NaN"):      # the parser _meta uses refuses a bare NaN
        json.loads('{"worst_residual": NaN}', parse_constant=_reject_constant)
    assert _meta(out)["worst_residual"] is None              # the nan is written as null


def test_non_increasing_root_table_is_an_audit_failure(tmp_path, capsys, monkeypatch):
    # r* that does not increase with alpha is an audit failure naming the
    # first such pair, and the table is still written
    monkeypatch.setattr(xp, "min_step_ratio", lambda alpha: 0.4)
    cfg = _write_cfg(tmp_path, "cfg.json", {"alphas": [0.1, 0.5]})
    out = tmp_path / "out"
    assert main(["rstar", "--config", cfg, "--out", str(out)]) == EXIT_AUDIT
    err = capsys.readouterr().err
    assert "audit failure: r* is not strictly increasing in alpha: r*(0.1) = 0.4 but r*(0.5) = 0.4" in err
    assert (out / "rstar.csv").exists()
    assert _meta(out)["files"] == ["rstar.csv"]


def test_accuracy_tiny(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "cfg.json", _TINY_ACCURACY)
    out = tmp_path / "out"
    code = main(["accuracy", "--config", cfg, "--out", str(out)])
    assert code == EXIT_OK
    assert "fitted order" in capsys.readouterr().out
    assert (out / "accuracy.csv").exists()
    meta = _meta(out)
    assert "1" in meta["orders"]
    assert meta["row_failures"] == []


def test_accuracy_with_a_spatial_floor_warns_and_exits_0(tmp_path, capsys):
    # on the tiny 8 x 8 grid the spatial error is not subdominant: the run
    # says so, records it, and still succeeds
    cfg = _write_cfg(tmp_path, "cfg.json", {**_TINY_ACCURACY, "spatial_check": True})
    out = tmp_path / "out"
    assert main(["accuracy", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert "warning: spatial error is not subdominant at this grid" in capsys.readouterr().err
    assert _meta(out)["spatial_subdominant"] is False


@pytest.mark.parametrize("overrides, code, failure", [
    # at alpha 1e-300 every row fails on nonpositive moment weights: an audit failure
    ({"alpha": 1e-300}, EXIT_AUDIT, "FloatingPointError: moment weights must be positive"),
    # no two-phase mesh exists at T = 0.51, gamma = 2 for either N: still exit 3
    ({"T": 0.51, "gammas": [2.0], "Ns": [4, 8]}, EXIT_NONCONV, "MeshError: "),
], ids=["weights", "mesh"])
def test_accuracy_without_rows_names_each_failure(tmp_path, capsys, overrides, code, failure):
    cfg = _write_cfg(tmp_path, "cfg.json", {**_TINY_ACCURACY, **overrides})
    out = tmp_path / "out"
    assert main(["accuracy", "--config", cfg, "--out", str(out)]) == code
    err = capsys.readouterr().err
    gamma = overrides.get("gammas", [1.0])[0]
    for N in (4, 8):
        assert f"row failure at gamma={gamma:g}, N={N}: {failure}" in err
    assert [f[:2] for f in _meta(out)["row_failures"]] == [[gamma, 4], [gamma, 8]]


def test_refused_moment_weights_keep_the_exit_code_under_warnings_as_errors(tmp_path):
    # at T = 1e-300 the steps' squares underflow, and the moment weights'
    # 0/0 is a nan that their positivity count refuses: no RuntimeWarning
    # comes first, so a run with every warning an error still exits 2
    cfg = _write_cfg(tmp_path, "cfg.json", {"alpha": 0.8, "sigma": 0.4, "gammas": [1.0], "Ns": [4, 8],
                                            "M": 8, "T": 1e-300})
    src = os.path.dirname(os.path.dirname(os.path.abspath(fracstep.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "fracstep.cli", "accuracy", "--config", cfg,
                           "--out", str(tmp_path / "out")], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_AUDIT, proc.stderr
    for N in (4, 8):
        assert f"row failure at gamma=1, N={N}: FloatingPointError: moment weights must be positive" in proc.stderr


def test_accuracy_without_a_finite_order_is_an_audit_failure(tmp_path, capsys):
    # at sigma = 1e300 the exact solution omega_{1+sigma}(t) underflows to 0,
    # so both errors are 0.0: no order fits them, and no log of 0 is taken
    cfg = _write_cfg(tmp_path, "cfg.json", {**_TINY_ACCURACY, "sigma": 1e300})
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["accuracy", "--config", cfg, "--out", str(out)])
    assert code == EXIT_AUDIT
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    captured = capsys.readouterr()
    assert "audit failure: gamma=1: no finite order fits the errors [0.0, 0.0]" in captured.err
    assert "gamma=1: fitted order nan" in captured.out
    meta = _meta(out)
    assert meta["orders"]["1"]["fitted_order"] is None and meta["row_failures"] == []


def test_value_error_inside_a_run_is_not_a_config_error(tmp_path, capsys, monkeypatch):
    # only reading the config and building the spec map ValueError to exit 4;
    # one raised by the run is a bug: a traceback, after run_meta.json records it
    def broken(spec):
        raise ValueError("bug inside the run")

    monkeypatch.setattr(xp, "run_coarsening", broken)
    cfg = _write_cfg(tmp_path, "cfg.json", _TINY_COARSEN)
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="bug inside the run"):
        main(["coarsen", "--config", cfg, "--out", str(out)])
    assert "config error" not in capsys.readouterr().err
    meta = _meta(out)
    assert meta["failure"] == "ValueError: bug inside the run" and meta["files"] == []


def test_accuracy_quick_drops_finest_level(tmp_path):
    cfg = _write_cfg(
        tmp_path, "cfg.json",
        {"alpha": 0.5, "sigma": 2.0, "gammas": [1.0], "Ns": [4, 8, 16], "M": 8,
         "T": 0.5, "spatial_check": False},
    )
    out = tmp_path / "out"
    code = main(["accuracy", "--config", cfg, "--out", str(out), "--quick"])
    assert code == EXIT_OK
    with open(out / "accuracy.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert [int(r[1]) for r in rows] == [4, 8]


@pytest.mark.parametrize("subcommand, payload, key", [
    ("coarsen", dict(_TINY_COARSEN, tau_mn=1e-3), "tau_mn"),
    # the warm-up and the initial data are fixed, not settable
    ("coarsen", dict(_TINY_COARSEN, init_amplitude=1e-3), "init_amplitude"),
    ("coarsen", dict(_TINY_COARSEN, warmup_T0=5e-324), "warmup_T0"),
    ("coarsen", dict(_TINY_COARSEN, warmup_N0=30), "warmup_N0"),
    ("coarsen", dict(_TINY_COARSEN, warmup_gamma=3.0), "warmup_gamma"),
    ("accuracy", dict(_TINY_ACCURACY, M=8.9), "M"),
    ("accuracy", dict(_TINY_ACCURACY, spatial_check="false"), "spatial_check"),
    ("accuracy", dict(_TINY_ACCURACY, T=math.nan), "T"),
    ("rstar", {"alphas": 5}, "alphas"),
    ("accuracy", {k: v for k, v in _TINY_ACCURACY.items() if k != "alpha"}, "alpha"),
    # an audit or a table that would check nothing is out of range
    ("kernels", dict(_TINY_KERNELS, num_meshes=0), "num_meshes"),
    ("kernels", dict(_TINY_KERNELS, dgs_histories=0), "dgs_histories"),
    ("kernels", dict(_TINY_KERNELS, n_max=1), "n_max"),
    # meshes whose weights may overflow: their non-finite rows are no kernel violations
    ("kernels", {"alphas": [0.5], "num_meshes": 4, "n_max": 500}, "n_max"),
    ("accuracy", dict(_TINY_ACCURACY, Ns=[8]), "Ns"),
    ("accuracy", dict(_TINY_ACCURACY, Ns=[8, 8]), "Ns"),
    # a repeated entry would run or audit one case twice
    ("accuracy", dict(_TINY_ACCURACY, Ns=[4, 8, 4]), "Ns"),
    ("accuracy", dict(_TINY_ACCURACY, gammas=[1.0, 1.0]), "gammas"),
    ("kernels", dict(_TINY_KERNELS, alphas=[0.4, 0.4]), "alphas"),
    ("rstar", {"alphas": [0.3, 0.5, 0.5]}, "alphas"),
    ("rstar", {"alphas": [0.5], "seed": -1}, "seed"),
    ("accuracy", dict(_TINY_ACCURACY, Ns=[]), "Ns"),
    ("accuracy", dict(_TINY_ACCURACY, gammas=[]), "gammas"),
    ("kernels", dict(_TINY_KERNELS, alphas=[]), "alphas"),
    ("rstar", {"alphas": []}, "alphas"),
    # a horizon with nothing to run
    ("accuracy", dict(_TINY_ACCURACY, T=0), "T"),
    ("coarsen", dict(_TINY_COARSEN, T=0.005, snapshot_times=[]), "T"),
    # a snapshot the run cannot reach, or two that would write one file
    ("coarsen", dict(_TINY_COARSEN, snapshot_times=[0.25, 2.0]), "snapshot_times"),
    ("coarsen", dict(_TINY_COARSEN, snapshot_times=[0.0300000001, 0.25, 0.03]), "snapshot_times"),
    # a key given twice: the last one would win, under the hash of the parsed config
    ("rstar", '{"alphas": [0.3], "alphas": [0.5]}', "alphas"),
    # a mesh the accuracy study cannot build
    ("accuracy", dict(_TINY_ACCURACY, Ns=[0, -2]), "Ns[0]"),
    ("accuracy", dict(_TINY_ACCURACY, gammas=[0.5], Ns=[8, 16]), "gammas[0]"),
    # an order out of range, or one whose offset alpha/2 underflows to 0
    ("accuracy", dict(_TINY_ACCURACY, alpha=1.0), "alpha"),
    ("coarsen", dict(_TINY_COARSEN, alpha=0.0), "alpha"),
    ("kernels", dict(_TINY_KERNELS, alphas=[0.5, 1.0]), "alphas[1]"),
    ("rstar", {"alphas": [0.5, 1.0, -0.25]}, "alphas[2]"),
    ("accuracy", dict(_TINY_ACCURACY, alpha=5e-324), "alpha"),
    ("kernels", dict(_TINY_KERNELS, alphas=[5e-324]), "alphas[0]"),
    # a grid, an interface width or a controller setting out of range
    ("coarsen", dict(_TINY_COARSEN, M=3), "M"),
    ("coarsen", dict(_TINY_COARSEN, epsilon=0), "epsilon"),
    ("coarsen", dict(_TINY_COARSEN, epsilon=1e300), "epsilon"),
    ("coarsen", dict(_TINY_COARSEN, tau_min=0), "tau_min"),
    ("coarsen", dict(_TINY_COARSEN, tau_min=0.1), "tau_min"),
    ("coarsen", dict(_TINY_COARSEN, tau_max=-1), "tau_max"),
    ("coarsen", dict(_TINY_COARSEN, eta=-1), "eta"),
    ("accuracy", dict(_TINY_ACCURACY, M=3), "M"),
    ("accuracy", dict(_TINY_ACCURACY, sigma=0), "sigma"),
    ("accuracy", dict(_TINY_ACCURACY, eps2=0), "eps2"),
    ("accuracy", dict(_TINY_ACCURACY, eps2=-1), "eps2"),
], ids=["unknown-key", "init_amplitude", "warmup_T0", "warmup_N0", "warmup_gamma", "fractional-int",
        "string-bool", "nan-float", "scalar-for-list", "missing",
        "no-meshes", "no-dgs-histories", "n_max-1", "n_max-overflows", "one-N", "repeated-N",
        "repeated-N-of-three",
        "repeated-gamma", "kernels-repeated-alpha", "rstar-repeated-alpha", "rstar-negative-seed",
        "no-Ns", "no-gammas",
        "kernels-no-alphas", "rstar-no-alphas", "accuracy-T-0", "coarsen-T-in-warm-up",
        "snapshot-past-T", "snapshot-names-collide", "repeated-key", "non-positive-N", "gamma-below-1",
        "accuracy-alpha-1", "coarsen-alpha-0",
        "kernels-alpha-1", "rstar-alpha-negative", "accuracy-alpha-underflows", "kernels-alpha-underflows",
        "coarsen-M-3", "epsilon-0", "epsilon-square-overflows", "tau_min-0", "tau_min-over-tau_max",
        "tau_max-negative", "eta-negative", "accuracy-M-3", "sigma-0", "eps2-0", "eps2-negative"])
def test_bad_config_exits_4_naming_the_key(tmp_path, capsys, subcommand, payload, key):
    cfg = _write_cfg(tmp_path, "cfg.json", payload)     # json writes nan as NaN, which it reads back
    assert main([subcommand, "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert f"'{key}'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()                # rejected before any output is made


@pytest.mark.parametrize("out", ["taken", "taken/sub"], ids=["a-file", "under-a-file"])
def test_out_that_cannot_be_a_directory_exits_4(tmp_path, capsys, out):
    # --out names an existing file, or a path under one: exit 4 naming
    # --out and the path, not a traceback from makedirs
    cfg = _write_cfg(tmp_path, "cfg.json", {"alphas": [0.5]})
    (tmp_path / "taken").write_text("")
    out = str(tmp_path / out)
    assert main(["rstar", "--config", cfg, "--out", out]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"config error: --out {out} cannot be made a directory" in err
    assert (tmp_path / "taken").read_text() == ""


def test_strict_tau_min_over_tau_max_is_a_config_error(tmp_path, capsys):
    # the step cap (5.2e-3 here) sits below tau_max, and must not let
    # tau_min > tau_max through in a strict run
    payload = {"alpha": 0.4, "T": 0.5, "M": 16, "tau_min": 0.2, "tau_max": 0.1,
               "enforce_cap": True, "snapshot_times": []}
    cfg = _write_cfg(tmp_path, "cfg.json", payload)
    out = tmp_path / "o"
    assert main(["coarsen", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert "config key 'tau_min' must lie in (0, tau_max = 0.1]" in capsys.readouterr().err
    assert not out.exists()                             # rejected before any output is made


_FUZZ_FLOATS = (0.0, -1.0, 1e-300, 1e300, 5e-324, 1.0, 1.0 - 1e-12, 1e-12)
_FUZZ_INTS = (0, 1, 2, 3, -1)
_FUZZ_BASES = {"coarsen": _TINY_COARSEN, "accuracy": _TINY_ACCURACY, "kernels": _TINY_KERNELS,
               "rstar": {"alphas": [0.5]}}


def _config_keys(subcommand):
    """Each config key of subcommand and its type: its spec's fields, plus the int "seed"."""
    return {**get_type_hints(_COMMANDS[subcommand][0]), "seed": int}


def _fuzz_cases():
    # each number and list key of each subcommand's config, set one at a time
    # on its tiny config: a list is empty or holds one such value
    for subcommand, base in _FUZZ_BASES.items():
        for key, kind in _config_keys(subcommand).items():
            entry = get_args(kind)[0] if get_origin(kind) is tuple else kind
            if entry is bool:
                continue
            values = _FUZZ_FLOATS if entry is float else _FUZZ_INTS
            if entry is not kind:
                values = [[]] + [[v] for v in values]
            for value in values:
                if (subcommand, key, value) != ("coarsen", "T", 1e300):       # a horizon that runs on
                    yield subcommand, key, dict(base, **{key: value})


def test_config_fuzz_keeps_the_exit_code_contract(tmp_path, capsys):
    # every case exits 0, 2, 3 or 4 with no exception escaping, and an exit 4
    # names a quoted config key and leaves no output directory.  The suite
    # makes every RuntimeWarning an error (pyproject.toml), so a case that
    # warns on its way to an exit code escapes as one and counts as broken
    cases = list(_fuzz_cases())
    assert len(cases) == 166
    broken = []
    for i, (subcommand, key, payload) in enumerate(cases):
        cfg = _write_cfg(tmp_path, f"cfg{i}.json", payload)
        out = tmp_path / f"o{i}"
        capsys.readouterr()
        try:
            code = main([subcommand, "--config", cfg, "--out", str(out)])
        except Exception as exc:
            broken.append((subcommand, key, payload[key], f"{type(exc).__name__}: {exc}"))
            continue
        err = capsys.readouterr().err
        named = re.search(r"config key '(\w+)", err)
        if code not in (EXIT_OK, EXIT_AUDIT, EXIT_NONCONV, EXIT_CONFIG):
            broken.append((subcommand, key, payload[key], f"exit {code}"))
        elif code == EXIT_CONFIG and not (named and named[1] in _config_keys(subcommand)
                                          and not out.exists()):
            broken.append((subcommand, key, payload[key], f"exit 4, output {out.exists()}: {err.strip()}"))
    assert broken == []


def test_spec_from_config_fills_defaults_and_seed():
    # ints are taken as floats in float fields, lists become tuples, and the
    # seed argument (the config seed or --seed) goes to the spec's seed field
    spec = _spec_from_config(xp.CoarsenSpec, {"alpha": 0.4, "T": 2, "M": 10,
                                              "snapshot_times": [1, 2], "seed": 5}, 9)
    assert spec == xp.CoarsenSpec(alpha=0.4, T=2.0, M=10, snapshot_times=(1.0, 2.0), seed=9)
    assert type(spec.T) is float and type(spec.snapshot_times[0]) is float
    assert _spec_from_config(xp.RstarSpec, {"alphas": [0.5], "seed": 1}, 1) == xp.RstarSpec((0.5,))


def _perfbench(name):
    # perfbench/<name>.py, loaded by path: it is no package, and nothing in it runs on import
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", os.path.join(REPO, "perfbench", f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module      # dataclass looks its module up there while the file runs
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_shipped_and_benchmark_configs_build_specs():
    configs = []
    for path in sorted(glob.glob(os.path.join(REPO, "configs", "*.json"))):
        with open(path) as fh:
            configs.append((os.path.basename(path).split("_")[0].removesuffix(".json"), json.load(fh)))
    workloads = _perfbench("workloads")
    for w in workloads.WORKLOADS:
        for size in ("full", "tiny"):
            configs.append((workloads.SUBCOMMAND[w], workloads.make_config(w, 0, size)))
    assert len(configs) == 5 + 6
    for subcommand, cfg in configs:
        spec_cls, _ = _COMMANDS[subcommand]
        spec = _spec_from_config(spec_cls, cfg, 0)
        assert isinstance(spec, spec_cls)


def test_every_perfbench_hook_target_resolves():
    # the bench reports a missing hook target only as a layer that reads zero,
    # so a refactor that drops a hooked name (such as fracstep.audits.build_kernels,
    # imported there for the hook alone) must fail here
    hooks = _perfbench("tracer").HOOKS
    assert len(hooks) > 0
    missing = [h.target for h in hooks if not callable(getattr(importlib.import_module(h.module), h.attr, None))]
    assert missing == []


def _call_counter(calls, target, fn):
    def counted(*args, **kwargs):
        calls[target] += 1
        return fn(*args, **kwargs)
    return counted


def test_every_perfbench_hook_target_is_called(tmp_path, monkeypatch):
    # a hooked name that a refactor stops calling still resolves, and its
    # traced layer silently reads 0: run each workload's tiny config with a
    # call counter on every hook target
    hooks = _perfbench("tracer").HOOKS
    workloads = _perfbench("workloads")
    calls = collections.Counter()
    for hook in hooks:
        module = importlib.import_module(hook.module)
        monkeypatch.setattr(module, hook.attr, _call_counter(calls, hook.target, getattr(module, hook.attr)))
    per_workload = {}
    for w in workloads.WORKLOADS:
        before = calls.copy()
        cfg = _write_cfg(tmp_path, f"{w}.json", workloads.make_config(w, 0, "tiny"))
        assert main([workloads.SUBCOMMAND[w], "--config", cfg, "--out", str(tmp_path / w)]) == EXIT_OK
        per_workload[w] = calls - before
    # fracstep.audits imports build_kernels only for its hook
    uncalled = [h.target for h in hooks if calls[h.target] == 0]
    assert [t for t in uncalled if t != "fracstep.audits.build_kernels"] == []
    # a schedule's run appends its controller's steps to one node vector and
    # builds one TimeMesh, after its last step
    coarsen = per_workload["coarsen-a04"]
    assert coarsen["fracstep.solver.TimeMesh"] == 1 < coarsen["fracstep.solver.adaptive_next_step"]
    # every kernel pass goes through the one builder: one pass per DGS
    # history (levels n - 1 and n), and one per run of a short fixed mesh
    # (two Ns and the spatial rerun)
    assert per_workload["kernels-fuzz"]["fracstep.experiments.build_kernels"] == 5
    assert per_workload["accuracy-a08"]["fracstep.solver.build_kernels"] == 3


def _golden_key():
    """What the output bits rest on: the numpy version, and the SIMD target
    that runs each float64 loop the kernels and the fields evaluate."""
    loops = introspect.opt_func_info(func_name="^(power|exp|log|log1p|expm1)$", signature="float64")
    return {"numpy": np.__version__,
            "float64 loops": {f"{name}({sig})": target["current"]
                              for name, sigs in sorted(loops.items()) for sig, target in sigs.items()}}


def test_outputs_keep_their_golden_digests(tmp_path, coarsen_runs):
    # the benchmark's three workloads at two seeds and the shipped kernel
    # audit, through main, and the strict quick coarsen's energy.csv at
    # three alphas, against tests/golden_outputs.json (README "Tests")
    with open(os.path.join(REPO, "tests", "golden_outputs.json")) as fh:
        golden = json.load(fh)
    key = _golden_key()
    if key != golden["key"]:
        pytest.skip(f"digests recorded for {golden['key']}, this machine has {key}")
    workloads = _perfbench("workloads")
    runs = [(f"{w} --seed {seed}", workloads.SUBCOMMAND[w], workloads.make_config(w, seed), seed)
            for w in workloads.WORKLOADS for seed in (0, 11)]
    with open(os.path.join(REPO, "configs", "kernels.json")) as fh:
        runs.append(("configs/kernels.json --seed 0", "kernels", json.load(fh), 0))
    got = {}
    for i, (name, subcommand, payload, seed) in enumerate(runs):
        cfg, out = _write_cfg(tmp_path, f"cfg{i}.json", payload), str(tmp_path / f"o{i}")
        assert main([subcommand, "--config", cfg, "--out", out, "--seed", str(seed)]) == EXIT_OK, name
        got[name] = workloads.digest_outputs(out)
    trajectories, _ = coarsen_runs
    for alpha in (0.4, 0.7, 0.9):
        out = tmp_path / f"coarsen{alpha}"
        out.mkdir()
        xp.write_coarsening_outputs(out, xp.CoarsenSpec(alpha=alpha, seed=7).quick(), trajectories[alpha])
        got[f"coarsen --quick alpha {alpha} --seed 7 energy.csv"] = \
            hashlib.sha256((out / "energy.csv").read_bytes()).hexdigest()
    assert got == golden["digests"]


def test_unknown_subcommand_rejected(tmp_path):
    with pytest.raises(SystemExit):
        main(["frobnicate", "--config", "x.json", "--out", str(tmp_path)])


def test_cli_import_leaves_scipy_integrate_unloaded():
    # scipy is a test-only dependency, for the quadrature oracle in tests/oracles.py;
    # no CLI path pays for any scipy import
    src = os.path.dirname(os.path.dirname(os.path.abspath(fracstep.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, fracstep.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    assert proc.stdout.strip() == "[]"


def test_every_subcommand_runs_without_scipy(tmp_path):
    # the scipy-free claim holds for whole runs, not only for the import:
    # with scipy made unimportable, each subcommand still exits 0
    src = os.path.dirname(os.path.dirname(os.path.abspath(fracstep.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    coarsen = dict(_TINY_COARSEN, M=8, T=0.05, enforce_cap=False, snapshot_times=[])
    runs = [
        ["rstar", "--config", os.path.join(REPO, "configs", "rstar.json")],
        ["kernels", "--config", os.path.join(REPO, "configs", "kernels.json"), "--quick"],
        ["accuracy", "--config", _write_cfg(tmp_path, "accuracy.json", _TINY_ACCURACY)],
        ["coarsen", "--config", _write_cfg(tmp_path, "coarsen.json", coarsen)],
    ]
    runs = [argv + ["--out", str(tmp_path / argv[0])] for argv in runs]
    code = ("import sys\n"
            "sys.modules['scipy'] = None    # every scipy import now raises ImportError\n"
            "from fracstep.cli import main\n"
            f"print('exit codes', [main(argv) for argv in {runs!r}])\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "exit codes [0, 0, 0, 0]", proc.stdout + proc.stderr


def test_every_module_imports_without_scipy():
    # the package holds only the run path: with scipy unimportable, every
    # module of fracstep still imports
    src = os.path.dirname(os.path.dirname(os.path.abspath(fracstep.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import importlib, pkgutil, sys\n"
            "sys.modules['scipy'] = None    # every scipy import now raises ImportError\n"
            "import fracstep\n"
            "names = sorted(m.name for m in pkgutil.iter_modules(fracstep.__path__))\n"
            "for name in names:\n"
            "    importlib.import_module('fracstep.' + name)\n"
            "print(names)\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    names = proc.stdout.strip().splitlines()[-1]
    for name in ("audits", "cli", "energy", "experiments", "grid", "kernels", "mesh", "solver", "special"):
        assert repr(name) in names, names


def test_no_module_imports_a_name_it_never_uses():
    # an imported name that its module never reads is dead code, in the
    # package and in the tests alike; the only exceptions are the package's
    # re-exports (its __all__) and the name a perfbench hook reads through
    # its module
    hook_only = {("audits", "build_kernels")}      # perfbench/tracer.py hooks fracstep.audits.build_kernels
    unused = []
    package = sorted(glob.glob(os.path.join(os.path.dirname(fracstep.__file__), "*.py")))
    for path in package + sorted(glob.glob(os.path.join(REPO, "tests", "*.py"))):
        module = os.path.basename(path)[:-3]
        with open(path) as fh:
            tree = ast.parse(fh.read())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if module == "__init__":
            used |= set(fracstep.__all__)
        unused += [f"{module}.py:{line} {name}" for name, line in imported.items()
                   if name not in used and (module, name) not in hook_only]
    assert unused == []


# numpy entry points that may hand their work to BLAS or LAPACK
_BLAS_NAMES = {"linalg", "dot", "matmul", "vdot", "inner", "tensordot", "vecdot", "polyfit"}


def test_no_module_calls_blas_or_lapack():
    # a run's bits must not depend on the BLAS build or its thread count, so
    # the package calls neither BLAS nor LAPACK: no np.linalg, no @, no
    # dot-like product, no polyfit, and no einsum given optimize= (which may
    # contract through tensordot)
    found = []
    for path in sorted(glob.glob(os.path.join(os.path.dirname(fracstep.__file__), "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            where = f"{os.path.basename(path)}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Attribute) and node.attr in _BLAS_NAMES:
                found.append(f"{where} .{node.attr}")
            elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                found.append(f"{where} @")
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [getattr(node, "module", None) or ""] + [alias.name for alias in node.names]
                found += [f"{where} import {name}" for name in names
                          if _BLAS_NAMES & set(name.split("."))]
            elif isinstance(node, ast.Call) and any(kw.arg == "optimize" for kw in node.keywords):
                found.append(f"{where} optimize=")
    assert found == []


def test_every_exported_name_resolves():
    # a stale __all__ entry would otherwise fail only on `from fracstep import *`
    assert [name for name in fracstep.__all__ if not hasattr(fracstep, name)] == []
