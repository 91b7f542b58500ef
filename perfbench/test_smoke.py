"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Not part of the tier-1 suite (pytest's testpaths is ``tests``).
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)


def _bench(*args):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--size", "tiny",
                           "--seconds", "1", "--seed", "3", *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


@pytest.mark.parametrize("workload", wl.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_declared_metric_appears_with_its_unit(workload, trace):
    code, result, stdout = _bench("--workload", workload, "--trace", str(trace))
    assert code == 0, stdout
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: v["unit"] for name, v in result["metrics"].items()}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    if trace and workload == "kernels-fuzz":
        for name, v in result["metrics"].items():
            if name.split(".")[0] in ("solver", "grid", "energy"):
                assert v["value"] == 0, name


def _tiny_coarsen(tmp_path):
    from fracstep import cli

    cfg = wl.make_config("coarsen-a04", 3, "tiny")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    code = cli.main(["coarsen", "--config", str(path), "--out", str(out), "--seed", "3"])
    return cfg, code, out


def test_corrupted_reference_trips_the_gate(tmp_path):
    cfg, code, out = _tiny_coarsen(tmp_path)
    assert wl.check_outputs("coarsen-a04", cfg, code, out) == []
    recorded = wl.reference_values("coarsen-a04", out)
    assert wl.check_reference("coarsen-a04", out, recorded) == []
    for key, bad in (("final_E", recorded["final_E"] * (1 + 1e-9)),
                     ("steps", recorded["steps"] + 1)):
        errors = wl.check_reference("coarsen-a04", out, {**recorded, key: bad})
        assert len(errors) == 1 and key in errors[0]


def test_output_gate_rejects_a_broken_run(tmp_path):
    cfg, code, out = _tiny_coarsen(tmp_path)
    assert wl.check_outputs("coarsen-a04", cfg, 2, out) == ["exit code 2"]
    meta = wl.read_meta(out)
    (out / "run_meta.json").write_text(json.dumps({**meta, "max_sup_norm": 1.5}))
    assert any("sup norm" in e for e in wl.check_outputs("coarsen-a04", cfg, 0, out))


def test_missing_hook_target_is_reported_absent(tmp_path):
    hooks = tracing.HOOKS + (tracing.Hook("fracstep.solver", "no_such_history_sum",
                                          "kernels.history"),)
    tracer = tracing.Tracer()
    undo, absent = tracing.install(tracer, hooks)
    try:
        cfg, code, out = _tiny_coarsen(tmp_path)
    finally:
        tracing.uninstall(undo)
    assert code == 0
    assert absent == ["fracstep.solver.no_such_history_sum"]
    layers = tracing.layer_metrics(tracer, absent)
    assert layers["trace.notes"] == [
        "hook target fracstep.solver.no_such_history_sum is absent; its layer reads zero"]
    assert layers["solver.steps"] > 0 and layers["kernels.history_terms"] > 0


def test_layer_without_targets_reads_zero():
    tracer = tracing.Tracer()
    hooks = tuple(h for h in tracing.HOOKS if h.span != "kernels.history")
    missing = [tracing.Hook("fracstep.solver", "renamed_history_sum", "kernels.history")]
    undo, absent = tracing.install(tracer, hooks + tuple(missing))
    tracing.uninstall(undo)
    layers = tracing.layer_metrics(tracer, absent)
    assert absent == ["fracstep.solver.renamed_history_sum"]
    assert layers["kernels.history_s"] == 0.0 and layers["kernels.history_terms"] == 0


def test_counter_that_no_longer_fits_is_reported():
    tracer = tracing.Tracer()
    traced = tracer.wrap("kernels.history", lambda weights, diffs: 0.0, tracing._count_history)
    traced(None, [])
    calls, _, _ = tracer.span_times()
    assert calls == {"kernels.history": 1}
    assert any("kernels.history: TypeError" in n
               for n in tracing.layer_metrics(tracer, [])["trace.notes"])


def test_self_times_never_exceed_the_wall():
    tracer = tracing.Tracer()
    root = tracer.open(tracing.ROOT_SPAN)
    for _ in range(3):
        outer = tracer.open("solver.step")
        inner = tracer.open("grid.laplacian")
        tracer.close(inner)
        tracer.close(outer)
    tracer.close(root)
    calls, self_s, incl_s = tracer.span_times()
    assert calls == {tracing.ROOT_SPAN: 1, "solver.step": 3, "grid.laplacian": 3}
    assert sum(self_s.values()) == pytest.approx(incl_s[tracing.ROOT_SPAN], rel=1e-9)
    assert self_s["solver.step"] <= incl_s["solver.step"]
