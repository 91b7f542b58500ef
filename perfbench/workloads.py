"""The benchmark's workloads: generated configs, output gates and digests.

Each workload is one `fracstep` subcommand with a config built here from
the benchmark seed.  Why these three:

* ``coarsen-a04``: strict coarsening at alpha = 0.4, whose step cap forces
  hundreds of history levels, so the O(n)-per-step history convolution, the
  quadratic G of E_alpha and the per-step TimeMesh rebuild dominate.  It also
  covers the adaptive controller and snapshot output.
* ``accuracy-a08``: manufactured-solution error table shaped like
  ``configs/accuracy_a08.json``; short histories on fixed two-phase meshes,
  so the implicit solve dominates and every field is kept and read back.
* ``kernels-fuzz``: kernel build, inequality audit and per-check CSV over
  fuzzed admissible meshes; no grid at all, so field-side changes must not
  move it.

The ``tiny`` size exists only for the smoke test.  perfbench/reference.json
holds ``reference_values`` of each full-size workload at seed 0, recorded
at the commit that introduced the benchmark; re-record it only when a
workload's config changes.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

ALPHAS = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]

SUBCOMMAND = {
    "coarsen-a04": "coarsen",
    "accuracy-a08": "accuracy",
    "kernels-fuzz": "kernels",
}
WORKLOADS = tuple(SUBCOMMAND)

# The repo's own tolerances: the CLI's DGS residual limit, and the relative
# tolerance of the energy dissipation audit for recorded values.
DGS_RESIDUAL_TOL = 1e-11
REFERENCE_REL_TOL = 1e-10


def make_config(workload: str, seed: int, size: str = "full") -> dict:
    """Config for one workload; the same seed gives the same config."""
    tiny = size == "tiny"
    if workload == "coarsen-a04":
        T = 0.05 if tiny else 1.5
        return {
            "alpha": 0.4, "T": T, "M": 16 if tiny else 64, "epsilon": 0.05,
            "tau_min": 0.001, "tau_max": 0.1, "eta": 1000.0, "enforce_cap": True,
            "snapshot_times": [T / 3, 2 * T / 3, T], "seed": seed,
        }
    if workload == "accuracy-a08":
        return {
            "alpha": 0.8, "sigma": 0.4,
            "gammas": [1.0] if tiny else [1.0, 2.5],
            "Ns": [8, 16] if tiny else [10, 20, 40],
            "M": 16 if tiny else 64, "eps2": 0.1, "T": 1.0,
            "spatial_check": True, "seed": seed,
        }
    if workload == "kernels-fuzz":
        return {
            "alphas": [0.3, 0.7] if tiny else ALPHAS,
            "num_meshes": 2 if tiny else 12,
            "n_max": 6 if tiny else 20,
            "dgs_histories": 5 if tiny else 50,
            "seed": seed,
        }
    raise KeyError(f"unknown workload {workload!r}")


def read_meta(outdir) -> dict:
    with open(os.path.join(outdir, "run_meta.json")) as fh:
        return json.load(fh)


def read_accuracy_rows(outdir) -> list:
    with open(os.path.join(outdir, "accuracy.csv"), newline="") as fh:
        return [[float(r["gamma"]), int(r["N"]), float(r["error"]), float(r["fitted_order"])]
                for r in csv.DictReader(fh)]


def check_outputs(workload: str, cfg: dict, exit_code: int, outdir) -> list:
    """Output gate for any seed: the list of failures, empty when clean."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    meta = read_meta(outdir)
    errors = [f"missing output {f}" for f in meta["files"]
              if not os.path.isfile(os.path.join(outdir, f))]
    if workload == "coarsen-a04":
        if meta["dissipation_violations"] != 0:
            errors.append(f"{meta['dissipation_violations']} dissipation violations")
        if not (meta["all_steps_cap_compliant"] and meta["all_ratios_admissible"]):
            errors.append("step cap or ratio floor not met")
        if not meta["max_sup_norm"] <= 1.0:
            errors.append(f"sup norm {meta['max_sup_norm']!r} exceeds 1")
    elif workload == "accuracy-a08":
        if meta["row_failures"]:
            errors.append(f"row failures {meta['row_failures']}")
        rows = read_accuracy_rows(outdir)
        if len(rows) != len(cfg["gammas"]) * len(cfg["Ns"]):
            errors.append(f"{len(rows)} rows for {len(cfg['gammas'])}x{len(cfg['Ns'])} entries")
        if not all(math.isfinite(r[2]) and r[2] > 0.0 for r in rows):
            errors.append("non-finite or zero error in the table")
    elif workload == "kernels-fuzz":
        if meta["violations"] != 0:
            errors.append(f"{meta['violations']} kernel inequality violations")
        if not meta["dgs_worst_residual"] <= DGS_RESIDUAL_TOL:
            errors.append(f"DGS residual {meta['dgs_worst_residual']:.3e} > {DGS_RESIDUAL_TOL}")
        if min(meta["dgs_min_G"], meta["dgs_min_R"]) < 0.0:
            errors.append("negative DGS form")
    return errors


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REFERENCE_REL_TOL * max(abs(a), abs(b), 1e-300)


def reference_values(workload: str, outdir) -> dict:
    """The values the default-seed reference records for one workload."""
    meta = read_meta(outdir)
    values = {"config_sha256": meta["config_sha256"]}
    if workload == "coarsen-a04":
        values.update(steps=meta["steps"], final_E=meta["final_E"],
                      final_E_alpha=meta["final_E_alpha"])
    elif workload == "accuracy-a08":
        values.update(rows=[r[:3] for r in read_accuracy_rows(outdir)],
                      orders={g: v["fitted_order"] for g, v in sorted(meta["orders"].items())})
    elif workload == "kernels-fuzz":
        values.update(total_checks=meta["total_checks"])
    return values


def check_reference(workload: str, outdir, expected: dict) -> list:
    """Compare a default-seed run against the values recorded for it."""
    got = reference_values(workload, outdir)
    errors = []

    def compare(name, a, b):
        if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)) and len(a) == len(b):
            for i, (x, y) in enumerate(zip(a, b)):
                compare(f"{name}[{i}]", x, y)
        elif isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
            for k in a:
                compare(f"{name}.{k}", a[k], b[k])
        elif isinstance(a, float) or isinstance(b, float):
            if not (isinstance(a, (int, float)) and isinstance(b, (int, float)) and _close(a, b)):
                errors.append(f"reference {name}: got {a!r}, recorded {b!r}")
        elif a != b:
            errors.append(f"reference {name}: got {a!r}, recorded {b!r}")

    for key, want in expected.items():
        compare(key, got.get(key), want)
    return errors


def digest_outputs(outdir) -> str:
    """SHA-256 over every output file; run_meta.json without its timing field."""
    h = hashlib.sha256()
    for root, dirs, files in os.walk(outdir):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(root, name)
            rel = os.path.relpath(path, outdir)
            if rel == "run_meta.json":
                meta = read_meta(outdir)
                meta.pop("elapsed_seconds", None)
                data = json.dumps(meta, sort_keys=True).encode()
            else:
                with open(path, "rb") as fh:
                    data = fh.read()
            h.update(rel.encode() + b"\0" + hashlib.sha256(data).digest())
    return h.hexdigest()
