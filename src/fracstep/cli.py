"""Command-line harness: accuracy, coarsening, kernel certification, ratio table.

    fracstep accuracy --config cfg.json --out results/
    fracstep coarsen  --config cfg.json --out results/ [--quick]
    fracstep kernels  --config cfg.json --out results/ [--quick]
    fracstep rstar    --config cfg.json --out results/

Every run writes run_meta.json with the SHA-256 of the canonicalized
config and the seed actually used, so outputs are traceable.  Exit codes:
0 success, 2 audit violation, 3 solver non-convergence, 4 bad config.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

from .energy import dissipation_audit
from .solver import BoundViolation, ConvergenceError
from . import experiments as xp

EXIT_OK = 0
EXIT_AUDIT = 2
EXIT_NONCONV = 3
EXIT_CONFIG = 4


class ConfigError(ValueError):
    pass


def _load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"config is missing required key '{key}'")
    return cfg[key]


def _config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _write_meta(outdir, subcommand, cfg, seed, quick, files, elapsed, extra=None) -> None:
    meta = {
        "subcommand": subcommand,
        "config_sha256": _config_hash(cfg),
        "seed": seed,
        "quick": quick,
        "files": sorted(os.path.relpath(f, outdir) for f in files),
        "elapsed_seconds": round(elapsed, 3),
    }
    if extra:
        meta.update(extra)
    with open(os.path.join(outdir, "run_meta.json"), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cmd_accuracy(cfg: dict, outdir: str, seed: int, quick: bool) -> tuple:
    Ns = tuple(int(n) for n in _require(cfg, "Ns"))
    if quick and len(Ns) > 2:
        Ns = Ns[:-1]                      # drop the finest level for CI speed
    spec = xp.AccuracySpec(
        alpha=float(_require(cfg, "alpha")),
        sigma=float(_require(cfg, "sigma")),
        gammas=tuple(float(g) for g in _require(cfg, "gammas")),
        Ns=Ns,
        M=int(cfg.get("M", 64)),
        eps2=float(cfg.get("eps2", 0.1)),
        T=float(cfg.get("T", 1.0)),
        seed=seed,
        spatial_check=bool(cfg.get("spatial_check", True)),
    )
    table = xp.accuracy_table(spec)
    path = os.path.join(outdir, "accuracy.csv")
    xp.write_accuracy_csv(path, table)
    extra = {
        "orders": {f"{g:g}": {"fitted_order": o, "fit_residual": r}
                   for g, (o, r) in table.orders.items()},
        "spatial_error_estimate": table.spatial_estimate,
        "spatial_subdominant": table.spatial_ok,
        "row_failures": [list(f) for f in table.failures],
    }
    if table.spatial_ok is False:
        print("warning: spatial error is not subdominant at this grid; "
              "orders are still temporal but absolute errors carry a floor", file=sys.stderr)
    for g, (o, r) in table.orders.items():
        print(f"gamma={g:g}: fitted order {o:.3f} (fit residual {r:.3f})")
    code = EXIT_OK if table.rows else EXIT_NONCONV
    return code, [path], extra


def _cmd_coarsen(cfg: dict, outdir: str, seed: int, quick: bool) -> tuple:
    spec = xp.CoarsenSpec(
        alpha=float(_require(cfg, "alpha")),
        T=float(cfg.get("T", 50.0)),
        M=int(cfg.get("M", 128)),
        epsilon=float(cfg.get("epsilon", 0.05)),
        init_amplitude=float(cfg.get("init_amplitude", 1e-3)),
        tau_min=float(cfg.get("tau_min", 1e-3)),
        tau_max=float(cfg.get("tau_max", 0.1)),
        eta=float(cfg.get("eta", 1e3)),
        enforce_cap=bool(cfg.get("enforce_cap", False)),
        snapshot_times=tuple(cfg.get("snapshot_times", (1.0, 10.0, 30.0, 50.0))),
        seed=seed,
    )
    if quick:
        spec = spec.quick()
    traj, _ = xp.run_coarsening(spec)
    files = xp.write_coarsening_outputs(outdir, spec, traj)
    violations = dissipation_audit(traj.energy, cap_ok=traj.cap_ok, ratio_ok=traj.ratio_ok)
    flagged = [v for v in violations if v.hypothesis_ok]
    for v in flagged:
        print(v.describe(), file=sys.stderr)
    extra = {
        "steps": int(traj.num_steps),
        "max_sup_norm": float(traj.sup_norms.max()),
        "cap": traj.cap,
        "all_steps_cap_compliant": bool(traj.cap_ok.all()),
        "all_ratios_admissible": bool(traj.ratio_ok.all()),
        "dissipation_violations": len(flagged),
        "final_E": traj.energy[-1].E,
        "final_E_alpha": traj.energy[-1].E_alpha,
    }
    return (EXIT_AUDIT if flagged else EXIT_OK), files, extra


def _cmd_kernels(cfg: dict, outdir: str, seed: int, quick: bool) -> tuple:
    num_meshes = int(cfg.get("num_meshes", 100))
    spec = xp.KernelAuditSpec(
        alphas=tuple(float(a) for a in cfg.get(
            "alphas", (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9))),
        num_meshes=min(num_meshes, 20) if quick else num_meshes,
        n_max=int(cfg.get("n_max", 20)),
        dgs_histories=int(cfg.get("dgs_histories", 50)),
        seed=seed,
    )
    result = xp.run_kernel_audit(spec)
    path = os.path.join(outdir, "kernel_audit.csv")
    xp.write_kernel_audit_csv(path, result)
    extra = {
        "total_checks": int(result.total_checks),
        "violations": len(result.violations),
        "dgs_worst_residual": float(result.dgs_residual),
        "dgs_min_G": float(result.dgs_min_G),
        "dgs_min_R": float(result.dgs_min_R),
    }
    print(f"{result.total_checks} inequality checks, {len(result.violations)} violations; "
          f"DGS residual {result.dgs_residual:.2e}")
    bad = bool(result.violations) or result.dgs_residual > 1e-11 \
        or min(result.dgs_min_G, result.dgs_min_R) < 0.0
    return (EXIT_AUDIT if bad else EXIT_OK), [path], extra


def _cmd_rstar(cfg: dict, outdir: str, seed: int, quick: bool) -> tuple:
    alphas = [float(a) for a in _require(cfg, "alphas")]
    try:
        rows = xp.rstar_table(alphas)
    except AssertionError as exc:
        print(f"audit failure: {exc}", file=sys.stderr)
        return EXIT_AUDIT, [], {}
    path = os.path.join(outdir, "rstar.csv")
    xp.write_rstar_csv(path, rows)
    worst = max(row.residual for row in rows)
    extra = {"rows": len(rows), "worst_residual": worst}
    if worst > 1e-11:
        print(f"audit failure: root residual {worst:.2e} exceeds 1e-11", file=sys.stderr)
        return EXIT_AUDIT, [path], extra
    return EXIT_OK, [path], extra


_COMMANDS = {
    "accuracy": _cmd_accuracy,
    "coarsen": _cmd_coarsen,
    "kernels": _cmd_kernels,
    "rstar": _cmd_rstar,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fracstep",
        description="Experiments for the variable-step fractional Allen-Cahn solver.",
    )
    parser.add_argument("subcommand", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--out", required=True, help="output directory (created)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--quick", action="store_true",
                        help="reduced CI profile (short horizon / coarse grid)")
    args = parser.parse_args(argv)

    try:
        cfg = _load_config(args.config)
        seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
        if seed < 0:
            raise ConfigError("seed must be nonnegative")
        os.makedirs(args.out, exist_ok=True)
        started = time.monotonic()
        code, files, extra = _COMMANDS[args.subcommand](cfg, args.out, seed, args.quick)
        _write_meta(args.out, args.subcommand, cfg, seed, args.quick,
                    files, time.monotonic() - started, extra)
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (TypeError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConvergenceError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_NONCONV
    except BoundViolation as exc:
        print(f"audit failure: {exc}", file=sys.stderr)
        return EXIT_AUDIT


if __name__ == "__main__":
    sys.exit(main())
