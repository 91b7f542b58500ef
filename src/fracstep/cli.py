"""Command-line harness: accuracy, coarsening, kernel certification, ratio table.

    fracstep {accuracy,coarsen,kernels,rstar} --config cfg.json --out results/ [--quick] [--seed N]

The config keys are exactly the fields of the subcommand's spec (AccuracySpec,
CoarsenSpec, KernelAuditSpec, RstarSpec), plus "seed"; a key left out takes
its dataclass default.  A float field takes a finite number, an int field an
integer, a bool field true or false, a tuple field a list of those.  --seed
overrides the config seed; --quick applies the spec's quick() profile.

Every run writes run_meta.json with the SHA-256 of the canonicalized config
and the seed actually used, so outputs are traceable; a run that raises
writes it with "files": [] and the error as "failure".  Exit codes: 0
success, 2 audit violation (a non-finite audit value, a field over the
bound, a step over the cap while the bound is enforced, or weights that are
not positive), 3 solver non-convergence, 4 bad config (a missing, unknown or
repeated key, a wrong type, a non-finite number, a value outside the range
its spec's __post_init__ accepts, or an --out that cannot be a directory;
not a ValueError from the run).  An accuracy table left without rows exits 2
on a row's audit failure, else 3; one with rows exits 2 when a gamma with at
least two rows has no finite fitted order (an error of 0 or inf).
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import hashlib
import json
import math
import os
import sys
import time
from typing import get_args, get_origin, get_type_hints

from .energy import dissipation_audit
from .solver import BoundViolation, ConvergenceError, StepCapError
from . import experiments as xp

EXIT_OK = 0
EXIT_AUDIT = 2
EXIT_NONCONV = 3
EXIT_CONFIG = 4


class ConfigError(ValueError):
    pass


# failures that a run reports as an audit failure (exit 2)
_AUDIT_FAILURES = (BoundViolation, StepCapError, FloatingPointError)


def _unique_keys(pairs) -> dict:
    """The JSON object of pairs; a key given twice is a config error, not the last one winning."""
    repeated = [key for key, count in collections.Counter(key for key, _ in pairs).items() if count > 1]
    if repeated:
        raise ConfigError(f"config key '{repeated[0]}' is given more than once")
    return dict(pairs)


def _load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


_KINDS = {float: "a finite number", int: "an integer", bool: "true or false", tuple: "a list"}


def _typed(key: str, value, kind):
    """The config value for a field of type kind: float, int, bool or tuple[one of those, ...]."""
    if get_origin(kind) is tuple:
        if type(value) is list:
            return tuple(_typed(f"{key}[{i}]", v, get_args(kind)[0]) for i, v in enumerate(value))
    elif kind is float:
        if type(value) in (int, float) and abs(value) <= sys.float_info.max:  # finite, not a bool
            return float(value)
    elif type(value) is kind:                                               # an int is not a bool
        return value
    raise ConfigError(f"config key '{key}' must be {_KINDS[get_origin(kind) or kind]}, "
                      f"got {json.dumps(value)}")


def _spec_from_config(cls, cfg: dict, seed: int):
    """The spec dataclass cls built from cfg, whose keys are cls's fields plus "seed"."""
    kinds = get_type_hints(cls)
    unknown = sorted(set(cfg) - set(kinds) - {"seed"})
    if unknown:
        raise ConfigError(f"unknown config key {', '.join(map(repr, unknown))}; "
                          f"accepted: {', '.join(sorted({*kinds, 'seed'}))}")
    kwargs = {name: _typed(name, cfg[name], kind) for name, kind in kinds.items() if name in cfg}
    if "seed" in kinds:
        kwargs["seed"] = seed
    for f in dataclasses.fields(cls):
        if f.name not in kwargs and f.default is dataclasses.MISSING:
            raise ConfigError(f"config is missing required key '{f.name}'")
    return cls(**kwargs)       # the spec checks its ranges


def _config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _strict(value):
    """value with every non-finite float in it, however deep in dicts and lists, as None."""
    if isinstance(value, dict):
        return {key: _strict(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(v) for v in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _write_meta(outdir, subcommand, cfg, seed, quick, files, elapsed, extra) -> None:
    """Write run_meta.json as strict JSON: a non-finite float is written as null."""
    meta = {
        "subcommand": subcommand,
        "config_sha256": _config_hash(cfg),
        "seed": seed,
        "quick": quick,
        "files": sorted(os.path.relpath(f, outdir) for f in files),
        "elapsed_seconds": round(elapsed, 3),
    }
    meta.update(extra)
    with open(os.path.join(outdir, "run_meta.json"), "w") as fh:
        json.dump(_strict(meta), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _cmd_accuracy(spec: xp.AccuracySpec, outdir: str) -> tuple:
    table = xp.accuracy_table(spec)
    path = os.path.join(outdir, "accuracy.csv")
    xp.write_accuracy_csv(path, table)
    failures = [(g, N, f"{type(exc).__name__}: {exc}") for g, N, exc in table.failures]
    extra = {
        "orders": {f"{g:g}": {"fitted_order": o, "fit_residual": r}
                   for g, (o, r) in table.orders.items()},
        "spatial_error_estimate": table.spatial_estimate,
        "spatial_subdominant": table.spatial_ok,
        "row_failures": [list(f) for f in failures],
    }
    for g, N, message in failures:
        print(f"row failure at gamma={g:g}, N={N}: {message}", file=sys.stderr)
    if table.spatial_ok is False:
        print("warning: spatial error is not subdominant at this grid; "
              "orders are still temporal but absolute errors carry a floor", file=sys.stderr)
    unfitted = []
    for g, (o, r) in table.orders.items():
        print(f"gamma={g:g}: fitted order {o:.3f} (fit residual {r:.3f})")
        errors = [row.error for row in table.rows if row.gamma == g]
        if len(errors) >= 2 and not math.isfinite(o):
            unfitted.append(g)
            print(f"audit failure: gamma={g:g}: no finite order fits the errors {errors}", file=sys.stderr)
    if table.rows:
        return (EXIT_AUDIT if unfitted else EXIT_OK), [path], extra
    audit = any(isinstance(exc, _AUDIT_FAILURES) for *_, exc in table.failures)
    return (EXIT_AUDIT if audit else EXIT_NONCONV), [path], extra


def _cmd_coarsen(spec: xp.CoarsenSpec, outdir: str) -> tuple:
    traj, _ = xp.run_coarsening(spec)
    files = xp.write_coarsening_outputs(outdir, spec, traj)
    violations = dissipation_audit(traj)
    flagged = [v for v in violations if v.unexplained]
    for v in violations:        # a broken hypothesis explains a violation: a note, not a failure
        print(v.describe() if v.unexplained else f"note: {v.describe()}", file=sys.stderr)
    extra = {
        "steps": int(traj.num_steps),
        "max_sup_norm": float(traj.sup_norms.max()),
        "cap": traj.cap,
        "all_steps_cap_compliant": bool(traj.cap_ok.all()),
        "all_ratios_admissible": bool(traj.ratio_ok.all()),
        "dissipation_violations": len(flagged),
        "explained_dissipation_violations": len(violations) - len(flagged),
        "final_E": float(traj.E[-1]),
        "final_E_alpha": float(traj.E_alpha[-1]),
        "history_bytes_allocated": traj.fields.nbytes,
        "history_levels_used": len(traj.fields),
        "fp_sweeps": int(traj.fp_iters.sum()),
        "fp_sweeps_max": int(traj.fp_iters.max()),
    }
    return (EXIT_AUDIT if flagged else EXIT_OK), files, extra


def _cmd_kernels(spec: xp.KernelAuditSpec, outdir: str) -> tuple:
    result = xp.run_kernel_audit(spec)
    files = xp.write_kernel_audit_csv(outdir, result)
    extra = {
        "total_checks": int(result.total_checks),
        "violations": len(result.violations),
        "dgs_worst_residual": float(result.dgs_residual),
        "dgs_min_G": float(result.dgs_min_G),
        "dgs_min_R": float(result.dgs_min_R),
        "dgs_worst_history": result.dgs_worst_history,
    }
    print(f"{result.total_checks} inequality checks, {len(result.violations)} violations; "
          f"DGS residual {result.dgs_residual:.2e}")
    if result.violations:
        # the least slack, a nan slack first (nan == nan is False)
        alpha, m, e = min(result.violations, key=lambda v: (v[2].slack == v[2].slack, v[2].slack))
        print(f"audit failure: {len(result.violations)} kernel inequality violations; the worst is "
              f"alpha {alpha:g}, mesh {m}, {e.prop} at n = {e.n}, k = {e.k}, slack {e.slack:.2e} "
              f"(all rows in kernel_violations.csv)", file=sys.stderr)
    # written "not x <= tol" so that a nan fails the check
    dgs_bad = not result.dgs_residual <= 1e-11
    if dgs_bad:
        print(f"audit failure: DGS identity residual {result.dgs_residual:.2e} at history "
              f"{result.dgs_worst_history} is not within 1e-11", file=sys.stderr)
    forms_bad = not (result.dgs_min_G >= 0.0 and result.dgs_min_R >= 0.0)
    if forms_bad:
        print(f"audit failure: DGS forms min G = {result.dgs_min_G:.2e}, min R = "
              f"{result.dgs_min_R:.2e} are not both nonnegative", file=sys.stderr)
    bad = bool(result.violations) or dgs_bad or forms_bad
    return (EXIT_AUDIT if bad else EXIT_OK), files, extra


def _cmd_rstar(spec: xp.RstarSpec, outdir: str) -> tuple:
    rows = xp.rstar_table(spec.alphas)
    path = os.path.join(outdir, "rstar.csv")
    xp.write_rstar_csv(path, rows)
    worst = max((row.residual for row in rows), key=lambda x: (x != x, x))   # nan is the worst
    extra = {"rows": len(rows), "worst_residual": worst}
    failures = []
    if not worst <= 1e-11:
        failures.append(f"root residual {worst:.2e} is not within 1e-11")
    by_alpha = sorted(rows, key=lambda row: row.alpha)
    # written "not a < b" so that a nan root fails the check
    stall = next(((a, b) for a, b in zip(by_alpha, by_alpha[1:]) if not a.r_star < b.r_star), None)
    if stall:
        a, b = stall
        failures.append(f"r* is not strictly increasing in alpha: r*({a.alpha}) = {a.r_star!r} "
                        f"but r*({b.alpha}) = {b.r_star!r}")
    for message in failures:
        print(f"audit failure: {message}", file=sys.stderr)
    return (EXIT_AUDIT if failures else EXIT_OK), [path], extra


_COMMANDS = {
    "accuracy": (xp.AccuracySpec, _cmd_accuracy),
    "coarsen": (xp.CoarsenSpec, _cmd_coarsen),
    "kernels": (xp.KernelAuditSpec, _cmd_kernels),
    "rstar": (xp.RstarSpec, _cmd_rstar),
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
        seed = _typed("seed", cfg["seed"], int) if "seed" in cfg else 0
        if seed < 0:
            raise ConfigError(f"config key 'seed' must be nonnegative, got {seed}")
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError(f"--seed must be nonnegative, got {args.seed}")
            seed = args.seed
        spec_cls, command = _COMMANDS[args.subcommand]
        spec = _spec_from_config(spec_cls, cfg, seed)
        if args.quick:
            spec = spec.quick()
    except ValueError as exc:         # ConfigError, or a spec value out of range
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:            # a file where the directory should be, or under it
        print(f"config error: --out {args.out} cannot be made a directory: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    started = time.monotonic()
    try:
        code, files, extra = command(spec, args.out)
    except Exception as exc:          # the run failed: record what ran and why, then report it
        _write_meta(args.out, args.subcommand, cfg, seed, args.quick, [],
                    time.monotonic() - started, {"failure": f"{type(exc).__name__}: {exc}"})
        if isinstance(exc, ConvergenceError):
            print(f"solver failure: {exc}", file=sys.stderr)
            return EXIT_NONCONV
        if isinstance(exc, _AUDIT_FAILURES):
            print(f"audit failure: {exc}", file=sys.stderr)
            return EXIT_AUDIT
        raise
    _write_meta(args.out, args.subcommand, cfg, seed, args.quick,
                files, time.monotonic() - started, extra)
    return code


if __name__ == "__main__":
    sys.exit(main())
