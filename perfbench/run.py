"""Benchmark for fracstep: three CLI workloads, end to end or traced per layer.

    python3 perfbench/run.py --workload coarsen-a04 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py            # every workload, untraced then traced

Each measurement calls the public ``fracstep.cli.main`` in a fresh worker
process (perfbench/worker.py), one process at a time, repeating until
``--seconds`` have passed (at least three untraced runs, or one untraced
and two traced).  Metrics are medians over those runs:

* untraced (``--trace 0``): the ``end_to_end`` metrics of BENCHMARK.json
  (wall and CPU time of the ``cli.main`` call, peak RSS of the worker, and
  set-up time from process start to the entry of ``cli.main``, which also
  takes in a few import-only probe runs made first);
* traced (``--trace 1``): the ``per_layer`` metrics, from spans recorded
  around calls into fracstep's modules (perfbench/tracer.py), plus the
  tracing overhead: median traced wall time minus the untraced one.

Every run passes through the output gate (perfbench/workloads.py), and for
the default seed through the values recorded in perfbench/reference.json.
All runs of one seed and source tree must produce byte-identical outputs
(``run_meta.json`` without its timing field), also across invocations, and
traced runs must repeat every work count exactly.  A run that breaks any of
this counts as failed; the last stdout line is the JSON result, and the exit
code is 1 when a run failed.  Worker outputs, spans and a result file with
the environment go to ``.bench_runs/`` at the checkout root.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import importlib.metadata
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(ROOT, ".bench_runs")
WORKER = os.path.join(HERE, "worker.py")
REFERENCE = os.path.join(HERE, "reference.json")

sys.path.insert(0, HERE)
import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402

DEFAULT_SEED = 0
MIN_UNTRACED = 3
SETUP_PROBES = 4              # import-only runs ahead of the timed ones
MIN_TRACED = 2
HARD_LIMIT_S = 160.0          # one invocation stays well inside 180 s
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


@functools.cache
def layout_prefix() -> tuple:
    """`setarch -R`, where it works: the worker then runs without address
    randomisation.  With PYTHONHASHSEED fixed too, every worker gets the same
    memory layout, which removes a per-process speed lottery from the timings."""
    prefix = ("setarch", "-R")
    if shutil.which(prefix[0]) is None:
        return ()
    try:
        ok = subprocess.run(prefix + ("true",), capture_output=True, timeout=30).returncode == 0
    except (OSError, subprocess.TimeoutExpired):
        ok = False
    return prefix if ok else ()


def worker_env() -> dict:
    """Worker environment: fixed str hashing, BLAS/OpenMP threads capped at nproc."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    nproc = _nproc()
    for var in THREAD_VARS:
        try:
            n = min(max(int(env[var]), 1), nproc)
        except (KeyError, ValueError):
            n = nproc
        env[var] = str(n)
    return env


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "fracstep")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def environment(seed: int) -> dict:
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    env = worker_env()
    return {
        "commit": commit,
        "source_sha256": source_digest(),
        "seed": seed,
        "python": sys.version.split()[0],
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": _nproc(),
        "address_randomisation": not layout_prefix(),
        **{var: env[var] for var in THREAD_VARS + ("PYTHONHASHSEED",)},
    }


def load_metric_specs() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return {"end_to_end": bench["end_to_end"], "per_layer": bench["per_layer"]}


class DigestStore:
    """Output digests per (workload, source tree, config), kept across invocations."""

    def __init__(self, path):
        self.path = path
        try:
            with open(path) as fh:
                self.known = json.load(fh)
        except (OSError, ValueError):
            self.known = {}

    def check(self, key: str, digest: str) -> str | None:
        first = self.known.setdefault(key, digest)
        if first != digest:
            return f"output digest {digest[:12]} differs from {first[:12]} of an earlier run"
        return None

    def save(self) -> None:
        with open(self.path, "w") as fh:
            json.dump(self.known, fh, indent=1, sort_keys=True)


def run_worker(workload, seed, size, traced, rundir, deadline, probe=False) -> dict:
    """One worker process; returns its timings plus gate errors and output digest."""
    outdir = os.path.join(rundir, "out")
    shutil.rmtree(outdir, ignore_errors=True)
    spec = {
        "src": SRC,
        "subcommand": None if probe else wl.SUBCOMMAND[workload],
        "config": os.path.join(rundir, "config.json"),
        "out": outdir,
        "seed": seed,
        "trace": traced,
        "result": os.path.join(rundir, "result.json"),
        "spans": os.path.join(rundir, "spans.json"),
    }
    if os.path.exists(spec["result"]):
        os.remove(spec["result"])
    spec_path = os.path.join(rundir, "worker_spec.json")
    log_path = os.path.join(rundir, "worker.log")
    with open(log_path, "w") as log:
        spec["t0"] = time.monotonic()
        with open(spec_path, "w") as fh:
            json.dump(spec, fh)
        proc = subprocess.Popen([*layout_prefix(), sys.executable, WORKER, spec_path], stdout=log,
                                stderr=subprocess.STDOUT, env=worker_env(), cwd=ROOT)
        try:
            proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return {"traced": traced, "errors": ["worker timed out"]}
    duration = time.monotonic() - spec["t0"]
    if proc.returncode != 0:
        with open(log_path) as fh:
            tail = fh.read()[-400:].strip().replace("\n", " | ")
        return {"traced": traced, "duration": duration,
                "errors": [f"worker exited {proc.returncode}: {tail}"]}
    with open(spec["result"]) as fh:
        result = json.load(fh)
    result.update(traced=traced, duration=duration, errors=[])
    if probe:
        return result
    with open(spec["config"]) as fh:
        cfg = json.load(fh)
    errors = wl.check_outputs(workload, cfg, result["exit_code"], outdir)
    if not errors:
        result["digest"] = wl.digest_outputs(outdir)
        if seed == DEFAULT_SEED and size == "full":
            with open(REFERENCE) as fh:
                errors += wl.check_reference(workload, outdir, json.load(fh)[workload])
    layers = result.get("layers")
    if layers and not layers["trace.self_sum_s"] <= layers["trace.wall_s"]:
        errors.append(f"self times sum to {layers['trace.self_sum_s']!r} s, "
                      f"more than the traced wall {layers['trace.wall_s']!r} s")
    result["errors"] += errors
    return result


def measure(workload, seed, seconds, trace, size, digests) -> dict:
    """Repeat workers for `seconds`; apply every gate; take medians."""
    rundir = os.path.join(RUNS, f"{workload}-{size}-seed{seed}-trace{int(trace)}")
    os.makedirs(rundir, exist_ok=True)
    config = json.dumps(wl.make_config(workload, seed, size), sort_keys=True)
    with open(os.path.join(rundir, "config.json"), "w") as fh:
        fh.write(config)

    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    probes = [] if trace else [run_worker(workload, seed, size, False, rundir, deadline, probe=True)
                               for _ in range(SETUP_PROBES)]
    runs = []
    while True:
        untraced = sum(not r["traced"] for r in runs)
        traced = len(runs) - untraced
        short = untraced < 1 or traced < MIN_TRACED if trace else untraced < MIN_UNTRACED
        typical = statistics.median(r.get("duration", 0.0) for r in runs) if runs else 0.0
        now = time.monotonic()
        if now + typical > deadline or (not short and now + typical > start + seconds):
            break
        # Traced mode alternates untraced and traced runs, for the overhead.
        runs.append(run_worker(workload, seed, size, trace and untraced > traced, rundir, deadline))
    if short:
        runs.append({"traced": trace, "errors": [f"only {len(runs)} runs fit in the time limit"]})

    key = f"{workload}/{source_digest()}/{hashlib.sha256(config.encode()).hexdigest()}"
    first_counts = None
    for r in runs:
        if "digest" in r:
            bad = digests.check(key, r["digest"])
            if bad:
                r["errors"].append(bad)
        if r.get("layers") and not r["errors"]:
            counts = {k: r["layers"][k] for k in tracing.COUNT_METRICS}
            if first_counts is None:
                first_counts = counts
            elif counts != first_counts:
                diff = {k: (first_counts[k], v) for k, v in counts.items() if v != first_counts[k]}
                r["errors"].append(f"work counts differ between traced runs: {diff}")
    digests.save()

    setups = [r["setup_s"] for r in probes + runs if "setup_s" in r]
    runs = probes + runs
    failed = sum(bool(r["errors"]) for r in runs)
    timed = [r for r in runs if "wall_s" in r]
    plain = [r for r in timed if not r["traced"]]
    traced_runs = [r for r in timed if r["traced"]]

    def med(rs, key):
        return statistics.median(r[key] for r in rs) if rs else 0.0

    if trace:
        metrics = {}
        if traced_runs:
            for name, value in traced_runs[0]["layers"].items():
                if isinstance(value, float):
                    value = statistics.median(r["layers"][name] for r in traced_runs)
                metrics[name] = value
        metrics["fail_rate"] = failed / len(runs)
        metrics["trace.overhead_s"] = metrics.get("trace.wall_s", 0.0) - med(plain, "wall_s")
    else:
        metrics = {k: med(plain, k) for k in ("wall_s", "cpu_s", "peak_rss_mb")}
        metrics["setup_s"] = statistics.median(setups) if setups else 0.0
    return {"workload": workload, "trace": trace, "runs": runs, "attempted": len(runs),
            "failed": failed, "metrics": metrics}


def report(outcome, specs, env) -> dict:
    """Print one measurement by metric name and unit; return its declared metrics."""
    kind = "per_layer" if outcome["trace"] else "end_to_end"
    name = f"{outcome['workload']} ({'traced' if outcome['trace'] else 'untraced'})"
    print(f"== {name}: {outcome['attempted']} runs, {outcome['failed']} failed")
    for i, r in enumerate(outcome["runs"], 1):
        mode = "traced" if r["traced"] else "untraced"
        if "wall_s" in r:
            wall = f"wall {r['wall_s']:.3f} s"
        else:
            wall = f"set-up probe {r['setup_s']:.3f} s" if "setup_s" in r else "no timing"
        status = "ok" if not r["errors"] else "FAILED: " + "; ".join(r["errors"])
        print(f"  run {i} ({mode}): {wall}, {status}")
    for note in outcome["metrics"].get("trace.notes", []):
        print(f"  note: {note}")
    out = {}
    for spec in specs[kind]:
        value = outcome["metrics"].get(spec["name"])
        if value is None:
            if not outcome["failed"]:
                raise KeyError(f"metric {spec['name']} was not measured")
            value = 0
        out[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"  {spec['name']} = {value!r} {spec['unit']}")
    path = os.path.join(RUNS, f"result-{outcome['workload']}-seed{env['seed']}"
                              f"-trace{int(outcome['trace'])}.json")
    with open(path, "w") as fh:
        json.dump({"environment": env, **outcome, "declared": out}, fh, indent=1)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics "
                             "(default: both, one after the other)")
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for the smoke test only")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    if not os.path.isfile(os.path.join(SRC, "fracstep", "cli.py")):
        print(f"error: no fracstep sources under {SRC}", file=sys.stderr)
        return 2
    specs = load_metric_specs()
    os.makedirs(RUNS, exist_ok=True)
    env = environment(args.seed)
    print("environment: " + json.dumps(env, sort_keys=True))

    names = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    modes = (False, True) if args.trace is None else (bool(args.trace),)
    digests = DigestStore(os.path.join(RUNS, "digests.json"))
    results = {}
    attempted = failed = 0
    for name in names:
        for trace in modes:
            outcome = measure(name, args.seed, args.seconds, trace, args.size, digests)
            attempted += outcome["attempted"]
            failed += outcome["failed"]
            declared = report(outcome, specs, env)
            results.setdefault(name, {}).update(declared)
    metrics = results[names[0]] if len(names) == 1 else results
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
