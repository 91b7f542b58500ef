"""One fracstep CLI run in a fresh process, timed from outside the program.

    python3 perfbench/worker.py <spec.json>

The spec names the source tree, the subcommand (none for a set-up probe,
which only imports), config, output directory, seed, whether to trace,
where to write the result, and ``t0``, the parent's
``time.monotonic()`` just before it started this process (CLOCK_MONOTONIC
is system-wide, so set-up time spans interpreter start and imports).
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main() -> int:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    from fracstep import cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(spec["src"]) + os.sep):
        raise SystemExit(f"imported fracstep from {cli.__file__}, not from {spec['src']}")

    if spec["subcommand"] is None:           # set-up probe: import only
        with open(spec["result"], "w") as fh:
            json.dump({"setup_s": time.monotonic() - spec["t0"]}, fh)
        return 0

    argv = [spec["subcommand"], "--config", spec["config"], "--out", spec["out"],
            "--seed", str(spec["seed"])]
    tracer = None
    if spec["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        _, absent = tracing.install(tracer)

    t_entry = time.monotonic()
    cpu0 = _cpu_s()
    if tracer is None:
        code = cli.main(argv)
    else:
        root = tracer.open(tracing.ROOT_SPAN)
        try:
            code = cli.main(argv)
        finally:
            tracer.close(root)
    t_exit = time.monotonic()
    cpu1 = _cpu_s()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {
        "exit_code": code,
        "setup_s": t_entry - spec["t0"],
        "wall_s": t_exit - t_entry,
        "cpu_s": cpu1 - cpu0,
        "peak_rss_mb": peak_kb / 1024.0,
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer, absent)
        tracer.dump(spec["spans"])
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
