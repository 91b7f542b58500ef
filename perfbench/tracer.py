"""In-memory span tracer that times calls into fracstep's public functions.

Spans are recorded from outside the program: `install` replaces module
attributes with thin wrappers, so it patches the name a caller resolves at
call time (``fracstep.solver.history_sum``), not the defining module's copy.
Every span keeps its name, start, end and parent; self time is a span's
duration minus the durations of its direct children.  A hook whose target is
missing (renamed or deleted by a refactor) is reported as absent, never as an
error, and its layer's metrics read zero; a counter that no longer fits
its target's arguments is reported the same way and the call still timed.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

import numpy as np

ROOT_SPAN = "cli.main"


class Tracer:
    """Span store for one process; spans nest strictly (single thread)."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.count_errors: set[str] = set()
        self._ids: dict[str, int] = {}
        self._stack = [-1]

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.starts)
        self.name_ids.append(nid)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable, count: Callable | None) -> Callable:
        @functools.wraps(fn, updated=())
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if count is not None:
                try:
                    count(self.counters, args, result)
                except (TypeError, ValueError, IndexError, AttributeError, OSError) as exc:
                    # The call's shape changed under a refactor: keep timing it.
                    self.count_errors.add(f"{name}: {type(exc).__name__}: {exc}")
            return result

        return traced

    def span_times(self) -> tuple[dict, dict, dict]:
        """Per span name: (calls, self seconds, inclusive seconds)."""
        if not self.starts:
            return {}, {}, {}
        nid = np.asarray(self.name_ids)
        parent = np.asarray(self.parents)
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        own = dur - child
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        self_s = np.bincount(nid, weights=own, minlength=k)
        incl_s = np.bincount(nid, weights=dur, minlength=k)
        return ({n: int(calls[i]) for i, n in enumerate(self.names)},
                {n: float(self_s[i]) for i, n in enumerate(self.names)},
                {n: float(incl_s[i]) for i, n in enumerate(self.names)})

    def dump(self, path) -> None:
        """Write every span, columnar, as JSON."""
        with open(path, "w") as fh:
            json.dump({"names": self.names, "name": self.name_ids, "start": self.starts,
                       "end": self.ends, "parent": self.parents}, fh)


# -- hooks -----------------------------------------------------------------


def _count_step(c, args, result):
    fields = args[0]
    c["solver.fp_sweeps"] += int(result[1])
    c["solver.history_bytes"] = max(c["solver.history_bytes"], len(fields) * fields[0].nbytes)


def _count_history(c, args, result):
    c["kernels.history_terms"] += len(args[0])


def _count_energy(c, args, result):
    c["energy.g_terms"] += len(args[0]) - 1


def _count_mesh(c, args, result):
    c["mesh.nodes_validated"] += len(args[0])


def _count_checks(c, args, result):
    c["audits.checks"] += len(result.entries)


def _count_output(c, args, result):
    paths = result if isinstance(result, list) else [args[0]]
    c["experiments.output_bytes"] += sum(os.path.getsize(p) for p in paths)


@dataclass(frozen=True)
class Hook:
    module: str
    attr: str
    span: str
    count: Callable | None = None

    @property
    def target(self) -> str:
        return f"{self.module}.{self.attr}"


HOOKS = (
    Hook("fracstep.experiments", "run", "solver.run"),
    Hook("fracstep.solver", "step", "solver.step", _count_step),
    Hook("fracstep.solver", "laplacian", "grid.laplacian"),
    Hook("fracstep.solver", "grid_sum", "grid.sum"),
    Hook("fracstep.energy", "grid_sum", "grid.sum"),
    Hook("fracstep.solver", "build_kernels", "kernels.build"),
    Hook("fracstep.audits", "build_kernels", "kernels.build"),
    Hook("fracstep.experiments", "build_kernels", "kernels.build"),
    Hook("fracstep.solver", "history_sum", "kernels.history", _count_history),
    Hook("fracstep.solver", "modified_energy", "energy.modified", _count_energy),
    Hook("fracstep.cli", "dissipation_audit", "energy.audit"),
    Hook("fracstep.solver", "TimeMesh", "mesh.timemesh", _count_mesh),
    Hook("fracstep.solver", "adaptive_next_step", "mesh.controller"),
    Hook("fracstep.experiments", "audit_kernel_properties", "audits.audit", _count_checks),
    Hook("fracstep.experiments", "write_accuracy_csv", "experiments.output", _count_output),
    Hook("fracstep.experiments", "write_coarsening_outputs", "experiments.output", _count_output),
    Hook("fracstep.experiments", "write_kernel_audit_csv", "experiments.output", _count_output),
)


def install(tracer: Tracer, hooks=HOOKS) -> tuple[list, list]:
    """Patch every hook target present; returns (undo list, absent targets)."""
    undo, absent = [], []
    for hook in hooks:
        try:
            module = importlib.import_module(hook.module)
        except ImportError:
            absent.append(hook.target)
            continue
        original = getattr(module, hook.attr, None)
        if not callable(original):
            absent.append(hook.target)
            continue
        setattr(module, hook.attr, tracer.wrap(hook.span, original, hook.count))
        undo.append((module, hook.attr, original))
    return undo, absent


def uninstall(undo) -> None:
    for module, attr, original in reversed(undo):
        setattr(module, attr, original)


# -- per-layer metrics ------------------------------------------------------

MIB = float(1 << 20)


def layer_metrics(tracer: Tracer, absent) -> dict:
    """Per-layer metrics of one traced run, plus the traced wall time.

    Times are self times except energy.modified_s, which is inclusive of
    the grid sums it makes.  Ratios with a zero base read zero.
    """
    calls, self_s, incl_s = tracer.span_times()
    c = tracer.counters
    steps = calls.get("solver.step", 0)
    sweeps = int(c["solver.fp_sweeps"])
    laps = calls.get("grid.laplacian", 0)
    return {
        "solver.steps": steps,
        "solver.fp_sweeps": sweeps,
        "solver.sweeps_per_step": sweeps / steps if steps else 0.0,
        "solver.step_self_s": self_s.get("solver.step", 0.0),
        "solver.run_self_s": self_s.get("solver.run", 0.0),
        "solver.history_mb": c["solver.history_bytes"] / MIB,
        "grid.laplacian_calls": laps,
        "grid.laplacian_per_sweep": laps / sweeps if sweeps else 0.0,
        "grid.laplacian_s": self_s.get("grid.laplacian", 0.0),
        "grid.sum_calls": calls.get("grid.sum", 0),
        "grid.sum_s": self_s.get("grid.sum", 0.0),
        "kernels.build_calls": calls.get("kernels.build", 0),
        "kernels.build_s": self_s.get("kernels.build", 0.0),
        "kernels.history_terms": int(c["kernels.history_terms"]),
        "kernels.history_s": self_s.get("kernels.history", 0.0),
        "energy.g_terms": int(c["energy.g_terms"]),
        "energy.modified_s": incl_s.get("energy.modified", 0.0),
        "energy.audit_s": self_s.get("energy.audit", 0.0),
        "mesh.nodes_validated": int(c["mesh.nodes_validated"]),
        "mesh.timemesh_s": self_s.get("mesh.timemesh", 0.0),
        "mesh.controller_calls": calls.get("mesh.controller", 0),
        "audits.checks": int(c["audits.checks"]),
        "audits.audit_s": self_s.get("audits.audit", 0.0),
        "experiments.output_bytes": int(c["experiments.output_bytes"]),
        "experiments.output_s": self_s.get("experiments.output", 0.0),
        "trace.wall_s": incl_s.get(ROOT_SPAN, 0.0),
        "trace.self_sum_s": sum(v for k, v in self_s.items() if k != ROOT_SPAN),
        "trace.notes": [f"hook target {t} is absent; its layer reads zero" for t in sorted(absent)]
        + [f"counter of {e}; its counts are incomplete" for e in sorted(tracer.count_errors)],
    }


# Metrics that count work: they must repeat exactly between runs of one seed.
COUNT_METRICS = (
    "solver.steps", "solver.fp_sweeps", "grid.laplacian_calls", "grid.sum_calls",
    "kernels.build_calls", "kernels.history_terms", "energy.g_terms",
    "mesh.nodes_validated", "mesh.controller_calls", "audits.checks",
    "experiments.output_bytes",
)
