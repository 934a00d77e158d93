"""Span tracing of markovgeom's public functions, installed from outside.

Modules bind names directly (``from .normalize import sinkhorn``), so each
traced function object is replaced by its wrapper at every binding in the
package.  Nested calls then become child spans, and a span's self time is its
duration minus the time its children cover.  Spans stay in memory; callers
write them out once, at the end of a run.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict

MODULES = ("geometry", "operators", "normalize", "bridges", "spectral", "verify", "cli")

TRACED = {
    "geometry": ("gram", "generalized_gram", "bidivergence", "squared_distance", "edge_phases"),
    "operators": ("rbf_kernel", "dmap", "attention_forward", "attention_bistochastic",
                  "dmap_bistochastic", "magnetic_operator"),
    "normalize": ("softmax_rows", "sinkhorn", "schrodinger_solve"),
    "bridges": ("solve_bridge", "attention_bridge", "stationary_distribution",
                "classify_regime", "magnetic_flux"),
    "spectral": ("conjugate_symmetrize", "conjugate_hermitize", "decompose",
                 "diffusion_embedding"),
    "verify": ("run_identity_checks",),
    "cli": ("load_matrix", "write_matrix_csv", "write_report_json"),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)
SOLVERS = ("normalize.sinkhorn", "normalize.schrodinger_solve")
FILE_SPANS = ("cli.load_matrix", "cli.write_matrix_csv", "cli.write_report_json")

_MB = 1e6


def _sweeps(name, result):
    """Sweep count read from the solver's returned potentials."""
    if name == "normalize.sinkhorn":
        return result[1].iterations
    return result.iterations


def _file_mb(args, kwargs):
    path = kwargs.get("path", args[0] if args else None)
    return os.path.getsize(path) / _MB


class Tracer:
    """Records spans ``[name, start, end, parent, task, count]`` in memory.

    ``count`` is the sweep count for the scaling solvers and the file size in
    MB for CLI ingest/emit, else None.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.task = None
        self._stack: list[int] = []
        self._bindings: list[tuple] = []

    def install(self) -> None:
        package = importlib.import_module("markovgeom")
        modules = [package] + [importlib.import_module(f"markovgeom.{m}") for m in MODULES]
        for mod, names in TRACED.items():
            home = importlib.import_module(f"markovgeom.{mod}")
            for fn in names:
                original = getattr(home, fn)
                wrapper = self._wrap(f"{mod}.{fn}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._bindings.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._bindings):
            setattr(module, attr, original)
        self._bindings.clear()

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.task, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if name in SOLVERS:
                record[5] = _sweeps(name, result)
            elif name in FILE_SPANS:
                record[5] = _file_mb(args, kwargs)
            return result

        return wrapper


def task_profiles(spans) -> dict:
    """Per-task, per-function totals: ``{task: {name: [self_s, calls, total_s, count]}}``.

    Each task's profile also holds, under the key None, the time its root
    spans cover, i.e. the time spent inside any traced call.
    """
    child_time = defaultdict(float)
    for span in spans:
        if span[3] != -1:
            child_time[span[3]] += span[2] - span[1]
    out: dict = {}
    for i, (name, start, end, parent, task, count) in enumerate(spans):
        profile = out.get(task)
        if profile is None:
            profile = out[task] = {n: [0.0, 0, 0.0, 0.0] for n in SPAN_NAMES}
            profile[None] = 0.0
        entry = profile[name]
        entry[0] += end - start - child_time[i]
        entry[1] += 1
        entry[2] += end - start
        entry[3] += count or 0
        if parent == -1:
            profile[None] += end - start
    return out
