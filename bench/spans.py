"""Span recorder for the traced benchmark run.

Spans are recorded from outside the package: ``Tracer.install`` replaces a
public function at every ``geostab`` module attribute bound to it (so the
callers' own global lookups hit the wrapper) and ``uninstall`` puts the
originals back.  A wrapper records a span only while ``recording`` is set,
which the benchmark does around the package work of one operation, so its
own checks never show up as package time.

Each span is kept in memory as (name, layer, key, start, end, parent index,
operation id, rows) and written out once at the end of the run.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional

import numpy as np


def _rows_of_batch(args, kwargs) -> int:
    tables = args[0] if args else kwargs["tables"]
    return int(np.shape(tables)[0])


@dataclass(frozen=True)
class Target:
    """One wrapped function: where it is defined and what its spans count as."""

    module: str  # defining module, relative to the package
    func: str
    layer: str  # layer the span's self time is charged to
    key: str  # per-layer metric family, e.g. "inst" -> instability.inst_*
    rows: Optional[Callable] = None


# One layer per package module.  jumps_of_path lives in
# instability but is the path-verification step of the CLI report, so it is
# charged to hypercube together with is_geodesic.
TARGETS = (
    Target("cli", "main", "cli", "cli"),
    Target("instability", "inst_exact", "instability", "inst"),
    Target("instability", "winst_exact", "instability", "winst"),
    Target("instability", "inst_values_batch", "instability", "batch", _rows_of_batch),
    Target("instability", "winst_values_batch", "instability", "batch", _rows_of_batch),
    Target("instability", "jumps_of_path", "hypercube", "verify"),
    Target("hypercube", "is_geodesic", "hypercube", "verify"),
    Target("hypercube", "expand", "hypercube", "expand"),
    Target("colourings", "make", "colourings", "make"),
    Target("colourings", "table_from_hex", "colourings", "spec_decode"),
    Target("colourings", "table_from_free_layers", "colourings", "free_layers"),
    Target("constructions", "zigzag_witness", "constructions", "constructions"),
    Target("constructions", "construction_jumps", "constructions", "constructions"),
    Target("bounds", "formula_bounds", "bounds", "bounds"),
    Target("search", "min_inst_exhaustive", "search", "sweep"),
    Target("search", "min_winst_exhaustive", "search", "sweep"),
)

LAYERS = ("cli", "instability", "search", "colourings", "hypercube", "constructions", "bounds")


class Tracer:
    """Collects spans from wrapped package functions while recording."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.recording = False
        self.op_id = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, Callable]] = []

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        name = f"{target.module}.{target.func}"
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            rows = target.rows(args, kwargs) if target.rows else 0
            span = [name, target.layer, target.key, 0.0, 0.0,
                    stack[-1] if stack else -1, self.op_id, rows]
            stack.append(len(spans))
            spans.append(span)
            span[3] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[4] = perf_counter()
                stack.pop()

        return wrapper

    def install(self, package: str = "geostab") -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == package or name.startswith(package + "."))]
        for target in TARGETS:
            original = getattr(sys.modules[f"{package}.{target.module}"], target.func)
            wrapper = self._wrap(target, original)
            for module in modules:
                if getattr(module, target.func, None) is original:
                    self._patched.append((module, target.func, original))
                    setattr(module, target.func, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, layer, key, start, end, parent, op, rows in self.spans:
                fh.write(json.dumps({"name": name, "layer": layer, "start": start, "end": end,
                                     "parent": parent, "op": op, "rows": rows}) + "\n")


def span_cost_s(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds one recorded span adds to a call.

    Times ``calls`` calls of a no-op through a recording wrapper against the
    same calls made directly, and keeps the median difference per call over
    ``repeats`` tries.  The spans go to a throw-away tracer.
    """
    tracer = Tracer()
    tracer.recording = True

    def noop():
        return None

    wrapped = tracer._wrap(Target("calibration", "noop", "cli", "noop"), noop)
    costs = []
    for _ in range(repeats):
        tracer.spans.clear()
        t0 = perf_counter()
        for _ in range(calls):
            noop()
        t1 = perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(costs)


def summarise(spans: list[list], first: int, last: int) -> dict:
    """Counts and times of spans[first:last]: per key, calls, inclusive seconds
    and rows; per layer, busy and self seconds; and the seconds of root spans.

    ``busy`` sums only a layer's outermost spans (parent in another layer),
    so nested calls within one layer are not counted twice; ``self`` is a
    span's duration less the durations of its direct children.
    """
    spans = spans[first:last]
    child_time = [0.0] * len(spans)
    for span in spans:
        parent = span[5] - first
        if parent >= 0:
            child_time[parent] += span[4] - span[3]
    calls: dict[str, int] = {}
    seconds: dict[str, float] = {}
    rows: dict[str, int] = {}
    busy = dict.fromkeys(LAYERS, 0.0)
    self_time = dict.fromkeys(LAYERS, 0.0)
    root = 0.0
    for i, (name, layer, key, start, end, parent, _op, nrows) in enumerate(spans):
        duration = end - start
        calls[key] = calls.get(key, 0) + 1
        seconds[key] = seconds.get(key, 0.0) + duration
        rows[key] = rows.get(key, 0) + nrows
        self_time[layer] += duration - child_time[i]
        if parent < 0:
            root += duration
        if parent < 0 or spans[parent - first][1] != layer:
            busy[layer] += duration
    return {"calls": calls, "seconds": seconds, "rows": rows, "busy": busy,
            "self": self_time, "root": root, "spans": len(spans)}
