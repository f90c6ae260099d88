"""Spans around passivelsm's public entry points, installed from outside.

Each traced function is replaced, in every passivelsm module that holds it
under its own name, by a wrapper that records a span: name, operation index,
start, end, parent span and a work count.  Because the callers' references
are replaced, the spans see the calls exactly as the calling modules make
them.  Private helpers such as `specfun._j0y0` are not wrapped, so kernel
time spent through them counts as the caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np


def _rows(args, out):
    return len(np.atleast_2d(args["points"]))


# Traced functions: name -> (reported quantities, work quantity, work counter).
TARGETS = {
    "geometry.contains_points": (("calls", "points", "s"), "points", _rows),
    "geometry.boundary_distance": (("calls", "points", "s"), "points", _rows),
    "forward.assemble_single_layer": (
        ("calls", "nodes", "s"), "nodes", lambda a, out: out.size),
    "forward.require_exterior": (("calls", "points", "s"), "points", _rows),
    "forward.solve_charges": (
        ("calls", "sources", "s"), "sources", lambda a, out: out.shape[1]),
    "forward.scattered_matrix": (
        ("calls", "evals", "s"), "evals",
        lambda a, out: out.shape[0] * a["system"].size),
    "specfun.green2d": (("calls", "evals", "s"), "evals", lambda a, out: np.size(out)),
    "acquisition.near_field_matrix": (("calls", "s", "self_s"), None, None),
    "acquisition.cross_correlation_matrix": (("calls", "s", "self_s"), None, None),
    "acquisition.covariance_matrix": (
        ("calls", "s", "self_s", "realizations"), "realizations",
        lambda a, out: a["realizations"]),
    "acquisition.add_noise": (("calls", "s", "self_s"), None, None),
    "seeding.substream": (("calls",), None, None),
    "inversion.svd": (("calls", "s"), None, None),
    "inversion.rhs_vectors": (("calls", "s", "evals"), "evals", lambda a, out: out.size),
    "inversion.indicator_map": (
        ("calls", "probes", "self_s"), "probes", lambda a, out: out.values.size),
    "acquisition.write_matrix_csv": (
        ("s", "bytes"), "bytes", lambda a, out: os.path.getsize(a["path"])),
    "inversion.write_indicator_csv": (
        ("s", "bytes"), "bytes", lambda a, out: os.path.getsize(a["path"])),
    "inversion.write_indicator_raw_csv": (
        ("s", "bytes"), "bytes", lambda a, out: os.path.getsize(a["path"])),
    "inversion.write_indicator_pgm": (
        ("s", "bytes"), "bytes", lambda a, out: os.path.getsize(a["path"])),
}

UNITS = {"calls": "calls/op", "s": "s/op", "self_s": "s/op", "bytes": "B/op"}
STAGES = ("geometry", "assemble", "acquire", "noise", "invert", "write")
CRITERIA = range(1, 14)


def per_layer_catalogue() -> list:
    """Every per-layer metric as (name, unit, better), in reporting order."""
    out = []
    for name, (quantities, _, _) in TARGETS.items():
        for q in quantities:
            out.append((f"{name}.{q}", UNITS.get(q, f"{q}/op"), "lower"))
    out += [(f"pipeline.stage.{s}_s", "s", "lower") for s in STAGES]
    for n in CRITERIA:
        out += [(f"validate.criterion_{n}_s", "s", "lower"),
                (f"validate.criterion_{n}_passed", "bool", "higher")]
    out.append(("trace.overhead_pct", "%", "lower"))
    return out


@dataclass
class Span:
    name: str
    op: int
    parent: Optional[int]
    start: float = 0.0
    end: float = 0.0
    work: dict = field(default_factory=dict)


class Tracer:
    """Records spans while `enabled`; wrappers pass straight through otherwise."""

    def __init__(self):
        self.spans: list = []
        self.enabled = False
        self.op = -1
        self._stack: list = []
        self._patched: list = []

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "passivelsm" or n.startswith("passivelsm.")]
        # Resolve every name before patching any: a missing one is an error.
        originals = {name: getattr(importlib.import_module(f"passivelsm.{mod}"), attr)
                     for name in TARGETS for mod, attr in [name.split(".")]}
        for name, (_, work_name, counter) in TARGETS.items():
            attr = name.split(".")[1]
            original = originals[name]
            wrapper = self._wrap(name, original, work_name, counter)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, name, fn, work_name, counter):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = Span(name, self.op, self._stack[-1] if self._stack else None)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.work[work_name] = int(counter(bound.arguments, out))
            return out

        return wrapper

    def summary(self) -> dict:
        """Per name: calls, busy time s, self time self_s and summed work."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        table: dict = {}
        for i, s in enumerate(self.spans):
            row = table.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            if not self._nested_in_same(i):
                row["s"] += s.end - s.start
            row["self_s"] += s.end - s.start - child[i]
            for key, value in s.work.items():
                row[key] = row.get(key, 0) + value
        return table

    def _nested_in_same(self, i: int) -> bool:
        name, p = self.spans[i].name, self.spans[i].parent
        while p is not None:
            if self.spans[p].name == name:
                return True
            p = self.spans[p].parent
        return False

    def dump(self) -> list:
        return [{"name": s.name, "op": s.op, "parent": s.parent, "start": s.start,
                 "end": s.end, **s.work} for s in self.spans]
