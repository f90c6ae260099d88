"""The benchmark's tracer still finds every function it wraps.

bench/tracing.py names passivelsm functions by "module.function"; a
deleted or renamed one makes `Tracer.install` raise, which would
otherwise only show when the benchmark runs.
"""

import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")

    def targets():
        return {name: getattr(importlib.import_module(f"passivelsm.{mod}"), attr)
                for name in tracing.TARGETS for mod, attr in [name.split(".")]}

    originals = targets()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = targets()
    finally:
        tracer.uninstall()
    assert all(wrapped[name] is not fn for name, fn in originals.items())
    assert targets() == originals
