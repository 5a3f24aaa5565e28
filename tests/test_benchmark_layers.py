"""Every program attribute the benchmark's tracer binds must still exist.

``benchmarks/tracing.py`` wraps program functions by (module, attribute)
name for its per-layer metrics, so deleting or renaming one breaks
``benchmarks/run.py --trace 1``. The benchmark code is imported, never
changed.
"""

import importlib
import sys
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def test_every_traced_layer_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    try:
        tracing = importlib.import_module("tracing")
        modules = importlib.import_module("workloads").PROGRAM_MODULES
        for layer in tracing.LAYERS:
            for mod_key, path in layer.targets:
                owner = importlib.import_module(modules[mod_key])
                for attr in path.split("."):
                    assert hasattr(owner, attr), (layer.name, mod_key, path)
                    owner = getattr(owner, attr)
    finally:
        for name in ("tracing", "workloads", "inputs"):
            sys.modules.pop(name, None)
