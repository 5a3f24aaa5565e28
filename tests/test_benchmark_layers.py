"""Every program attribute the benchmark's tracer binds must still exist.

``benchmarks/tracing.py`` wraps program functions by (module, attribute)
name for its per-layer metrics, so deleting or renaming one breaks
``benchmarks/run.py --trace 1``. The benchmark code is imported, never
changed.
"""

import importlib
import random
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


def test_frobenius_layers_see_the_work(monkeypatch):
    # The tracer's X^p and X^(p^2) layers count calls of poly._pow_mod(..., k == p) and
    # poly._compose_mod, so factor must reach both through those two names.
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    try:
        tracing = importlib.import_module("tracing")
        mods = importlib.import_module("workloads").load_program()
        field, rng = mods.ff.PrimeField(10007), random.Random(8)
        f = next(f for f in (mods.poly.Poly(field, [rng.randrange(10007) for _ in range(8)]
                                            + [1]) for _ in range(1000))
                 if mods.factor.is_irreducible(f))
        tracer = tracing.Tracer(
            mods, ("poly.pow_mod", "poly.compose_mod", "factor.is_irreducible")).install()
        try:
            assert mods.factor.is_irreducible(f)
        finally:
            tracer.uninstall()
        assert tracer.counters["factor.frobenius.compositions"] > 0
        assert tracer.summary()["poly.compose_mod"]["calls"] > 0
    finally:
        for name in ("tracing", "workloads", "inputs"):
            sys.modules.pop(name, None)
