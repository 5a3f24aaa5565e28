"""Span tracing around the program's layer boundaries, from outside it.

A ``Tracer`` rebinds module attributes of the loaded progressio package
(for example ``progressio.poly._mul``) to thin wrappers, and rebinds every
other module-level alias of the same function too (``factor`` imports
``_pow_mod`` by name, ``cli`` imports ``factorize``, ...). Nothing in the
program changes; ``uninstall`` puts every original back.

Each wrapped call appends one span: layer, parent span, operation id,
start and end. Spans live in flat arrays in memory and are summarised,
and written, when the run ends. A layer entered again from inside itself
(Karatsuba recursion in ``_mul``) is not a new span, so a layer's calls
and busy time count outermost entries only. Self time is a span's
duration minus the durations of its direct child spans.

Wrappers are closures and cannot be pickled, so a traced pass that wraps
more than ``run_chunked`` must keep the process pool out of the way (one
worker: ``run_chunked`` then runs in-process).
"""

from __future__ import annotations

import json
from array import array
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

from workloads import program_modules


@dataclass(frozen=True)
class Layer:
    name: str
    targets: tuple[tuple[str, str], ...]  # (program module, attribute path)
    counted_only: bool = False  # count calls, record no span
    hook: Callable | None = None  # hook(counters, args, result) after a call
    kernel: bool = False  # too many spans to write out one by one


def _mul_hook(c, args, result):
    c["poly.mul.coeff_products"] += len(args[0]) * len(args[1])


def _divmod_hook(c, args, result):
    na, nb = len(args[0]), len(args[1])
    if na >= nb:
        c["poly.divmod.coeff_ops"] += (na - nb + 1) * nb


def _pow_mod_hook(c, args, result):
    # _pow_mod(base, k, modulus, p): k == p is one Frobenius application.
    if args[1] == args[3]:
        c["factor.frobenius.compositions"] += 1


def _compose_hook(c, args, result):
    c["factor.frobenius.compositions"] += 1


def _rabin_hook(c, args, result):
    if result:
        c["factor.is_irreducible.true"] += 1


def _run_chunked_hook(c, args, result):
    jobs = args[1]
    workers = args[2] if len(args) > 2 and args[2] is not None else 1
    c["par.chunks"] += len(jobs)
    c["par.workers"] = max(c["par.workers"], min(workers, len(jobs)))


def _emit_hook(c, args, result):
    c["cli.bytes_out"] += len(args[0].encode("utf-8"))


LAYERS = (
    Layer("poly.mul", (("poly", "_mul"),), hook=_mul_hook, kernel=True),
    Layer("poly.divmod", (("poly", "_divmod"),), hook=_divmod_hook, kernel=True),
    Layer("poly.pow_mod", (("poly", "_pow_mod"),), hook=_pow_mod_hook, kernel=True),
    Layer("poly.compose_mod", (("poly", "_compose_mod"),), hook=_compose_hook,
          kernel=True),
    Layer("poly.gcd", (("poly", "_gcd"), ("poly", "_xgcd")), kernel=True),
    Layer("poly.poly_new", (("poly", "Poly.__init__"),), counted_only=True),
    Layer("ff.prime_field", (("ff", "PrimeField.__init__"),)),
    Layer("factor.is_irreducible", (("factor", "_rabin_irreducible"),),
          hook=_rabin_hook),
    Layer("factor.factorize", (("factor", "factorize"),)),
    Layer("construct.build_stable", (("construct", "build_stable"),)),
    Layer("construct.build_c", (("construct", "build_c"),)),
    Layer("construct.violations", (("construct", "certificate_violations"),)),
    Layer("construct.text", (("construct", "certificate_to_text"),
                             ("construct", "certificate_from_text"))),
    Layer("galois.certify_sn", (("galois", "certify_sn"),)),
    Layer("galois.ramification_type", (("galois", "ramification_type"),)),
    Layer("dirichlet.density_scan", (("dirichlet", "density_scan"),)),
    Layer("dirichlet.search_exhaustive", (("dirichlet", "search_exhaustive"),)),
    Layer("par.run_chunked", (("par", "run_chunked"),), hook=_run_chunked_hook),
    Layer("cli.run", (("cli", "run"),)),
    Layer("cli.emit", (("cli", "_emit"),), counted_only=True, hook=_emit_hook),
)

OP = "bench.op"


class Tracer:
    """Installs wrappers for the chosen layers and records their spans."""

    def __init__(self, mods, layer_names: tuple[str, ...] | None = None):
        self.mods = mods
        self.layers = [L for L in LAYERS
                       if layer_names is None or L.name in layer_names]
        self.names = [OP] + [L.name for L in self.layers]
        self.layer = array("i")
        self.parent = array("i")
        self.op_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        # skip[i] is true while layer i is already on the stack, or while
        # the tracer is paused; a wrapper then calls straight through.
        self.skip = [False] * len(self.names)
        self.counts = [0] * len(self.names)
        self.counters: dict[str, int] = defaultdict(int)
        self.ops = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- installing

    def install(self):
        for lid, layer in enumerate(self.layers, start=1):
            for mod_key, path in layer.targets:
                owner = getattr(self.mods, mod_key)
                if "." in path:
                    cls_name, attr = path.split(".")
                    cls = getattr(owner, cls_name)
                    orig = cls.__dict__[attr]
                    self._rebind(cls, attr, self._wrap(orig, lid, layer))
                    continue
                orig = getattr(owner, path)
                wrapper = self._wrap(orig, lid, layer)
                for mod in program_modules().values():
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            self._rebind(mod, key, wrapper)
        return self

    def _rebind(self, owner, attr, wrapper):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    def _wrap(self, orig, lid: int, layer: Layer):
        skip, counts, counters, hook = self.skip, self.counts, self.counters, layer.hook
        if layer.counted_only:
            def counted(*args, **kwargs):
                if skip[lid]:
                    return orig(*args, **kwargs)
                counts[lid] += 1
                result = orig(*args, **kwargs)
                if hook is not None:
                    hook(counters, args, result)
                return result
            return counted

        stack = self.stack
        layer_a, parent_a, op_a = self.layer, self.parent, self.op_of
        start_a, end_a = self.start, self.end
        tracer = self

        def spanned(*args, **kwargs):
            if skip[lid]:
                return orig(*args, **kwargs)
            skip[lid] = True
            idx = len(start_a)
            layer_a.append(lid)
            parent_a.append(stack[-1])
            op_a.append(tracer.ops)
            start_a.append(0.0)
            end_a.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                skip[lid] = False
                start_a[idx] = t0
                end_a[idx] = t1
            if hook is not None:
                hook(counters, args, result)
            return result
        return spanned

    # -- benchmark-side spans

    @contextmanager
    def op(self):
        """One user-facing call: the root span its layer spans hang from."""
        self.ops += 1
        idx = len(self.start)
        self.layer.append(0)
        self.parent.append(-1)
        self.op_of.append(self.ops)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self.stack.append(idx)
        try:
            yield
        finally:
            self.stack.pop()
            self.end[idx] = perf_counter()

    @contextmanager
    def paused(self):
        """Run the benchmark's own checks without recording them."""
        saved = list(self.skip)
        self.skip[:] = [True] * len(self.skip)
        try:
            yield
        finally:
            self.skip[:] = saved

    # -- results

    def summary(self) -> dict[str, dict[str, float]]:
        """Per layer: calls, busy seconds (outermost spans), self seconds."""
        n = len(self.start)
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        out = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
               for name in self.names}
        for i in range(n):
            row = out[self.names[self.layer[i]]]
            row["calls"] += 1
            row["busy_s"] += dur[i]
            row["self_s"] += dur[i] - child[i]
        for lid, layer in enumerate(self.layers, start=1):
            if layer.counted_only:
                out[layer.name]["calls"] = self.counts[lid]
        return out

    def write(self, path, summary, extra: dict):
        """Write the layer table, counters and every non-kernel span."""
        kernel = {i for i, name in enumerate(self.names)
                  if any(L.kernel and L.name == name for L in self.layers)}
        spans = [
            [i, self.names[self.layer[i]], self.parent[i], self.op_of[i],
             round(self.start[i], 7), round(self.end[i], 7)]
            for i in range(len(self.start)) if self.layer[i] not in kernel
        ]
        doc = {
            "layers": summary,
            "counters": dict(self.counters),
            "span_fields": ["index", "layer", "parent_index", "op", "start_s", "end_s"],
            "kernel_spans_not_listed": len(self.start) - len(spans),
            "spans": spans,
            **extra,
        }
        path.write_text(json.dumps(doc) + "\n")
