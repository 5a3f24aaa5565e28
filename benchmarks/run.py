"""Benchmark of progressio: four closed-loop workloads, one process each.

    python3 benchmarks/run.py --workload scan --seed 0 --seconds 25 --trace 0
    python3 benchmarks/run.py --workload all          # every workload in turn

Untraced (--trace 0): run whole cycles of the workload's calls, one after
another, while the next cycle still fits in --seconds (at least one
cycle), and check every output. Set-up (fresh import, the seeded inputs
turned into program values, the scan certificate) is timed SETUP_REPS
times, spread over the run, and setup_s is the median; making the seeded
inputs themselves is the benchmark's own work and is not timed. Prints
each end-to-end metric, then one JSON result line. The result is correct
only if every call succeeds, except the known deadline miss of a call run
after the cycles (inputs.certify_inputs).

Traced (--trace 1): a fixed subset of the calls, run once untraced and
once with every layer wrapped (see tracing.py), so counts repeat exactly
for a seed; --seconds is not used. Prints the per-layer metrics and
writes the spans to benchmarks/out/trace-<workload>-seed<seed>.json.

Only the standard library is used; the program is imported from the
src/ directory next to this one.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from time import perf_counter

import inputs
import tracing
import workloads

WORKLOADS = ("scan", "sweep", "factor", "certify")
SETUP_REPS = 21
# A sweep cycle is four small calls and one large one; with a single cycle
# the 90th percentile would fall between the two sizes.
MIN_CYCLES = {"sweep": 2}

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("call_p50_ms", "ms"),
    ("call_p90_ms", "ms"),
    ("ok_share", "share"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("poly.mul.calls", "count"),
    ("poly.mul.s", "s"),
    ("poly.mul.coeff_products", "count"),
    ("poly.divmod.calls", "count"),
    ("poly.divmod.s", "s"),
    ("poly.divmod.coeff_ops", "count"),
    ("poly.pow_mod.calls", "count"),
    ("poly.pow_mod.s", "s"),
    ("poly.compose_mod.calls", "count"),
    ("poly.compose_mod.s", "s"),
    ("factor.frobenius.compositions", "count"),
    ("poly.gcd.calls", "count"),
    ("poly.gcd.s", "s"),
    ("poly.poly_new.calls", "count"),
    ("factor.is_irreducible.calls", "count"),
    ("factor.is_irreducible.s", "s"),
    ("factor.irreducible_ratio", "ratio"),
    ("factor.factorize.calls", "count"),
    ("factor.factorize.s", "s"),
    ("construct.build_stable.s", "s"),
    ("construct.build_c.calls", "count"),
    ("construct.build_c.s", "s"),
    ("construct.violations.s", "s"),
    ("construct.text.s", "s"),
    ("galois.certify_sn.s", "s"),
    ("galois.ramification_type.calls", "count"),
    ("galois.ramification_type.s", "s"),
    ("dirichlet.density_scan.s", "s"),
    ("dirichlet.search_exhaustive.s", "s"),
    ("dirichlet.sieve_pass_ratio", "ratio"),
    ("par.workers", "count"),
    ("par.chunks", "count"),
    ("par.run_chunked.s", "s"),
    ("par.busy_s", "s"),
    ("par.overhead_s", "s"),
    ("par.speedup", "ratio"),
    ("cli.run.s", "s"),
    ("cli.self_s", "s"),
    ("cli.bytes_out", "bytes"),
    ("ff.prime_field.calls", "count"),
    ("ff.prime_field.s", "s"),
    ("trace.overhead", "share"),
)


@dataclass
class Record:
    seconds: float
    units: int
    kind: str  # ok, deadline, error (raised), check (wrong output)
    detail: str | None = None
    expected: bool = False  # a known failure, which leaves the result correct


def timed_call(workload, st, index, call, mods, work, golden, tracer=None):
    t0 = perf_counter()
    try:
        with workloads.deadline(call.get("deadline")):
            with tracer.op() if tracer else nullcontext():
                out = workloads.run_call(workload, st, call, mods, work)
    except workloads.DeadlineExceeded as exc:
        return Record(perf_counter() - t0, 0, "deadline", str(exc))
    except Exception as exc:  # one failed operation; the run goes on
        detail = "".join(traceback.format_exception_only(exc)).strip()
        traceback.print_exc(file=sys.stderr)
        return Record(perf_counter() - t0, 0, "error", detail)
    elapsed = perf_counter() - t0
    with tracer.paused() if tracer else nullcontext():
        try:
            reason = workloads.check(workload, st, index, call, out, golden, mods)
        except Exception as exc:  # output the check could not even read
            reason = f"check raised {exc!r}"
    if reason:
        return Record(elapsed, 0, "check", reason)
    return Record(elapsed, out["units"], "ok")


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (values sorted)."""
    if not values:
        return 0.0
    pos = q * (len(values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def peak_rss_mb() -> float:
    # Linux reports kilobytes: this process plus its largest finished child.
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024


def timed_setup(workload, made):
    """One set-up from a fresh import: (seconds, program modules, state)."""
    t0 = perf_counter()
    mods = workloads.load_program(fresh=True)
    st = workloads.setup(workload, made, mods)
    return perf_counter() - t0, mods, st


def extra_setup(workload, made) -> float:
    """Time one more set-up between calls, then put the running one back.

    The pool pickles its chunk function by module path, so sys.modules
    must hold the modules the running workload was built from.
    """
    saved = workloads.program_modules()
    try:
        return timed_setup(workload, made)[0]
    finally:
        for name in workloads.program_modules():
            del sys.modules[name]
        sys.modules.update(saved)
        gc.collect()


def run_untraced(workload, seed, seconds, smoke, golden):
    # Set-ups are spread over the run: a few back to back would all sample
    # the machine's speed at one moment, which varies more than the run.
    made = workloads.make_inputs(workload, seed, smoke)
    elapsed, mods, st = timed_setup(workload, made)
    setup_times = [elapsed]
    records: list[Record] = []
    work = workloads.WorkDir()
    try:
        start = last_setup = perf_counter()
        cycles = 0
        while True:
            cycle_start = perf_counter()
            for index, call in enumerate(st["calls"]):
                records.append(timed_call(workload, st, index, call, mods,
                                          work.path, golden))
                if len(setup_times) < SETUP_REPS \
                        and perf_counter() - last_setup > seconds / SETUP_REPS:
                    setup_times.append(extra_setup(workload, made))
                    last_setup = perf_counter()
            cycles += 1
            cycle = perf_counter() - cycle_start
            if cycles >= MIN_CYCLES.get(workload, 1) \
                    and perf_counter() - start + cycle > seconds:
                break
        peak_mb = peak_rss_mb()
        while len(setup_times) < SETUP_REPS:
            setup_times.append(extra_setup(workload, made))
        # Calls run once after the cycles count as attempted and are
        # checked, but stay out of the timings: their one-off cost would
        # weigh differently with the number of cycles that fit. Today each
        # misses its deadline; that miss, and only that, is expected.
        finals = [timed_call(workload, st, None, call, mods, work.path, golden)
                  for call in st.get("final", [])]
        for r in finals:
            r.expected = r.kind == "deadline"
    finally:
        work.close()
    ok = [r for r in records if r.kind == "ok"]
    latencies = sorted(r.seconds * 1000 for r in ok)
    busy = sum(r.seconds for r in records)
    records += finals
    metrics = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": sum(r.units for r in ok) / busy,
        "call_p50_ms": percentile(latencies, 0.5),
        "call_p90_ms": percentile(latencies, 0.9),
        "ok_share": sum(r.kind == "ok" for r in records) / len(records),
        "peak_rss_mb": peak_mb,
    }
    return metrics, records, {"calls_timed": len(latencies)}


def run_traced(workload, seed, smoke, golden):
    mods = workloads.load_program()
    st = workloads.setup(workload, workloads.make_inputs(workload, seed, smoke), mods)
    subset = workloads.trace_subset(workload, st)
    index_of = {id(c): i for i, c in enumerate(st["calls"])}
    work = workloads.WorkDir()

    def pass_over(calls, tracer):
        tracer.install()
        try:
            return [timed_call(workload, st, index_of.get(id(c), 0), c, mods,
                               work.path, golden, tracer) for c in calls]
        finally:
            tracer.uninstall()

    try:
        # The untraced pass wraps only run_chunked: one call per scan.
        serial = tracing.Tracer(mods, ("par.run_chunked",))
        base = pass_over(subset, serial)
        full = tracing.Tracer(mods)
        traced = pass_over(subset, full)
        pooled = tracing.Tracer(mods, ("par.run_chunked",))
        wide = pass_over([{"workers": workloads.nproc()}], pooled) \
            if workload == "scan" else []
    finally:
        work.close()

    s, c = full.summary(), full.counters
    records = base + traced + wide
    units = sum(r.units for r in traced if r.kind == "ok")
    irr_calls = s["factor.is_irreducible"]["calls"]
    m = {}
    for layer in ("poly.mul", "poly.divmod", "poly.pow_mod", "poly.compose_mod",
                  "poly.gcd", "factor.is_irreducible", "factor.factorize",
                  "construct.build_c", "galois.ramification_type",
                  "ff.prime_field"):
        m[f"{layer}.calls"] = s[layer]["calls"]
        m[f"{layer}.s"] = s[layer]["busy_s"]
    for layer in ("construct.build_stable", "construct.violations",
                  "construct.text", "galois.certify_sn", "dirichlet.density_scan",
                  "dirichlet.search_exhaustive", "cli.run"):
        m[f"{layer}.s"] = s[layer]["busy_s"]
    m["poly.mul.coeff_products"] = c["poly.mul.coeff_products"]
    m["poly.divmod.coeff_ops"] = c["poly.divmod.coeff_ops"]
    m["factor.frobenius.compositions"] = c["factor.frobenius.compositions"]
    m["poly.poly_new.calls"] = s["poly.poly_new"]["calls"]
    m["factor.irreducible_ratio"] = \
        c["factor.is_irreducible.true"] / irr_calls if irr_calls else 0.0
    m["dirichlet.sieve_pass_ratio"] = \
        irr_calls / units if workload in ("scan", "sweep") and units else 0.0
    m["cli.self_s"] = s["cli.run"]["self_s"]
    m["cli.bytes_out"] = c["cli.bytes_out"]
    par = {k: 0 for k in ("par.workers", "par.chunks", "par.run_chunked.s",
                          "par.busy_s", "par.overhead_s", "par.speedup")}
    if wide:
        workers = pooled.counters["par.workers"]
        wall = pooled.summary()["par.run_chunked"]["busy_s"]
        busy = serial.summary()["par.run_chunked"]["busy_s"]
        par = {
            "par.workers": workers,
            "par.chunks": pooled.counters["par.chunks"],
            "par.run_chunked.s": wall,
            "par.busy_s": busy,
            "par.overhead_s": wall - busy / workers,
            "par.speedup": base[0].seconds / wide[0].seconds,
        }
    m.update(par)
    untraced_s = sum(r.seconds for r in base)
    traced_s = sum(r.seconds for r in traced)
    m["trace.overhead"] = traced_s / untraced_s - 1
    m = {name: m[name] for name, _ in PER_LAYER}

    workloads.OUT.mkdir(exist_ok=True)
    path = workloads.OUT / f"trace-{workload}-seed{seed}.json"
    full.write(path, s, {"workload": workload, "seed": seed,
                         "untraced_s": untraced_s, "traced_s": traced_s})
    return m, records, {"calls_traced": len(traced), "trace_file": str(path)}


def git_commit() -> str:
    git = workloads.ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((workloads.SRC / "progressio").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def run_one(args) -> int:
    try:
        workloads.load_program()
        golden = workloads.load_golden() if args.seed == 0 and not args.smoke else None
    except (OSError, ImportError) as exc:
        print(f"cannot load the program or its golden data: {exc}", file=sys.stderr)
        return 2
    if args.trace:
        metrics, records, extra = run_traced(args.workload, args.seed, args.smoke, golden)
        units = dict(PER_LAYER)
    else:
        metrics, records, extra = run_untraced(
            args.workload, args.seed, args.seconds, args.smoke, golden)
        units = dict(END_TO_END)
    failed = [r for r in records if r.kind != "ok"]
    context = {
        "workload": args.workload, "seed": args.seed, "traced": bool(args.trace),
        "smoke": args.smoke, "seconds": args.seconds,
        "python": platform.python_version(), "nproc": workloads.nproc(),
        "scan_workers": workloads.nproc(), "commit": git_commit(),
        "src_sha256": src_digest(), "attempted": len(records),
        "failed_share": len(failed) / len(records), **extra,
    }
    if args.workload == "certify":
        context["deadline_s"] = (inputs.CERTIFY_SMOKE_DEADLINE_S if args.smoke
                                 else inputs.CERTIFY_DEADLINE_S)
    print("# context " + json.dumps(context))
    for r in failed:
        known = " (known, expected)" if r.expected else ""
        print(f"# failed {r.kind}{known}: {r.detail}")
    for name, value in metrics.items():
        print(f"# {args.workload} {name} = {value:.6g} {units[name]}")
    result = {
        "correct": all(r.kind == "ok" or r.expected for r in records),
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Every workload in its own process, so peak memory stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined), flush=True)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest sizes, for the benchmark's own test")
    args = parser.parse_args()
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
