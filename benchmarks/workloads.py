"""The four workloads: set-up, one user-facing call, and its output check.

Each workload is a cycle of calls built from the seed. A call returns an
outcome dict with ``units`` (members tested, candidates scanned,
polynomials or pencils handled); ``check`` returns None when the outcome
is right, else a reason. Checks hold for every seed (identities that need
no oracle); at the default seed and full size they also compare against
data/golden.json, which record_golden.py cross-checked with sympy.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import shutil
import signal
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

PROGRAM_MODULES = {
    "pkg": "progressio", "ff": "progressio.ff", "poly": "progressio.poly",
    "factor": "progressio.factor", "construct": "progressio.construct",
    "galois": "progressio.galois", "dirichlet": "progressio.dirichlet",
    "par": "progressio._par", "cli": "progressio.cli",
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def program_modules() -> dict:
    """The loaded progressio package and its submodules, by name."""
    return {n: m for n, m in sys.modules.items() if m is not None
            and (n == "progressio" or n.startswith("progressio."))}


def load_program(fresh: bool = False) -> SimpleNamespace:
    """Import progressio from this checkout's src/, never from elsewhere."""
    if not (SRC / "progressio" / "__init__.py").is_file():
        raise FileNotFoundError(f"no program sources under {SRC}")
    if fresh:
        for name in program_modules():
            del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    mods = SimpleNamespace(**{k: importlib.import_module(v)
                              for k, v in PROGRAM_MODULES.items()})
    if Path(mods.pkg.__file__).resolve().parent != SRC / "progressio":
        raise ImportError(f"progressio loaded from {mods.pkg.__file__}")
    return mods


def load_golden() -> dict:
    return json.loads((inputs.DATA / "golden.json").read_text())


def digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()[:16]


class DeadlineExceeded(Exception):
    pass


@contextmanager
def deadline(seconds: float | None):
    """Raise DeadlineExceeded in this (main) thread after `seconds`."""
    if seconds is None:
        yield
        return

    def on_alarm(signum, frame):
        raise DeadlineExceeded(f"call exceeded its {seconds} s deadline")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class WorkDir:
    """Scratch directory for the CLI's certificate files, inside out/."""

    def __init__(self):
        OUT.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))

    def close(self):
        shutil.rmtree(self.path, ignore_errors=True)


# ---------------------------------------------------------------------------
# Inputs and set-up. make_inputs is the benchmark's own work: seeded plain
# integers and lists, made once per run and left out of setup_s. setup is
# the program's: it turns them into program values and, for scan, builds
# the certificate. It copies every call, so each set-up owns its values.


def make_inputs(workload: str, seed: int, smoke: bool) -> dict:
    if workload == "scan":
        return {"spec": inputs.scan_inputs(seed, smoke)}
    if workload == "sweep":
        return {"calls": inputs.sweep_inputs(seed, smoke)}
    if workload == "factor":
        return {"calls": inputs.factor_inputs(seed, smoke)}
    if workload == "certify":
        cycle, final = inputs.certify_inputs(seed, smoke)
        return {"calls": cycle, "final": final}
    raise ValueError(f"unknown workload {workload!r}")


def setup(workload: str, made: dict, mods) -> dict:
    if workload == "scan":
        spec = made["spec"]
        field = mods.ff.PrimeField(spec["p"])
        a = mods.poly.Poly(field, spec["a"])
        b = mods.poly.Poly(field, spec["b"])
        cert = mods.construct.build_stable(a, b, spec["n"], 0)
        bc = list((cert.b * cert.c).coeffs)
        return dict(spec, cert=cert, bc=bc,
                    violations=mods.construct.certificate_violations(cert),
                    calls=[{"workers": nproc()}])
    if workload == "sweep":
        calls = []
        for call in made["calls"]:
            field = mods.ff.PrimeField(call["p"])
            calls.append(dict(call, a_poly=mods.poly.Poly(field, call["a"]),
                              b_poly=mods.poly.Poly(field, call["b"])))
        return {"calls": calls}
    if workload == "factor":
        fields = {p: mods.ff.PrimeField(p) for p in {c["p"] for c in made["calls"]}}
        return {"calls": [dict(c, poly=mods.poly.Poly(fields[c["p"]], c["f"]))
                          for c in made["calls"]]}
    if workload == "certify":
        return {"calls": made["calls"], "final": made["final"]}
    raise ValueError(f"unknown workload {workload!r}")


def trace_subset(workload: str, st: dict) -> list[dict]:
    """The fixed work a traced run repeats, untraced and then traced.

    It leaves out the calls run once after the cycles (``st["final"]``).
    """
    calls = st["calls"]
    if workload == "scan":
        return [{"workers": 1}]
    if workload == "sweep":
        return [calls[0], calls[-1]]
    if workload == "factor":
        return inputs.factor_trace_subset(calls)
    return inputs.certify_trace_subset(calls)


# ---------------------------------------------------------------------------
# One user-facing call per workload.


def run_scan_call(st: dict, mods, workers: int | None) -> dict:
    result = mods.dirichlet.density_scan(st["cert"], workers)
    return {"count": result.count, "ratio": result.ratio, "units": st["p"] - 1}


def run_sweep_call(call: dict, mods) -> dict:
    report = mods.dirichlet.search_exhaustive(
        call["a_poly"], call["b_poly"], call["n"])
    return {"report": report, "units": report.scanned}


def run_factor_call(call: dict, mods) -> dict:
    irreducible = mods.factor.is_irreducible(call["poly"])
    result = mods.factor.factorize(call["poly"])
    return {"irreducible": irreducible, "result": result, "units": 1}


def run_certify_call(call: dict, mods, work: Path) -> dict:
    cert_path, out_path = work / "cert.txt", work / "sn.csv"
    for path in (cert_path, out_path):
        path.unlink(missing_ok=True)
    rc1 = mods.cli.run([
        "construct", "-p", str(call["p"]), "-a", inputs.text(call["a"]),
        "-b", inputs.text(call["b"]), "-n", str(call["n"]), "-o", str(cert_path),
    ])
    rc2 = mods.cli.run(["certify", "--cert", str(cert_path), "-o", str(out_path)]) \
        if rc1 == 0 else None
    return {
        "rc": (rc1, rc2),
        "construct": cert_path.read_bytes() if cert_path.exists() else b"",
        "certify": out_path.read_bytes() if out_path.exists() else b"",
        "units": 1,
    }


def run_call(workload: str, st: dict, call: dict, mods, work: Path | None) -> dict:
    if workload == "scan":
        return run_scan_call(st, mods, call["workers"])
    if workload == "sweep":
        return run_sweep_call(call, mods)
    if workload == "factor":
        return run_factor_call(call, mods)
    return run_certify_call(call, mods, work)


# ---------------------------------------------------------------------------
# Output checks.


def check(workload: str, st: dict, index: int | None, call: dict, out: dict,
          golden: dict | None, mods) -> str | None:
    """None if the outcome is right; `index` is the call's place in the
    cycle, None for a call run after the cycles (it has no golden entry)."""
    if index is None:
        golden = None
    if workload == "scan":
        return _check_scan(st, out, golden)
    if workload == "sweep":
        return _check_sweep(call, out, golden)
    if workload == "factor":
        return _check_factor(call, out, None if golden is None
                             else golden["factor"][index])
    return _check_certify(call, out, mods, None if golden is None
                          else golden["certify"][index])


def _check_scan(st, out, golden):
    if st["violations"]:
        return f"scan certificate violates {st['violations']}"
    first = st.setdefault("first_count", out["count"])
    if out["count"] != first:
        return f"count {out['count']} differs from an earlier call's {first}"
    if not 0.5 <= out["ratio"] <= 1.5:
        return f"count/(p/n) = {float(out['ratio']):.3f} outside [1/2, 3/2]"
    if golden is not None and out["count"] != golden["scan"]["count"]:
        return f"count {out['count']} != golden {golden['scan']['count']}"
    return None


def _check_sweep(call, out, golden):
    p, n, a = call["p"], call["n"], call["a"]
    report = out["report"]
    want_hits = (p - 1) * inputs.count_irreducibles(p, n)
    want_scanned = (p - 1) * p ** n
    if (len(report.hits), report.scanned) != (want_hits, want_scanned):
        return (f"p={p} n={n}: {len(report.hits)}/{report.scanned} hits/scanned, "
                f"want {want_hits}/{want_scanned}")
    for c, member in report.hits:
        if list(member.coeffs) != inputs.add(a, list(c.coeffs), p) \
                or len(member.coeffs) != n + 1:
            return f"p={p} n={n}: member {member} is not a + b*c of degree n"
    if golden is not None:
        rows = [g for g in golden["sweep"] if (g["p"], g["n"]) == (p, n)]
        if not rows or (rows[0]["hits"], rows[0]["scanned"]) != (
                len(report.hits), report.scanned):
            return f"p={p} n={n}: differs from golden {rows}"
    return None


def _check_factor(call, out, golden_digest):
    result = out["result"]
    # With the product right and the (degree, multiplicity) pairs equal to
    # the known type, the factors counted with multiplicity are as many as
    # the input's irreducible factors, so each must be irreducible.
    if result.expand() != call["poly"]:
        return f"factorization of a degree-{call['n']} input does not expand back"
    got = sorted(([int(g.degree), k] for g, k in result.factors), reverse=True)
    if got != call["pattern"]:
        return f"factor type {got} != {call['pattern']}"
    if len({tuple(g.coeffs) for g, _ in result.factors}) != len(result.factors):
        return "a factor is listed twice"
    if out["irreducible"] != (call["pattern"] == [[call["n"], 1]]):
        return f"is_irreducible says {out['irreducible']} for {call['pattern']}"
    if golden_digest is not None and digest(result.to_text().encode()) != golden_digest:
        return "factorization text differs from golden"
    return None


def _check_certify(call, out, mods, golden_digest):
    if out["rc"] != (0, 0):
        return f"exit codes {out['rc']} for p={call['p']} n={call['n']}"
    cert = mods.construct.certificate_from_text(out["construct"].decode())
    violated = mods.construct.certificate_violations(cert)
    if violated:
        return f"certificate violates {violated}"
    rows = out["certify"].decode().splitlines()[1:]
    clauses = {row.split(",")[0]: row.split(",")[1] for row in rows}
    want = {"transitive", "long-cycle", "transposition", "symmetric-group"}
    if set(clauses) != want or set(clauses.values()) != {"true"}:
        return f"certify clauses {clauses}"
    if golden_digest is not None and digest(out["construct"], out["certify"]) != golden_digest:
        return "construct/certify bytes differ from golden"
    return None
