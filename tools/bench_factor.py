"""Time factor's Frobenius engine and write BENCH_factor.json.

    python3 tools/bench_factor.py --parent OTHER/src --out BENCH_factor.json

Every row gives the median over the rounds of the mean µs per call, `us` for this tree;
with --parent, `parent_us` for another tree's src and `speedup`, its time over ours.
- kind "cell": is_irreducible then factorize, over one (n, p) cell of the `factor`
  workload's seed-0 inputs (benchmarks/inputs.py).
- kind "rows": the Frobenius rows X^(i*p) mod f of 5 seeded monic f, at n in {8, 16, 32,
  64} and p whose Barrett slots are 4 bytes (2, 5, 31; 101 at n = 8) or wider (101 from
  n = 16, 10007, 2^61 - 1).
  `route` is the route this tree picks by slot width; `chain_us` times one packed mulmod
  per row and `map_us` the linear map g -> X^p * g, at every cell.
- kind "split": factorize of a product at (10007, 128) whose first block of degrees
  [2, 4) holds 68 of the 128 ("refresh": rest shrinks below half, so the rows are taken
  anew) or 5 ("keep": the rows survive the split).
Every column runs once untimed first; each round times every column once, a row's columns
one after another, in an order that reverses from round to round. Standard library only.
"""

import argparse
import inspect
import json
import platform
import random
import statistics
import sys
import time
from itertools import accumulate, repeat
from pathlib import Path
from types import SimpleNamespace

from trees import HERE, load

sys.path.insert(0, str(HERE.parent / "benchmarks"))
from inputs import factor_inputs  # noqa: E402  (plain lists, no progressio)

M61 = (1 << 61) - 1
ROW_SIZES = (8, 16, 32, 64)
ROW_MODULI = (2, 5, 31, 101, 10007, M61)
SPLITS = {"refresh": (2,) * 16 + (3,) * 12 + (60,), "keep": (2, 3, 59, 64)}


def chain_rows(poly, xp, rem, p):
    # One packed mulmod by X^p per row, at any slot width.
    kb, mulmod = rem.kernel
    xs = accumulate(repeat(poly._pack(xp, kb), rem.n - 1), mulmod, initial=1)
    return [poly._trim(poly._unpack(x, kb, rem.n, p)) for x in xs]


def map_rows(poly, xp, rem, p):
    # The linear map g -> X^p * g: this tree's route for slots over 4 bytes.
    return poly._frobenius_rows(xp, SimpleNamespace(n=rem.n, f=rem.f, kernel=(9, None)), p)


def rows_call(mods, moduli, p):
    # This tree's _frobenius_rows on each f: (xp, rem, p), or an older (xp, f, p).
    poly, factor = mods["poly"], mods["factor"]
    by_rem = "rem" in inspect.signature(factor._frobenius_rows).parameters
    args = []
    for f in moduli:
        rem = poly._reducer(f, p)
        args.append((poly._pow_mod([0, 1], p, rem, p), rem if by_rem else f))
    return lambda: [factor._frobenius_rows(xp, modulus, p) for xp, modulus in args]


def product(rng, mods, p: int, degrees) -> list[int]:
    # A product of distinct seeded monic irreducibles of the given degrees.
    out, seen = [1], set()
    for d in degrees:
        while True:
            g = [rng.randrange(p) for _ in range(d)] + [1]
            if tuple(g) not in seen and mods["factor"]._rabin_irreducible(g, p):
                break
        seen.add(tuple(g))
        out = mods["poly"]._mul(out, g, p)
    return out


def columns_of(label: str, mods, inputs) -> dict:
    # (row key, column) -> the untimed closure, for one tree.
    Poly, PrimeField = mods["poly"].Poly, mods["ff"].PrimeField
    factor, poly = mods["factor"], mods["poly"]
    out = {}
    for (n, p), fs in inputs["cells"].items():
        polys = [Poly(PrimeField(p), f) for f in fs]
        out[("cell", n, p), label] = (
            lambda polys=polys: [(factor.is_irreducible(g), factor.factorize(g)) for g in polys],
            len(polys))
    for (n, p), moduli in inputs["rows"].items():
        out[("rows", n, p), label] = (rows_call(mods, moduli, p), len(moduli))
        if label == "us":
            rems = [poly._reducer(f, p) for f in moduli]
            args = [(poly._pow_mod([0, 1], p, rem, p), rem) for rem in rems]
            for column, build in (("chain_us", chain_rows), ("map_us", map_rows)):
                out[("rows", n, p), column] = (
                    lambda build=build, args=args, p=p: [build(poly, xp, rem, p)
                                                         for xp, rem in args], len(args))
    for case, f in inputs["splits"].items():
        g = Poly(PrimeField(10007), f)
        out[("split", case), label] = (lambda g=g: factor.factorize(g), 1)
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, help="another tree's src directory")
    ap.add_argument("--rounds", type=int, default=7)
    ap.add_argument("--out", type=Path, default=Path("BENCH_factor.json"))
    args = ap.parse_args()
    trees = {"us": ("change", HERE)}
    if args.parent:
        trees["parent_us"] = ("parent", args.parent.resolve())
    mods = {label: {m: load(src, name, m) for m in ("ff", "poly", "factor")}
            for label, (name, src) in trees.items()}
    this = mods["us"]
    cells: dict = {}
    for call in factor_inputs(0, False):
        cells.setdefault((call["n"], call["p"]), []).append(call["f"])
    rng = random.Random(32)
    inputs = {
        "cells": cells,
        "rows": {(n, p): [[rng.randrange(p) for _ in range(n)] + [1] for _ in range(5)]
                 for n in ROW_SIZES for p in ROW_MODULI},
        "splits": {case: product(rng, this, 10007, degrees)
                   for case, degrees in SPLITS.items()},
    }
    columns = {}
    for label, tree in mods.items():
        columns |= columns_of(label, tree, inputs)
    for call, _ in columns.values():
        call()
    row_keys = list(dict.fromkeys(key for key, _ in columns))
    order = sorted(columns, key=lambda kc: row_keys.index(kc[0]))  # a row's columns adjacent
    times = {key: [] for key in columns}
    for r in range(args.rounds):
        for key in order[::(-1) ** r]:
            call, count = columns[key]
            start = time.perf_counter()
            call()
            times[key].append((time.perf_counter() - start) / count * 1e6)
    rows: dict = {}
    for (key, column), t in times.items():
        row = rows.setdefault(key, dict(zip(("kind", "n", "p") if len(key) == 3
                                            else ("kind", "case"), key)))
        row[column] = round(statistics.median(t), 1)
    for key, row in rows.items():
        if key[0] == "rows":
            row["route"] = "chain" if this["poly"]._reducer(
                inputs["rows"][key[1:]][0], key[2]).kernel[0] <= 4 else "map"
        if args.parent:
            row["speedup"] = round(row["parent_us"] / row["us"], 2)
    meta = {"python": platform.python_version(), "cpus": load(HERE, "change", "_par")._cpus(),
            "rounds": args.rounds, "with_parent": bool(args.parent)}
    args.out.write_text(json.dumps({"meta": meta, "rows": list(rows.values())}, indent=1) + "\n")
    print(f"{len(rows)} rows -> {args.out}")


if __name__ == "__main__":
    main()
