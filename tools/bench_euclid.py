"""Time Euclid's raw kernels _gcd, _resultant and _xgcd, and write BENCH_euclid.json.

    python3 tools/bench_euclid.py --parent OTHER/src --out BENCH_euclid.json

A cell (n, p) is 10 seeded pairs of degrees n and n - 1. A row gives the median over the
rounds of the mean µs per call: `us` for this tree; for _gcd and _resultant also
`division_us` and `packed_us`, with poly._EUCLID_PACKED set so that every length takes
long division, or the packed steps; with --parent, `parent_us` for another tree's src
and `speedup`, its time over ours. Each round times every column once, after two untimed
calls, in an order that reverses from round to round. Standard library only.
"""

import argparse
import json
import platform
import random
import statistics
import time
from pathlib import Path

from trees import HERE, load

SIZES = (4, 8, 12, 16, 32, 64, 256)
MODULI = (2, 3, 10007, (1 << 61) - 1)
KERNELS = ("_gcd", "_resultant", "_xgcd")
ROUTES = {"division_us": 10**9, "packed_us": 1}  # _EUCLID_PACKED: never, always packed
PAIRS = 10


def pairs(n: int, p: int) -> list[tuple[list[int], list[int]]]:
    rng = random.Random(n * 1_000_003 + p)
    draw = lambda d: [rng.randrange(p) for _ in range(d)] + [rng.randrange(1, p)]
    return [(draw(n), draw(n - 1)) for _ in range(PAIRS)]


def mean_us(poly, fn: str, route: int | None, cell, p: int) -> float:
    if route:  # the length from which this tree's packed steps run
        poly._EUCLID_PACKED = route
    for a, b in cell[:2]:  # warm up after the other column's run
        getattr(poly, fn)(a, b, p)
    start = time.perf_counter()
    for a, b in cell:
        getattr(poly, fn)(a, b, p)
    return (time.perf_counter() - start) / len(cell) * 1e6


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, help="another tree's src directory")
    ap.add_argument("--rounds", type=int, default=6)
    ap.add_argument("--out", type=Path, default=Path("BENCH_euclid.json"))
    args = ap.parse_args()
    this = load(HERE, "change", "poly")
    parent = args.parent and load(args.parent.resolve(), "parent", "poly")
    routed = {label: (this, route) for label, route in ROUTES.items()}
    theirs = {"parent_us": (parent, None)} if parent else {}
    columns = {fn: {"us": (this, this._EUCLID_PACKED), **(routed if fn != "_xgcd" else {}), **theirs}
               for fn in KERNELS}
    cells = {(n, p): pairs(n, p) for n in SIZES for p in MODULI}
    times = {(fn, n, p, label): [] for fn in KERNELS for n, p in cells for label in columns[fn]}
    for r in range(args.rounds):
        for (n, p), cell in cells.items():
            for fn in KERNELS:
                for label, (poly, route) in list(columns[fn].items())[::(-1) ** r]:
                    times[fn, n, p, label].append(mean_us(poly, fn, route, cell, p))
    rows = [{"kernel": fn, "n": n, "p": p, **{label: round(statistics.median(
        times[fn, n, p, label]), 2) for label in columns[fn]}} for fn in KERNELS for n, p in cells]
    for row in rows if parent else ():
        row["speedup"] = round(row["parent_us"] / row["us"], 2)
    meta = {"python": platform.python_version(), "cpus": load(HERE, "change", "_par")._cpus(),
            "pairs": PAIRS, "rounds": args.rounds, "with_parent": bool(parent)}
    args.out.write_text(json.dumps({"meta": meta, "rows": rows}, indent=1) + "\n")
    print(f"{len(rows)} rows -> {args.out}")


if __name__ == "__main__":
    main()
