"""Time dirichlet.search_exhaustive and its factor sieve, and write BENCH_sweep.json.

    python3 tools/bench_sweep.py --parent OTHER/src --out BENCH_sweep.json

A row is one pencil (p, a, b, n). It gives the median over the rounds of the µs of one
call: `search_us` for search_exhaustive, `sieve_us` for _factor_sieve alone on the same
pencil (so search_us - sieve_us is the hit building); with --parent, `parent_search_us`
and `parent_sieve_us` for another tree's src, and `speedup`, its search time over ours.
Every column runs once untimed first; each round then times every column once, in an
order that reverses from round to round. Standard library only.
"""

import argparse
import json
import platform
import statistics
import time
from pathlib import Path

from trees import HERE, load

PENCILS = (  # (p, a, b, n): three on the complete route, the last on the partial one
    (3, "X+1", "1", 8),
    (5, "X+1", "1", 6),
    (5, "X+1", "1", 7),
    (13, "X+1", "X^4+2", 6),
)


def calls(name: str, src: Path, pencil) -> dict:
    # The two timed calls on one pencil, as closures over that tree's modules.
    dirichlet, poly = load(src, name, "dirichlet"), load(src, name, "poly")
    p, a, b, n = pencil
    field = load(src, name, "ff").PrimeField(p)
    a, b = poly.parse_poly(field, a), poly.parse_poly(field, b)
    deg_c = n - int(b.degree)
    sieve = (p, a.coeffs, b.coeffs, deg_c, min(n // 2, max(1, deg_c)))
    return {"search_us": lambda: dirichlet.search_exhaustive(a, b, n),
            "sieve_us": lambda: dirichlet._factor_sieve(*sieve)}


def us(call) -> float:
    start = time.perf_counter()
    call()
    return (time.perf_counter() - start) * 1e6


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, help="another tree's src directory")
    ap.add_argument("--rounds", type=int, default=7)
    ap.add_argument("--out", type=Path, default=Path("BENCH_sweep.json"))
    args = ap.parse_args()
    trees = {"": ("change", HERE)}
    if args.parent:
        trees["parent_"] = ("parent", args.parent.resolve())
    columns = {(pencil, prefix + label): call for pencil in PENCILS
               for prefix, (name, src) in trees.items()
               for label, call in calls(name, src, pencil).items()}
    for call in columns.values():
        call()
    times = {column: [] for column in columns}
    for r in range(args.rounds):
        for column, call in list(columns.items())[::(-1) ** r]:
            times[column].append(us(call))
    rows = []
    for pencil in PENCILS:
        row = dict(zip(("p", "a", "b", "n"), pencil))
        row |= {label: round(statistics.median(t)) for (key, label), t in times.items()
                if key == pencil}
        if args.parent:
            row["speedup"] = round(row["parent_search_us"] / row["search_us"], 2)
        rows.append(row)
    meta = {"python": platform.python_version(), "cpus": load(HERE, "change", "_par")._cpus(),
            "rounds": args.rounds, "with_parent": bool(args.parent)}
    args.out.write_text(json.dumps({"meta": meta, "rows": rows}, indent=1) + "\n")
    print(f"{len(rows)} rows -> {args.out}")


if __name__ == "__main__":
    main()
