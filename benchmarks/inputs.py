"""Seeded inputs for the four benchmark workloads.

Everything here is plain integers, coefficient lists (low to high) and
command-line strings; the program under test only ever sees these. The
few polynomial helpers below are written independently of progressio so
that the generated inputs and the oracle-free checks do not lean on the
code being measured.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from collections import Counter
from pathlib import Path

M61 = (1 << 61) - 1
DATA = Path(__file__).resolve().parent / "data"

# ---------------------------------------------------------------------------
# Plain polynomial arithmetic over F_p on low-to-high coefficient lists.


def trim(a: list[int]) -> list[int]:
    while a and not a[-1]:
        a.pop()
    return a


def add(a, b, p: int) -> list[int]:
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] = x
    for i, x in enumerate(b):
        out[i] = (out[i] + x) % p
    return trim(out)


def mul(a, b, p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return trim([v % p for v in out])


def monic(a, p: int) -> list[int]:
    inv = pow(a[-1], -1, p)
    return [x * inv % p for x in a]


def affine(g, u: int, v: int, p: int) -> list[int]:
    """g(u*X + v), made monic; irreducible whenever g is."""
    out: list[int] = []
    lin = [v % p, u % p]
    for coeff in reversed(g):
        out = add(mul(out, lin, p), [coeff], p)
    return monic(out, p)


def gcd(a, b, p: int) -> list[int]:
    a, b = trim(list(a)), trim(list(b))
    while b:
        inv = pow(b[-1], -1, p)
        r = list(a)
        while len(r) >= len(b):
            q = r[-1] * inv % p
            shift = len(r) - len(b)
            for j, y in enumerate(b):
                r[shift + j] = (r[shift + j] - q * y) % p
            trim(r)
        a, b = b, r
    return monic(a, p) if a else a


def count_irreducibles(p: int, n: int) -> int:
    """Monic irreducibles of degree n over F_p, by the Moebius formula."""
    total = 0
    for d in range(1, n + 1):
        if n % d:
            continue
        mu, m, f = 1, d, 2
        while f * f <= m:
            if m % f == 0:
                m //= f
                if m % f == 0:
                    mu = 0
                    break
                mu = -mu
            f += 1
        if mu and m > 1:
            mu = -mu
        total += mu * p ** (n // d)
    return total // n


def text(a) -> str:
    """Comma-separated coefficient list, the CLI's polynomial grammar."""
    return ",".join(str(x) for x in a) if a else "0"


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def spread_out(calls: list[dict], group) -> list[dict]:
    """The calls reordered so that each group's calls are spaced evenly
    over the cycle (stride scheduling), in their order within the group.

    The machine's speed drifts over seconds. A group run back to back
    would sample one stretch of it, and the percentile that falls in the
    group would move with that stretch from run to run.
    """
    sizes = Counter(group(c) for c in calls)
    seen: Counter = Counter()
    keyed = []
    for i, c in enumerate(calls):
        g = group(c)
        keyed.append(((seen[g] + 0.5) / sizes[g], i, c))
        seen[g] += 1
    return [c for _, _, c in sorted(keyed, key=lambda t: t[:2])]


# ---------------------------------------------------------------------------
# scan: density scan of one certificate (acceptance criterion 6 at seed 0).


def scan_inputs(seed: int, smoke: bool) -> dict:
    p = 101 if smoke else 10007
    if seed == 0:
        a = [1, 1]
    else:
        rng = _rng("scan", seed)
        a = [rng.randrange(p), rng.randrange(1, p)]
    return {"p": p, "n": 8, "a": a, "b": [1]}


# ---------------------------------------------------------------------------
# sweep: exhaustive progression search; b = 1, so every degree-n polynomial
# appears once and the hit count is (p - 1) times the number of monic
# irreducibles, whatever a is.

SWEEP_CASES = ((3, 8, 4), (5, 6, 1))  # (p, n, calls per cycle)
SWEEP_SMOKE = ((3, 4, 1), (5, 3, 1))


def sweep_inputs(seed: int, smoke: bool) -> list[dict]:
    rng = _rng("sweep", seed)
    calls = []
    for p, n, weight in SWEEP_SMOKE if smoke else SWEEP_CASES:
        for _ in range(weight):
            if seed == 0:
                a = [1, 1]
            else:
                deg = rng.randrange(1, n)
                a = [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)]
            calls.append({"p": p, "n": n, "a": a, "b": [1]})
    return calls


# ---------------------------------------------------------------------------
# factor: monic polynomials whose factorization types follow the real law.
#
# The cost of factoring swings with the factorization type: the degrees of
# the irreducible factors and their multiplicities. A batch of plain random
# polynomials would therefore cost a different amount for every seed. So
# each cell holds a fixed list of types, drawn once from the exact law of
# the type of a uniform random monic polynomial of degree n over F_p and
# stored in data/factor_patterns.json (record_golden.py patterns). Repeated
# factors appear at their real rate, about 1/p. The seed picks the
# factors: affine images g(u*X + v) of stored irreducibles
# (data/irreducibles.json), which are again irreducible of the same degree.

# (n, p, polynomials per cycle); cheapest cells first, counts set so that
# no cell takes much more than a third of the time.
FACTOR_CELLS = (
    (32, 5, 60),
    (32, 10007, 80),
    (64, 5, 48),
    (32, M61, 4),
    (64, 10007, 4),
    (128, 5, 3),
)
FACTOR_SMOKE = ((32, 5, 2), (32, 10007, 1))


def cell_key(n: int, p: int) -> str:
    return f"{n}:{p}"


def load_patterns() -> dict[str, list[list[list[int]]]]:
    """Per cell, the stored types: lists of [degree, multiplicity]."""
    return json.loads((DATA / "factor_patterns.json").read_text())


def load_irreducibles() -> dict[tuple[int, int], list[list[int]]]:
    raw = json.loads((DATA / "irreducibles.json").read_text())
    return {(int(p), int(d)): gs for p, by_d in raw.items() for d, gs in by_d.items()}


def irreducibles_needed(patterns) -> dict[tuple[int, int], int]:
    """(p, degree > 1) -> the most distinct factors of that degree one
    stored type asks for; that many distinct irreducibles are stored."""
    need: dict[tuple[int, int], int] = {}
    for key, types in patterns.items():
        p = int(key.split(":")[1])
        for pattern in types:
            for d, k in Counter(d for d, _ in pattern).items():
                if d > 1:
                    need[p, d] = max(need.get((p, d), 0), k)
    return need


def _factor_poly(pattern, p: int, bases, rng: random.Random) -> list[int]:
    factors: list[list[int]] = []
    f = [1]
    for d, e in pattern:
        if d == 1:
            tries = ([(-r) % p, 1] for r in rng.sample(range(p), min(p, 100)))
        else:
            # Random affine images first, then the stored bases themselves:
            # there are as many distinct ones as any type needs.
            tries = itertools.chain(
                (affine(rng.choice(bases[p, d]), rng.randrange(1, p),
                        rng.randrange(p), p) for _ in range(100)),
                bases[p, d])
        g = next((g for g in tries if g not in factors), None)
        if g is None:
            raise RuntimeError(f"no distinct degree-{d} factor over F_{p}")
        factors.append(g)
        for _ in range(e):
            f = mul(f, g, p)
    return f


def factor_inputs(seed: int, smoke: bool) -> list[dict]:
    rng = _rng("factor", seed)
    patterns = load_patterns()
    bases = load_irreducibles()
    calls = []
    for n, p, count in FACTOR_SMOKE if smoke else FACTOR_CELLS:
        for pattern in patterns[cell_key(n, p)][:count]:
            calls.append({
                "p": p, "n": n, "pattern": pattern,
                "f": _factor_poly(pattern, p, bases, rng),
            })
    return spread_out(calls, lambda c: (c["n"], c["p"]))


def factor_trace_subset(calls: list[dict]) -> list[dict]:
    """A third of every cell, rounded up: the traced run's fixed work."""
    totals = Counter((c["n"], c["p"]) for c in calls)
    taken: Counter = Counter()
    out = []
    for c in calls:
        key = (c["n"], c["p"])
        if taken[key] < math.ceil(totals[key] / 3):
            out.append(c)
            taken[key] += 1
    return out


# ---------------------------------------------------------------------------
# certify: construct then certify through the CLI, one pencil per call.

CERTIFY_SLOW_P = 1000003  # the O(p) gamma scan in build_stable shows here
CERTIFY_DEADLINE_S = 8.0  # about three times the p = 1000003 call
CERTIFY_SMOKE_DEADLINE_S = 0.5

# (p, smallest n, largest n, pencils per cycle), cheapest first. Latencies
# cluster by class: the median call falls inside the second class, whose
# cost is mostly build_stable's scan over all p residues, and the 90th
# percentile inside the fourth, away from both edges.
CERTIFY_CLASSES = (
    (101, 9, 25, 60),
    (10007, 9, 17, 105),
    (101, 26, 48, 15),
    (101, 57, 65, 60),
    (10007, 49, 65, 10),
)
CERTIFY_SMOKE = ((101, 9, 11, 3),)

# (deg a, deg b) cycles through a fixed order within each class. The cost
# of evaluating a*b at every residue, and so of a call, grows with these
# degrees; drawn by the seed, they would move the percentiles from seed
# to seed. The seed picks only the coefficients.
CERTIFY_DEGREES = tuple((da, db) for da in range(3) for db in range(3))


def _window_ok(n: int, m: int, p: int) -> bool:
    return any(math.gcd(e, n * p) == 1 for e in range(n // 2 + 1, n - m))


def _poly_of_degree(rng: random.Random, d: int, p: int) -> list[int]:
    return [rng.randrange(p) for _ in range(d)] + [rng.randrange(1, p)]


def _pencil(rng: random.Random, p: int, n: int, turn: int, default: bool,
            deadline: float) -> dict:
    """A coprime pencil whose degrees are the first pair, from `turn` on in
    CERTIFY_DEGREES, that leaves the exponent window nonempty at n."""
    if default:
        a, b = [1, 1], [1]
    else:
        k = len(CERTIFY_DEGREES)
        for i in range(k):
            da, db = CERTIFY_DEGREES[(turn + i) % k]
            if _window_ok(n, max(da, db + 2), p):
                break
        else:
            raise ValueError(f"no pencil degrees leave a window at n={n}")
        while True:
            a, b = _poly_of_degree(rng, da, p), _poly_of_degree(rng, db, p)
            if gcd(a, b, p) == [1]:
                break
    return {"p": p, "n": n, "a": a, "b": b, "deadline": deadline}


def certify_inputs(seed: int, smoke: bool) -> tuple[list[dict], list[dict]]:
    """The cycle of pencils, and the pencil run once after the cycles.

    The cycle is the pencil at p = 1000003 and the classes above, with n
    spread evenly over each class's range and each class spread over the
    cycle; the seed picks the coefficients of a and b. The
    pencil at p = 2^61 - 1 runs once per run, after the cycles: it misses
    its deadline today, and the memory its scan piles up by then depends
    on CPU speed, so it must come after peak memory is read. Both lone
    pencils have the degrees of (X + 1, 1).
    """
    rng = _rng("certify", seed)
    deadline = CERTIFY_SMOKE_DEADLINE_S if smoke else CERTIFY_DEADLINE_S
    lone = CERTIFY_DEGREES.index((1, 0))
    final = [_pencil(rng, M61, 9, lone, seed == 0, deadline)]
    cycle = [] if smoke else [_pencil(rng, CERTIFY_SLOW_P, 9, lone, seed == 0, deadline)]
    for p, lo, hi, count in CERTIFY_SMOKE if smoke else CERTIFY_CLASSES:
        for i in range(count):
            cycle.append(dict(_pencil(rng, p, lo + i * (hi - lo + 1) // count,
                                      i, False, deadline), cls=(p, lo)))
    return spread_out(cycle, lambda c: c.get("cls")), final


def certify_trace_subset(calls: list[dict]) -> list[dict]:
    """The slow-p pencil and every fourth pencil of the classes."""
    slow = [c for c in calls if c["p"] == CERTIFY_SLOW_P]
    return slow + [c for c in calls if c["p"] != CERTIFY_SLOW_P][::4]
