"""Re-record the benchmark's stored data, cross-checked against sympy.

    python3 benchmarks/record_golden.py patterns       # data/factor_patterns.json
    python3 benchmarks/record_golden.py irreducibles   # data/irreducibles.json
    python3 benchmarks/record_golden.py golden         # data/golden.json

Run them in this order. `patterns` draws each factor cell's factorization
types from their exact law (FactorTypes below), after checking that law
against sympy's factorization of every monic polynomial at a few small
sizes. `irreducibles` draws as many distinct monic irreducibles per
(p, degree) as the stored types need; each is accepted by sympy's Ben-Or
test and confirmed by sympy's Rabin test and by progressio. `golden` runs
every workload once
at the default seed (0) and full size, checks every output against
sympy.polys.galoistools, and stores what run.py compares against. Run it
only when inputs.py or the program's intended output changes. Needs
sympy; run.py does not.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import sys
from collections import Counter

from sympy.polys.domains import ZZ
from sympy.polys.galoistools import (
    gf_factor,
    gf_irred_p_ben_or,
    gf_irred_p_rabin,
    gf_sqf_p,
)

import inputs
import workloads


def _hi(a):
    """Low-to-high list to sympy's high-to-low dense form."""
    return [int(x) for x in reversed(a)]


# ---------------------------------------------------------------------------
# The law of the factorization type of a uniform random monic polynomial.


def _multisets(kinds: int, k: int) -> int:
    """k-element multisets of `kinds` kinds."""
    return math.comb(kinds + k - 1, k)


class FactorTypes:
    """Factorization types of the p^n monic polynomials of degree n over F_p.

    A type is the sorted list of [degree, multiplicity] of the distinct
    irreducible factors. `smooth[d][m]` counts the monic polynomials of
    degree m whose factors all have degree <= d; choosing, degree by
    degree from n down, how many factors (with multiplicity) have that
    degree, with these counts as weights, and then a uniform multiset of
    that many irreducibles of the degree, draws a type with its exact
    probability.
    """

    def __init__(self, p: int, n: int):
        self.p, self.n = p, n
        self.irr = [0] + [inputs.count_irreducibles(p, d) for d in range(1, n + 1)]
        self.smooth = [[1] + [0] * n]
        for d in range(1, n + 1):
            prev = self.smooth[-1]
            self.smooth.append([
                sum(_multisets(self.irr[d], k) * prev[m - k * d]
                    for k in range(m // d + 1))
                for m in range(n + 1)
            ])
        assert self.smooth[n][n] == p**n

    def count(self, pattern) -> int:
        """Monic polynomials of degree n with exactly this type."""
        total = 1
        for d in {d for d, _ in pattern}:
            mults = Counter(e for dd, e in pattern if dd == d)
            distinct = sum(mults.values())
            total *= math.perm(self.irr[d], distinct)
            for c in mults.values():
                total //= math.factorial(c)
        return total

    def draw(self, rng: random.Random) -> list[list[int]]:
        pattern: list[list[int]] = []
        m = self.n
        for d in range(self.n, 0, -1):
            r = rng.randrange(self.smooth[d][m])
            for k in range(m // d + 1):
                weight = _multisets(self.irr[d], k) * self.smooth[d - 1][m - k * d]
                if r < weight:
                    break
                r -= weight
            pattern += [[d, e] for e in _multiset_multiplicities(self.irr[d], k, rng)]
            m -= k * d
        return sorted(pattern, reverse=True)


def _multiset_multiplicities(kinds: int, k: int, rng: random.Random) -> list[int]:
    """Multiplicities in a uniform k-multiset of `kinds` kinds.

    Stars and bars: such a multiset is a uniform k-subset of kinds + k - 1
    slots (drawn by Floyd's method), star i being of kind slot - i.
    """
    slots: set[int] = set()
    total = kinds + k - 1
    for j in range(total - k, total):
        t = rng.randrange(j + 1)
        slots.add(j if t in slots else t)
    kind = Counter(s - i for i, s in enumerate(sorted(slots)))
    return sorted(kind.values(), reverse=True)


def _sympy_type(f, p):
    _, factors = gf_factor(_hi(f), p, ZZ)
    return sorted(([len(g) - 1, k] for g, k in factors), reverse=True)


def check_factor_types():
    """The counts against sympy on every monic polynomial of a few small
    sizes, exactly, and the draws against them in total variation."""
    for p, n in ((2, 8), (3, 6), (5, 4)):
        law = FactorTypes(p, n)
        seen = Counter(
            tuple(map(tuple, _sympy_type(list(tail) + [1], p)))
            for tail in itertools.product(range(p), repeat=n)
        )
        assert sum(seen.values()) == p**n
        assert all(law.count(t) == c for t, c in seen.items()), (p, n)
        rng = random.Random(f"check:{p}:{n}")
        draws = 20000
        drawn = Counter(tuple(map(tuple, law.draw(rng))) for _ in range(draws))
        assert set(drawn) <= set(seen), (p, n)
        tv = sum(abs(drawn[t] / draws - c / p**n) for t, c in seen.items()) / 2
        assert tv < 0.03, (p, n, tv)
        print(f"p={p} n={n}: {len(seen)} types match, draws within TV {tv:.4f}")


def record_patterns():
    check_factor_types()
    out = {}
    for n, p, count in inputs.FACTOR_CELLS:
        law = FactorTypes(p, n)
        rng = random.Random(f"patterns:{n}:{p}")
        types = [law.draw(rng) for _ in range(count)]
        out[inputs.cell_key(n, p)] = types
        repeated = sum(any(e > 1 for _, e in t) for t in types)
        irreducible = sum(t == [[n, 1]] for t in types)
        print(f"n={n} p={p}: {count} types, {repeated} with a repeated factor "
              f"(law: {1 / p:.3g} for n >= 2), {irreducible} irreducible "
              f"(law: {inputs.count_irreducibles(p, n) / p**n:.3g})", flush=True)
    path = inputs.DATA / "factor_patterns.json"
    path.write_text("{\n" + ",\n".join(
        f"{json.dumps(k)}: {json.dumps(v)}" for k, v in out.items()) + "\n}\n")


def record_irreducibles():
    mods = workloads.load_program()
    out: dict[str, dict[str, list[list[int]]]] = {}
    for (p, d), count in sorted(inputs.irreducibles_needed(inputs.load_patterns()).items()):
        field = mods.ff.PrimeField(p)
        rng = random.Random(f"irreducible:{p}:{d}")
        found: list[list[int]] = []
        while len(found) < count:
            g = [rng.randrange(p) for _ in range(d)] + [1]
            if g in found or not gf_irred_p_ben_or(_hi(g), p, ZZ):
                continue
            assert gf_irred_p_rabin(_hi(g), p, ZZ)
            assert mods.factor.is_irreducible(mods.poly.Poly(field, g))
            found.append(g)
        out.setdefault(str(p), {})[str(d)] = found
        print(f"p={p} d={d}: {count}", flush=True)
    path = inputs.DATA / "irreducibles.json"
    path.write_text(json.dumps(out, indent=0) + "\n")


def _sympy_factors(f, p):
    _, factors = gf_factor(_hi(f), p, ZZ)
    return sorted((tuple(g), k) for g, k in factors)


def record_golden():
    mods = workloads.load_program()
    golden: dict = {}

    setup = workloads.setup("scan", workloads.make_inputs("scan", 0, False), mods)
    count = workloads.run_scan_call(setup, mods, None)["count"]
    a, bc, p = setup["a"], setup["bc"], setup["p"]
    oracle = sum(
        1 for alpha in range(1, p)
        if gf_irred_p_rabin(_hi(inputs.add(a, [alpha * x % p for x in bc], p)), p, ZZ)
    )
    assert count == oracle, (count, oracle)
    golden["scan"] = {"count": count}
    print("scan", count, flush=True)

    golden["sweep"] = []
    for call in workloads.setup("sweep", workloads.make_inputs("sweep", 0, False), mods)["calls"][::4]:
        report = workloads.run_sweep_call(call, mods)["report"]
        p, n = call["p"], call["n"]
        oracle = sum(
            1 for member in (list(m.coeffs) for _, m in report.hits)
            if gf_irred_p_rabin(_hi(member), p, ZZ)
        )
        assert oracle == len(report.hits) == (p - 1) * inputs.count_irreducibles(p, n)
        golden["sweep"].append(
            {"p": p, "n": n, "hits": len(report.hits), "scanned": report.scanned}
        )
        print("sweep", golden["sweep"][-1], flush=True)

    golden["factor"] = []
    for call in workloads.setup("factor", workloads.make_inputs("factor", 0, False), mods)["calls"]:
        out = workloads.run_factor_call(call, mods)
        ours = sorted(
            (tuple(_hi(list(g.coeffs))), k) for g, k in out["result"].factors
        )
        assert ours == _sympy_factors(call["f"], call["p"])
        golden["factor"].append(workloads.digest(out["result"].to_text().encode()))
    print("factor", len(golden["factor"]), flush=True)

    golden["certify"] = []
    work = workloads.WorkDir()
    try:
        for call in workloads.setup("certify", workloads.make_inputs("certify", 0, False), mods)["calls"]:
            out = workloads.run_certify_call(call, mods, work.path)
            cert = mods.construct.certificate_from_text(out["construct"].decode())
            p = call["p"]
            for alpha, gamma, e, h in ((cert.alpha1, cert.gamma1, cert.e, cert.h1),
                                       (cert.alpha2, cert.gamma2, 2, cert.h2)):
                spec = inputs.add(
                    call["a"],
                    [int(alpha) * x % p
                     for x in inputs.mul(call["b"], list(cert.c.coeffs), p)], p)
                factors = _sympy_factors(spec, p)
                root = ((1, (-int(gamma)) % p), e)
                assert root in factors, (call, factors)
                rest = [k for g, k in factors if (g, k) != root]
                assert all(k == 1 for k in rest)
                assert gf_sqf_p(_hi(list(h.coeffs)), p, ZZ)
            golden["certify"].append(workloads.digest(out["construct"], out["certify"]))
    finally:
        work.close()
    print("certify", len(golden["certify"]), flush=True)

    path = inputs.DATA / "golden.json"
    path.write_text(json.dumps(golden, indent=1) + "\n")


if __name__ == "__main__":
    what = sys.argv[1] if len(sys.argv) > 1 else ""
    if what == "patterns":
        record_patterns()
    elif what == "irreducibles":
        record_irreducibles()
    elif what == "golden":
        record_golden()
    else:
        sys.exit(__doc__)
