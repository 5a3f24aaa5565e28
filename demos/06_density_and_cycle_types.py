"""Empirical check that the certified group really behaves like S_n.

If the geometric group of a + b*c*Y is S_n, equidistribution over the
scales alpha makes each factorization pattern of a + alpha*b*c appear
with the frequency of its conjugacy class in S_n; in particular about
1/n of the members are irreducible (the n-cycle class), and about
1 - D_n/n! have a root in F_p (the classes with a fixed point).
"""

from math import factorial

from progressio import (
    PrimeField,
    build_stable,
    cycle_type_histogram,
    density_scan,
    parse_poly,
)
from progressio.poly import Poly

F101 = PrimeField(101)
cert = build_stable(parse_poly(F101, "X+1"), Poly.one(F101), 7, seed=0)

result = density_scan(cert)
print(f"degree {result.n} over F_{result.p}: {result.count} irreducible members "
      f"of {result.p - 1} scales")
print(f"expected about p/n = {float(result.expected):.1f}; "
      f"ratio = {float(result.ratio):.3f}")
# Members with a root are the fixed-point classes of S_n: 1 - D_n/n! of them,
# D_n the derangements. The scan settles these by a root sieve, untested.
derangements = sum((-1) ** k * factorial(result.n) // factorial(k)
                   for k in range(result.n + 1))
print(f"members with a root: {result.rooted / (result.p - 1):.3f} of the scales; "
      f"1 - D_n/n! = {1 - derangements / factorial(result.n):.3f}")

def class_size(ctype):
    # |class| = n! / prod(part * mult(part)!)
    n = sum(ctype)
    size = factorial(n)
    for part in set(ctype):
        size //= part ** ctype.count(part) * factorial(ctype.count(part))
    return size

hist = cycle_type_histogram((cert.a, cert.b, cert.c), range(1, 101), seed=0)
total = sum(hist.counts.values())
n = cert.n
print(f"\ncycle types over {total} squarefree specializations "
      f"({hist.skipped} branch points skipped):")
print(f"{'type':>16} {'seen':>6} {'S_n share':>10}")
for ctype in sorted(hist.counts, reverse=True):
    share = class_size(ctype) / factorial(n)
    print(f"{'-'.join(map(str, ctype)):>16} {hist.counts[ctype]:>6} "
          f"{share * total:>10.1f}")
