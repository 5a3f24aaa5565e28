"""Finding irreducible members of the progression {a + b*c : c}.

The constructed strategy builds the certificate multiplier c and rescales
it through the nonzero field elements; the exhaustive strategy tries every
admissible c at desk scale as a brute-force oracle.
"""

from progressio import (
    PrimeField,
    parse_poly,
    search_constructed,
    search_exhaustive,
)
from progressio.poly import Poly

F101 = PrimeField(101)
a = parse_poly(F101, "X+1")
b = Poly.one(F101)

report = search_constructed(a, b, 7, max_hits=3)
print(report.to_csv())
print("first hits (member = a + b*c, irreducible of degree 7):")
print(report.to_detail_text())

F3 = PrimeField(3)
small = search_exhaustive(parse_poly(F3, "X+1"), parse_poly(F3, "X^2+1"), 4)
print(f"exhaustive over F_3, degree 4: {len(small.hits)} hits "
      f"out of {small.scanned} candidates (density {small.density})")
for c, member in small.hits[:4]:
    print(f"  c = {str(c):<12}  member = {member}")
