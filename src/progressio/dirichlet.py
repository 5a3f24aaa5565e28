"""Searches for irreducible members of the progression {a + b*c : c}.

Over a prime field the progression is guaranteed to contain irreducibles
of every sufficiently large degree (the polynomial-ring analogue of
primes in arithmetic progressions, due to Kornblum and Artin). Two
strategies are offered: the constructed scan rescales the certificate
multiplier through all nonzero field elements, and the exhaustive scan
enumerates every admissible c at desk scale as a brute-force oracle.

Density: when the geometric group of the rescaled family is the full
symmetric group, a fraction of about 1/n of specializations is
irreducible (the n-cycle proportion), so an exhaustive scan over the
p - 1 nonzero scales should find about p/n hits. About 1 - D_n/n! of them (D_n the
derangements) have a root x, so are reducible (n >= 2); as alpha = -a(x)/bc(x), one
pass over F_p marks those, a byte each, so p - 1 is capped at the exhaustive guard.
The exhaustive scan sieves its constant digit c0 the same way, per higher digits.
All three searches walk one kernel; the sieved two test members as rootless, which
skips the root gcd gcd(X^p - X, f), kept only by the unsieved constructed scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, product

from ._par import run_chunked, split_range, worker_count
from .construct import Pencil, StableCertificate, build_stable, verify_certificate
from .errors import PreconditionViolated, TooLarge
from .factor import _rabin_irreducible
from .poly import Poly, _add, _eval, _mul, _mul_scalar, format_poly

_EXHAUSTIVE_GUARD = 10**7


@dataclass(frozen=True, slots=True)
class SearchReport:
    """Outcome of one progression search."""

    a: Poly
    b: Poly
    n: int
    strategy: str
    hits: tuple[tuple[Poly, Poly], ...]
    scanned: int
    density: Fraction

    def to_csv(self) -> str:
        header = "strategy,p,n,scanned,hits,density"
        row = (
            f"{self.strategy},{self.a.field.modulus},{self.n},"
            f"{self.scanned},{len(self.hits)},{self.density}"
        )
        return header + "\n" + row + "\n"

    def to_detail_text(self) -> str:
        blocks = []
        for c, member in self.hits:
            blocks.append(f"c: {format_poly(c)}\nmember: {format_poly(member)}")
        return "\n\n".join(blocks) + ("\n" if blocks else "")


def _report(a, b, n, strategy, hits, scanned) -> SearchReport:
    density = Fraction(len(hits), scanned) if scanned else Fraction(0)
    return SearchReport(
        a=a, b=b, n=n, strategy=strategy,
        hits=tuple(hits), scanned=scanned, density=density,
    )


def search_constructed(a: Poly, b: Poly, n: int, max_hits: int = 16) -> SearchReport:
    """Scan the constructed family {alpha * c : alpha != 0} for members.

    Builds a certificate first (deterministically, with ``build_stable``),
    so its errors propagate; a report with zero hits is a valid
    outcome, not an error. Each hit records the rescaled multiplier
    alpha*c, so member = a + b*(alpha*c) replays exactly. ``max_hits`` must
    lie in [0, 4096]; at density about 1/n the scan then stops after about
    4096·n scales, where an unbounded budget would walk all p - 1.
    """
    if not 0 <= max_hits <= 4096:
        raise PreconditionViolated(f"max_hits must be in [0, 4096], got {max_hits}")
    cert = build_stable(a, b, n)
    p = a.field.modulus
    line = _line_scan(p, n, a.coeffs, (b * cert.c).coeffs, range(1, p))  # no sieve fits
    found = list(islice(line, max_hits))
    hits = [(alpha * cert.c, a._wrap(member)) for alpha, member in found]
    # A met budget ends the scan at its last hit's scale; otherwise the field ends it.
    scanned = (found[-1][0] if found else 0) if len(found) == max_hits else p - 1
    return _report(a, b, n, "constructed-scan", hits, scanned)


def search_exhaustive(a: Poly, b: Poly, n: int) -> SearchReport:
    """Try every c with deg c = n - deg b; a desk-scale brute-force oracle.

    With c = c0 + X*h, one root sieve of base = a + b*X*h per h marks the c0
    whose member base + c0*b has a root; for n >= 2 those skip the test.
    """
    Pencil(a, b)
    p = a.field.modulus
    deg_c = n - int(b.degree)
    if deg_c < 0:
        return _report(a, b, n, "exhaustive", [], 0)
    # p >= 2, so p^(deg_c + 1) exceeds the guard once deg_c reaches its bit length.
    if deg_c >= _EXHAUSTIVE_GUARD.bit_length() or p ** (deg_c + 1) > _EXHAUSTIVE_GUARD:
        raise TooLarge(f"{p}^{deg_c + 1} candidate space exceeds the guard")
    b_c = list(b.coeffs)
    # c = c0 + X*h, c0 fastest (code sum order); h: higher digits, lead last, or ().
    highs = product(range(1, p), *[range(p)] * (deg_c - 1)) if deg_c else [()]
    c0s = range(0 if deg_c else 1, p)
    hits = []
    for top in highs:
        h = top[::-1]
        base = _add(a.coeffs, [0, *_mul(b_c, h, p)], p)  # b(x) = 0: base(x) = a(x) != 0
        marks = _root_sieve(base, b_c, p) if n >= 2 else None
        for c0, member in _line_scan(p, n, base, b_c, c0s, marks):
            hits.append((a._wrap([c0, *h]), a._wrap(member)))
    return _report(a, b, n, "exhaustive", hits, (p - 1) * p**deg_c)


def _line_scan(p, n, base, direction, scales, marks=None):
    """Yield (t, member) per unmarked t: base + t*direction, irreducible of degree n."""
    for t in scales:
        if marks is not None and marks[t]:  # a root sieve marks each member with a root
            continue
        member = _add(base, _mul_scalar(direction, t, p), p)
        # Looked up per call as this module's global: tracers rebind _rabin_irreducible.
        if len(member) == n + 1 and _rabin_irreducible(member, p, marks is not None):
            yield t, member


def _root_sieve(a_coeffs, bc_coeffs, p: int) -> bytearray:
    marked = bytearray(p)
    for x in range(p):
        v = _eval(bc_coeffs, x, p)
        if v:
            marked[-_eval(a_coeffs, x, p) * pow(v, -1, p) % p] = 1
    return marked


def _density_chunk(job):
    p, n, base, bc_coeffs, marked = job  # base = a + lo*bc: marked[t] is scale lo + t
    return sum(1 for _ in _line_scan(p, n, base, bc_coeffs, range(len(marked)), marked))


@dataclass(frozen=True, slots=True)
class DensityResult:
    """Irreducible-member count over the full nonzero scale scan."""

    p: int
    n: int
    count: int
    expected: Fraction
    ratio: Fraction
    rooted: int  # scales the root sieve settled; not part of the CSV

    def to_csv(self) -> str:
        header = "p,n,count,expected,ratio"
        row = f"{self.p},{self.n},{self.count},{self.expected},{self.ratio}"
        return header + "\n" + row + "\n"


def density_scan(cert: StableCertificate, workers: int | None = None) -> DensityResult:
    """Count irreducible members over every nonzero scale, exactly.

    The expectation p/n comes from the n-cycle proportion 1/n in the full
    symmetric group; the ratio count/(p/n) should sit near 1, with an
    error that depends on the curve's genus and is not computed here.

    Only scales the root sieve leaves unmarked are tested; ``rooted``, about
    1 - D_n/n! of them, are reducible: their member has a root and degree
    n >= 7 (a zero of bc is a root of none, as gcd(a, bc) = 1). p - 1 above
    the exhaustive guard (10^7) raises ``TooLarge`` before anything is allocated.
    """
    p = cert.field.modulus
    if p - 1 > _EXHAUSTIVE_GUARD:
        raise TooLarge(f"{p - 1} scales exceed the scan bound {_EXHAUSTIVE_GUARD}")
    if not verify_certificate(cert):
        raise PreconditionViolated("density scan needs a valid certificate")
    if workers is None:
        workers = worker_count()
    a, bc = list(cert.a.coeffs), list((cert.b * cert.c).coeffs)
    marked = _root_sieve(a, bc, p)
    jobs = [(p, cert.n, _add(a, _mul_scalar(bc, lo, p), p), bc, bytes(marked[lo:hi]))
            for lo, hi in split_range(1, p, workers * 8)]
    count = sum(run_chunked(_density_chunk, jobs, workers))
    expected = Fraction(p, cert.n)
    rooted = marked.count(1) - marked[0]  # alpha = 0 is no scale
    return DensityResult(p, cert.n, count, expected, Fraction(count) / expected, rooted)
