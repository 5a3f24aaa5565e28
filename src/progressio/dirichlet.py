"""Searches for irreducible members of the progression {a + b*c : c}.

Over a prime field the progression is guaranteed to contain irreducibles
of every sufficiently large degree (the polynomial-ring analogue of
primes in arithmetic progressions, due to Kornblum and Artin). Two
strategies are offered: the constructed scan rescales the certificate
multiplier through all nonzero field elements, and the exhaustive scan settles
every admissible c at desk scale by a factor sieve, then reads the hits off a table.

Density: when the geometric group of the rescaled family is the full
symmetric group, a fraction of about 1/n of specializations is
irreducible (the n-cycle proportion), so an exhaustive scan over the
p - 1 nonzero scales should find about p/n hits. About 1 - D_n/n! of them (D_n the
derangements) have a root x, so are reducible (n >= 2); as alpha = -a(x)/bc(x), one
pass over F_p, evaluating and inverting, marks each a byte; p - 1 is capped at the guard.
On a line base + t*direction, 2n - 1 resultants fix Disc(t), of degree <= 2n - 2, which
marks about half the rest (``_disc_admits``) before the test. The exhaustive scan sieves
as Eratosthenes did (Rosen, GTM 210, ch. 4): the c with g | a + b*c are one class mod g;
once each irreducible g of degree <= n/2 marks it, the rest of degree n are irreducible.
The sieve stops at degree deg c, so for deg b > (n + 1) // 2 the rest are each tested.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import compress, islice, product
from operator import add

from ._par import run_chunked, split_range, worker_count
from .construct import Pencil, StableCertificate, build_stable, verify_certificate
from .errors import PreconditionViolated, TooLarge
from .factor import _disc_admits, _discriminant, _rabin_irreducible
from .poly import Poly, _add, _divmod, _eval, _mul, _mul_scalar, _sub, _xgcd, format_poly

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
    """Every c with deg c = n - deg b: a factor sieve, then hits read off a digit table.

    ``_factor_sieve`` marks each c whose member has a factor of degree <= top. At
    top = n/2 the rest of degree n are the hits, untested; else each is tested. With
    c = low + high*X^k, a member is one sum: a + b*high*X^k per block, b*low tabled.
    """
    Pencil(a, b)
    p = a.field.modulus
    deg_c = n - int(b.degree)
    if deg_c < 0:
        return _report(a, b, n, "exhaustive", [], 0)
    # p >= 2, so p^(deg_c + 1) exceeds the guard once deg_c reaches its bit length.
    if deg_c >= _EXHAUSTIVE_GUARD.bit_length() or p ** (deg_c + 1) > _EXHAUSTIVE_GUARD:
        raise TooLarge(f"{p}^{deg_c + 1} candidate space exceeds the guard")
    if a.degree > n:  # deg(b*c) = n < deg a: no member has degree n
        return _report(a, b, n, "exhaustive", [], (p - 1) * p**deg_c)
    top = min(n // 2, max(1, deg_c))  # n // 2 whenever deg b <= (n + 1) // 2
    marks = _factor_sieve(p, a.coeffs, b.coeffs, deg_c, top)
    k = min(deg_c, max(1, 12 // p.bit_length()))  # p^k <= max(p, 4096)
    lows = [t[::-1] for t in product(range(p), repeat=k)]  # idx order: c_0 fastest
    table = [(low, _mul(b.coeffs, low, p) + [0] * (n + 1)) for low in lows]
    red, hits = [*range(p)] * 2, []  # a sum of two residues lies in [0, 2p)
    for lo in range(0, len(marks), len(table)):
        j = lo // len(table) + p ** (deg_c - k)  # sum high_i*p^i; its lead is nonzero
        high = tuple(j // p**i % p for i in range(deg_c - k + 1))
        base = _add(a.coeffs, _mul(b.coeffs, [0] * k + [*high], p), p)
        base += [0] * (n + 1 - len(base))  # a's lead may cancel b*c's
        for low, bl in compress(table, map((0).__eq__, marks[lo : lo + len(table)])):
            member = tuple(map(red.__getitem__, map(add, base, bl)))
            # At top = n/2 a reducible member of degree n is marked. _rabin_irreducible
            # is looked up per call as this module's global: tracers rebind it.
            if member[n] and (top == n // 2 or _rabin_irreducible(member, p)):
                hits.append((a._wrap(low + high), a._wrap(member)))
    return _report(a, b, n, "exhaustive", hits, len(marks))


def _factor_sieve(p, a, b, deg_c, top) -> bytearray:
    # A byte per c of degree deg_c, at idx(c) = sum c_i*p^i - p^deg_c, set where a monic
    # irreducible g of degree d <= top divides a + b*c, i.e. c = r = -a/b mod g (g | b
    # divides none). At deg_c = 0 that is the root sieve. Else c = H*X^d + L, L = (r -
    # H*X^d) mod g, and idx(c) = p^d*idx(H) + sum L_i*p^i. Per block of H's k fastest
    # digits T, cols[i][t] = (-T*X^d mod g)_i for the t-th T; the rest of H moves r to low.
    if deg_c == 0:
        return _root_sieve(a, b if top else [], p)[1:]
    marks = bytearray((p - 1) * p**deg_c)
    for g in ([*v, 1] for d in range(1, top + 1) for v in product(range(p), repeat=d)):
        b_g = _divmod(b, g, p)[1]
        # Looked up per call as this module's global: tracers rebind _rabin_irreducible.
        if not b_g or len(g) > 2 and not _rabin_irreducible(g, p):
            continue
        r = _divmod(_mul(_sub([], a, p), _xgcd(b_g, g, p)[1], p), g, p)[1]
        d, m = len(g) - 1, deg_c - len(g) + 1
        k = max(1, min(m + 1, (m + 3) // 2, 12 // p.bit_length()))  # p^k <= max(p, 4096)
        cols = [[0]] * d
        for j in range(k):  # H's lead is nonzero
            w = _divmod([0] * (d + j) + [1], g, p)[1] + [0] * d
            cols = [[(x - s * wi) % p for s in range(j == m, p) for x in col]
                    for col, wi in zip(cols, w)]
        for first in range(0, (p - 1) * p**m, len(cols[0])):  # idx(H), block by block
            high = [0] * (d + k) + [(first + p**m) // p**j % p for j in range(k, m + 1)]
            low = _divmod(_sub(r, high, p), g, p)[1] + [0] * d
            spots = range(p**d * first, p**d * (first + len(cols[0])), p**d)
            for i, (col, li) in enumerate(zip(cols, low)):
                row = [(li + x) % p * p**i for x in range(p)]
                spots = map(add, spots, map(row.__getitem__, col))
            for spot in spots:
                marks[spot] = 1
    return marks


def _line_scan(p, n, base, direction, scales, marks=None, disc=None):
    """Yield (t, member) per t: base + t*direction, irreducible of degree n."""
    sieved = marks is not None  # marks: a root-sieve byte per scale; disc: Disc(t)
    for t in compress(scales, map((0).__eq__, marks)) if sieved else scales:
        member = _add(base, _mul_scalar(direction, t, p), p)
        if len(member) != n + 1 or sieved and not _disc_admits(
                _eval(disc, t, p) if disc else _discriminant(member, p), n, p):
            continue
        # Looked up per call as this module's global: tracers rebind _rabin_irreducible.
        if _rabin_irreducible(member, p, sieved):
            yield t, member


def _line_disc(p, n, base, direction, scales):
    # Disc(t) = disc(monic member) * lc^(2n - 2), by Lagrange through the first 2n - 1
    # members of degree n, or None if no more (lc is affine: one t, or all, drop it).
    nodes = [(t, m) for t in islice(scales, 2 * n + 1)
             if len(m := _add(base, _mul_scalar(direction, t, p), p)) == n + 1]
    if len(nodes) < 2 * n:
        return None
    del nodes[2 * n - 1 :]
    line = reduce(lambda u, t: _mul(u, [-t % p, 1], p), (t for t, _ in nodes), [1])
    disc: list[int] = []
    for t, m in nodes:
        q = _divmod(line, [-t % p, 1], p)[0]  # vanishes at every node but t
        d = _discriminant(m, p) * pow(m[-1], 2 * n - 2, p)
        disc = _add(disc, _mul_scalar(q, d * pow(_eval(q, t, p), -1, p), p), p)
    return disc


def _root_sieve(a, bc, p: int) -> bytearray:
    # A byte per alpha in F_p, set where a + alpha*bc has a root x: alpha = -a(x)/bc(x),
    # one pass over x. A zero of bc marks nothing (a root of both is ruled out by gcd 1).
    marked = bytearray(p)
    for x in range(p):
        if v := _eval(bc, x, p):
            marked[_eval(a, x, p) * pow(-v, -1, p) % p] = 1
    return marked


def _density_chunk(job):
    return sum(1 for _ in _line_scan(*job))  # job: (p, n, a, bc, scales, marks, disc)


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

    Only scales neither sieve marks are tested: ``rooted``, about 1 - D_n/n!, have a
    root and degree n >= 7 (a zero of bc is a root of none, as gcd(a, bc) = 1), and
    about half the rest a Disc(alpha) (interpolated here, evaluated in the chunks) that
    proves them reducible. p - 1 above the guard (10^7) raises ``TooLarge`` at once.
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
    disc = _line_disc(p, cert.n, a, bc, range(1, p))
    jobs = [(p, cert.n, a, bc, range(lo, hi), bytes(marked[lo:hi]), disc)
            for lo, hi in split_range(1, p, workers * 8)]
    count = sum(run_chunked(_density_chunk, jobs, workers))
    expected = Fraction(p, cert.n)
    rooted = marked.count(1) - marked[0]  # alpha = 0 is no scale
    return DensityResult(p, cert.n, count, expected, Fraction(count) / expected, rooted)
