"""Irreducibility testing and complete factorization over prime fields.

Both read the Frobenius off X^p mod f: the rows X^(i*p) mod f (poly's
``_frobenius_rows``), applied as poly's ``_linear_map``, so no exponent grows with p^d.
X^p is poly's ``_pow_mod`` of X, and X^(p^2), where the test needs no rows, is
``_compose_mod`` of X^p with itself. Both run Ben-Or's distinct-degree loop:
gcd(X^(p^d) - X, f) is the product of the degree-d irreducible factors of f, and
degrees d > 1 come in blocks [d, 2d) (Shoup 1995), one gcd with the product of the
X^(p^e) - X over a block. Factorization divides each nontrivial product out while
2d <= deg(rest), and what is left is irreducible; its rows outlive a split while they
number fewer than 2 deg(rest), so they are X^(i*p) mod a multiple of rest, each image
reduced by one Barrett step. The test starts with disc f: 0 is a
repeated factor, and for odd p its character is (-1)^(n-r), r the number of distinct
irreducible factors (Swan 1962). So an admitted reducible f has a factor of degree
<= n/2, and for odd p (r >= 3) <= n/3; the test stops there or at a nontrivial gcd.
Like the loop it starts at d = 1, the root gcd, or at d = 2 for a sieved f (rootless).

Factorization runs squarefree decomposition (with p-th-root recursion
when the derivative vanishes), the distinct-degree loop, then randomized
equal-degree splitting on the loop's rows restricted to each piece, all on raw
coefficient lists: ``Poly`` appears only at ``factorize``'s boundary. Factor
degrees (cycle types) need only the first two stages, so draw nothing. Every
randomized routine takes an explicit seed and gives a canonically ordered
result, so equal seeds give byte-identical output; the splitting retry
budget is 64 shots per degree, after which the routine errors rather than
looping silently.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import (
    ConstantPolynomial,
    PreconditionViolated,
    RetryBudgetExceeded,
    ZeroPolynomial,
)
from .ff import FieldElem
from .poly import (
    Poly,
    _add,
    _compose_mod,
    _deriv,
    _divmod,
    _frobenius_rows,
    _gcd,
    _linear_map,
    _monic,
    _pow_mod,
    _reducer,
    _resultant,
    _sub,
    _trim,
    format_poly,
)


def count_irreducibles(p: int, n: int) -> int:
    """Exact number of monic irreducibles of degree n over F_p: (1/n)·Σ μ(d)·p^(n/d)."""
    if n < 1:
        raise PreconditionViolated("degree must be >= 1")
    terms, rest, q = [(1, 1)], n, 2  # (μ(d), d) over the squarefree d | n
    while rest > 1:  # trial division up to √n; a last rest > 1 is prime
        q = q if q * q <= rest else rest
        if rest % q == 0:
            terms += [(-mu, d * q) for mu, d in terms]
            while rest % q == 0:
                rest //= q
        q += 1
    return sum(mu * p ** (n // d) for mu, d in terms) // n


# ---------------------------------------------------------------------------
# Irreducibility.


def _ben_or(f: list[int], p: int):
    # f monic, degree >= 1. Yields (gcd(X^(p^d) - X, rest), d, rows) when that gcd
    # is nontrivial, dividing it out of rest, then (rest, deg rest, rows); rows are
    # X^(i*p) mod a multiple of rest, [] before d = 2. No degree in a block [d, 2d)
    # divides another, so the block gcd holds exactly the factors of the block's degrees.
    rest = f
    rows: list[list[int]] = []
    rem = _reducer(rest, p)  # a -> a mod rest, rebuilt whenever rest shrinks
    d = 1
    while 2 * d < len(rest):
        if d > 1 and not rows:  # not before d = 2: most random inputs have a root
            rows = _frobenius_rows(h, rem, p)
            frob = _linear_map(rows, p)
        top = min(2 * d - 1, (len(rest) - 1) // 2)
        hs = []
        for e in range(d, top + 1):
            h = rem(frob(h)) if e > 1 else _pow_mod([0, 1], p, rem, p)
            hs.append(_sub(h, [0, 1], p))
        block = rest
        if top > d:
            block = _gcd(rem(*hs), rest, p)
        size = len(rest)
        for e, he in zip(range(d, top + 1), hs):
            if len(block) == 1 or 2 * e >= len(rest):
                break
            g = _gcd(he, block, p)
            if len(g) > 1:
                yield g, e, rows
                rest = _divmod(rest, g, p)[0]
        d = top + 1
        if len(rest) < size:
            rem = _reducer(rest, p)
            h = rem(h)
            # Rows mod the old rest serve while fewer than 2 deg rest of them (one
            # Barrett step of rem then reduces their map's output) and once the loop is
            # over (only the irreducible last rest is left, and it needs no rows).
            if rows and len(rows) >= 2 * len(rest) - 2 and 2 * d < len(rest):
                rows = [rem(r) for r in rows[: len(rest) - 1]]
                frob = _linear_map(rows, p)
    if len(rest) > 1:
        yield rest, len(rest) - 1, rows


def _discriminant(f: list[int], p: int) -> int:
    f, n = _monic(f, p), len(f) - 1  # disc of monic f: (-1)^(n(n-1)/2) res(f, f')
    return (-1) ** (n * (n - 1) // 2) * _resultant(f, _deriv(f, p), p) % p


def _disc_admits(d: int, n: int, p: int) -> bool:
    # d = disc f times a square; d = 0, or p odd and χ(d) != (-1)^(n-1): f is reducible
    return d != 0 and (p == 2 or pow(d, (p - 1) // 2, p) == (-1) ** (n - 1) % p)


def _rabin_irreducible(coeffs, p: int, sieved: bool = False) -> bool:
    """Irreducibility test; coefficients normalized, degree n >= 1.

    Unless ``sieved`` (the caller proved f rootless and passing this check): False if
    disc f fails ``_disc_admits``. Then False iff, for first <= d <= top (n/2 at p = 2,
    n/3 for odd p), a gcd of f with the product of the X^(p^d) - X over a Ben-Or block
    [2^i, 2^(i+1)), cut at top, is nontrivial. Block d = 1 is the root gcd, so first is
    1, or 2 when sieved; at top < first nothing after the discriminant is computed.
    """
    f, n = _monic(coeffs, p), len(coeffs) - 1
    if not sieved and not _disc_admits(_discriminant(f, p), n, p):
        return False
    top, first = n // 2 if p == 2 else n // 3, 2 if sieved else 1
    if top < first:
        return True  # the discriminant, and if sieved the root sieve, left no factor
    rem = _reducer(f, p)
    h = xp = _pow_mod([0, 1], p, rem, p)
    for d in range(first, top + 1):
        if d == 2 and top > 2:  # X^(p^d) as iterates of the Frobenius rows
            frob = _linear_map(_frobenius_rows(xp, rem, p), p)
        if d > 1:  # at top = 2, X^p(X^p) by Horner: n - 1 packed Barrett mulmods
            h = frob(h) if top > 2 else _compose_mod(xp, xp, rem, p)
        hx = _sub(h, [0, 1], p)
        acc = hx if d & (d - 1) == 0 else rem(acc, hx)
        if (d == top or d & (d + 1) == 0) and len(_gcd(acc, f, p)) > 1:
            return False
    return True


def is_irreducible(f: Poly) -> bool:
    """True iff f is irreducible over its prime field (degree >= 1)."""
    if f.degree < 1:
        raise ConstantPolynomial("irreducibility needs degree >= 1")
    return _rabin_irreducible(f.coeffs, f.field.modulus)


# ---------------------------------------------------------------------------
# Factorization.


def _squarefree_list(f: list[int], p: int) -> list[tuple[list[int], int]]:
    # f monic of degree >= 1; returns pairwise coprime squarefree parts
    # with their multiplicities.
    mult, out = 1, []
    while True:
        deriv = _deriv(f, p)
        if deriv:
            g = _gcd(f, deriv, p)
            h = _divmod(f, g, p)[0]
            i = 1
            while len(h) > 1:
                step = _gcd(g, h, p)
                part = _divmod(h, step, p)[0]
                if len(part) > 1:
                    out.append((part, i * mult))
                g, h, i = _divmod(g, step, p)[0], step, i + 1
            if len(g) == 1:
                return out
            f = g
        # Here f' = 0 and f is monic, so p divides deg f and f = u(X^p), u = f[::p].
        f = f[::p]
        mult *= p


def _factor_degrees(f: list[int], p: int) -> list[tuple[int, int]]:
    # Sorted (degree, multiplicity) of every irreducible factor of the raw list f,
    # read off the squarefree parts and Ben-Or's products: no splitting, no draws.
    if not f:
        raise ZeroPolynomial("cannot factor the zero polynomial")
    out: list[tuple[int, int]] = []
    if len(f) > 1:
        for part, mult in _squarefree_list(_monic(f, p), p):
            for prod, d, _ in _ben_or(part, p):
                out += [(d, mult)] * ((len(prod) - 1) // d)
    return sorted(out)


def _equal_degree(f: list[int], d: int, p: int, rng: random.Random, rows: list) -> list:
    # f monic squarefree, its factors all of degree d; rows: X^(i*p) mod a multiple
    # of f. A random t splits g by its trace t + t^2 + ... + t^(2^(d-1)) (p = 2)
    # or by t^((p^d-1)/2) = (t * t^p * ... * t^(p^(d-1)))^((p-1)/2) (odd p).
    budget = 64 * (len(f) - 1)
    pieces = [f]
    done: list[list[int]] = []
    while pieces:
        g = pieces.pop()
        if len(g) == d + 1:
            done.append(g)
            continue
        rem = _reducer(g, p)
        frob = _linear_map([rem(r) for r in rows[: len(g) - 1]], p)
        while True:
            if budget <= 0:
                raise RetryBudgetExceeded(
                    f"equal-degree splitting exceeded {64 * (len(f) - 1)} shots"
                )
            budget -= 1
            t = _trim([rng.randrange(p) for _ in range(len(g) - 1)])
            if len(t) < 2:
                continue
            w = acc = t
            for _ in range(d - 1):
                acc = frob(acc)
                w = _add(w, acc, p) if p == 2 else rem(w, acc)
            if p != 2:
                w = _sub(_pow_mod(w, (p - 1) // 2, rem, p), [1], p)
            cand = _gcd(w, g, p)
            if 1 < len(cand) < len(g):
                pieces.append(cand)
                pieces.append(_divmod(g, cand, p)[0])
                break
    return done


def _graded_lex_key(f: Poly):
    return (len(f.coeffs), tuple(reversed(f.coeffs)))


@dataclass(frozen=True, slots=True)
class FactorizationResult:
    """Unit times a product of distinct monic irreducibles with multiplicities."""

    unit: FieldElem
    factors: tuple[tuple[Poly, int], ...]

    def expand(self) -> Poly:
        """Multiply the factorization back out, exactly."""
        out = Poly.constant(self.unit.field, self.unit)
        for f, mult in self.factors:
            out = out * f**mult
        return out

    def degrees(self) -> tuple[int, ...]:
        """Factor degrees, each repeated by multiplicity, descending."""
        out: list[int] = []
        for f, mult in self.factors:
            out.extend([int(f.degree)] * mult)
        return tuple(sorted(out, reverse=True))

    def to_text(self) -> str:
        lines = []
        if int(self.unit) != 1 or not self.factors:
            lines.append(str(self.unit))
        for f, mult in self.factors:
            lines.append(f"({format_poly(f)})^{mult}")
        return "\n".join(lines)

    def __str__(self):
        return self.to_text()


def factorize(f: Poly, seed: int = 0) -> FactorizationResult:
    """Complete factorization into monic irreducibles, canonically ordered."""
    if f.is_zero():
        raise ZeroPolynomial("cannot factor the zero polynomial")
    unit = f.lc()
    if f.degree < 1:
        return FactorizationResult(unit, ())
    p = f.field.modulus
    rng = random.Random(seed)
    found: list[tuple[Poly, int]] = []
    for part, mult in _squarefree_list(_monic(f.coeffs, p), p):
        for prod, d, rows in _ben_or(part, p):
            for irr in _equal_degree(prod, d, p, rng, rows):
                found.append((f._wrap(irr), mult))
    found.sort(key=lambda pair: _graded_lex_key(pair[0]))
    return FactorizationResult(unit, tuple(found))
