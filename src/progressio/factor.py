"""Irreducibility testing and complete factorization over prime fields.

Both use Berlekamp's Q-matrix, the rows X^(i*p) mod f built from X^p mod f and
applied as poly's ``_linear_map``, so no exponent grows with p^d. Below p = 8
(``_SHIFT_SWITCH``), X^p and each row X^p * row_(i-1) take p multiply-by-X steps of
O(deg f) (CPython 3.11, deg 8-32: rows 1.1-2.8x faster at p <= 7, 1.3-2.3x slower at
p = 11, 13); from 8 on, a row is a mulmod, and X^p a squaring per bit of p plus a
shift per 1 bit. Below the size switch (degree <= 8) the test is Berlekamp's count:
the nullity of Q - I is the number of distinct irreducible factors (Berlekamp 1970).
Factorization runs Ben-Or's distinct-degree loop at every degree, and the test runs
it from the switch on: for d = 1, 2, ... while 2d <= deg(rest), gcd(X^(p^d) - X,
rest) is the product of the degree-d irreducible factors, and what is left at the
end is irreducible; the test stops at the first nontrivial gcd. Degrees d > 1 come
in blocks [d, 2d) (Shoup 1995): one gcd with the product of the X^(p^e) - X over a
block, and one per degree only when that gcd is nontrivial.

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
from functools import reduce

from .errors import (
    ConstantPolynomial,
    PreconditionViolated,
    RetryBudgetExceeded,
    ZeroPolynomial,
)
from .ff import FieldElem
from .poly import (
    _SIZE_SWITCH,
    Poly,
    _add,
    _deriv,
    _divmod,
    _gcd,
    _linear_map,
    _monic,
    _mul,
    _pow_mod,
    _reducer,
    _sub,
    _times_x,
    _trim,
    format_poly,
)

_SHIFT_SWITCH = 8  # the p from which X^p * g mod f is a mulmod, not p shift steps


def _mobius(n: int) -> int:
    mu = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            mu = -mu
        d += 1
    if n > 1:
        mu = -mu
    return mu


def _divisors(n: int) -> list[int]:
    out = [d for d in range(1, int(n**0.5) + 1) if n % d == 0]
    return sorted(set(out + [n // d for d in out]))


def count_irreducibles(p: int, n: int) -> int:
    """Exact number of monic irreducibles of degree n over F_p."""
    if n < 1:
        raise PreconditionViolated("degree must be >= 1")
    return sum(_mobius(d) * p ** (n // d) for d in _divisors(n)) // n


# ---------------------------------------------------------------------------
# Irreducibility.


def _times_xp(g: list[int], f: list[int], rem, p: int, xp=None) -> list[int]:
    # X^p * g mod f, f monic, g reduced; xp = X^p mod f is computed when not given.
    if p < _SHIFT_SWITCH:
        return _times_x(g, f, p, p)
    if xp is None:
        xp = _times_x([1], f, p)
        for bit in bin(p)[3:]:
            xp = _times_x(rem(_mul(xp, xp, p)), f, p, int(bit))
    return rem(_mul(g, xp, p))


def _frobenius_rows(xp: list[int], f: list[int], rem, p: int) -> list[list[int]]:
    # Rows X^(i*p) mod f for i < deg f, each X^p times the one before.
    rows = [[1]]
    for _ in range(len(f) - 2):
        rows.append(_times_xp(rows[-1], f, rem, p, xp))
    return rows


def _ben_or(f: list[int], p: int):
    # f monic, degree >= 1. Yields (gcd(X^(p^d) - X, rest), d, rows) when that gcd
    # is nontrivial, dividing it out of rest, then (rest, deg rest, rows); rows are
    # X^(i*p) mod rest, [] before d = 2. No degree in a block [d, 2d) divides
    # another, so the block gcd holds exactly the factors of the block's degrees.
    rest = f
    rows: list[list[int]] = []
    rem = _reducer(rest, p)  # a -> a mod rest, rebuilt whenever rest shrinks
    d = 1
    while 2 * d < len(rest):
        if d > 1 and not rows:  # not before d = 2: most random inputs have a root
            rows = _frobenius_rows(h, rest, rem, p)
            frob = _linear_map(rows, p)
        top = min(2 * d - 1, (len(rest) - 1) // 2)
        hs = []
        for e in range(d, top + 1):
            h = frob(h) if e > 1 else _times_xp([1], rest, rem, p)
            hs.append(_sub(h, [0, 1], p))
        block = rest
        if top > d:
            block = _gcd(reduce(lambda u, v: rem(_mul(u, v, p)), hs), rest, p)
        size = len(rest)
        for e, he in zip(range(d, top + 1), hs):
            if len(block) == 1 or 2 * e >= len(rest):
                break
            g = _gcd(he, block, p)
            if len(g) > 1:
                yield g, e, rows
                rest = _divmod(rest, g, p)[0]
        if len(rest) < size:
            rem = _reducer(rest, p)
            h = rem(h)
            if rows:
                rows = [rem(r) for r in rows[: len(rest) - 1]]
                frob = _linear_map(rows, p)
        d = top + 1
    if len(rest) > 1:
        yield rest, len(rest) - 1, rows


def _rabin_irreducible(coeffs, p: int, rootless: bool = False) -> bool:
    """Irreducibility test; coefficients normalized, degree n >= 1.

    Below the size switch: f = g^k, g irreducible, iff rows 1..n-1 of Q - I are
    independent (row 0 is zero), and then f is irreducible iff gcd(f, f') = 1.
    Unless ``rootless`` (the caller has proved that f has no root), a root gcd
    gcd(X^p - X, f) runs first. The count alone is exact, so ``rootless`` changes
    the cost, never the answer. From the switch on, Ben-Or: True iff
    gcd(X^(p^d) - X, f) = 1 for every d <= n/2.
    """
    f = _monic(coeffs, p)
    n = len(f) - 1
    if n >= _SIZE_SWITCH:
        return next(_ben_or(f, p))[1] == n
    rem = _reducer(f, p) if p >= _SHIFT_SWITCH else None  # shift steps need none
    xp = _times_xp([1], f, rem, p)
    if not rootless and n > 1 and len(_gcd(_sub(xp, [0, 1], p), f, p)) > 1:
        return False  # a root; a linear f is its own root factor, hence n > 1
    m = [r + [0] * (n - len(r)) for r in _frobenius_rows(xp, f, rem, p)[:0:-1]]
    for i, r in enumerate(m):  # Q - I, rows n-1..1, unreduced; popped from row 1 on
        r[n - 1 - i] -= 1
    while m:  # clear the first nonzero column of the next row from the rows after it
        r = m.pop()
        for c, x in enumerate(r):
            if x % p:
                break
        else:
            return False  # a dependent row: at least two distinct irreducible factors
        inv = pow(r.pop(c), -1, p)
        for j, s in enumerate(m):
            t = s.pop(c) * inv % p
            if t:
                m[j] = [a - t * b for a, b in zip(s, r)]
    return len(_gcd(f, _deriv(f, p), p)) == 1


def is_irreducible(f: Poly) -> bool:
    """True iff f is irreducible over its prime field (degree >= 1)."""
    if f.degree < 1:
        raise ConstantPolynomial("irreducibility needs degree >= 1")
    return _rabin_irreducible(list(f.coeffs), f.field.modulus)


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
                w = _add(w, acc, p) if p == 2 else rem(_mul(w, acc, p))
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
