"""Naive reference implementations used as independent cross-checks.

They share with production only the ``Poly`` value type and, in ``naive_factor``,
Poly's long division (tested against ``naive_mul``). Multiplication is a plain
convolution, the resultant a Sylvester determinant, the irreducibles a sieve over
``naive_mul`` products, factorization trial division by them. They ship with the
package so ``selftest`` can audit an installation; deliberately slow, desk-scale.
"""

from __future__ import annotations

import functools
import itertools
from typing import Sequence

from .errors import TooLarge, ZeroPolynomial
from .factor import FactorizationResult, _graded_lex_key
from .ff import PrimeField
from .poly import Poly

_SCALE_GUARD = 10**7


def naive_mul(f: Poly, g: Poly) -> Poly:
    """Schoolbook convolution, independent of the production multiplier."""
    if f.is_zero() or g.is_zero():
        return Poly.zero(f.field)
    p = f.field.modulus
    out = [0] * (len(f.coeffs) + len(g.coeffs) - 1)
    for i, a in enumerate(f.coeffs):
        for j, b in enumerate(g.coeffs):
            out[i + j] = (out[i + j] + a * b) % p
    return Poly(f.field, out)


def sylvester_resultant(a: Sequence[int], b: Sequence[int], p: int) -> int:
    """res(a, b) of nonzero coefficient lists: the Sylvester determinant, by elimination."""
    m, n = len(a) - 1, len(b) - 1  # n shifted rows of a, m of b
    rows = [[0] * i + [*a[::-1]] + [0] * (n - 1 - i) for i in range(n)]
    rows += [[0] * i + [*b[::-1]] + [0] * (m - 1 - i) for i in range(m)]
    det = 1
    for c in range(m + n):
        pivot = next((r for r in range(c, m + n) if rows[r][c] % p), None)
        if pivot is None:
            return 0
        if pivot != c:
            rows[c], rows[pivot], det = rows[pivot], rows[c], -det
        det = det * rows[c][c] % p
        inv = pow(rows[c][c], -1, p)
        for r in range(c + 1, m + n):
            t = rows[r][c] * inv % p
            rows[r] = [x - t * y for x, y in zip(rows[r], rows[c])]
    return det % p


def _monic_polys(field: PrimeField, degree: int):
    # All monic polynomials of the given degree, ascending low-coefficient code.
    for digits in itertools.product(range(field.modulus), repeat=degree):
        yield Poly(field, digits[::-1] + (1,))  # product varies its last digit fastest


def enumerate_irreducibles(p: int, n: int) -> list[Poly]:
    """All monic irreducibles of degree n over F_p, sieved, graded-lex order."""
    if n > _SCALE_GUARD.bit_length() or p**n > _SCALE_GUARD:  # p >= 2
        raise TooLarge(f"{p}^{n} exceeds the sieve guard of {_SCALE_GUARD}")
    return list(_enumerate_cached(p, n))


@functools.lru_cache(maxsize=64)
def _enumerate_cached(p: int, n: int) -> tuple[Poly, ...]:
    # Degree n only: a reducible monic is a cached irreducible of degree d <= n/2 times
    # a monic. Keys are low-coefficient codes; _monic_polys yields code i i-th.
    def encode(f: Poly) -> int:
        code = 0
        for c in reversed(f.coeffs[:-1]):
            code = code * p + c
        return code

    field = PrimeField(p)
    composite = {
        encode(naive_mul(small, cofactor))
        for d in range(1, n // 2 + 1)
        for small in _enumerate_cached(p, d)
        for cofactor in _monic_polys(field, n - d)
    }
    found = [f for code, f in enumerate(_monic_polys(field, n)) if code not in composite]
    found.sort(key=_graded_lex_key)
    return tuple(found)


def naive_factor(f: Poly) -> FactorizationResult:
    """Trial division by sieved irreducibles in graded-lex order."""
    if f.is_zero():
        raise ZeroPolynomial("cannot factor the zero polynomial")
    p = f.field.modulus
    if f.degree > _SCALE_GUARD.bit_length() or p ** int(f.degree) > _SCALE_GUARD:
        raise TooLarge(f"{p}^{f.degree} exceeds the trial-division guard")
    unit = f.lc()
    rest = f.monic()
    factors: list[tuple[Poly, int]] = []
    d = 1
    while rest.degree >= 1:
        if d > rest.degree // 2:
            factors.append((rest, 1))
            break
        for cand in enumerate_irreducibles(p, d):
            mult = 0
            while True:
                q, r = divmod(rest, cand)
                if not r.is_zero():
                    break
                rest, mult = q, mult + 1
            if mult:
                factors.append((cand, mult))
        d += 1
    factors.sort(key=lambda pair: _graded_lex_key(pair[0]))
    return FactorizationResult(unit, tuple(factors))
