"""Naive reference implementations used as independent cross-checks.

Nothing here shares code with the production paths: multiplication is a
plain convolution, factorization is trial division over a sieved table
of irreducibles. These routines ship with the package (not only with the
test suite) so the ``selftest`` command can audit an installation in the
field; they are deliberately slow and guarded to desk scale.
"""

from __future__ import annotations

import functools

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


def _monic_polys(field: PrimeField, degree: int):
    # All monic polynomials of the given degree, ascending low-coefficient code.
    p = field.modulus
    for code in range(p**degree):
        coeffs = []
        rest = code
        for _ in range(degree):
            rest, digit = divmod(rest, p)
            coeffs.append(digit)
        yield Poly(field, coeffs + [1])


def enumerate_irreducibles(p: int, n: int) -> list[Poly]:
    """All monic irreducibles of degree n over F_p, sieved, graded-lex order."""
    if n > _SCALE_GUARD.bit_length() or p**n > _SCALE_GUARD:  # p >= 2
        raise TooLarge(f"{p}^{n} exceeds the sieve guard of {_SCALE_GUARD}")
    return list(_enumerate_cached(p, n))


@functools.lru_cache(maxsize=64)
def _enumerate_cached(p: int, n: int) -> tuple[Poly, ...]:
    field = PrimeField(p)

    def encode(f: Poly) -> int:
        code = 0
        for c in reversed(f.coeffs[:-1]):
            code = code * p + c
        return code

    irreducible_by_degree: list[list[Poly]] = [[]]
    for d in range(1, n + 1):
        composite: set[int] = set()
        for d_factor in range(1, d // 2 + 1):
            for small in irreducible_by_degree[d_factor]:
                for cofactor in _monic_polys(field, d - d_factor):
                    composite.add(encode(small * cofactor))
        found = [
            f for f in _monic_polys(field, d) if encode(f) not in composite
        ]
        irreducible_by_degree.append(found)
    result = irreducible_by_degree[n]
    result.sort(key=_graded_lex_key)
    return tuple(result)


def naive_factor(f: Poly) -> FactorizationResult:
    """Trial division by sieved irreducibles in graded-lex order."""
    if f.is_zero():
        raise ZeroPolynomial("cannot factor the zero polynomial")
    p = f.field.modulus
    if f.degree >= 1 and p ** int(f.degree) > _SCALE_GUARD:
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
