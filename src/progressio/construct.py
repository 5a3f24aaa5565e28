"""Explicit construction of multipliers that force ramified specializations.

Given a coprime pencil (a, b), the family a(X) + b(X)*Y, this module
builds a multiplier c(X) so that the rescaled family a + b·c·Y has X-degree
n and two designated specializations with prescribed factorization shapes:

    a + alpha1·b·c = (X - gamma1)^e · h1,    h1 separable,
    a + alpha2·b·c = (X - gamma2)^2 · h2,    h2 separable,

with e chosen in the open window (n/2, n - m) coprime to n and to the
characteristic, where m = max(deg a, 2 + deg b). The first specialization
witnesses a long cycle, the second a transposition; together with
transitivity they pin the geometric permutation group of the family to
the full symmetric group (the ``galois`` module draws that conclusion).

``build_c`` yields candidate multipliers and ``build_stable`` returns the
first whose certificate ``certificate_violations`` passes: the verifier is
the construction's only acceptance test.

Everything here is deterministic: scans run over field elements in
ascending residue order, so two runs with equal inputs produce identical
certificates.

The whole construction is elementary; it uses nothing beyond the extended
Euclidean algorithm and linear algebra in the coefficients.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import islice

from .errors import (
    FieldExhausted,
    FieldTooSmall,
    NoValidE,
    ParseError,
    PreconditionViolated,
)
from .ff import FieldElem, PrimeField
from .poly import Poly, gcd, is_separable, xgcd


@dataclass(frozen=True, slots=True)
class Pencil:
    """The family a(X) + b(X)·Y for coprime a, b with b nonzero."""

    a: Poly
    b: Poly

    def __post_init__(self):
        if self.a.field != self.b.field:
            raise PreconditionViolated("pencil parts over different fields")
        if self.b.is_zero():
            raise PreconditionViolated("pencil needs b != 0")
        if not gcd(self.a, self.b).is_one():
            raise PreconditionViolated("pencil needs gcd(a, b) = 1")


def choose_e(n: int, m: int, p: int) -> int:
    """Smallest e with n/2 < e < n - m and gcd(e, n*p) = 1."""
    if n < 1 or m < 0:
        raise PreconditionViolated("need n >= 1 and m >= 0")
    for e in range(n // 2 + 1, n - m):
        if math.gcd(e, n * p) == 1:
            return e
    raise NoValidE(f"no admissible e in ({n}/2, {n - m}) coprime to {n}*{p}")


def _solve_companion(a: Poly, modulus: Poly, rhs: Poly) -> tuple[Poly, Poly]:
    # Unique c0 with deg c0 < deg modulus and a = modulus*h + rhs*c0;
    # needs gcd(modulus, rhs) = 1.
    g, _, v = xgcd(modulus, rhs)
    if not g.is_one():
        raise PreconditionViolated("companion solve needs coprime inputs")
    c0 = (v * a) % modulus
    h, r = divmod(a - rhs * c0, modulus)
    if not r.is_zero():
        raise AssertionError("companion division was not exact")
    return c0, h


def build_c(
    a: Poly,
    b: Poly,
    p1: Poly,
    p2: Poly,
    alpha1: FieldElem | int,
    alpha2: FieldElem | int,
    target_deg_c: int,
) -> Iterator[tuple[Poly, Poly, Poly]]:
    """Candidates c, with h_i, such that a = p_i*h_i + alpha_i*b*c (i = 1, 2).

    The two congruences are solved with the extended Euclidean algorithm
    and glued; the leftover degree freedom is a factor s of degree
    target_deg_c - deg p1 - deg p2, scanned over the family
    lambda*(X-beta)^(deg s - 1)*(X-gamma') in ascending order. Validation
    and the solves run on call; the iterator yields (c, h1, h2) for every s
    past the root and p-th power filters, and leaves the tests on h_i to
    the caller (``build_stable`` runs the certificate verifier).
    """
    field = a.field
    p = field.modulus
    a1 = field(alpha1)
    a2 = field(alpha2)
    if not a1 or not a2 or a1 == a2:
        raise PreconditionViolated("need distinct nonzero alpha1, alpha2")
    parts = [a, b, p1, p2]
    if any(f.is_zero() for f in parts):
        raise PreconditionViolated("a, b, p1, p2 must be nonzero")
    if p1.degree < 1 or p2.degree < 1:
        raise PreconditionViolated("p1 and p2 must be nonconstant")
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            if not gcd(parts[i], parts[j]).is_one():
                raise PreconditionViolated(
                    "a, b, p1, p2 must be pairwise relatively prime"
                )
    if target_deg_c <= p1.degree + p2.degree:
        raise PreconditionViolated("target degree must exceed deg p1 + deg p2")

    cross = (a1 * b * p2, a2 * b * p1)
    # Solve a = p_i*h_{i,0} + cross_i*c_i with deg c_i < deg p_i.
    c1, h10 = _solve_companion(a, p1, cross[0])
    c2, h20 = _solve_companion(a, p2, cross[1])
    c_bar = p1 * c2 + p2 * c1
    bases = (h10 - a1 * b * c2, h20 - a2 * b * c1)

    deg_s = target_deg_c - int(p1.degree) - int(p2.degree)
    bp = (b * p1, b * p2)
    p12 = p1 * p2
    betas = range(p) if deg_s > 1 else range(1)

    def scan() -> Iterator[tuple[Poly, Poly, Poly]]:
        for lam in range(1, p):
            for beta in betas:
                # gcd(s, h_base) = 1 reduces to root checks at s's two roots.
                if deg_s > 1 and (bases[0](beta) == 0 or bases[1](beta) == 0):
                    continue
                stem = Poly.linear(field, beta) ** (deg_s - 1) * lam
                for gamma in range(p):
                    if bases[0](gamma) == 0 or bases[1](gamma) == 0:
                        continue
                    s = stem * Poly.linear(field, gamma)
                    if any((f * s).derivative().is_zero() for f in bp):
                        continue
                    yield (c_bar + p12 * s, bases[0] - cross[0] * s,
                           bases[1] - cross[1] * s)

    return scan()


@dataclass(frozen=True, slots=True)
class StableCertificate:
    """Replayable witness that a rescaled pencil has full symmetric group.

    Every claim is a polynomial identity or a gcd over the prime field,
    so the certificate can be re-verified from its serialized form alone.
    """

    field: PrimeField
    a: Poly
    b: Poly
    c: Poly
    n: int
    m: int
    e: int
    alpha1: FieldElem
    alpha2: FieldElem
    gamma1: FieldElem
    gamma2: FieldElem
    h1: Poly
    h2: Poly


def certificate_violations(cert: StableCertificate) -> list[str]:
    """Names of all violated certificate clauses (empty when valid)."""
    out = []
    field = cert.field
    a, b, c = cert.a, cert.b, cert.c
    n, m, e = cert.n, cert.m, cert.e
    bad_field = any(
        v.field != field
        for v in (a, b, c, cert.h1, cert.h2, cert.alpha1, cert.alpha2,
                  cert.gamma1, cert.gamma2)
    )
    if bad_field:
        return ["field-consistency"]

    def check(name: str, ok: bool):
        if not ok:
            out.append(name)

    check("pencil-coprime", not b.is_zero() and gcd(a, b).is_one())
    check("m-definition", not b.is_zero()
          and m == max(a.degree, 2 + int(b.degree)))
    check("degrees", (b * c).degree == n and a.degree < n)
    check("degree/exponent", 2 * e > n and e < n - m
          and math.gcd(e, n * field.modulus) == 1)
    for name, alpha, gamma, k, h in (
        ("witness1-identity", cert.alpha1, cert.gamma1, e, cert.h1),
        ("witness2-identity", cert.alpha2, cert.gamma2, 2, cert.h2),
    ):
        # Degrees first, so a tampered exponent is never expanded.
        lhs = a + alpha * b * c
        check(name, k >= 0 and k + h.degree == lhs.degree
              and (h.is_zero() or lhs == Poly.linear(field, gamma) ** k * h))
    for label, h, gamma in (("h1", cert.h1, cert.gamma1),
                            ("h2", cert.h2, cert.gamma2)):
        if h.is_zero():
            check(f"{label}-separable", False)
            check(f"{label}-coprime", False)
            continue
        check(f"{label}-separable", is_separable(h))
        check(f"{label}-coprime",
              not a.is_zero()
              and gcd(h, Poly.linear(field, gamma) * a).is_one())
    check("alphas", bool(cert.alpha1) and bool(cert.alpha2)
          and cert.alpha1 != cert.alpha2)
    ab = a * b
    check("gammas", cert.gamma1 != cert.gamma2 and not ab.is_zero()
          and ab(cert.gamma1) != 0 and ab(cert.gamma2) != 0)
    check("c-coprime", not (a.is_zero() and c.is_zero())
          and gcd(a, c).is_one())
    return out


def verify_certificate(cert: StableCertificate) -> bool:
    """Replay every certificate clause by direct recomputation."""
    return not certificate_violations(cert)


def build_stable(a: Poly, b: Poly, n: int, seed: int = 0) -> StableCertificate:
    """Construct a full certificate for the pencil (a, b) at X-degree n.

    Selection is canonical: gamma1 < gamma2 are the two smallest residues
    avoiding the roots of a*b, and (alpha1, alpha2) starts at (1, 2),
    advancing in lexicographic order only when no ``build_c`` candidate of
    a pair verifies; the first candidate ``certificate_violations`` passes
    is returned, so the result does not depend on seed. Raises NoValidE
    when the exponent window is empty, FieldTooSmall when the field cannot
    host the selections, and FieldExhausted when every pair runs out.
    """
    Pencil(a, b)
    field = a.field
    if not (n > a.degree and n > b.degree):
        raise PreconditionViolated("need n above both pencil degrees")
    p = field.modulus
    ab = a * b
    deg_ab = int(ab.degree) if not ab.is_zero() else 0
    if p < deg_ab + 4:
        raise FieldTooSmall(f"need p >= deg(a*b) + 4 = {deg_ab + 4}, got {p}")
    m = int(max(a.degree, 2 + int(b.degree)))
    e = choose_e(n, m, p)
    gammas = list(islice((g for g in range(p) if ab(g) != 0), 2))
    if len(gammas) < 2:
        raise FieldExhausted("fewer than two residues avoid the roots of a*b")
    gamma1, gamma2 = gammas
    p1 = Poly.linear(field, gamma1) ** e
    p2 = Poly.linear(field, gamma2) ** 2
    target = n - int(b.degree)

    for alpha1 in range(1, p):
        for alpha2 in range(1, p):
            if alpha2 == alpha1:
                continue
            # The solver produces a = p_i*h_i + alpha*b*c; feeding it the
            # negated pair makes the certificate identities read
            # a + alpha_i*b*c = p_i*h_i.
            for c, h1, h2 in build_c(
                a, b, p1, p2, field(-alpha1), field(-alpha2), target
            ):
                cert = StableCertificate(
                    field=field, a=a, b=b, c=c, n=n, m=m, e=e,
                    alpha1=field(alpha1), alpha2=field(alpha2),
                    gamma1=field(gamma1), gamma2=field(gamma2),
                    h1=h1, h2=h2,
                )
                if not certificate_violations(cert):
                    return cert
    raise FieldExhausted("no admissible scale pair for the multiplier scan")


def smallest_feasible_n(a: Poly, b: Poly, limit: int = 64) -> int:
    """Smallest target degree the exponent window admits for this pencil.

    The effective threshold where the construction starts to work; raises
    NoValidE when nothing up to the limit is admissible.
    """
    if b.is_zero():
        raise PreconditionViolated("need b != 0")
    m = int(max(a.degree, 2 + int(b.degree)))
    p = a.field.modulus
    start = int(max(a.degree, b.degree)) + 1
    for n in range(max(start, 1), limit + 1):
        try:
            choose_e(n, m, p)
            return n
        except NoValidE:
            continue
    raise NoValidE(f"no admissible degree up to {limit}")


# ---------------------------------------------------------------------------
# Certificate text format (stable key order, consumed by verify tooling).

_INT_KEYS = ("n", "m", "e")
_ELEM_KEYS = ("alpha1", "alpha2", "gamma1", "gamma2")
_POLY_KEYS = ("a", "b", "c", "h1", "h2")
_CERT_KEYS = ("modulus",) + _INT_KEYS + _ELEM_KEYS + _POLY_KEYS


def certificate_to_text(cert: StableCertificate) -> str:
    def line(key: str) -> str:
        value = cert.field.modulus if key == "modulus" else getattr(cert, key)
        if isinstance(value, Poly):
            value = ",".join(map(str, value.coeffs)) or "0"
        return f"{key}: {value}\n"

    return "".join(map(line, _CERT_KEYS))


def certificate_from_text(text: str) -> StableCertificate:
    entries: dict[str, str] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition(":")
        if not sep:
            raise ParseError(f"bad certificate line {line!r}")
        entries[key.strip()] = value.strip()
    missing = [k for k in _CERT_KEYS if k not in entries]
    if missing:
        raise ParseError(f"certificate is missing keys: {missing}")
    try:
        field = PrimeField(int(entries["modulus"]))
        values: dict = {k: int(entries[k]) for k in _INT_KEYS}
        values.update((k, field(int(entries[k]))) for k in _ELEM_KEYS)
        values.update((k, Poly(field, [int(v) for v in entries[k].split(",")]))
                      for k in _POLY_KEYS)
    except ValueError as exc:
        raise ParseError(f"bad certificate value: {exc}") from exc
    return StableCertificate(field=field, **values)
