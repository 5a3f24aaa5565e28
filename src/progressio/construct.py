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
the construction's only acceptance test. It checks once that all nine
values share one field, then runs every clause on raw coefficient lists
through poly's kernels, forming b·c and a·b once.

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
from .poly import (ZERO_DEGREE, Poly, _add, _deriv, _eval, _gcd, _mul, _mul_scalar,
                   gcd, xgcd)


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

    c_bar = a/(alpha_i*b) mod p_i takes one extended-Euclid cofactor per modulus,
    glued by CRT; the leftover degree freedom is a factor s of degree
    target_deg_c - deg p1 - deg p2, scanned over the family
    lambda*(X-beta)^(deg s - 1)*(X-gamma') in ascending order. Validation
    and the CRT step run on call; the iterator yields (c, h1, h2) for every s
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
    # c_bar = a/(alpha_i*b) mod p_i, glued by CRT as p1*c2 + p2*c1, c_i = a/cross_i mod
    # p_i by xgcd's cofactor (gcd 1 by the checks above); bases: (a - alpha_i*b*c_bar)/p_i.
    c1, c2 = (xgcd(q, x)[2] * a % q for q, x in zip((p1, p2), cross))
    c_bar = p1 * c2 + p2 * c1
    bc_bar = b * c_bar
    quots = [divmod(a - al * bc_bar, q) for al, q in ((a1, p1), (a2, p2))]
    if any(not r.is_zero() for _, r in quots):
        raise AssertionError("CRT division was not exact")
    bases = [h for h, _ in quots]

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
    field = cert.field
    values = (cert.a, cert.b, cert.c, cert.h1, cert.h2,
              cert.alpha1, cert.alpha2, cert.gamma1, cert.gamma2)
    if any(v.field != field for v in values):
        return ["field-consistency"]
    p, n, m, e = field.modulus, cert.n, cert.m, cert.e
    a, b, c, h1, h2 = (v.coeffs for v in values[:5])
    al1, al2, g1, g2 = (v.residue for v in values[5:])
    bc, ab = _mul(b, c, p), _mul(a, b, p)
    out = []

    def deg(f) -> int | float:
        return len(f) - 1 if f else ZERO_DEGREE

    def check(name: str, ok):
        if not ok:
            out.append(name)

    check("pencil-coprime", b and _gcd(a, b, p) == [1])
    check("m-definition", b and m == max(deg(a), deg(b) + 2))
    check("degrees", deg(bc) == n and deg(a) < n)
    check("degree/exponent", 2 * e > n and e < n - m
          and math.gcd(e, n * p) == 1)
    for name, alpha, gamma, k, h in (
        ("witness1-identity", al1, g1, e, h1),
        ("witness2-identity", al2, g2, 2, h2),
    ):
        # Degrees first, and no power for h = 0 (whose degree bounds no k), so a
        # tampered exponent is never expanded.
        lhs = _add(a, _mul_scalar(bc, alpha, p), p)
        check(name, k >= 0 and k + deg(h) == deg(lhs) and (
            not h or lhs == _mul((Poly.linear(field, gamma) ** k).coeffs, h, p)))
    for label, h, gamma in (("h1", h1, g1), ("h2", h2, g2)):
        # Raw gcd(0, f) = monic f, here 0 or of degree >= 1, so h = 0 fails both.
        check(f"{label}-separable", _gcd(h, _deriv(h, p), p) == [1])
        check(f"{label}-coprime", a and _gcd(h, _mul((-gamma % p, 1), a, p), p) == [1])
    check("alphas", al1 and al2 and al1 != al2)
    check("gammas", g1 != g2 and _eval(ab, g1, p) and _eval(ab, g2, p))
    check("c-coprime", _gcd(a, c, p) == [1])
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
        key, sep, value = (part.strip() for part in line.partition(":"))
        if not sep:
            raise ParseError(f"bad certificate line {line!r}")
        if key in entries:
            raise ParseError(f"certificate repeats key {key!r}")
        entries[key] = value
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
