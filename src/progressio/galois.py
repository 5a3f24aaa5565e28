"""Cycle-type evidence and symmetric-group certification.

Specializing the rescaled family a + b·c·Y at Y = alpha and factoring
over F_p reads off permutation-group data: for squarefree specializations
the factor-degree multiset is the cycle type of a Frobenius element, and
for the designated ramified specializations the multiplicity pattern
(e_1, ..., e_r) yields an inertia element of that cycle type, provided
every e_i is coprime to p, with one wild exception: characteristic 2
with a single doubled point, which still yields the transposition.

``certify_sn`` replays the certificate once and states the four clauses it
settles: ``transitive`` by pencil-coprime and c-coprime (gcd(a, b·c) = 1 is
stable under constant-field extension); ``long-cycle`` and ``transposition`` by
the witness identities, h1/h2-separable and h1/h2-coprime (types {e, 1^(n-e)}
and {2, 1^(n-2)}) and degree/exponent (n/2 < e < n, gcd(e, n·p) = 1); and
``symmetric-group``, as a transitive group with such a cycle is primitive.
``ramification_type`` recovers the types from factor degrees and multiplicities
as an independent cross-check (nothing is split or drawn); ``cycle_type_histogram``
is empirical evidence, kept apart from certification.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from ._par import run_chunked, split_range, worker_count
from .construct import StableCertificate, certificate_violations
from .errors import (
    ClauseFailed,
    DegreeDrop,
    NonSquarefreeUnramifiedPart,
    PreconditionViolated,
)
from .factor import _factor_degrees
from .ff import FieldElem
from .poly import Poly, _add, _mul_scalar


def specialize(pencil_c: tuple[Poly, Poly, Poly], alpha: FieldElem | int) -> Poly:
    """The member a + alpha*(b*c); alpha = 0 would drop the leading term."""
    a, b, c = pencil_c
    alpha = a.field(alpha)
    if not alpha:
        raise DegreeDrop("specializing at 0 kills the degree-n coefficient")
    return a + alpha * (b * c)


@dataclass(frozen=True, slots=True)
class RamificationType:
    """Multiplicity pattern of one specialization, as inertia evidence."""

    exponents: tuple[int, ...]
    n: int
    tame_flags: tuple[bool, ...]
    wild_exception: bool

    @property
    def is_valid_evidence(self) -> bool:
        """Tame everywhere, or the characteristic-2 single-double exception."""
        return all(self.tame_flags) or self.wild_exception


def ramification_type(f_alpha: Poly) -> RamificationType:
    """Extract the ramification pattern from one specialization.

    Every repeated factor must be linear (the certificate construction
    only ever ramifies at rational points; nonlinear repeated factors are
    outside the evidence this module is prepared to certify). The other
    factors are distinct monic irreducibles, so separable over F_p. Only
    their degrees and multiplicities are computed, with no random draws.
    """
    p = f_alpha.field.modulus
    exponents: list[int] = []
    for d, mult in _factor_degrees(list(f_alpha.coeffs), p):
        if mult >= 2 and d != 1:
            msg = f"repeated factor of degree {d} is not linear"
            raise NonSquarefreeUnramifiedPart(msg)
        exponents.extend([mult] * d)  # one point per root, each of index mult
    # Tame where gcd(e_i, p) = 1; wild exception: p = 2 with one doubled point.
    exponents.sort(reverse=True)
    return RamificationType(
        exponents=tuple(exponents),
        n=sum(exponents),
        tame_flags=tuple(math.gcd(x, p) == 1 for x in exponents),
        wild_exception=p == 2 and [x for x in exponents if x % 2 == 0] == [2],
    )


_TRANSITIVITY_NOTE = (
    "gcd(a, b*c) = 1 over the prime field; the Euclidean algorithm is "
    "unchanged by constant-field extension, so the rescaled family stays "
    "irreducible, hence transitive, over the algebraic closure"
)


@dataclass(frozen=True, slots=True)
class SnCertificate:
    """Clause record concluding the geometric group is all of S_n."""

    n: int
    e: int
    checks: tuple[tuple[str, bool, str], ...]

    def to_text(self) -> str:
        lines = ["clause,passed,detail"]
        for name, passed, detail in self.checks:
            safe = detail.replace('"', '""')
            lines.append(f'{name},{str(passed).lower()},"{safe}"')
        return "\n".join(lines) + "\n"


def long_cycle_evidence(rt: RamificationType, n: int, e: int) -> bool:
    """Does this inertia type witness a tame e-cycle forcing primitivity?

    Needs the type to be exactly {e, 1, ..., 1} summing to n, fully tame,
    with n/2 < e < n and gcd(e, n) = 1; a transitive group containing
    such a cycle preserves no nontrivial block system.
    """
    big = [x for x in rt.exponents if x != 1]
    return (
        rt.n == n
        and big == [e]
        and all(rt.tame_flags)
        and 2 * e > n
        and e < n
        and math.gcd(e, n) == 1
    )


def transposition_evidence(rt: RamificationType, n: int) -> bool:
    """Does this inertia type witness a transposition (type {2, 1, ..., 1})?"""
    big = [x for x in rt.exponents if x != 1]
    return rt.n == n and big == [2] and rt.is_valid_evidence


def certify_sn(cert: StableCertificate) -> SnCertificate:
    """Replay the certificate, then state the four clauses it settles.

    Raises ClauseFailed("certificate", ...) naming every violated clause.
    Nothing is re-derived: degree/exponent gives n/2 < e < n - m <= n - 2 and
    gcd(e, n·p) = 1, so the e-cycle is tame and gcd(e, n) = 1. No transposition
    is wild: no certificate over F_2 passes the replay, as its alphas clause
    needs two distinct nonzero scales.
    """
    violated = certificate_violations(cert)
    if violated:
        raise ClauseFailed("certificate", "violated: " + ", ".join(violated))
    n, e = cert.n, cert.e
    return SnCertificate(n=n, e=e, checks=(
        ("transitive", True, _TRANSITIVITY_NOTE),
        ("long-cycle", True,
         f"inertia type {(e,) + (1,) * (n - e)} gives a tame {e}-cycle, "
         f"{n}/2 < {e} < {n}, gcd({e},{n})=1"),
        ("transposition", True,
         f"inertia type {(2,) + (1,) * (n - 2)} gives a transposition"),
        ("symmetric-group", True,
         "a transitive group with such a long cycle is primitive, and a "
         "primitive group containing a transposition is the full symmetric group"),
    ))


# ---------------------------------------------------------------------------
# Empirical cycle-type sampling (evidence, not proof).


def _histogram_chunk(job):
    p, a, bc, alphas = job
    counts: Counter = Counter()
    skipped = 0
    for alpha in alphas:
        if alpha % p == 0:
            skipped += 1
            continue
        factors = _factor_degrees(_add(a, _mul_scalar(bc, alpha, p), p), p)
        if any(mult > 1 for _, mult in factors):
            skipped += 1
            continue
        counts[tuple(sorted((d for d, _ in factors), reverse=True))] += 1
    return counts, skipped


@dataclass(frozen=True)
class CycleTypeHistogram:
    """Counts of factor-degree multisets over sampled specializations."""

    counts: dict[tuple[int, ...], int]
    skipped: int

    def to_csv(self) -> str:
        lines = ["cycle_type,count"]
        for ctype in sorted(self.counts, reverse=True):
            label = "-".join(str(x) for x in ctype)
            lines.append(f"{label},{self.counts[ctype]}")
        return "\n".join(lines) + "\n"


def cycle_type_histogram(
    pencil_c: tuple[Poly, Poly, Poly],
    sample,
    seed: int = 0,
    workers: int | None = None,
) -> CycleTypeHistogram:
    """Bin the cycle types of a + alpha*b*c over a sample of alphas.

    A cycle type is the factor-degree multiset, read off the squarefree and
    distinct-degree stages with no random draws, so ``seed`` is unused (kept
    for callers that pass it) and no partition across workers can change the
    result. Specializations at 0 or with repeated factors are skipped and
    counted; they are the finitely many branch points, not errors.
    """
    a, b, c = pencil_c
    if a.field != b.field or a.field != c.field:
        raise PreconditionViolated("pencil parts over different fields")
    p = a.field.modulus
    alphas = sorted({int(a.field(x)) for x in sample})
    if workers is None:
        workers = worker_count()
    bc = b * c
    spans = split_range(0, len(alphas), workers * 4)
    jobs = [(p, list(a.coeffs), list(bc.coeffs), alphas[lo:hi]) for lo, hi in spans]
    merged: Counter = Counter()
    skipped = 0
    for counts, skip in run_chunked(_histogram_chunk, jobs, workers):
        merged.update(counts)
        skipped += skip
    return CycleTypeHistogram(dict(merged), skipped)
