import dataclasses
import hashlib
import math
import random
from itertools import islice

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from progressio import (
    Pencil,
    PrimeField,
    StableCertificate,
    build_c,
    build_stable,
    certificate_from_text,
    certificate_to_text,
    certificate_violations,
    certify_sn,
    choose_e,
    gcd,
    is_separable,
    parse_poly,
    smallest_feasible_n,
    verify_certificate,
)
from progressio import construct
from progressio.errors import (
    FieldExhausted,
    FieldTooSmall,
    NoValidE,
    PreconditionViolated,
)
from progressio.poly import Poly

F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)


def test_choose_e_examples():
    assert choose_e(10, 2, 3) == 7
    assert choose_e(8, 1, 3) == 5
    with pytest.raises(NoValidE):
        choose_e(8, 1, 5)


def test_choose_e_window_property():
    import math

    for p in (2, 3, 5, 7):
        for m in range(1, 6):
            for n in range(2 * m + 6, 2 * m + 60):
                try:
                    e = choose_e(n, m, p)
                except NoValidE:
                    continue
                assert 2 * e > n and e < n - m
                assert math.gcd(e, n * p) == 1
                assert math.gcd(e, n) == 1 and e % p != 0


def test_pencil_type_enforces_invariants():
    Pencil(parse_poly(F3, "X+1"), Poly.x(F3))
    with pytest.raises(PreconditionViolated):
        Pencil(parse_poly(F3, "X^2"), Poly.x(F3))
    with pytest.raises(PreconditionViolated):
        Pencil(parse_poly(F3, "X+1"), Poly.zero(F3))


def _old_acceptance(a, mods, hs):
    # The acceptance test build_c ran itself before the verifier took over.
    return all(not h.is_zero() and is_separable(h) and gcd(h, a * pi).is_one()
               for pi, h in zip(mods, hs))


def test_build_c_worked_example():
    a = parse_poly(F7, "X+1")
    b = Poly.x(F7)
    p1 = Poly.linear(F7, 1) ** 5
    p2 = Poly.linear(F7, 2) ** 2
    for c, h1, h2 in islice(build_c(a, b, p1, p2, 1, 2, 8), 5):
        assert c.degree == 8
        assert p1 * h1 + F7(1) * b * c == a
        assert p2 * h2 + F7(2) * b * c == a
    c, h1, h2 = next(cand for cand in build_c(a, b, p1, p2, 1, 2, 8)
                     if _old_acceptance(a, (p1, p2), cand[1:]))
    assert c.degree == 8
    for alpha, pi, hi in ((F7(1), p1, h1), (F7(2), p2, h2)):
        assert pi * hi + alpha * b * c == a
        assert is_separable(hi)
        assert gcd(hi, a * pi).is_one()
    assert gcd(a, c).is_one()
    assert gcd(a, b * c).is_one()


def test_build_c_preconditions():
    a = parse_poly(F7, "X+1")
    b = Poly.x(F7)
    p1 = Poly.linear(F7, 1) ** 5
    p2 = Poly.linear(F7, 2) ** 2
    with pytest.raises(PreconditionViolated):
        build_c(a, b, p1, p1, 1, 2, 12)  # p1 = p2 not coprime
    with pytest.raises(PreconditionViolated):
        build_c(a, b, p1, p2, 1, 2, p1.degree + p2.degree)
    with pytest.raises(PreconditionViolated):
        build_c(a, b, p1, p2, 1, 1, 8)  # equal alphas
    with pytest.raises(PreconditionViolated):
        build_c(a, b, p1, p2, 0, 2, 8)  # zero alpha


def test_build_c_deterministic():
    a = parse_poly(F7, "X+1")
    b = Poly.x(F7)
    p1 = Poly.linear(F7, 1) ** 5
    p2 = Poly.linear(F7, 2) ** 2
    first = list(islice(build_c(a, b, p1, p2, 1, 2, 8), 5))
    assert len(first) == 5
    assert first == list(islice(build_c(a, b, p1, p2, 1, 2, 8), 5))


def test_build_stable_worked_example():
    a = parse_poly(F7, "X+1")
    b = Poly.one(F7)
    cert = build_stable(a, b, 9, seed=0)
    assert (cert.m, cert.e) == (2, 5)
    assert cert.c.degree == 9
    assert cert.alpha1 == 1 and cert.alpha2 == 2
    assert verify_certificate(cert)
    # the two identities in certificate orientation
    assert a + cert.alpha1 * b * cert.c == Poly.linear(F7, cert.gamma1) ** 5 * cert.h1
    assert a + cert.alpha2 * b * cert.c == Poly.linear(F7, cert.gamma2) ** 2 * cert.h2


def test_build_stable_errors():
    a = parse_poly(F7, "X+1")
    with pytest.raises(NoValidE):
        build_stable(a, Poly.x(F7), 3, seed=0)
    with pytest.raises(PreconditionViolated):
        build_stable(parse_poly(F7, "X^2"), Poly.x(F7), 9, seed=0)
    with pytest.raises(PreconditionViolated):
        build_stable(a, Poly.one(F7), 1, seed=0)  # n not above deg a
    # deg(a*b) + 4 = 6 exceeds p = 5
    with pytest.raises(FieldTooSmall):
        build_stable(parse_poly(F5, "X^2+1"), Poly.one(F5), 9, seed=0)


def test_build_stable_deterministic():
    a = parse_poly(F7, "X+1")
    c1 = build_stable(a, Poly.one(F7), 9, seed=0)
    c2 = build_stable(a, Poly.one(F7), 9, seed=0)
    assert c1 == c2


def test_smallest_feasible_n():
    a = parse_poly(F7, "X+1")
    n = smallest_feasible_n(a, Poly.one(F7), limit=30)
    assert n == 7
    choose_e(n, 2, 7)
    for k in range(2, n):
        if k > a.degree:
            with pytest.raises(NoValidE):
                choose_e(k, 2, 7)


def test_verify_certificate_tamper_single_fields():
    cert = build_stable(parse_poly(F7, "X+1"), Poly.one(F7), 9, seed=0)
    assert certificate_violations(cert) == []

    tampered = dataclasses.replace(cert, h1=cert.h1 + 1)
    assert "witness1-identity" in certificate_violations(tampered)

    tampered = dataclasses.replace(cert, e=cert.e + 1)
    violations = certificate_violations(tampered)
    assert "degree/exponent" in violations or "witness1-identity" in violations

    for field_name in ("n", "m", "e"):
        tampered = dataclasses.replace(cert, **{field_name: getattr(cert, field_name) + 1})
        assert certificate_violations(tampered), field_name

    for field_name in ("a", "b", "c", "h1", "h2"):
        tampered = dataclasses.replace(
            cert, **{field_name: getattr(cert, field_name) + 1}
        )
        assert certificate_violations(tampered), field_name

    for field_name in ("alpha1", "alpha2", "gamma1", "gamma2"):
        tampered = dataclasses.replace(
            cert, **{field_name: getattr(cert, field_name) + 1}
        )
        assert certificate_violations(tampered), field_name

    tampered = dataclasses.replace(cert, field=PrimeField(11))
    assert certificate_violations(tampered) == ["field-consistency"]


def test_certificate_text_round_trip():
    cert = build_stable(parse_poly(F7, "X+1"), Poly.one(F7), 9, seed=0)
    text = certificate_to_text(cert)
    assert certificate_from_text(text) == cert
    assert certificate_from_text("# comment\n" + text) == cert
    lines = text.splitlines()
    assert lines[0].startswith("modulus:") and lines[1].startswith("n:")


def test_certificate_text_parse_errors():
    from progressio.errors import ParseError

    cert = build_stable(parse_poly(F7, "X+1"), Poly.one(F7), 9, seed=0)
    text = certificate_to_text(cert)
    with pytest.raises(ParseError):
        certificate_from_text("")  # all keys missing
    truncated = "\n".join(text.splitlines()[:-1])  # h2 dropped
    with pytest.raises(ParseError):
        certificate_from_text(truncated)
    with pytest.raises(ParseError):
        certificate_from_text(text.replace("e: 5", "e: five"))
    with pytest.raises(ParseError):
        certificate_from_text(text + "not a key-value line\n")
    # a tampered but well-formed file parses, then fails verification
    parsed = certificate_from_text(text.replace("gamma2: 1", "gamma2: 3"))
    assert not verify_certificate(parsed)


def test_random_certificates_verify_and_certify():
    rng = random.Random(99)
    built = 0
    for _ in range(60):
        p = rng.choice((7, 11, 13))
        field = PrimeField(p)
        while True:
            a = Poly(field, [rng.randrange(p) for _ in range(rng.randrange(1, 4))])
            b = Poly(field, [rng.randrange(p) for _ in range(rng.randrange(1, 4))])
            if a.is_zero() or b.is_zero():
                continue
            if gcd(a, b).is_one():
                break
        ab_deg = int((a * b).degree)
        if p < ab_deg + 4:
            continue
        try:
            n = smallest_feasible_n(a, b, limit=24)
        except NoValidE:
            continue
        cert = build_stable(a, b, n, seed=rng.randrange(2**32))
        assert verify_certificate(cert)
        certify_sn(cert)
        built += 1
    assert built >= 20


@pytest.mark.parametrize("n", [9, 33])
def test_construct_and_certify_at_61_bit_modulus(n):
    # The gamma scan stops after the first two residues that avoid the roots
    # of a*b, so the cost does not grow with p.
    import time

    field = PrimeField((1 << 61) - 1)
    start = time.perf_counter()
    cert = build_stable(parse_poly(field, "X+1"), Poly.one(field), n)
    assert verify_certificate(cert)
    assert certify_sn(cert).n == n
    assert time.perf_counter() - start < 2.0


SWEEP_PRIMES = (5, 7, 11, 13, 101, 10007, (1 << 61) - 1)


def _seeded_pencils(seed: int, per_prime: int):
    """Coprime pencils (a, b) with their smallest feasible n, per prime."""
    rng = random.Random(seed)
    for p in SWEEP_PRIMES:
        field = PrimeField(p)
        made = 0
        while made < per_prime:
            a = Poly(field, [rng.randrange(p) for _ in range(rng.randrange(1, 4))])
            b = Poly(field, [rng.randrange(p) for _ in range(rng.randrange(1, 3))])
            if a.is_zero() or b.is_zero() or not gcd(a, b).is_one():
                continue
            if p < int((a * b).degree) + 4:
                continue
            try:
                n = smallest_feasible_n(a, b, limit=40)
            except NoValidE:
                continue
            made += 1
            yield a, b, n


def _scan_candidates(a, b, n, pairs: int, per_pair: int):
    """Certificates from build_c candidates, with build_stable's selections."""
    field, p = a.field, a.field.modulus
    m = int(max(a.degree, 2 + int(b.degree)))
    e = choose_e(n, m, p)
    ab = a * b
    g1, g2 = islice((g for g in range(p) if ab(g) != 0), 2)
    mods = (Poly.linear(field, g1) ** e, Poly.linear(field, g2) ** 2)
    scales = ((x, y) for x in range(1, p) for y in range(1, p) if x != y)
    for x, y in islice(scales, pairs):
        for c, h1, h2 in islice(build_c(a, b, *mods, field(-x), field(-y),
                                        n - int(b.degree)), per_pair):
            cert = StableCertificate(
                field=field, a=a, b=b, c=c, n=n, m=m, e=e,
                alpha1=field(x), alpha2=field(y),
                gamma1=field(g1), gamma2=field(g2), h1=h1, h2=h2,
            )
            yield cert, mods


def test_verifier_accepts_exactly_the_old_candidate_test():
    # build_stable accepts a build_c candidate by the verifier alone; on
    # candidates past build_c's filters, that equals the old test: both h_i
    # nonzero, separable and coprime to a*p_i.
    seen = {True: 0, False: 0}
    for a, b, n in _seeded_pencils(seed=14, per_prime=3):
        for cert, mods in _scan_candidates(a, b, n, pairs=3, per_pair=20):
            old = _old_acceptance(a, mods, (cert.h1, cert.h2))
            assert (not certificate_violations(cert)) == old, cert
            seen[old] += 1
    assert seen[True] > 100 and seen[False] > 10, seen


# sha256 of the sweep below, recorded with the construction that ran its own
# separability and coprimality test before the verifier replayed the result.
SWEEP_SHA256 = "1cd9ebc27dc82aa4d377865ed09506e514a3a52f16c03069244742bf76d6d57d"


def _construction_sweep_digest() -> tuple[int, str]:
    digest = hashlib.sha256()
    calls = 0
    for a, b, n in _seeded_pencils(seed=2006, per_prime=3):
        for target in (n, n + 1, n + 7):
            calls += 1
            try:
                text = certificate_to_text(build_stable(a, b, target))
            except (NoValidE, FieldExhausted) as exc:
                text = f"{type(exc).__name__}: {exc}\n"
            digest.update(text.encode())
    return calls, digest.hexdigest()


def test_construction_sweep_output_is_pinned():
    calls, digest = _construction_sweep_digest()
    assert calls >= 30
    assert digest == SWEEP_SHA256


_FUZZ_CERTS = tuple(
    build_stable(parse_poly(PrimeField(p), "X+1"),
                 parse_poly(PrimeField(p), "X+2"), n)
    for p in (101, 10007, (1 << 61) - 1) for n in (9, 17)
)
_INTS = st.integers(-3, 40) | st.integers(-10**30, 10**30)


@st.composite
def _tampered_text(draw):
    """A valid certificate and its text with one value but modulus changed."""
    cert = draw(st.sampled_from(_FUZZ_CERTS))
    lines = certificate_to_text(cert).splitlines()
    i = draw(st.integers(1, len(lines) - 1))
    key, old = lines[i].split(": ")
    if key in ("a", "b", "c", "h1", "h2"):
        coeffs = old.split(",")
        extra = st.lists(_INTS.map(str), min_size=1, max_size=4)
        new = ",".join(draw(st.one_of(
            st.lists(_INTS.map(str), min_size=1, max_size=40),
            st.integers(1, len(coeffs)).map(lambda k: coeffs[:k - 1] or ["0"]),
            extra.map(lambda tail: coeffs + tail),
        )))
    else:
        new = str(draw(_INTS))
    assume(new != old)
    lines[i] = f"{key}: {new}"
    return cert, "\n".join(lines) + "\n"


@st.composite
def _repeated_key_text(draw):
    """A valid certificate's text with one of its lines, or a variant of it, added."""
    lines = certificate_to_text(draw(st.sampled_from(_FUZZ_CERTS))).splitlines()
    key, old = draw(st.sampled_from(lines)).split(": ")
    new = draw(st.just(old) | _INTS.map(str))
    lines.insert(draw(st.integers(0, len(lines))), f"{key}: {new}")
    return "\n".join(lines) + "\n"


@settings(max_examples=100, derandomize=True, deadline=None)
@given(_repeated_key_text())
def test_repeated_certificate_key_is_refused(text):
    # A repeated key is refused whatever either value is, so no later line can
    # overwrite the value the verifier would check.
    from progressio.errors import ParseError

    with pytest.raises(ParseError, match="repeats key"):
        certificate_from_text(text)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_tampered_text())
def test_tampered_certificate_text_is_refused(case):
    # Every single value is pinned by some clause, so a one-value change
    # either fails to parse, parses back to the same certificate (a residue
    # written as another representative, say), or is refused by the verifier.
    # certify_sn agrees: it refuses at the replay or prints the original record.
    import time

    from progressio.errors import ClauseFailed, ParseError

    original, text = case
    try:
        cert = certificate_from_text(text)
    except ParseError:
        return
    start = time.perf_counter()
    violated = certificate_violations(cert)
    assert time.perf_counter() - start < 2.0
    assert violated or cert == original
    try:
        record = certify_sn(cert).to_text()
    except ClauseFailed as exc:
        assert exc.clause == "certificate"
    else:
        assert record == certify_sn(original).to_text()


def _reference_violations(cert):
    """The verifier's clauses on Poly values and the public gcd, as first written."""
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

    def check(name, ok):
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


@settings(max_examples=400, derandomize=True, deadline=None)
@given(_tampered_text())
def test_verifier_matches_the_reference_on_tampered_text(case):
    # The raw-list verifier is never weaker (nor stricter) than the clauses
    # written on Poly values: same violation list, in the same order.
    cert = certificate_from_text(case[1])
    assert certificate_violations(cert) == _reference_violations(cert)


def _trap_certificates(cert):
    """Hand-built edge cases: zero parts, empty degrees, extreme exponents."""
    field, zero = cert.field, Poly.zero(cert.field)
    other = PrimeField(11 if field.modulus != 11 else 13)
    lhs_zero = -(cert.alpha1 * cert.b * cert.c)  # a making a + alpha1*b*c = 0
    replace = dataclasses.replace
    traps = {
        "zero h1": replace(cert, h1=zero),
        "zero h2": replace(cert, h2=zero),
        "c = 0, n = -1": replace(cert, c=zero, n=-1),
        "e = -1": replace(cert, e=-1),
        "e = -1, deg h1 = deg lhs + 1": replace(
            cert, e=-1, h1=cert.h1 * Poly.x(field) ** (cert.e + 1)),
        "e = 10^30": replace(cert, e=10**30),
        "zero h1, lhs = 0, e = 10^30": replace(cert, a=lhs_zero, h1=zero, e=10**30),
        "a = 0": replace(cert, a=zero),
        "a = 0, constant h1": replace(cert, a=zero, h1=Poly.constant(field, 3)),
        "b = 0": replace(cert, b=zero),
        "b = 0, a = 1, m = 0": replace(cert, a=Poly.one(field), b=zero, m=0),
        "a = c = 0": replace(cert, a=zero, c=zero),
        "alpha1 = 0": replace(cert, alpha1=field(0)),
        "alpha2 = alpha1": replace(cert, alpha2=cert.alpha1),
        "gamma2 = gamma1": replace(cert, gamma2=cert.gamma1),
        "foreign alpha1": replace(cert, alpha1=other(1)),
        "constant h1": replace(cert, h1=Poly.constant(field, 3)),
        "n, m = 0": replace(cert, n=0, m=0),
    }
    if field.modulus < 1000:  # X^p + 1, a p-th power with derivative 0
        traps["h2 a p-th power"] = replace(
            cert, h2=Poly(field, [1] + [0] * (field.modulus - 1) + [1]))
    return traps


@pytest.mark.parametrize("which", [0, 2, 4])
def test_verifier_matches_the_reference_on_traps(which):
    cert = _FUZZ_CERTS[which]
    traps = _trap_certificates(cert)
    for label, trap in traps.items():
        assert certificate_violations(trap) == _reference_violations(trap), label
    assert "degrees" in certificate_violations(traps["c = 0, n = -1"])
    assert "witness1-identity" in certificate_violations(traps["e = 10^30"])
    lhs_zero = certificate_violations(traps["zero h1, lhs = 0, e = 10^30"])
    assert "witness1-identity" not in lhs_zero and "h1-separable" in lhs_zero
    assert certificate_violations(traps["foreign alpha1"]) == ["field-consistency"]


def test_build_stable_refuses_once_every_scale_pair_is_rejected(monkeypatch):
    # A verifier that rejects every candidate: all (p-1)(p-2) ordered pairs run, then
    # the refusal.
    calls = []

    def counted_build_c(*args):
        calls.append(args)
        return build_c(*args)

    monkeypatch.setattr(construct, "certificate_violations", lambda cert: ["rejected"])
    monkeypatch.setattr(construct, "build_c", counted_build_c)
    with pytest.raises(FieldExhausted, match="no admissible scale pair"):
        build_stable(parse_poly(F5, "X+1"), Poly.one(F5), 7)
    assert len(calls) == 4 * 3
