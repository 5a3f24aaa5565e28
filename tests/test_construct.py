import dataclasses
import random

import pytest

from progressio import (
    Pencil,
    PrimeField,
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
from progressio.errors import (
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


def test_build_c_worked_example():
    a = parse_poly(F7, "X+1")
    b = Poly.x(F7)
    p1 = Poly.linear(F7, 1) ** 5
    p2 = Poly.linear(F7, 2) ** 2
    c, h1, h2 = build_c(a, b, p1, p2, 1, 2, 8)
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
    assert build_c(a, b, p1, p2, 1, 2, 8) == build_c(a, b, p1, p2, 1, 2, 8)


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
