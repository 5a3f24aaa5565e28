import dataclasses
import hashlib
import random
from itertools import product

import pytest

from progressio import (
    PrimeField,
    RamificationType,
    build_stable,
    certificate_violations,
    certify_sn,
    cycle_type_histogram,
    factorize,
    long_cycle_evidence,
    parse_poly,
    ramification_type,
    specialize,
    transposition_evidence,
)
from progressio.errors import (
    ClauseFailed,
    DegreeDrop,
    MathError,
    NonSquarefreeUnramifiedPart,
    PreconditionViolated,
)
from progressio.poly import Poly

F2 = PrimeField(2)
F3 = PrimeField(3)
F7 = PrimeField(7)


@pytest.fixture(scope="module")
def cert_f7():
    return build_stable(parse_poly(F7, "X+1"), Poly.one(F7), 9, seed=0)


def test_specialize_reproduces_witness_shapes(cert_f7):
    cert = cert_f7
    pencil = (cert.a, cert.b, cert.c)
    w1 = specialize(pencil, cert.alpha1)
    w2 = specialize(pencil, cert.alpha2)
    assert w1 == Poly.linear(F7, cert.gamma1) ** cert.e * cert.h1
    assert w2 == Poly.linear(F7, cert.gamma2) ** 2 * cert.h2
    with pytest.raises(DegreeDrop):
        specialize(pencil, 0)


def test_ramification_type_witness1(cert_f7):
    cert = cert_f7
    rt = ramification_type(specialize((cert.a, cert.b, cert.c), cert.alpha1))
    assert rt.n == cert.n
    assert sorted(rt.exponents, reverse=True) == [cert.e] + [1] * (cert.n - cert.e)
    assert all(rt.tame_flags)
    assert not rt.wild_exception
    assert rt.is_valid_evidence


def test_ramification_type_witness2(cert_f7):
    cert = cert_f7
    rt = ramification_type(specialize((cert.a, cert.b, cert.c), cert.alpha2))
    assert rt.exponents == (2,) + (1,) * (cert.n - 2)
    assert rt.is_valid_evidence


def test_ramification_type_unramified():
    f = parse_poly(F3, "X^2+1") * parse_poly(F3, "X+1")
    rt = ramification_type(f)
    assert rt.exponents == (1, 1, 1)
    assert rt.n == 3 and all(rt.tame_flags)


def test_ramification_type_char2_wild_exception():
    f = Poly.linear(F2, 1) ** 2 * parse_poly(F2, "X^3+X+1")
    rt = ramification_type(f)
    assert rt.exponents == (2, 1, 1, 1)
    assert rt.wild_exception
    assert rt.is_valid_evidence
    assert not all(rt.tame_flags)  # the 2 itself is wild


def test_ramification_type_char2_not_exceptional():
    # two doubled points: outside the single-transposition exception
    f = Poly.linear(F2, 0) ** 2 * Poly.linear(F2, 1) ** 2
    rt = ramification_type(f)
    assert rt.exponents == (2, 2)
    assert not rt.wild_exception
    assert not rt.is_valid_evidence


def test_ramification_type_rejects_nonlinear_repeats():
    f = parse_poly(F3, "X^2+1") ** 2
    with pytest.raises(NonSquarefreeUnramifiedPart):
        ramification_type(f)


def test_evidence_predicates_hypotheticals():
    def rt(exponents, p):
        evens = [x for x in exponents if x % 2 == 0]
        return RamificationType(
            exponents=tuple(sorted(exponents, reverse=True)),
            n=sum(exponents),
            tame_flags=tuple(x % p != 0 for x in exponents),
            wild_exception=(p == 2 and evens == [2]),
        )

    assert long_cycle_evidence(rt([5, 1, 1, 1, 1], 7), 9, 5)
    # gcd(e, n) = 1 fails
    assert not long_cycle_evidence(rt([4, 1, 1], 7), 6, 4)
    # e = n/2 is not strictly above half
    assert not long_cycle_evidence(rt([3, 1, 1, 1], 7), 6, 3)
    # wild long cycle is not acceptable evidence
    assert not long_cycle_evidence(rt([5, 1, 1, 1], 5), 8, 5)
    # type must be exactly {e, 1, ..., 1}
    assert not long_cycle_evidence(rt([5, 2, 1, 1], 7), 9, 5)

    assert transposition_evidence(rt([2, 1, 1, 1], 7), 5)
    assert transposition_evidence(rt([2, 1, 1], 2), 4)  # wild exception
    assert not transposition_evidence(rt([2, 2, 1], 7), 5)
    assert not transposition_evidence(rt([3, 1, 1], 7), 5)


def test_certify_sn_full_run(cert_f7):
    sn = certify_sn(cert_f7)
    assert sn.n == 9 and sn.e == 5
    assert [name for name, _, _ in sn.checks] == [
        "transitive", "long-cycle", "transposition", "symmetric-group",
    ]
    assert all(ok for _, ok, _ in sn.checks)
    text = sn.to_text()
    assert text.startswith("clause,passed,detail\n")
    assert "transposition,true" in text


def test_certify_sn_rejects_invalid_certificate(cert_f7):
    broken = dataclasses.replace(cert_f7, h1=cert_f7.h1 + 1)
    with pytest.raises(ClauseFailed) as info:
        certify_sn(broken)
    assert info.value.clause == "certificate"
    assert "witness1-identity" in info.value.detail


@pytest.mark.parametrize("p", [5, 7, 11, 13, 101, 10007])
def test_witness_types_match_factorization(p):
    # certify_sn states the inertia types {e, 1^(n-e)} and {2, 1^(n-2)} without
    # factoring; factoring the two specializations must give exactly those,
    # tame, and pass the evidence predicates.
    rng = random.Random(p)
    field = PrimeField(p)
    checked = 0
    while checked < 4:
        a = Poly(field, [rng.randrange(p) for _ in range(rng.randint(1, 3))])
        b = Poly(field, [rng.randrange(p) for _ in range(rng.randint(1, 2))])
        n = rng.randint(6, 16)
        try:
            cert = build_stable(a, b, n, seed=0)
        except (MathError, PreconditionViolated):
            continue  # infeasible pencil or degree; draw again
        pencil = (cert.a, cert.b, cert.c)
        rt1, rt2 = (ramification_type(specialize(pencil, alpha))
                    for alpha in (cert.alpha1, cert.alpha2))
        for k, rt in ((cert.e, rt1), (2, rt2)):
            assert rt.exponents == (k,) + (1,) * (cert.n - k)
            assert rt.n == cert.n and all(rt.tame_flags)
        assert long_cycle_evidence(rt1, cert.n, cert.e)
        assert transposition_evidence(rt2, cert.n)
        checked += 1


# sha256 of the sweep below, recorded with the certify_sn that rebuilt both
# inertia types and re-checked them with the evidence predicates.
CERTIFY_SN_SHA256 = "c3aff5baa1f5ebc0505ce87f645a2718d19511802c6334cc376ac45af2861c56"


def _certify_sn_sweep_digest() -> tuple[int, str]:
    rng = random.Random(15)
    digest = hashlib.sha256()
    calls = 0
    for p in (3, 5, 7, 101, 10007, (1 << 61) - 1):
        field = PrimeField(p)
        for _ in range(4):
            a = Poly(field, [rng.randrange(p) for _ in range(rng.randint(1, 3))])
            b = Poly(field, [rng.randrange(p) for _ in range(rng.randint(1, 2))])
            for n in (7, 16):
                calls += 1
                try:
                    text = certify_sn(build_stable(a, b, n)).to_text()
                except (MathError, PreconditionViolated) as exc:
                    text = f"{type(exc).__name__}: {exc}\n"
                digest.update(text.encode())
    return calls, digest.hexdigest()


def test_certify_sn_sweep_output_is_pinned():
    calls, digest = _certify_sn_sweep_digest()
    assert calls >= 30
    assert digest == CERTIFY_SN_SHA256


def test_no_alpha_pair_over_f2_passes(cert_f7):
    # certify_sn prints no wild-transposition case: over F_2 the alphas clause
    # (two distinct nonzero scales) fails for every pair, so no certificate
    # over F_2 passes the replay.
    cert = cert_f7
    a, b, c = (Poly(F2, f.coeffs) for f in (cert.a, cert.b, cert.c))
    h1, h2 = (Poly(F2, f.coeffs) for f in (cert.h1, cert.h2))
    for x, y in product(range(2), repeat=2):
        over_f2 = dataclasses.replace(
            cert, field=F2, a=a, b=b, c=c, h1=h1, h2=h2, alpha1=F2(x),
            alpha2=F2(y), gamma1=F2(0), gamma2=F2(1),
        )
        assert "alphas" in certificate_violations(over_f2), (x, y)
        with pytest.raises(ClauseFailed, match="alphas"):
            certify_sn(over_f2)


def test_histogram_empty_sample(cert_f7):
    hist = cycle_type_histogram(
        (cert_f7.a, cert_f7.b, cert_f7.c), sample=(), seed=1
    )
    assert hist.counts == {} and hist.skipped == 0


def test_histogram_full_scan_f7(cert_f7):
    cert = cert_f7
    pencil = (cert.a, cert.b, cert.c)
    hist = cycle_type_histogram(pencil, range(0, 7), seed=5, workers=1)
    # every recorded type sums to n; zero and branch points are skipped
    for ctype, count in hist.counts.items():
        assert sum(ctype) == cert.n
        assert count > 0
    assert hist.skipped >= 1  # alpha = 0 at least
    assert sum(hist.counts.values()) + hist.skipped == 7


def test_histogram_matches_direct_factorization(cert_f7):
    cert = cert_f7
    pencil = (cert.a, cert.b, cert.c)
    hist = cycle_type_histogram(pencil, range(1, 7), seed=9)
    direct = {}
    skipped = 0
    for alpha in range(1, 7):
        member = cert.a + alpha * cert.b * cert.c
        result = factorize(member)
        if any(m > 1 for _, m in result.factors):
            skipped += 1
            continue
        key = result.degrees()
        direct[key] = direct.get(key, 0) + 1
    assert hist.counts == direct and hist.skipped == skipped


def test_histogram_partition_independent(cert_f7):
    cert = cert_f7
    pencil = (cert.a, cert.b, cert.c)
    h1 = cycle_type_histogram(pencil, range(1, 7), seed=3, workers=1)
    h2 = cycle_type_histogram(pencil, range(1, 7), seed=3, workers=2)
    assert h1.counts == h2.counts and h1.skipped == h2.skipped


def test_histogram_linear_entries_count_roots(cert_f7):
    # in a squarefree specialization, 1-entries = rational roots
    cert = cert_f7
    squarefree_seen = 0
    for alpha in range(1, 7):
        member = cert.a + alpha * cert.b * cert.c
        result = factorize(member)
        if any(m > 1 for _, m in result.factors):
            continue
        squarefree_seen += 1
        ones = sum(1 for d in result.degrees() if d == 1)
        roots = sum(1 for x in range(7) if member(x) == 0)
        assert ones == roots
    assert squarefree_seen >= 1


def test_histogram_csv_format(quintic_pencil_f101):
    data = quintic_pencil_f101
    pencil = (data["a"], data["b"], data["c"])
    hist = cycle_type_histogram(pencil, range(1, 30), seed=0)
    csv = hist.to_csv()
    lines = csv.strip().splitlines()
    assert lines[0] == "cycle_type,count"
    for line in lines[1:]:
        label, count = line.rsplit(",", 1)
        assert int(count) > 0
        assert sum(int(x) for x in label.split("-")) == 5


def test_quintic_pencil_has_both_witnesses(quintic_pencil_f101):
    data = quintic_pencil_f101
    pencil = (data["a"], data["b"], data["c"])
    rt1 = ramification_type(specialize(pencil, data["alpha1"]))
    rt2 = ramification_type(specialize(pencil, data["alpha2"]))
    assert long_cycle_evidence(rt1, 5, data["e"])
    assert transposition_evidence(rt2, 5)
