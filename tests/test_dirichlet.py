import dataclasses
import itertools
import random
import time
from fractions import Fraction
from math import factorial

import pytest

from progressio import (
    PrimeField,
    build_stable,
    count_irreducibles,
    density_scan,
    gcd,
    is_irreducible,
    parse_poly,
    pow_mod,
    search_constructed,
    search_exhaustive,
)
import progressio.dirichlet as dirichlet
from progressio.dirichlet import SearchReport, _root_sieve
from progressio.errors import PreconditionViolated, TooLarge
from progressio.factor import _discriminant
from progressio.poly import Poly, _add, _eval, _monic, _mul, _mul_scalar, _resultant

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)


def test_search_constructed_worked_example():
    # p = 7 leaves only six scales, two of which are the ramified
    # witnesses, so an empty report is a legitimate (and here actual)
    # outcome; every hit that does appear must replay exactly.
    a = parse_poly(F7, "X+1")
    b = Poly.one(F7)
    report = search_constructed(a, b, 9, max_hits=6)
    assert report.strategy == "constructed-scan"
    assert report.scanned == 6
    assert report.density == (
        Fraction(len(report.hits), report.scanned) if report.scanned else Fraction(0)
    )
    for c, member in report.hits:
        assert member == a + b * c
        assert member.degree == 9
        assert is_irreducible(member)


def test_search_constructed_finds_hits_at_scale():
    field = PrimeField(101)
    a = parse_poly(field, "X+1")
    b = Poly.one(field)
    report = search_constructed(a, b, 7, max_hits=5)
    assert 1 <= len(report.hits) <= 5
    for c, member in report.hits:
        assert member == a + b * c
        assert member.degree == 7
        assert is_irreducible(member)
        # the hit multiplier is a scale of the certificate multiplier
        assert c.degree == 7


def test_search_constructed_zero_budget():
    report = search_constructed(parse_poly(F7, "X+1"), Poly.one(F7), 9,
                                max_hits=0)
    assert report.hits == () and report.scanned == 0
    assert report.density == Fraction(0)


def test_search_constructed_rejects_a_negative_budget():
    with pytest.raises(PreconditionViolated, match="max_hits"):
        search_constructed(parse_poly(F7, "X+1"), Poly.one(F7), 9, max_hits=-3)


def test_search_constructed_rejects_a_budget_above_4096():
    with pytest.raises(PreconditionViolated, match="max_hits"):
        search_constructed(parse_poly(F7, "X+1"), Poly.one(F7), 9, max_hits=4097)


def test_search_constructed_accepts_the_largest_budget():
    # p = 7 has six scales, so the field, not the budget, ends the scan.
    report = search_constructed(parse_poly(F7, "X+1"), Poly.one(F7), 9, max_hits=4096)
    assert report.scanned == 6


@pytest.mark.parametrize("p, n, max_hits", [
    (7, 9, 16),  # six scales: the field ends the scan
    (101, 7, 1),  # the budget is met partway along the line
    (101, 7, 3),
    (101, 7, 0),
    (2**61 - 1, 7, 2),  # the scan must stay lazy
])
def test_search_constructed_matches_the_plain_loop(p, n, max_hits):
    # Reference: a Poly loop over every nonzero scale, unsieved, until the budget.
    field = PrimeField(p)
    a, b = parse_poly(field, "X+1"), Poly.one(field)
    cert = build_stable(a, b, n)
    bc = b * cert.c
    hits, scanned = [], 0
    for alpha in range(1, p):
        if len(hits) >= max_hits:
            break
        scanned += 1
        member = a + alpha * bc
        if is_irreducible(member):
            hits.append((alpha * cert.c, member))
    expected = SearchReport(
        a=a, b=b, n=n, strategy="constructed-scan", hits=tuple(hits), scanned=scanned,
        density=Fraction(len(hits), scanned) if scanned else Fraction(0))
    report = search_constructed(a, b, n, max_hits=max_hits)
    assert report.hits == expected.hits
    assert report.scanned == expected.scanned
    assert report.to_csv() == expected.to_csv()
    assert report.to_detail_text() == expected.to_detail_text()


def test_only_sieved_scans_test_members_as_rootless(monkeypatch):
    # The flag follows from whether the caller sieved; the kernel looks the test
    # up as dirichlet's global, so rebinding that alias sees every member. A sieved
    # scan tests exactly its members with no root whose discriminant is nonzero and,
    # for odd p, of character (-1)^(n-1); the exhaustive search tests, unsieved, the
    # members its factor sieve leaves when it stops below n/2. The oracle is brute force.
    calls = []
    test = dirichlet._rabin_irreducible

    def recorded(f, p, sieved=False):
        calls.append((tuple(f), sieved))
        return test(f, p, sieved)

    monkeypatch.setattr(dirichlet, "_rabin_irreducible", recorded)

    def flags_of(search, *args, **kwargs):
        calls.clear()
        search(*args, **kwargs)
        assert calls
        return {sieved for _, sieved in calls}

    def admitted(f, p):
        n = len(f) - 1
        g = Poly(PrimeField(p), f).monic()
        if any(_eval(f, t, p) == 0 for t in range(p)):
            return False
        d = (-1) ** (n * (n - 1) // 2) * _resultant(g.coeffs, g.derivative().coeffs, p) % p
        return d != 0 and (p == 2 or pow(d, (p - 1) // 2, p) == (-1) ** (n - 1) % p)

    field = PrimeField(101)
    a, b = parse_poly(field, "X+1"), Poly.one(field)
    cert = build_stable(a, b, 7, seed=0)
    assert flags_of(density_scan, cert, workers=1) == {True}
    bc = cert.b * cert.c
    members = [(cert.a + alpha * bc).coeffs for alpha in range(1, 101)]
    assert [f for f, _ in calls] == [f for f in members if admitted(f, 101)]
    # b = 1: the factor sieve settles every member, and only the g of degree 2..n/2
    # that it enumerates meet the test, unsieved.
    for p, n in ((2, 4), (2, 6), (3, 2), (3, 5), (5, 2), (5, 4), (7, 3)):
        F = PrimeField(p)
        calls.clear()
        search_exhaustive(parse_poly(F, "X+1"), Poly.one(F), n)
        assert all(2 < len(f) <= n // 2 + 1 and not sieved for f, sieved in calls)
    # deg b = 4 > n/2 at n = 6: the sieve stops at degree 2, and each member it leaves,
    # the ones no factor of degree <= 2 divides, is tested unsieved.
    for p, b_text in ((3, "X^4+X^2+2"), (13, "X^4+2")):
        F = PrimeField(p)
        a_p, b_p, x = parse_poly(F, "X+1"), parse_poly(F, b_text), Poly.x(F)
        assert flags_of(search_exhaustive, a_p, b_p, 6) == {False}
        tested = [f for f, _ in calls if len(f) == 7]
        assert all(len(f) == 3 for f, _ in calls if len(f) != 7)
        polys = [a_p + b_p * Poly(F, [*low, lead]) for lead in range(1, p)
                 for low in itertools.product(range(p), repeat=2)]
        assert sorted(tested) == sorted(
            m.coeffs for m in polys if gcd(m, pow_mod(x, p * p, m) - x).is_one())
    # n = 1: every linear member is irreducible, and none is tested.
    calls.clear()
    search_exhaustive(parse_poly(F5, "X+3"), Poly.one(F5), 1)
    assert calls == []
    assert flags_of(search_constructed, a, b, 7, max_hits=3) == {False}


def test_sieved_members_skip_the_root_gcd(monkeypatch):
    # On the complete route no member of degree n meets the test or a resultant: the
    # factor sieve settles them all, and only the g of degree <= n/2 that it enumerates
    # are tested. On the partial route each member the sieve leaves is tested unsieved:
    # one resultant, res(f, f'), and, if its character is admitted, the root gcd and, at
    # degree 6, the gcd with X^(p^2) - X.
    import progressio.factor as fmod

    gcds, resultants = [], []
    gcd_, resultant_ = fmod._gcd, fmod._resultant

    def recorded_gcd(a, b, p):
        gcds.append((tuple(a), tuple(b)))
        return gcd_(a, b, p)

    def resultant(f, g, p):
        resultants.append(tuple(f))
        return resultant_(f, g, p)

    monkeypatch.setattr(fmod, "_gcd", recorded_gcd)
    monkeypatch.setattr(fmod, "_resultant", resultant)
    p, n = 3, 6
    report = search_exhaustive(parse_poly(F3, "X+1"), Poly.one(F3), n)
    assert len(report.hits) == (p - 1) * count_irreducibles(p, n)
    assert report.scanned == (p - 1) * p**n
    assert resultants and all(len(f) <= n // 2 + 1 for f in resultants)
    assert all(len(f) <= n // 2 + 1 for _, f in gcds)
    gcds.clear()
    resultants.clear()
    a, b = parse_poly(F3, "X+1"), parse_poly(F3, "X^4+X^2+2")
    search_exhaustive(a, b, n)
    members = [a + b * Poly(F3, [*low, lead]) for lead in (1, 2)
               for low in itertools.product(range(p), repeat=2)]
    x = Poly.x(F3)
    left = [m for m in members if gcd(m, pow_mod(x, p * p, m) - x).degree == 0]
    assert sorted(f for f in resultants if len(f) == n + 1) == sorted(
        m.monic().coeffs for m in left)
    admitted = [m.monic() for m in left
                if fmod._disc_admits(fmod._discriminant(m.coeffs, p), n, p)]
    assert sorted(g for g in gcds if len(g[1]) == n + 1) == sorted(
        ((pow_mod(x, e, m) - x).coeffs, m.coeffs) for m in admitted for e in (p, p * p))


def test_search_constructed_noncoprime_rejected():
    with pytest.raises(PreconditionViolated):
        search_constructed(parse_poly(F7, "X^2"), Poly.x(F7), 9, 4)


def test_search_exhaustive_small_scale():
    a = parse_poly(F3, "X+1")
    b = parse_poly(F3, "X^2+1")
    report = search_exhaustive(a, b, 4)
    assert report.strategy == "exhaustive"
    assert report.scanned == 2 * 9  # (p-1)*p^2 candidates of degree 2
    assert len(report.hits) >= 1
    for c, member in report.hits:
        assert member == a + b * c
        assert c.degree == 2
        assert member.degree == 4
        assert is_irreducible(member)
    # Candidate order: leading coefficient, then the code sum c_0 + 3*c_1.
    order = [Poly(F3, [c0, c1, lead])
             for lead in (1, 2) for c1 in range(3) for c0 in range(3)]
    expected = [c for c in order if is_irreducible(a + b * c)]
    assert [c for c, _ in report.hits] == expected


@pytest.mark.parametrize("p, a, b, n", [
    (2, "X+1", "1", 5),
    (2, "1", "X^2+X", 5),  # b vanishes on all of F_2
    (3, "X^2+1", "X+1", 4),
    (3, "X+1", "X^2+1", 2),  # deg c = 0
    (5, "X^3+X+1", "X^2+4", 3),  # the lead cancels at c_1 = 4
    (5, "X+3", "1", 1),  # n = 1: rooted members are the hits
    (7, "2", "X+3", 1),  # n = 1 and deg c = 0
    (7, "3*X^2+1", "X+2", 2),
    (2, "X+1", "1", 9),  # b = 1: the factor sieve alone, up to degree 4
    (3, "X+1", "X^4+X^2+2", 6),  # deg b > n/2: lines scanned with the sieve's marks
    (13, "X+1", "X^4+2", 6),  # lines of 13 >= 2n members interpolate Disc(t)
    (5, "X+1", "X^7+2", 10),
    (3, "X^5+X+1", "X+1", 4),  # deg a > n: no member has degree n
    (3, "X+1", "X", 8),  # deg c = 7 > k = 6: several digit-table blocks per lead
    (5, "X+1", "X^2+X+1", 7),  # deg c = 5 > k = 4: 20 blocks
])
def test_search_exhaustive_matches_the_plain_loop(p, a, b, n):
    field = PrimeField(p)
    _assert_plain_loop(parse_poly(field, a), parse_poly(field, b), n)


def _assert_plain_loop(a, b, n):
    # Unsieved reference: every c in order (lead, then the code sum c_0 + p*c_1 + ...).
    field, p = a.field, a.field.modulus
    deg_c = n - int(b.degree)
    hits, scanned = [], 0
    for lead in range(1, p):
        for code in range(p**deg_c):
            c = Poly(field, [code // p**i % p for i in range(deg_c)] + [lead])
            member = a + b * c
            scanned += 1
            if member.degree == n and is_irreducible(member):
                hits.append((c, member))
    report = search_exhaustive(a, b, n)
    assert list(report.hits) == hits
    assert report.scanned == scanned


def test_search_exhaustive_matches_the_plain_loop_on_random_pencils():
    # 60 coprime pencils, both routes: deg a up to n, so the lead can cancel, and b
    # sometimes a multiple of X^p - X, which vanishes on all of F_p.
    rng = random.Random(2)  # 12 of the 60 take the line route, 8 a vanishing b
    cases = 0
    while cases < 60:
        p, n = rng.choice((2, 3, 5, 7, 13)), rng.randint(1, 8)
        deg_b = rng.randint(0, n - 1)
        if p ** (n - deg_b + 1) > 2500:
            continue
        field = PrimeField(p)
        b = Poly(field, [rng.randrange(p) for _ in range(deg_b)] + [rng.randrange(1, p)])
        if p < 4 and deg_b >= p and rng.random() < 0.7:
            vanishing = Poly(field, [0, p - 1] + [0] * (p - 2) + [1])  # X^p - X
            b = vanishing * Poly(field, [rng.randrange(1, p) for _ in range(deg_b - p)] + [1])
        deg_a = rng.randint(0, n)
        a = Poly(field, [rng.randrange(p) for _ in range(deg_a)] + [rng.randrange(1, p)])
        if gcd(a, b).degree != 0:
            continue
        cases += 1
        _assert_plain_loop(a, b, n)


@pytest.mark.parametrize("p, n", [(2, 9), (3, 8), (5, 6), (7, 4)])
def test_complete_route_tests_only_the_sieve_moduli(monkeypatch, p, n):
    # b = 1 sieves up to D = n/2: the test sees only monic g of degree 2..D, at most
    # sum p^d of them, and never a member.
    degrees = []
    test = dirichlet._rabin_irreducible

    def counted(f, q, sieved=False):
        degrees.append(len(f) - 1)
        return test(f, q, sieved)

    monkeypatch.setattr(dirichlet, "_rabin_irreducible", counted)
    field = PrimeField(p)
    report = search_exhaustive(parse_poly(field, "X+1"), Poly.one(field), n)
    assert len(report.hits) == (p - 1) * count_irreducibles(p, n)
    assert len(degrees) <= sum(p**d for d in range(2, n // 2 + 1))
    assert set(degrees) <= set(range(2, n // 2 + 1))


def test_search_exhaustive_no_admissible_c():
    report = search_exhaustive(parse_poly(F3, "X+1"), parse_poly(F3, "X^2+1"), 1)
    assert report.hits == () and report.scanned == 0


def test_search_exhaustive_guard():
    with pytest.raises(TooLarge):
        search_exhaustive(parse_poly(PrimeField(101), "X+1"),
                          Poly.one(PrimeField(101)), 4)
    start = time.perf_counter()
    with pytest.raises(TooLarge, match=r"^3\^100000001 candidate space"):
        search_exhaustive(parse_poly(F3, "X+1"), Poly.one(F3), 10**8)
    assert time.perf_counter() - start < 1.0


def test_search_exhaustive_requires_coprime():
    with pytest.raises(PreconditionViolated):
        search_exhaustive(parse_poly(F3, "X^2"), Poly.x(F3), 4)


@pytest.mark.parametrize("a, b", [
    (parse_poly(F7, "X+1"), Poly.one(F5)),
    (parse_poly(F7, "X+1"), Poly.zero(F7)),
    (parse_poly(F7, "X^2+X"), Poly.x(F7)),
], ids=["mixed-fields", "b-zero", "not-coprime"])
@pytest.mark.parametrize("entry", [build_stable, search_constructed, search_exhaustive])
def test_every_entry_checks_the_pencil(entry, a, b):
    with pytest.raises(PreconditionViolated, match="pencil"):
        entry(a, b, 7)


def test_constructed_hits_within_exhaustive():
    # the one desk-scale instance where both strategies run end to end
    a = parse_poly(F5, "X+1")
    b = Poly.one(F5)
    constructed = search_constructed(a, b, 7, max_hits=4)
    exhaustive = search_exhaustive(a, b, 7)
    assert set(constructed.hits) <= set(exhaustive.hits)
    # sanity: the exhaustive density sits near the 1/n heuristic
    assert Fraction(1, 14) < exhaustive.density < Fraction(2, 7)


def test_artin_kornblum_sweep_f2():
    # Over F_2 the theorem's "sufficiently large" threshold bites: members
    # of degree n exist in the enumerated family only for n > deg a, and
    # tiny candidate spaces need n >= deg b + 2 before a hit is guaranteed.
    def polys_up_to(field, d):
        p = field.modulus
        for code in range(p ** (d + 1)):
            coeffs, rest = [], code
            while rest:
                rest, digit = divmod(rest, p)
                coeffs.append(digit)
            yield Poly(field, coeffs)

    for a in polys_up_to(F2, 2):
        for b in polys_up_to(F2, 2):
            if b.is_zero():
                continue
            if a.is_zero() and b.is_zero():
                continue
            if not gcd(a, b).is_one():
                continue
            for n in range(int(b.degree) + 1, 7):
                if n <= a.degree or n < int(b.degree) + 2:
                    continue
                report = search_exhaustive(a, b, n)
                assert len(report.hits) >= 1, (str(a), str(b), n)


def test_density_scan_f101():
    field = PrimeField(101)
    cert = build_stable(parse_poly(field, "X+1"), Poly.one(field), 7, seed=0)
    result = density_scan(cert)
    assert result.p == 101 and result.n == 7
    assert result.expected == Fraction(101, 7)
    assert result.ratio == Fraction(result.count * 7, 101)
    assert 0 <= result.count <= 100
    # loose band around the 1/n heuristic
    assert Fraction(1, 2) < result.ratio < Fraction(3, 2)


def test_density_scan_partition_independent():
    field = PrimeField(101)
    cert = build_stable(parse_poly(field, "X+1"), Poly.one(field), 7, seed=0)
    r1 = density_scan(cert, workers=1)
    r2 = density_scan(cert, workers=2)
    assert r1 == r2


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 101])
def test_root_sieve_marks_exactly_the_rooted_members(p):
    # Brute force over x: alpha is marked iff a + alpha*bc has a root. Half
    # of the bc are built with a root r, where the sieve must mark nothing.
    rng = random.Random(p)
    field = PrimeField(p)
    done = 0
    while done < 12:
        n = rng.randrange(2, 7)
        bc = [rng.randrange(p) for _ in range(n)] + [rng.randrange(1, p)]
        if done % 2:
            bc = _mul([rng.randrange(p), 1], bc[1:], p)
        a = [rng.randrange(p) for _ in range(rng.randrange(n))]
        if not gcd(Poly(field, a), Poly(field, bc)).is_one():
            continue
        done += 1
        marked = _root_sieve(a, bc, p)
        assert len(marked) == p
        for alpha in range(p):
            member = _add(a, _mul_scalar(bc, alpha, p), p)
            has_root = any(_eval(member, x, p) == 0 for x in range(p))
            assert marked[alpha] == has_root, (a, bc, alpha)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 101, 10007])
def test_line_disc_is_each_members_discriminant(p):
    # Disc(t) = disc(monic member) * lc^(2n - 2) at every scale where the member has
    # degree n; _line_disc interpolates it when more than 2n - 1 scales do, else it
    # returns None. The leading coefficient vanishes at t = 0 (deg base < n), at one
    # t != 0 (deg base = deg direction = n) or nowhere (deg direction < n); n = p
    # makes p | n, and short lines hold fewer than 2n - 1 scales.
    rng = random.Random(p)
    for n in sorted({1, 2, 3, 5, 8, 9, 12} | ({p} if p <= 13 else set())):
        for base_deg, dir_deg in ((n - 1, n), (n, n), (n, n - 1)):
            base = [rng.randrange(p) for _ in range(base_deg)] + [rng.randrange(1, p)]
            direction = [rng.randrange(p) for _ in range(dir_deg)] + [rng.randrange(1, p)]
            line = range(p) if p < 1000 else range(p - 64, p)
            for scales in (line, range(1, min(p, 2 * n - 1))):
                disc = dirichlet._line_disc(p, n, base, direction, scales)
                members = {t: _add(base, _mul_scalar(direction, t, p), p) for t in scales}
                full = [t for t, m in members.items() if len(m) == n + 1]
                assert (disc is None) == (len(full) <= 2 * n - 1), (p, n, scales)
                if disc is None:
                    continue
                assert len(disc) <= 2 * n - 1
                for t in full:
                    m = members[t]
                    d = _discriminant(_monic(m, p), p) * pow(m[-1], 2 * n - 2, p) % p
                    assert _eval(disc, t, p) == d, (p, n, base, direction, t)


@pytest.mark.parametrize("p, a, b, n", [
    (7, "X+1", "1", 9),
    (7, "X^2+3", "1", 8),
    (11, "X+1", "X+2", 11),
    (13, "2*X+5", "1", 7),
    (101, "X+1", "X+2", 12),
    (1009, "X^2+3", "1", 9),
])
def test_density_scan_matches_the_plain_loop(p, a, b, n):
    field = PrimeField(p)
    cert = build_stable(parse_poly(field, a), parse_poly(field, b), n, seed=p)
    bc = cert.b * cert.c
    members = [cert.a + alpha * bc for alpha in range(1, p)]
    plain = sum(is_irreducible(m) for m in members)
    results = [density_scan(cert, workers=w) for w in (1, 2, 3)]
    assert all(r.count == plain for r in results)
    assert results[0] == results[1] == results[2]
    if p <= 101:
        rooted = sum(any(not m(x) for x in range(p)) for m in members)
        assert results[0].rooted == rooted


def test_rooted_share_follows_chebotarev():
    # 1 - D_n/n! of S_n fixes a point; D_n counts the derangements.
    field = PrimeField(10007)
    cert = build_stable(parse_poly(field, "X+1"), Poly.one(field), 8, seed=0)
    result = density_scan(cert)
    derangements = sum((-1) ** k * factorial(8) // factorial(k) for k in range(9))
    fixed_share = 1 - derangements / factorial(8)
    assert abs(result.rooted / (result.p - 1) - fixed_share) < 0.05
    assert result.count + result.rooted <= result.p - 1


def test_density_scan_bounded_by_the_guard():
    cert = build_stable(parse_poly(PrimeField(10**7 + 19), "X+1"),
                        Poly.one(PrimeField(10**7 + 19)), 9, seed=0)
    with pytest.raises(TooLarge, match="10000000"):
        density_scan(cert)


def test_density_scan_rejects_invalid_cert():
    cert = build_stable(parse_poly(F7, "X+1"), Poly.one(F7), 9, seed=0)
    broken = dataclasses.replace(cert, h2=cert.h2 + 1)
    with pytest.raises(PreconditionViolated):
        density_scan(broken)


def test_report_csv_and_detail_formats():
    a = parse_poly(F7, "X+1")
    report = search_constructed(a, Poly.one(F7), 9, max_hits=2)
    csv = report.to_csv()
    lines = csv.strip().splitlines()
    assert lines[0] == "strategy,p,n,scanned,hits,density"
    cells = lines[1].split(",")
    assert cells[0] == "constructed-scan"
    assert cells[1:3] == ["7", "9"]
    detail = report.to_detail_text()
    assert detail.count("c: ") == len(report.hits)
    assert detail.count("member: ") == len(report.hits)


def test_density_csv_format():
    field = PrimeField(101)
    cert = build_stable(parse_poly(field, "X+1"), Poly.one(field), 7, seed=0)
    lines = density_scan(cert).to_csv().strip().splitlines()
    assert lines[0] == "p,n,count,expected,ratio"
    assert lines[1].startswith("101,7,")
