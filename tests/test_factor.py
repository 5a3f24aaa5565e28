import random

import pytest

from progressio import (
    PrimeField,
    count_irreducibles,
    enumerate_irreducibles,
    factorize,
    gcd,
    is_irreducible,
    naive_factor,
    parse_poly,
    pow_mod,
)
from progressio.errors import ConstantPolynomial, ZeroPolynomial
from progressio.factor import _ben_or, _rabin_irreducible
from progressio.oracle import _monic_polys
from progressio.poly import Poly

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


def all_polys(field, max_deg):
    p = field.modulus
    for code in range(1, p ** (max_deg + 1)):
        coeffs = []
        rest = code
        while rest:
            rest, digit = divmod(rest, p)
            coeffs.append(digit)
        yield Poly(field, coeffs)


def test_is_irreducible_examples():
    assert is_irreducible(parse_poly(F3, "X^2+1"))
    assert not is_irreducible(parse_poly(F5, "X^2+1"))
    for c in range(5):
        assert is_irreducible(Poly(F5, [c, 1]))
    assert is_irreducible(parse_poly(F5, "3*X+1"))  # units don't matter
    # Squares g^2 with deg g <= n/2: the test need not see a squarefree input.
    g = parse_poly(F5, "X^3+X+1")
    assert is_irreducible(g)
    assert not is_irreducible(g**2)
    assert not is_irreducible(g**2 * parse_poly(F5, "X^2+2"))
    big = PrimeField((1 << 61) - 1)
    assert not is_irreducible(Poly(big, [1, 0, 1]) ** 2)


def test_is_irreducible_rejects_constants():
    with pytest.raises(ConstantPolynomial):
        is_irreducible(Poly.one(F3))
    with pytest.raises(ConstantPolynomial):
        is_irreducible(Poly.zero(F3))


def test_is_irreducible_against_enumeration():
    # Every monic f: Berlekamp's count below the size switch (degree <= 8) against
    # the oracle's sieve, and the rootless entry against the plain one, rooted f too.
    for p, top in ((2, 8), (3, 6), (5, 6)):
        field = PrimeField(p)
        for n in range(1, top + 1):
            expected = set(enumerate_irreducibles(p, n))
            for f in _monic_polys(field, n):
                got = is_irreducible(f)
                assert got == (f in expected), f
                assert _rabin_irreducible(list(f.coeffs), p, True) == got, f


def test_irreducible_count_includes_units():
    # Over all (not necessarily monic) degree-n polynomials the irreducible
    # count is (p-1) times the monic count.
    for p in (2, 3):
        field = PrimeField(p)
        for n in range(1, 7):
            total = sum(
                1
                for f in all_polys(field, n)
                if f.degree == n and is_irreducible(f)
            )
            assert total == count_irreducibles(p, n) * (p - 1)


def test_factorize_examples():
    result = factorize(parse_poly(F5, "X^2+1"))
    assert result.unit == 1
    assert result.factors == (
        (parse_poly(F5, "X+2"), 1),
        (parse_poly(F5, "X+3"), 1),
    )

    sq = parse_poly(F3, "X+1") ** 2
    result = factorize(sq)
    assert result.factors == ((parse_poly(F3, "X+1"), 2),)

    f = parse_poly(F3, "X^2+1")
    result = factorize(f)
    assert result.factors == ((f, 1),)


def test_factorize_zero_rejected():
    with pytest.raises(ZeroPolynomial):
        factorize(Poly.zero(F3))


def test_factorize_constant_and_unit():
    result = factorize(Poly.constant(F5, 3))
    assert result.unit == 3 and result.factors == ()
    result = factorize(parse_poly(F5, "2*X^2+2"))
    assert result.unit == 2
    assert result.expand() == parse_poly(F5, "2*X^2+2")


def test_factorize_multiplicity_p_power():
    # Derivative vanishes: the p-th-root path must preserve multiplicities.
    f = parse_poly(F3, "X+1") ** 3
    assert factorize(f).factors == ((parse_poly(F3, "X+1"), 3),)
    g = parse_poly(F3, "X+1") ** 6 * parse_poly(F3, "X+2") ** 2
    assert factorize(g).factors == (
        (parse_poly(F3, "X+1"), 6),
        (parse_poly(F3, "X+2"), 2),
    )
    h = parse_poly(F2, "X^2+X+1") ** 4
    assert factorize(h).factors == ((parse_poly(F2, "X^2+X+1"), 4),)


def test_factorize_char2_equal_degree_split():
    cubics = enumerate_irreducibles(2, 3)
    f = cubics[0] * cubics[1]
    result = factorize(f)
    assert set(result.factors) == {(cubics[0], 1), (cubics[1], 1)}


def test_factorize_multiply_back_random():
    rng = random.Random(2024)
    for p in (2, 3, 101):
        field = PrimeField(p)
        for _ in range(40):
            f = Poly(field, [rng.randrange(p) for _ in range(rng.randrange(1, 10))])
            if f.is_zero():
                continue
            result = factorize(f, seed=rng.randrange(2**64))
            assert result.expand() == f
            assert sum(
                int(q.degree) * m for q, m in result.factors
            ) == (f.degree if f.degree >= 1 else 0)
            for q, m in result.factors:
                assert q.lc() == 1
                assert is_irreducible(q)


def test_factorize_matches_naive_on_f2():
    for f in all_polys(F2, 5):
        if f.degree < 1:
            continue
        ours = factorize(f)
        ref = naive_factor(f)
        assert ours.unit == ref.unit
        assert set(ours.factors) == set(ref.factors)


def test_factorize_deterministic_and_ordered():
    f = parse_poly(F5, "X^2+1") * parse_poly(F5, "X^3+X+1")
    r1 = factorize(f, seed=42)
    r2 = factorize(f, seed=42)
    r3 = factorize(f, seed=43)
    assert r1 == r2
    assert r1.factors == r3.factors  # canonical order is seed-independent
    degrees = [int(q.degree) for q, _ in r1.factors]
    assert degrees == sorted(degrees)


def test_factorization_text_record():
    assert factorize(parse_poly(F5, "X^2+1")).to_text() == "(X+2)^1\n(X+3)^1"
    assert factorize(parse_poly(F5, "2*X^2+2")).to_text() == (
        "2\n(X+2)^1\n(X+3)^1"
    )
    assert factorize(Poly.one(F5)).to_text() == "1"
    sq = parse_poly(F3, "X+1") ** 2
    assert factorize(sq).to_text() == "(X+1)^2"


def test_factorization_degrees_helper():
    f = parse_poly(F5, "X+1") ** 2 * parse_poly(F5, "X^2+2")
    assert factorize(f).degrees() == (2, 1, 1)


def test_equal_degree_retry_budget_errors_instead_of_looping():
    import progressio.factor as fmod
    from progressio.errors import RetryBudgetExceeded

    class StuckRandom(random.Random):
        def randrange(self, *args, **kwargs):  # constants only: never splits
            return 0

    f = parse_poly(F5, "X^2+2") * parse_poly(F5, "X^2+3")
    ((g, d, rows),) = _ben_or(list(f.coeffs), 5)
    assert (g, d) == (list(f.coeffs), 2)
    with pytest.raises(RetryBudgetExceeded):
        fmod._equal_degree(g, d, 5, StuckRandom(), rows)


def test_equal_degree_leaves_a_single_factor_untouched():
    # An irreducible input needs no Frobenius rows and no random draws.
    import progressio.factor as fmod

    rng = random.Random(11)
    cases = [(p, d, list(_random_irreducible(rng, PrimeField(p), d).coeffs))
             for p, d in ((2, 7), (3, 2), (5, 12), (10007, 3), ((1 << 61) - 1, 2))]
    for p, d, f in cases:
        state = rng.getstate()
        assert fmod._equal_degree(f, d, p, rng, None) == [f]  # None: rows unread
        assert rng.getstate() == state


def test_large_modulus_end_to_end():
    # 2^61 - 1 exercises 61-bit coefficients in every step and the 60-bit
    # exponent (p - 1)/2 of the equal-degree split.
    p = (1 << 61) - 1
    field = PrimeField(p)
    f = Poly(field, [1, 0, 1])  # X^2 + 1
    # -1 is a square mod p iff p % 4 == 1; here p % 4 == 3, so irreducible
    assert p % 4 == 3
    assert is_irreducible(f)
    g = Poly(field, [p - 4, 0, 1])  # X^2 - 4 = (X-2)(X+2)
    result = factorize(g, seed=1)
    assert result.factors == (
        (Poly(field, [2, 1]), 1),
        (Poly(field, [p - 2, 1]), 1),
    )
    rng = random.Random(8)
    h = Poly(field, [rng.randrange(p) for _ in range(6)] + [1])
    assert factorize(h, seed=2).expand() == h


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_shift_route_matches_the_mulmod_route(monkeypatch, p):
    # X^p mod f and the rows X^(i*p) mod f, by multiply-by-X steps and by
    # mulmods, on both sides of poly's size switch; pow_mod is the oracle.
    import progressio.factor as fmod
    from progressio.poly import _reducer

    rng = random.Random(p)
    field = PrimeField(p)
    for n in (1, 2, 8, 9, 33):
        f = [rng.randrange(p) for _ in range(n)] + [1]
        rem = _reducer(f, p)
        routes = []
        for switch in (p + 1, p):  # shift steps, then mulmods
            monkeypatch.setattr(fmod, "_SHIFT_SWITCH", switch)
            xp = fmod._times_xp([1], f, rem, p)
            routes.append((xp, fmod._frobenius_rows(xp, f, rem, p)))
        assert routes[0] == routes[1]
        xp, rows = routes[0]
        modulus = Poly(field, f)
        assert Poly(field, xp) == pow_mod(Poly.x(field), p, modulus)
        assert len(rows) == n
        for i, row in enumerate(rows):
            assert Poly(field, row) == pow_mod(Poly.x(field), i * p, modulus)


def test_shift_route_builds_no_remainder_map(monkeypatch):
    # Below p = 8 and the size switch, X^p and the rows go by shift steps, so the
    # test builds no _reducer: every monic f of degree <= 5 at p = 2, 3, 5, 7, and
    # seeded f up to degree 8 with any leading coefficient, against is_irreducible.
    import progressio.factor as fmod

    rng = random.Random(71)
    cases = []
    for p in (2, 3, 5, 7):
        field = PrimeField(p)
        for n in range(1, 6):
            cases += [(list(f.coeffs), p) for f in _monic_polys(field, n)]
        for n in range(1, 9):
            cases += [
                ([rng.randrange(p) for _ in range(n)] + [rng.randrange(1, p)], p)
                for _ in range(30)
            ]
    want = [is_irreducible(Poly(PrimeField(p), f)) for f, p in cases]

    def no_reducer(f, p):
        raise AssertionError(f"a remainder map was built at p = {p}")

    monkeypatch.setattr(fmod, "_reducer", no_reducer)
    for (f, p), expected in zip(cases, want):
        for rootless in (False, True):
            assert _rabin_irreducible(f, p, rootless) == expected, (p, f, rootless)


@pytest.mark.parametrize("p", [8, 11, 13, 10007, (1 << 61) - 1])
def test_square_and_shift_xp_matches_pow_mod(p):
    # From p = 8 on, X^p mod f is a squaring mulmod per bit of p and a shift step
    # per 1 bit; the oracle is right-to-left powering with long division. p = 8,
    # where this route starts, is no prime: the identity holds over Z/8 as well.
    import progressio.factor as fmod
    from progressio.poly import _divmod, _mul, _pow_mod, _reducer

    rng = random.Random(p)
    for n in (1, 2, 8, 9, 33, 128):
        f = [rng.randrange(p) for _ in range(n)] + [1]
        g = [rng.randrange(p) for _ in range(n - 1)] + [1]
        rem = _reducer(f, p)
        xp = _pow_mod([0, 1], p, lambda a: _divmod(a, f, p)[1], p)
        assert fmod._times_xp([1], f, rem, p) == xp, (p, n)
        assert fmod._times_xp(g, f, rem, p) == _divmod(_mul(g, xp, p), f, p)[1]
        if p != 8:
            field = PrimeField(p)
            assert Poly(field, xp) == pow_mod(Poly.x(field), p, Poly(field, f))


def test_engine_matches_sympy_galoistools():
    # Seeded differential check against an independent implementation;
    # about 30% of the inputs carry a repeated factor g^2.
    gt = pytest.importorskip("sympy.polys.galoistools")
    from sympy.polys.domains import ZZ

    def check(f, seed):
        p = f.field.modulus
        dense = list(reversed(f.coeffs))
        assert is_irreducible(f) == gt.gf_irreducible_p(dense, p, ZZ)
        assert _rabin_irreducible(list(f.coeffs), p, True) == is_irreducible(f)
        lc, ref = gt.gf_factor(dense, p, ZZ)
        ours = factorize(f, seed=seed)
        assert int(ours.unit) == lc % p
        assert sorted((q.coeffs, k) for q, k in ours.factors) == sorted(
            (tuple(reversed(q)), k) for q, k in ref
        )

    rng = random.Random(4)
    for p in (2, 3, 5, 7, 13, 10007, (1 << 61) - 1):
        field = PrimeField(p)
        for _ in range(30):
            n = rng.randrange(1, 12)
            lead = rng.randrange(1, p)
            f = Poly(field, [rng.randrange(p) for _ in range(n)] + [lead])
            if rng.random() < 0.3:
                m = rng.randrange(1, 4)
                g = Poly(field, [rng.randrange(p) for _ in range(m)] + [1])
                f = f * g**2
            check(f, rng.randrange(100))
    # f * g^p * k^(p^2): the squarefree step takes a p-th root twice.
    rng = random.Random(5)
    for p in (2, 3, 5):
        field = PrimeField(p)

        def monic(degree):
            return Poly(field, [rng.randrange(p) for _ in range(degree)] + [1])

        for _ in range(10):
            f = monic(rng.randrange(1, 4)) * rng.randrange(1, p)
            g, k = monic(rng.randrange(1, 3)), monic(rng.randrange(1, 3))
            check(f * g**p * k ** (p * p), rng.randrange(100))
    # Degree <= 8, Berlekamp's count: irreducible g^2, g^3 and g^p (f' = 0), and
    # g * (X - r), which the rootless entry must get right although it has a root.
    rng = random.Random(61)
    for p in (2, 3, 7, 10007, (1 << 61) - 1):
        field = PrimeField(p)
        for _ in range(10):
            g = _random_irreducible(rng, field, rng.randrange(1, 5))
            cube = _random_irreducible(rng, field, rng.randrange(1, 3)) ** 3
            for f in (g**2, cube, g * Poly(field, [-rng.randrange(p), 1])):
                check(f, rng.randrange(100))
            if p <= 3:
                g = _random_irreducible(rng, field, rng.randrange(1, 8 // p + 1))
                check(g**p, rng.randrange(100))


def _reference_distinct_degree(f):
    # One gcd per degree, X^(p^d) by the public pow_mod: no blocks, no Q-matrix.
    p = f.field.modulus
    x = Poly.x(f.field)
    out, rest, h, d = [], f, x, 1
    while 2 * d <= rest.degree:
        h = pow_mod(h, p, rest)
        g = gcd(h - x, rest)
        if g.degree > 0:
            out.append((g, d))
            rest = rest // g
            h = h % rest
        d += 1
    if rest.degree > 0:
        out.append((rest, int(rest.degree)))
    return out


def _random_irreducible(rng, field, degree):
    while True:
        g = Poly(field, [rng.randrange(field.modulus) for _ in range(degree)] + [1])
        if is_irreducible(g):
            return g


def test_distinct_degree_matches_per_degree_reference():
    # Seeded squarefree inputs up to degree 130: random ones, and products of
    # irreducibles whose degrees share a block [d, 2d) of the blocked loop, some of
    # degree <= 8, where rest is small from the start.
    rng = random.Random(47)
    cases = [(2, 130), (3, 100), (5, 128), (101, 64), (10007, 40), ((1 << 61) - 1, 20)]
    for p, n in cases:
        field = PrimeField(p)
        inputs = [Poly(field, [rng.randrange(p) for _ in range(n)] + [1])
                  for _ in range(3)]
        blocks = ((2, 3), (1, 2, 3), (3, 4), (2, 2, 3), (3, 5))
        for degrees in ((1, 2, 3, 5, 6, 7, 7), (4, 5, 9, 13, 20)) + blocks:
            f = Poly.one(field)
            for k in degrees:
                g = _random_irreducible(rng, field, k)
                if gcd(f, g).is_one():
                    f = f * g
            inputs.append(f)
        for f in inputs:
            if not gcd(f, f.derivative()).is_one():
                continue
            ours = list(_ben_or(list(f.coeffs), p))
            ref = [(list(g.coeffs), d) for g, d in _reference_distinct_degree(f)]
            assert [(g, d) for g, d, _ in ours] == ref, (p, f.degree)
            x = Poly.x(field)
            for g, d, rows in ours:  # X^(i*p) mod a multiple of g, from d = 2 on
                if d == 1:
                    assert rows == []
                elif len(g) > d + 1:
                    modulus = Poly(field, g)
                    assert [Poly(field, r) % modulus for r in rows[: len(g) - 1]] == [
                        pow_mod(x, i * p, modulus) for i in range(len(g) - 1)
                    ]


def test_frobenius_data_built_once_per_squarefree_part(monkeypatch):
    # _ben_or alone builds X^p and the rows; the splitting stage restricts them.
    import progressio.factor as fmod

    built = []
    frobenius_rows, times_xp = fmod._frobenius_rows, fmod._times_xp

    def count_rows(xp, f, rem, p):
        built.append("rows")
        return frobenius_rows(xp, f, rem, p)

    def count_xp(g, f, rem, p, xp=None):
        if g == [1] and xp is None:  # X^p mod f from scratch
            built.append("xp")
        return times_xp(g, f, rem, p, xp)

    monkeypatch.setattr(fmod, "_frobenius_rows", count_rows)
    monkeypatch.setattr(fmod, "_times_xp", count_xp)
    rng = random.Random(29)
    for p in (2, 3, 5, 10007, (1 << 61) - 1):
        field = PrimeField(p)
        for degrees in ((3, 3, 4, 4, 5, 5), (1, 1, 2, 2, 2, 6, 6)):
            f = Poly.one(field)
            for k in degrees:
                f = f * _random_irreducible(rng, field, k)
            f = f * _random_irreducible(rng, field, 2) ** 2
            parts = fmod._squarefree_list(fmod._monic(f.coeffs, p), p)
            built.clear()
            assert factorize(f, seed=rng.randrange(100)).expand() == f
            assert built.count("rows") <= len(parts)
            assert built.count("xp") <= len(parts)


def test_count_irreducibles_examples():
    assert count_irreducibles(2, 3) == 2
    assert count_irreducibles(2, 4) == 3
    for p in (2, 3, 5, 101):
        assert count_irreducibles(p, 1) == p
    assert [count_irreducibles(2, n) for n in range(1, 9)] == [
        2, 1, 2, 3, 6, 9, 18, 30,
    ]
