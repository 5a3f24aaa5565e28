import math
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
    naive_mul,
    parse_poly,
    pow_mod,
)
from progressio.errors import ConstantPolynomial, ZeroPolynomial
from progressio.factor import _ben_or, _disc_admits, _discriminant, _rabin_irreducible
from progressio.oracle import _monic_polys
from progressio.poly import Poly, _deriv, _mul, _resultant

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


def _sieve_passes(f, p):
    # The sieved entry's contract: f rootless, squarefree and, for odd p, of
    # discriminant character (-1)^(n-1).
    g = Poly(PrimeField(p), f)
    x = Poly.x(g.field)
    return gcd(pow_mod(x, p, g) - x, g).is_one() and _disc_admits(
        _discriminant(f, p), len(f) - 1, p)


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
    # Every monic f up to degree 12 at p = 2 and 9 at p = 3 against the oracle's
    # sieve, and the sieved entry on every f the sieve passes. For odd p such an f of
    # degree 6 to 9 that is reducible has three factors, one of degree <= n/3, which
    # only the gcds past the root gcd catch; every grid reaching degree 6 has some.
    for p, top in ((2, 12), (3, 9), (5, 6), (7, 5)):
        field = PrimeField(p)
        sieved_reducible = 0
        for n in range(1, top + 1):
            expected = set(enumerate_irreducibles(p, n))
            for f in _monic_polys(field, n):
                got = is_irreducible(f)
                assert got == (f in expected), f
                if _sieve_passes(list(f.coeffs), p):
                    assert _rabin_irreducible(list(f.coeffs), p, True) == got, f
                    sieved_reducible += not got
        assert sieved_reducible > 0 or top < 6, p


def _refused_products(p, shapes):
    # Squarefree products of distinct irreducibles of the given degrees, none linear:
    # no root shows, and both entries and sympy refuse each one.
    gt = pytest.importorskip("sympy.polys.galoistools")
    from sympy.polys.domains import ZZ

    rng = random.Random(p)
    field = PrimeField(p)
    for shape in shapes:
        for _ in range(3):
            factors = []
            while len(factors) < len(shape):
                g = _random_irreducible(rng, field, shape[len(factors)])
                if g not in factors:
                    factors.append(g)
            f = math.prod(factors)
            coeffs = list(f.coeffs)
            assert _sieve_passes(coeffs, p), (p, shape, f)
            assert not is_irreducible(f)
            assert not _rabin_irreducible(coeffs, p, True)
            assert not gt.gf_irreducible_p(coeffs[::-1], p, ZZ)


@pytest.mark.parametrize("p", [3, 11, 10007, (1 << 61) - 1])
def test_three_factors_without_a_root_are_refused(p):
    # The discriminant admits three factors (r = 3 is odd), so the test looks only up
    # to degree n/3. Up to degree 8 that is a quadratic, which only the gcd with
    # X^(p^2) - X refuses; from degree 9 on the smallest factor has degree exactly
    # n/3, the loop's last degree, or the gcd over the block [2, 3] refuses it, for
    # (2, 2, 8) before the loop reaches top = 4.
    _refused_products(p, ((2, 2, 2), (2, 2, 3), (2, 2, 4), (2, 3, 3), (3, 3, 3),
                          (3, 3, 4), (4, 4, 4), (4, 4, 5), (5, 5, 5), (2, 2, 5),
                          (2, 2, 8)))


def test_two_factors_without_a_root_are_refused_at_p2():
    # p = 2 has no parity, so the test looks up to degree n/2: shapes whose smaller
    # factor has degree exactly n/2, or n/2 rounded down.
    _refused_products(2, ((3, 3), (4, 4), (4, 5), (5, 5)))


def test_discriminant_character_counts_the_factors():
    # Stickelberger: over F_p, p odd, a monic squarefree f of degree n with r
    # irreducible factors has disc f = (-1)^(n(n-1)/2) res(f, f') of character
    # (-1)^(n-r). Each such f of degree <= 6 is one product of r distinct sieved
    # irreducibles, so the walk below meets every one exactly once.
    for p in (3, 5, 7):
        irreducibles = [list(g.coeffs) for d in range(1, 7)
                        for g in enumerate_irreducibles(p, d)]
        seen = [0] * 7

        def walk(start, f, r):
            n = len(f) - 1
            if n:
                seen[n] += 1
                disc = (-1) ** (n * (n - 1) // 2) * _resultant(f, _deriv(f, p), p)
                assert pow(disc, (p - 1) // 2, p) == (-1) ** (n - r) % p, (p, f)
            for i in range(start, len(irreducibles)):
                if n + len(irreducibles[i]) - 1 > 6:
                    break  # sorted by degree
                walk(i + 1, _mul(f, irreducibles[i], p), r + 1)

        walk(0, [1], 0)
        assert seen[1:] == [p] + [p**n - p ** (n - 1) for n in range(2, 7)]


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


def test_no_frobenius_where_the_test_cannot_use_it(monkeypatch):
    # Past the discriminant, top = 0 (n = 1 at p = 2, n <= 2 for odd p) leaves no
    # factor degree to look for, and so does top = 1 (n <= 3 at p = 2, n <= 5 for odd
    # p) once the caller sieved the roots: there the test builds no _reducer, hence no
    # X^p. Every monic f, unsieved and, when it passes the sieves, sieved, against
    # enumerate_irreducibles; above those cases the remainder map is built as usual.
    import progressio.factor as fmod

    reducer, forbidden = fmod._reducer, [False]

    def guarded(f, p):
        if forbidden[0]:
            raise AssertionError(f"a remainder map was built at p = {p}, f = {f}")
        return reducer(f, p)

    monkeypatch.setattr(fmod, "_reducer", guarded)
    for p, degrees in ((2, 7), (3, 7), (5, 6), (7, 5), (11, 4)):
        for n in range(1, degrees):
            top = n // 2 if p == 2 else n // 3
            irreducible = set(enumerate_irreducibles(p, n))
            for f in _monic_polys(PrimeField(p), n):
                for sieved in (False, True)[: 1 + _sieve_passes(f.coeffs, p)]:
                    forbidden[0] = top == 0 or sieved and top == 1
                    got = _rabin_irreducible(list(f.coeffs), p, sieved)
                    assert got == (f in irreducible), (p, f, sieved)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 31, 101, 10007, (1 << 61) - 1])
def test_square_and_shift_xp_matches_pow_mod(p):
    # The independent check of poly's packed _pow_mod (X^p by its square-and-shift start)
    # and _compose_mod (X^(p^2) = X^p(X^p) by Horner): many tests take pow_mod as their
    # X^(p^d) reference, and this one vouches for it. The references are square-and-
    # multiply and Horner from oracle.naive_mul and long division, which share no code
    # with the Barrett kernel. The rows X^(i*p) mod f come by one mulmod each where the
    # kernel's slots are at most 4 bytes (p <= 31, and p = 101 below n = 9), otherwise
    # by the map g -> X^p * g; a stand-in rem with wide slots takes the map at every p.
    from types import SimpleNamespace

    from progressio.poly import _compose_mod, _frobenius_rows, _pow_mod, _reducer

    rng = random.Random(p)
    field = PrimeField(p)
    x = Poly.x(field)
    draw = lambda length: Poly(field, [rng.randrange(p) for _ in range(length)])

    def power(base, k, modulus):
        result, acc = Poly.one(field) % modulus, base % modulus
        while k:
            if k & 1:
                result = naive_mul(result, acc) % modulus
            acc, k = naive_mul(acc, acc) % modulus, k >> 1
        return result

    def horner(outer, inner, modulus):
        result = Poly.zero(field)
        for c in reversed(outer.coeffs):
            result = (naive_mul(result, inner) + c) % modulus
        return result

    for n in (1, 2, 4, 8, 9, 33, 128):
        f = [rng.randrange(p) for _ in range(n)] + [1]
        modulus, rem = Poly(field, f), _reducer(f, p)
        xp = _pow_mod([0, 1], p, rem, p)
        assert Poly(field, xp) == power(x, p, modulus), (p, n)
        rows = _frobenius_rows(xp, rem, p)
        assert len(rows) == n and rows[0] == [1]
        for i in range(n) if n < 128 else (0, 1, 2, n // 2, n - 1):  # pow_mod is slow
            assert Poly(field, rows[i]) == pow_mod(x, i * p, modulus), (p, n, i)
        wide = SimpleNamespace(n=n, f=rem.f, kernel=(9, None))
        assert _frobenius_rows(xp, wide, p) == rows, (p, n)
        if n == 128:
            continue  # the references are quadratic per step
        xp2 = _compose_mod(xp, xp, rem, p)
        assert Poly(field, xp2) == horner(Poly(field, xp), Poly(field, xp), modulus)
        assert Poly(field, xp2) == power(x, p * p, modulus), (p, n)
        # Bases X, 0, 1, reduced, longer than f, longer than 2 deg f.
        bases = [x, Poly.zero(field), Poly.one(field), draw(n), draw(n + 1 + n // 2),
                 draw(2 * n + 3)]
        for base in bases:
            for k in (0, 1, 2, p, (p - 1) // 2, rng.randrange(1 << 64)):
                got = _pow_mod(base.coeffs, k, rem, p)
                assert Poly(field, got) == power(base, k, modulus), (p, n, base, k)
            outer = draw(n + 2)
            got = _compose_mod(outer.coeffs, base.coeffs, rem, p)
            assert Poly(field, got) == horner(outer, base, modulus), (p, n, base)


def test_engine_matches_sympy_galoistools():
    # Seeded differential check against an independent implementation;
    # about 30% of the inputs carry a repeated factor g^2.
    gt = pytest.importorskip("sympy.polys.galoistools")
    from sympy.polys.domains import ZZ

    def check(f, seed):
        p = f.field.modulus
        dense = list(reversed(f.coeffs))
        assert is_irreducible(f) == gt.gf_irreducible_p(dense, p, ZZ)
        if _sieve_passes(list(f.coeffs), p):
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
    # Degree <= 8: irreducible g^2, g^3 and g^p (f' = 0), and g * (X - r).
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
    # degree <= 8, where rest is small from the start. Two more, rootless, split at
    # d = 2 once the rows exist: (2, 3, 20, 21) loses 5 of 46 and keeps its 46 rows to
    # the end, as the loop stops at its next split; (2, 2, 3, 3, 3, 9) loses 13 of 22,
    # so its rows are taken anew mod the degree-9 rest.
    rng = random.Random(47)
    cases = [(2, 130), (3, 100), (5, 128), (101, 64), (10007, 40), ((1 << 61) - 1, 20)]
    for p, n in cases:
        field = PrimeField(p)
        inputs = [Poly(field, [rng.randrange(p) for _ in range(n)] + [1])
                  for _ in range(3)]
        split = {}  # input -> the row counts _ben_or yields with its pieces
        shapes = (((2, 3, 20, 21), [46] * 4), ((2, 2, 3, 3, 3, 9), [22, 22, 9]))
        for degrees, counts in shapes if p > 2 else ():  # F_2 has one quadratic
            f = Poly.one(field)
            for k in degrees:
                g = _random_irreducible(rng, field, k)
                while not gcd(f, g).is_one():
                    g = _random_irreducible(rng, field, k)
                f = f * g
            inputs.append(f)
            split[f] = counts
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
            if f in split:
                assert [len(rows) for _, _, rows in ours] == split[f], p
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
    frobenius_rows, pow_mod_ = fmod._frobenius_rows, fmod._pow_mod

    def count_rows(xp, rem, p):
        built.append("rows")
        return frobenius_rows(xp, rem, p)

    def count_xp(base, k, rem, p):
        if k == p:  # X^p; the splitting stage's powers have k = (p - 1) / 2
            built.append("xp")
        return pow_mod_(base, k, rem, p)

    monkeypatch.setattr(fmod, "_frobenius_rows", count_rows)
    monkeypatch.setattr(fmod, "_pow_mod", count_xp)
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
            assert 0 < built.count("xp") <= len(parts)


def test_count_irreducibles_examples():
    assert count_irreducibles(2, 3) == 2
    assert count_irreducibles(2, 4) == 3
    for p in (2, 3, 5, 101):
        assert count_irreducibles(p, 1) == p
    assert [count_irreducibles(2, n) for n in range(1, 9)] == [
        2, 1, 2, 3, 6, 9, 18, 30,
    ]
