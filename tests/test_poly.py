import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from progressio import (
    PrimeField,
    ZERO_DEGREE,
    format_poly,
    gcd,
    is_separable,
    naive_mul,
    parse_poly,
    pow_mod,
    xgcd,
)
from progressio.errors import (
    BothZero,
    FieldMismatch,
    ParseError,
    PreconditionViolated,
    ZeroPolynomial,
)
from progressio.oracle import sylvester_resultant
from progressio.poly import (
    _EUCLID_PACKED,
    Poly,
    _compose_mod,
    _deriv,
    _divmod,
    _euclid,
    _gcd,
    _linear_map,
    _monic,
    _mul,
    _pack,
    _reducer,
    _resultant,
    _slot_bytes,
    _trim,
    _unpack,
)

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)


def rand_poly(rng, field, max_deg):
    return Poly(field, [rng.randrange(field.modulus) for _ in range(max_deg + 1)])


def test_normalization_and_degree_sentinel():
    z = Poly(F5, [0, 0, 0])
    assert z.is_zero()
    assert z.degree == ZERO_DEGREE
    assert z.degree < -(10**9)
    assert Poly(F5, [1, 0, 5]).degree == 0  # 5 reduces to 0 mod 5


def test_divmod_examples():
    f = parse_poly(F5, "X^2+1")
    g = parse_poly(F5, "X+2")
    q, r = divmod(f, g)
    assert q == parse_poly(F5, "X+3") and r.is_zero()
    q, r = divmod(f, Poly.one(F5))
    assert q == f and r.is_zero()
    q, r = divmod(Poly.x(F5), parse_poly(F5, "X^2"))
    assert q.is_zero() and r == Poly.x(F5)


def test_divmod_errors():
    f = parse_poly(F5, "X^2+1")
    with pytest.raises(ZeroDivisionError):
        divmod(f, Poly.zero(F5))
    with pytest.raises(FieldMismatch):
        divmod(f, parse_poly(F7, "X"))


def test_divmod_round_trip_random():
    rng = random.Random(3)
    for _ in range(200):
        field = random.Random(rng.random()).choice((F2, F3, F5, F7))
        f = rand_poly(rng, field, rng.randrange(0, 12))
        g = rand_poly(rng, field, rng.randrange(0, 8))
        if g.is_zero():
            continue
        q, r = divmod(f, g)
        assert g * q + r == f
        assert r.degree < g.degree


def test_xgcd_examples():
    g0, u, v = xgcd(parse_poly(F3, "X^2+1"), Poly.x(F3))
    assert (g0, u, v) == (Poly.one(F3), Poly.one(F3), parse_poly(F3, "2*X"))

    f = parse_poly(F5, "3*X^2+3")
    g0, u, v = xgcd(f, Poly.zero(F5))
    assert g0 == f.monic() and v.is_zero()
    assert u * f == g0

    h = parse_poly(F5, "X+1")
    g0, u, v = xgcd(h, h)
    assert g0 == h and u * h + v * h == h


EUCLID_MODULI = (2, 3, 10007, (1 << 61) - 1)


def test_xgcd_bezout_random():
    # Degrees 0-40 straddle the packed steps' length crossover (_EUCLID_PACKED).
    rng = random.Random(5)
    for _ in range(200):
        field = PrimeField(rng.choice(EUCLID_MODULI))
        f = rand_poly(rng, field, rng.randrange(0, 41))
        g = rand_poly(rng, field, rng.randrange(0, 41))
        if rng.randrange(3) == 0:  # a common factor of degree up to 8
            common = rand_poly(rng, field, rng.randrange(1, 9))
            f, g = f * common, g * common
        if f.is_zero() and g.is_zero():
            continue
        g0, u, v = xgcd(f, g)
        assert u * f + v * g == g0
        assert g0.is_zero() or g0.lc() == 1
        if not g0.is_zero():
            assert (f % g0).is_zero() and (g % g0).is_zero()
        assert gcd(f, g) == gcd(g, f) if not (f.is_zero() or g.is_zero()) else True
        if not (f.is_zero() or g.is_zero() or f.degree == g.degree == g0.degree):
            assert u.degree < (g // g0).degree and v.degree < (f // g0).degree
    one = Poly.one(F5)
    g = parse_poly(F5, "X^3+2*X+1")
    assert xgcd(one, g) == (one, one, Poly.zero(F5))  # a constant argument
    assert xgcd(g, 3 * one) == (one, Poly.zero(F5), 2 * one)
    assert xgcd(Poly.zero(F5), 2 * g) == (g, Poly.zero(F5), 3 * one)  # a zero one


def test_gcd_both_zero():
    with pytest.raises(BothZero):
        gcd(Poly.zero(F5), Poly.zero(F5))
    with pytest.raises(BothZero):
        xgcd(Poly.zero(F5), Poly.zero(F5))


def test_derivative_examples():
    assert parse_poly(F3, "X^3+X").derivative() == Poly.one(F3)
    assert parse_poly(F3, "X^3").derivative().is_zero()
    assert Poly.constant(F3, 2).derivative().is_zero()


def test_eval_examples():
    assert parse_poly(F5, "X^2+1")(2) == 0
    f = parse_poly(F5, "3*X^2+4")
    assert f(0) == 4
    assert Poly.zero(F5)(3) == 0
    assert f(F5(2)) == (3 * 4 + 4) % 5


def test_separability_examples():
    assert not is_separable(parse_poly(F7, "X^2"))
    assert not is_separable(parse_poly(F2, "X^2+1"))  # equals (X+1)^2
    assert is_separable(parse_poly(F3, "X^2+1"))
    assert is_separable(Poly.constant(F3, 2))
    with pytest.raises(ZeroPolynomial):
        is_separable(Poly.zero(F3))


def test_ring_axioms_random():
    rng = random.Random(17)
    for _ in range(150):
        field = (F2, F3, F7)[rng.randrange(3)]
        f = rand_poly(rng, field, rng.randrange(0, 10))
        g = rand_poly(rng, field, rng.randrange(0, 10))
        h = rand_poly(rng, field, rng.randrange(0, 10))
        assert f + g == g + f
        assert f * g == g * f
        assert (f + g) * h == f * h + g * h
        assert f * (g * h) == (f * g) * h
        assert f - f == Poly.zero(field)


def test_mul_matches_convolution_oracle():
    rng = random.Random(23)
    for p in (2, 3, 101):
        field = PrimeField(p)
        for _ in range(60):
            f = rand_poly(rng, field, rng.randrange(0, 65))
            g = rand_poly(rng, field, rng.randrange(0, 65))
            assert f * g == naive_mul(f, g)


def test_mul_above_split_threshold():
    # long operands of unequal length, far above the multiply crossover
    rng = random.Random(29)
    field = PrimeField(101)
    for _ in range(8):
        f = rand_poly(rng, field, 150 + rng.randrange(60))
        g = rand_poly(rng, field, 90 + rng.randrange(120))
        assert f * g == naive_mul(f, g)


KERNEL_MODULI = (2, 3, 101, 10007, (1 << 61) - 1)


def test_mul_matches_convolution_across_the_size_switch():
    # Lengths on both sides of the multiply crossover (la*lb = 30 at every slot
    # width, 2^61 - 1's slots over 8 bytes included), unbalanced pairs such as
    # 2 x 128 and 5 x 65, and squares (one packed operand).
    rng = random.Random(37)
    lengths = [1, 2, 4, 5, 6, 39, 40, 41, 64, 128, 300]
    crossover = [(2, 14), (2, 15), (3, 10), (5, 6), (4, 8), (5, 65), (65, 5), (4, 65),
                 (8, 65), (8, 8), (10, 10), (12, 12), (6, 30), (6, 31)]
    for p in KERNEL_MODULI:
        field = PrimeField(p)
        pairs = [(2, 128), (128, 2), (40, 300)] + crossover + [
            (rng.choice(lengths), rng.choice(lengths)) for _ in range(6)
        ]
        for la, lb in pairs:
            f = rand_poly(rng, field, la - 1)
            g = rand_poly(rng, field, lb - 1)
            assert f * g == naive_mul(f, g), (p, la, lb)
        f = rand_poly(rng, field, 150)
        assert f * f == naive_mul(f, f)
        for n in (5, 6, 40, 64, 200):
            top = Poly(field, [p - 1] * n)  # every slot at its largest sum
            assert top * top == naive_mul(top, top)
        for terms in range(1, 1000):
            k = _slot_bytes(terms * (p - 1) ** 2)
            assert 256**k > terms * (p - 1) ** 2 and (k in (1, 2, 4, 8) or k > 8)


def test_divmod_identity_below_and_above_the_switch():
    rng = random.Random(41)
    for p in KERNEL_MODULI:
        field = PrimeField(p)
        for deg_b in (1, 39, 40, 40, 130):
            lead = rng.randrange(1, p)
            b = Poly(field, [rng.randrange(p) for _ in range(deg_b)] + [lead])
            rem = _reducer(list(b.coeffs), p)
            for deg_a in (0, deg_b - 1, deg_b, 2 * deg_b - 2, 3 * deg_b):
                a = rand_poly(rng, field, deg_a)
                q, r = divmod(a, b)
                assert naive_mul(q, b) + r == a
                assert r.degree < b.degree
                assert Poly(field, rem(list(a.coeffs))) == r, (p, deg_a, deg_b)


def test_linear_map_matches_a_naive_sum():
    # Row counts 1 to 19, each row one Kronecker int; rows and vectors of all
    # p - 1 fill each slot to len(rows) * (p - 1)^2, its bound.
    # At p = 67 that bound crosses 2^16 from 15 to 16 rows, so the slot widens there.
    rng = random.Random(59)
    for p in KERNEL_MODULI + (67,):
        field = PrimeField(p)
        for count in range(1, 20):
            width = rng.randrange(1, 12)
            rows = [
                [rng.randrange(p) for _ in range(rng.randrange(1, width + 1))]
                for _ in range(count)
            ]
            cases = [
                (rows, [rng.randrange(p) for _ in range(count)]),
                (rows, [rng.randrange(p) for _ in range(rng.randrange(count + 1))]),
                (rows, [0] * count),
                ([[p - 1] * width] * count, [p - 1] * count),
            ]
            for m, v in cases:
                terms = (Poly(field, row) * c for c, row in zip(v, m))
                want = sum(terms, Poly.zero(field))
                assert _linear_map(m, p)(v) == list(want.coeffs), (p, count, v)
        assert _linear_map([], p)([]) == []  # Ben-Or's rows before d = 2


def test_remainder_table_matches_long_division():
    # Input lengths 0..2n+1 (every one up to n = 9, then the ends of each range and one
    # between) for f of degree 1..128, monic or not: the Barrett kernel serves
    # n < len a < 2n, long division the rest. Inputs of all p - 1 put every slot
    # at p - 1.
    rng = random.Random(47)
    for p in KERNEL_MODULI:
        field = PrimeField(p)
        for n in (*range(1, 10), 12, 16, 24, 39, 40, 41, 64, 128):
            moduli = [[rng.randrange(p) for _ in range(n)] + [1], [p - 1] * n + [1]]
            if p > 2:
                moduli += [[rng.randrange(p) for _ in range(n)] + [rng.randrange(2, p)],
                           [p - 1] * (n + 1)]
            lengths = range(2 * n + 2) if n < 10 else (
                0, 1, n - 1, n, n + 1, rng.randrange(n + 2, 2 * n - 1),
                2 * n - 1, 2 * n, 2 * n + 1)
            for f in moduli:
                rem = _reducer(f, p)
                for length in lengths:
                    for a in ([rng.randrange(p) for _ in range(length)], [p - 1] * length):
                        want = divmod(Poly(field, a), Poly(field, f))[1]
                        assert Poly(field, rem(a)) == want, (p, f, length)


def test_packed_product_matches_long_division():
    # rem(x, y, ...) = x*y*... mod f for f of degree 1..12: the Barrett kernel, or a
    # product and then a remainder for an unreduced operand. Operands of all p - 1 fill
    # each product slot to n(p - 1)^2.
    rng = random.Random(67)
    for p in (2, 3, 11, 10007, (1 << 61) - 1):
        for n in range(1, 13):
            for f in ([rng.randrange(p) for _ in range(n)] + [1], [p - 1] * (n + 1)):
                rem = _reducer(f, p)
                x = _trim([rng.randrange(p) for _ in range(n)])
                y = _trim([rng.randrange(p) for _ in range(rng.randrange(n + 1))])
                top = [p - 1] * n
                wide = [rng.randrange(p) for _ in range(2 * n)] + [1]
                for a, b in ((x, y), (x, x), (top, top), (top, list(top)), (x, []),
                             ([], y), ([1], x), (wide, x)):
                    want = _divmod(_mul(a, b, p), f, p)[1]
                    assert rem(a, b) == want, (p, n, a, b)
                # One to six factors, packed once each: a repeated first factor, all
                # p - 1, and an unreduced one among them.
                for count in range(1, 7):
                    factors = [_trim([rng.randrange(p) for _ in range(n)])
                               for _ in range(count)]
                    for args in (factors, [x] + [x, y] * (count // 2), [top] * count,
                                 factors[:-1] + [wide]):
                        want = [1]
                        for b in args:
                            want = _divmod(_mul(want, b, p), f, p)[1]
                        assert rem(*args) == want, (p, n, args)


def test_barrett_kernel_for_any_lead_built_once(monkeypatch):
    # _reducer builds the kernel once, when it is made, for f of every degree from 1,
    # monic or not, and none for a constant f; it serves 8 < len a < 16 at n = 8, long
    # division the other lengths.
    import progressio.poly as pmod

    built = []
    barrett = pmod._barrett
    monkeypatch.setattr(pmod, "_barrett", lambda *args: built.append(1) or barrett(*args))
    rng = random.Random(53)
    for p in KERNEL_MODULI:
        field = PrimeField(p)
        for lead in (1, 2) if p > 2 else (1,):
            assert _reducer([lead], p).kernel is None and not built, (p, lead)
            for n in (1, 2, 3, 4, 5, 40, 64):
                rem = _reducer([rng.randrange(p) for _ in range(n)] + [lead], p)
                assert rem.kernel and len(built) == 1, (p, lead, n)
                built.clear()
            f = [rng.randrange(p) for _ in range(8)] + [lead]
            rem = _reducer(f, p)
            assert len(built) == 1, (p, lead)
            for length in (0, 3, 8, 16, 17, 40, 15, 9, 12):
                a = [rng.randrange(p) for _ in range(length - 1)] + [1] if length else []
                assert Poly(field, rem(a)) == divmod(Poly(field, a), Poly(field, f))[1]
            assert len(built) == 1, (p, lead)  # built once
            built.clear()


BARRETT_MODULI = (2, 3, 5, 11, 13, 101, 10007, (1 << 31) - 1, (1 << 61) - 1)


def _check_mulmod(p, f, pairs):
    # The kernel of _reducer(f), built once, on slots a, b (residues up to 3p - 1) of
    # each pair: the result is a*b mod f, each slot in [0, 2p), and nothing spills
    # above slot n - 1.
    n, monic = len(f) - 1, _monic(f, p)
    k, mulmod = _reducer(f, p).kernel
    for a, b in pairs:
        x = _pack(a, k)
        z = mulmod(x, x if a is b else _pack(b, k))
        slots = _unpack(z, k, n + 1, 1 << 8 * k)  # raw slots, no reduction
        assert slots[n] == 0 and max(slots) < 2 * p, (p, f, a, b, slots)
        want = _divmod(_mul(_trim([c % p for c in a]), _trim([c % p for c in b]), p),
                       monic, p)[1]
        assert _trim([v % p for v in slots]) == want, (p, f, a, b)


def test_barrett_mulmod_matches_long_division():
    # Operands at the top of the redundant range: every slot 2p - 1, and slot 0 at
    # 3p - 1 as after factor's Horner step; zero; x is y; x times x*X (n + 1 slots) as
    # in factor's X^p. Moduli monic or not, with low coefficients random, all p - 1
    # (the quotient times f at its largest) and X^n + c (at its smallest). _reducer
    # makes f monic before the kernel sees it, so above n = 64 only monic f are drawn.
    rng = random.Random(73)
    for p in BARRETT_MODULI:
        for n in (1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16, 24, 39, 40, 64, 128, 256):
            for lead in (1, rng.randrange(2, p)) if p > 2 and n <= 64 else (1,):
                for low in ([rng.randrange(p) for _ in range(n)], [p - 1] * n,
                            [rng.randrange(1, p)] + [0] * (n - 1)):
                    top = [2 * p - 1] * n
                    horner = [3 * p - 1] + top[1:]
                    x, y = ([rng.randrange(2 * p) for _ in range(n)] for _ in "xy")
                    _check_mulmod(p, low + [lead], (
                        (top, top), (horner, top), (top, horner), (horner, horner),
                        (top, [0] + top), (x, [0] + x), (x, y), (x, x), ([], top),
                        (horner, []), ([1], y)))


@st.composite
def _kernel_operands(draw):
    p = draw(st.sampled_from(BARRETT_MODULI))
    n = draw(st.integers(1, 128))
    f = draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
    f.append(draw(st.integers(1, p - 1)))
    a, b = (draw(st.lists(st.integers(0, 2 * p - 1), min_size=n, max_size=n)) for _ in "ab")
    a[0], b[0] = draw(st.integers(0, 3 * p - 1)), draw(st.integers(0, 3 * p - 1))
    return p, f, a, b


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_kernel_operands())
def test_barrett_mulmod_property(case):
    p, f, a, b = case
    _check_mulmod(p, f, [(a, b)])


def test_pow_mod_matches_repeated_multiplication():
    # Moduli monic or not, from a constant (every power is 0) and degree 1 up.
    rng = random.Random(43)
    for p in KERNEL_MODULI:
        field = PrimeField(p)
        for deg_m in (0, 1, 3, 40, 33):
            lead = rng.randrange(1, p)
            m = Poly(field, [rng.randrange(p) for _ in range(deg_m)] + [lead])
            base = rand_poly(rng, field, deg_m + 5)
            acc = Poly.one(field)
            for k in range(12):
                assert pow_mod(base, k, m) == acc % m, (p, deg_m, k)
                acc = naive_mul(acc, base) % m


def test_resultant_matches_the_sylvester_determinant():
    # Degrees 0-40 straddle the packed steps' length crossover (_EUCLID_PACKED).
    rng = random.Random(61)
    for p in EUCLID_MODULI:
        def draw(deg):
            return [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)]

        for _ in range(60):
            a, b = draw(rng.randrange(0, 41)), draw(rng.randrange(0, 41))
            assert _resultant(a, b, p) == sylvester_resultant(a, b, p), (p, a, b)
            g = draw(rng.randrange(1, 9))  # a common factor
            assert _resultant(_mul(a, g, p), _mul(b, g, p), p) == 0, (p, a, b, g)
        a, c = draw(5), draw(0)
        assert _resultant(a, c, p) == pow(c[0], 5, p)  # a constant second argument
        assert _resultant(a, [], p) == _resultant([], a, p) == 0  # a zero one
        for small, big in ((draw(2), draw(7)), (draw(12), draw(30))):  # deg a < deg b
            assert _resultant(small, big, p) == sylvester_resultant(small, big, p)
            assert _resultant(big, small, p) == sylvester_resultant(big, small, p)
        if p < 8:  # f = u(X^p): f' = 0, so res(f, f') = 0
            f = [0] * (2 * p + 1)
            f[0], f[p], f[2 * p] = 1, 1, 1
            assert _deriv(f, p) == [] and _resultant(f, _deriv(f, p), p) == 0


@st.composite
def _euclid_operands(draw):
    p = draw(st.sampled_from(EUCLID_MODULI))
    lengths = st.integers(1, 2 * _EUCLID_PACKED)  # both sides of the crossover
    a, b, common = (draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
                    for n in (draw(lengths), draw(lengths), draw(st.integers(1, 9))))
    return p, _mul(_trim(a), common[:-1] + [1], p), _mul(_trim(b), common[:-1] + [1], p)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_euclid_operands())
def test_packed_gcd_matches_long_division(operands):
    p, a, b = operands
    x, y = a, b
    while y:
        x, y = y, _divmod(x, y, p)[1]
    assert _gcd(a, b, p) == _monic(x, p)
    assert _monic(_euclid(a, b, p, cofactors=True)[0], p) == _monic(x, p)  # always packed


@st.composite
def _operands(draw):
    p = draw(st.sampled_from(KERNEL_MODULI))
    coeffs = st.lists(st.integers(0, p - 1), max_size=120)
    a, b = draw(coeffs), draw(coeffs)
    b.append(draw(st.integers(1, p - 1)))  # a nonzero modulus
    return PrimeField(p), a, b


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_operands())
def test_mul_and_remainder_property(operands):
    field, a, b = operands
    f, g = Poly(field, a), Poly(field, b)
    assert f * g == naive_mul(f, g)
    rem = _reducer(list(g.coeffs), field.modulus)
    for h in (f * g, f * f, f * g + f):
        q, r = divmod(h, g)
        assert naive_mul(q, g) + r == h and r.degree < g.degree
        assert Poly(field, rem(list(h.coeffs))) == r


def test_scalar_mixing():
    f = parse_poly(F7, "X^2+3")
    assert 2 * f == f + f
    assert f * F7(3) == f + f + f
    assert f + 4 == parse_poly(F7, "X^2")
    assert (f - f).is_zero()


def test_pow_and_linear_helpers():
    f = Poly.linear(F7, 2)  # X - 2
    assert f == parse_poly(F7, "X+5")
    assert f**3 == f * f * f
    assert f**0 == Poly.one(F7)


def test_pow_mod_and_compose_mod():
    f = parse_poly(F5, "X^2+1")
    x = Poly.x(F5)
    assert pow_mod(x, 25, f) == (x**25) % f
    g = parse_poly(F5, "2*X+1")
    h = parse_poly(F5, "X^2+3")
    direct = (Poly.constant(F5, 2) * h + 1) % f
    assert Poly(F5, _compose_mod(g.coeffs, h.coeffs, _reducer(f.coeffs, 5), 5)) == direct
    # Every polynomial is 0 modulo a unit.
    assert _compose_mod([3], [1], _reducer([2], 5), 5) == []
    assert pow_mod(x, 0, Poly.constant(F5, 2)) == Poly.zero(F5)


def test_pow_mod_rejects_negative_exponent():
    # Squaring toward k = 0 never ends for k < 0 (k >> 1 stays at -1).
    with pytest.raises(PreconditionViolated):
        pow_mod(parse_poly(F7, "X+2"), -1, parse_poly(F7, "X^3+X+1"))


def test_parse_both_grammars():
    assert parse_poly(F5, "1,0,3") == parse_poly(F5, "3*X^2+1")
    assert parse_poly(F5, "0") == Poly.zero(F5)
    assert parse_poly(F5, "-1, 0, 7") == parse_poly(F5, "2*X^2+4")
    assert parse_poly(F5, "X^2-1") == parse_poly(F5, "X^2+4")
    assert parse_poly(F5, "-X+2") == parse_poly(F5, "4*X+2")
    assert parse_poly(F5, "x^2 + x") == parse_poly(F5, "X^2+X")
    assert parse_poly(F5, "X+X") == parse_poly(F5, "2*X")


def test_parse_errors():
    for bad in ("", "X^", "3**X", "1,,2", "X+*", "^2", "+"):
        with pytest.raises(ParseError):
            parse_poly(F5, bad)


def test_format_round_trip():
    rng = random.Random(31)
    for _ in range(120):
        field = (F2, F5, F7)[rng.randrange(3)]
        f = rand_poly(rng, field, rng.randrange(0, 9))
        assert parse_poly(field, format_poly(f)) == f
    assert format_poly(Poly.zero(F5)) == "0"
    assert format_poly(parse_poly(F5, "1,0,3")) == "3*X^2+1"
    assert format_poly(parse_poly(F5, "7*X")) == "2*X"


def test_poly_hash_and_immutability():
    f = parse_poly(F5, "X+1")
    assert hash(f) == hash(parse_poly(F5, "X+1"))
    for name, value in (("coeffs", ()), ("field", F7), ("other", 1)):
        with pytest.raises(AttributeError):
            setattr(f, name, value)
    assert f.coeffs == (1, 1) and f.field is F5
    # _wrap sets both slots past __setattr__: the value equals, and hashes like, Poly's.
    for field, raw in ((F5, [1, 2, 3]), (F7, [6]), (F2, []), (F5, [4] * 9)):
        wrapped = Poly.one(field)._wrap(raw)
        assert wrapped == Poly(field, raw) and hash(wrapped) == hash(Poly(field, raw))
        assert wrapped.field is field and wrapped.coeffs == tuple(raw)
        with pytest.raises(AttributeError):
            wrapped.coeffs = (1,)


def test_equality_with_a_foreign_field_scalar_is_false():
    # Like Poly against Poly and FieldElem against FieldElem: unequal, no raise.
    f = Poly(F5, [3])
    assert f == F5(3) and f == 3 and f == 8
    assert not f == F7(3) and f != F7(3) and F7(3) != f
    assert Poly(F5, [3]) != Poly(F7, [3])
    with pytest.raises(FieldMismatch):
        f + F7(3)


@pytest.mark.parametrize("p", [2, 7, (1 << 61) - 1])
def test_reflected_operators_match_residue_arithmetic(p):
    field = PrimeField(p)
    rng = random.Random(p)
    for _ in range(20):
        r = rng.randrange(1, p)
        x = field(r)
        assert (3 - x).residue == (3 - r) % p
        assert (1 / x).residue == pow(r, -1, p)
        assert (x ** -2).residue == pow(r * r, -1, p)
        f = rand_poly(rng, field, 4)
        k = rng.randrange(-p, 2 * p)
        want = [-c % p for c in f.coeffs] or [0]
        want[0] = (want[0] + k) % p
        assert (k - f).coeffs == tuple(_trim(want))
