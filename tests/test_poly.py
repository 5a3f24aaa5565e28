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
from progressio.poly import (
    _SIZE_SWITCH,
    Poly,
    _compose_mod,
    _linear_map,
    _reducer,
    _slot_bytes,
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


def test_xgcd_bezout_random():
    rng = random.Random(5)
    for _ in range(200):
        field = (F2, F3, F5)[rng.randrange(3)]
        f = rand_poly(rng, field, rng.randrange(0, 9))
        g = rand_poly(rng, field, rng.randrange(0, 9))
        if f.is_zero() and g.is_zero():
            continue
        g0, u, v = xgcd(f, g)
        assert u * f + v * g == g0
        assert g0.is_zero() or g0.lc() == 1
        if not g0.is_zero():
            assert (f % g0).is_zero() and (g % g0).is_zero()
        assert gcd(f, g) == gcd(g, f) if not (f.is_zero() or g.is_zero()) else True


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
    # long operands of unequal length, far above the size switch
    rng = random.Random(29)
    field = PrimeField(101)
    for _ in range(8):
        f = rand_poly(rng, field, 150 + rng.randrange(60))
        g = rand_poly(rng, field, 90 + rng.randrange(120))
        assert f * g == naive_mul(f, g)


KERNEL_MODULI = (2, 3, 101, 10007, (1 << 61) - 1)


def test_mul_matches_convolution_across_the_size_switch():
    # Lengths on both sides of the multiply crossover (la*lb = 30 with slots of up
    # to 8 bytes, la*lb = 5(la + lb) with wider ones, as at 2^61 - 1), unbalanced
    # pairs such as 2 x 128 and 5 x 65, and squares (one packed operand).
    rng = random.Random(37)
    lengths = [1, 2, 4, 5, 6, _SIZE_SWITCH - 1, _SIZE_SWITCH, _SIZE_SWITCH + 1, 64, 128, 300]
    crossover = [(2, 14), (2, 15), (3, 10), (5, 6), (4, 8), (5, 65), (65, 5), (4, 65),
                 (8, 65), (8, 8), (10, 10), (12, 12), (6, 30), (6, 31)]
    for p in KERNEL_MODULI:
        field = PrimeField(p)
        pairs = [(2, 128), (128, 2), (_SIZE_SWITCH, 300)] + crossover + [
            (rng.choice(lengths), rng.choice(lengths)) for _ in range(6)
        ]
        for la, lb in pairs:
            f = rand_poly(rng, field, la - 1)
            g = rand_poly(rng, field, lb - 1)
            assert f * g == naive_mul(f, g), (p, la, lb)
        f = rand_poly(rng, field, 150)
        assert f * f == naive_mul(f, f)
        for n in (5, 6, _SIZE_SWITCH, 64, 200):
            top = Poly(field, [p - 1] * n)  # every slot at its largest sum
            assert top * top == naive_mul(top, top)
        for terms in range(1, 1000):
            k = _slot_bytes(terms, p)
            assert 256**k > terms * (p - 1) ** 2 and (k in (1, 2, 4, 8) or k > 8)


def test_divmod_identity_below_and_above_the_switch():
    rng = random.Random(41)
    for p in KERNEL_MODULI:
        field = PrimeField(p)
        for deg_b in (1, _SIZE_SWITCH - 1, _SIZE_SWITCH, 40, 130):
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
    # Every input length 0..2n+1 for f of degree 1..8, monic or not: the table serves
    # 6 <= n < len a < 2n, long division the rest. Inputs of all p - 1 fill each slot
    # to (p - 1) + (n - 1)(p - 1)^2.
    rng = random.Random(47)
    for p in KERNEL_MODULI:
        field = PrimeField(p)
        for n in range(1, _SIZE_SWITCH):
            moduli = [[rng.randrange(p) for _ in range(n)] + [1], [p - 1] * n + [1]]
            if p > 2:
                moduli += [[rng.randrange(p) for _ in range(n)] + [rng.randrange(2, p)],
                           [p - 1] * (n + 1)]
            for f in moduli:
                rem = _reducer(f, p)
                for length in range(2 * n + 2):
                    for a in ([rng.randrange(p) for _ in range(length)], [p - 1] * length):
                        want = divmod(Poly(field, a), Poly(field, f))[1]
                        assert Poly(field, rem(a)) == want, (p, f, length)


def test_remainder_table_for_any_lead_and_only_when_used(monkeypatch):
    # The table is built on the first input with 8 < len a < 16: the 7 rows
    # X^8..X^14 mod f by shift steps, for a monic and a non-monic f alike, and
    # the identity rows X^0..X^7 without one.
    import progressio.poly as pmod

    built = []
    times_x = pmod._times_x
    monkeypatch.setattr(pmod, "_times_x", lambda *args: built.append(1) or times_x(*args))
    rng = random.Random(53)
    for p in KERNEL_MODULI:
        field = PrimeField(p)
        for lead in (1, 2) if p > 2 else (1,):
            f = [rng.randrange(p) for _ in range(8)] + [lead]
            rem = _reducer(f, p)
            for length in (0, 3, 8, 16, 17, 40):  # none with 8 < length < 16
                a = [rng.randrange(p) for _ in range(length - 1)] + [1] if length else []
                assert Poly(field, rem(a)) == divmod(Poly(field, a), Poly(field, f))[1]
            assert not built, (p, lead)
            for length in (15, 9, 12):
                a = [rng.randrange(p) for _ in range(length - 1)] + [1]
                assert Poly(field, rem(a)) == divmod(Poly(field, a), Poly(field, f))[1]
                assert len(built) == 7, (p, lead, length)  # built once
            built.clear()


def test_pow_mod_matches_repeated_multiplication():
    rng = random.Random(43)
    for p in KERNEL_MODULI:
        field = PrimeField(p)
        for deg_m in (3, _SIZE_SWITCH, 33):
            m = Poly(field, [rng.randrange(p) for _ in range(deg_m)] + [1])
            base = rand_poly(rng, field, deg_m + 5)
            acc = Poly.one(field)
            for k in range(12):
                assert pow_mod(base, k, m) == acc % m, (p, deg_m, k)
                acc = naive_mul(acc, base) % m


@st.composite
def _operands(draw):
    p = draw(st.sampled_from(KERNEL_MODULI))
    coeffs = st.lists(st.integers(0, p - 1), max_size=3 * _SIZE_SWITCH)
    a, b = draw(coeffs), draw(coeffs)
    b.append(draw(st.integers(1, p - 1)))  # a nonzero modulus
    return PrimeField(p), a, b


@settings(max_examples=150, deadline=None)
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
    assert Poly(F5, _compose_mod(g.coeffs, h.coeffs, f.coeffs, 5)) == direct


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
    with pytest.raises(AttributeError):
        f.coeffs = ()
