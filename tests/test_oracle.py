import time

import pytest

from progressio import (
    PrimeField,
    count_irreducibles,
    enumerate_irreducibles,
    naive_factor,
    naive_mul,
    parse_poly,
)
from progressio.errors import TooLarge, ZeroPolynomial
from progressio.poly import Poly

F2 = PrimeField(2)
F5 = PrimeField(5)


def test_naive_mul_examples():
    f = parse_poly(F2, "X+1")
    assert naive_mul(f, f) == parse_poly(F2, "X^2+1")
    assert naive_mul(f, Poly.zero(F2)).is_zero()
    assert naive_mul(parse_poly(F5, "X+2"), parse_poly(F5, "X+3")) == parse_poly(
        F5, "X^2+1"
    )


def test_enumerate_irreducibles_examples():
    assert enumerate_irreducibles(2, 3) == [
        parse_poly(F2, "X^3+X+1"),
        parse_poly(F2, "X^3+X^2+1"),
    ]
    assert enumerate_irreducibles(5, 1) == [Poly(F5, [c, 1]) for c in range(5)]
    for p, n in ((2, 6), (3, 5), (5, 3)):
        assert len(enumerate_irreducibles(p, n)) == count_irreducibles(p, n)


def test_enumerate_guard():
    with pytest.raises(TooLarge):
        enumerate_irreducibles(101, 4)
    start = time.perf_counter()
    with pytest.raises(TooLarge, match=r"^3\^100000000 exceeds the sieve guard"):
        enumerate_irreducibles(3, 10**8)
    assert time.perf_counter() - start < 1.0


def test_naive_factor_examples():
    result = naive_factor(parse_poly(F5, "X^2+1"))
    assert result.factors == (
        (parse_poly(F5, "X+2"), 1),
        (parse_poly(F5, "X+3"), 1),
    )
    irr = parse_poly(F2, "X^3+X+1")
    assert naive_factor(irr).factors == ((irr, 1),)
    assert naive_factor(Poly.constant(F5, 2)).unit == 2


def test_naive_factor_multiplicities_and_unit():
    f = parse_poly(F5, "2,1") ** 3 * 4  # 4*(X+2)^3
    result = naive_factor(f)
    assert result.unit == 4
    assert result.factors == ((parse_poly(F5, "X+2"), 3),)
    assert result.expand() == f


def test_naive_factor_guards():
    with pytest.raises(ZeroPolynomial):
        naive_factor(Poly.zero(F5))
    with pytest.raises(TooLarge):
        naive_factor(Poly(PrimeField(101), list(range(1, 6))))
