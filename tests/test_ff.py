import random
import time

import pytest

from progressio import PrimeField, is_prime
from progressio.errors import FieldMismatch, NotPrime, OutOfRange

MERSENNE61 = (1 << 61) - 1  # largest supported prime
BIG_PRIME_OVER_LIMIT = (1 << 61) + 15  # prime, but past the modulus bound


def test_field_new_basic():
    assert PrimeField(7).modulus == 7
    assert PrimeField(2).modulus == 2
    assert PrimeField(MERSENNE61).characteristic == MERSENNE61


def test_field_new_rejects_composite():
    with pytest.raises(NotPrime):
        PrimeField(6)
    with pytest.raises(NotPrime):
        PrimeField(1)
    with pytest.raises(NotPrime):
        PrimeField(0)
    with pytest.raises(NotPrime):
        PrimeField(-7)


def test_field_new_rejects_oversized():
    assert is_prime(BIG_PRIME_OVER_LIMIT)
    with pytest.raises(OutOfRange):
        PrimeField(BIG_PRIME_OVER_LIMIT)


def test_field_new_checks_the_range_before_primality():
    # Miller-Rabin took seconds on 10^4000 + 1; the range check refuses it first. The
    # message names the bit length, as 1 << 20000 is past int-to-str's digit limit.
    start = time.perf_counter()
    with pytest.raises(OutOfRange):
        PrimeField(10**4000 + 1)
    with pytest.raises(OutOfRange, match="20001 bits"):
        PrimeField(1 << 20000)
    assert time.perf_counter() - start < 0.1


def test_field_new_names_a_long_composite_by_its_bit_length():
    # -(10^5000) has more digits than int-to-str prints, so the message gives its bits.
    start = time.perf_counter()
    with pytest.raises(NotPrime, match="16610-bit"):
        PrimeField(-(10**5000))
    assert time.perf_counter() - start < 0.1
    with pytest.raises(NotPrime, match="^9 is not prime$"):
        PrimeField(9)
    with pytest.raises(NotPrime, match="^-7 is not prime$"):
        PrimeField(-7)


def test_is_prime_small_table():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in primes)


@pytest.mark.parametrize("n, refusal", [
    (1763, NotPrime),  # 41 * 43: no factor the trial division reaches
    (3215031751, NotPrime),  # strong pseudoprime to bases 2, 3, 5, 7
    (341550071728321, NotPrime),  # strong pseudoprime to bases 2 through 19
    (3825123056546413051, OutOfRange),  # psi_11: passes every base up to 31, not 37
])
def test_miller_rabin_refutes_composites_without_small_factors(n, refusal):
    assert all(n % q for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37))
    assert not is_prime(n)
    with pytest.raises(refusal):
        PrimeField(n)


def test_inverse_examples():
    F7 = PrimeField(7)
    assert F7.inv(3) == F7(5)
    assert F7.inv(F7(1)) == 1
    with pytest.raises(ZeroDivisionError):
        PrimeField(5).inv(0)


def test_inverse_exhaustive():
    F = PrimeField(97)
    for x in range(1, 97):
        assert int(F.inv(x)) * x % 97 == 1


def test_pow_examples():
    F7 = PrimeField(7)
    F5 = PrimeField(5)
    assert F7.pow(3, 6) == 1
    assert F5.pow(2, 0) == 1
    assert F5.pow(2, 4) == 1
    assert F5.pow(0, 0) == 1  # 0^0 = 1 by convention


def test_frobenius_fixes_field():
    for p in (2, 3, 5, 13):
        F = PrimeField(p)
        for x in range(p):
            assert F.pow(x, p) == x


def test_elem_arithmetic_laws():
    rng = random.Random(11)
    for p in (2, 101, MERSENNE61):
        F = PrimeField(p)
        for _ in range(50):
            x, y, z = (F(rng.randrange(p)) for _ in range(3))
            assert x + y == y + x
            assert x * y == y * x
            assert (x + y) + z == x + (y + z)
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
            assert x - y == -(y - x)


def test_elem_division_and_neg():
    F = PrimeField(13)
    x = F(9)
    assert x / x == 1
    assert (x / F(4)) * F(4) == x
    assert int(-F(0)) == 0
    with pytest.raises(ZeroDivisionError):
        x / F(0)


def test_field_mismatch_rejected():
    x = PrimeField(7)(3)
    y = PrimeField(11)(3)
    with pytest.raises(FieldMismatch):
        x + y
    with pytest.raises(FieldMismatch):
        PrimeField(7)(y)


def test_elem_int_coercion_and_serial_form():
    F = PrimeField(7)
    assert F(-1) == 6
    assert str(F(6)) == "6"
    assert int(F(20)) == 6
    assert F(3) + 11 == F(0)


def test_elem_hashable_and_frozen():
    F = PrimeField(7)
    s = {F(1), F(1), F(2)}
    assert len(s) == 2
    with pytest.raises(Exception):
        F(1).residue = 3
