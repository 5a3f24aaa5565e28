"""Arithmetic in prime fields F_p for p < 2^61.

A ``PrimeField`` checks its modulus against 2^61 before a deterministic
Miller-Rabin test, whose cost grows with the number tested; silent use of a
composite modulus would make every downstream construction wrong without any
visible failure. Elements are immutable ``FieldElem`` values; all operations
are pure, so values can be shared freely across threads and processes.

Convention: ``x ** 0 == 1`` for every x, including x == 0, so polynomial
evaluation treats constant terms uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FieldMismatch, NotPrime, OutOfRange

MAX_MODULUS = 1 << 61

# Proves every n < 318665857834031151167461 (about 3.2e23, a strong pseudoprime to all).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for n < 2^64."""
    if n < 2:
        return False
    for small in _MR_BASES:
        if n % small == 0:
            return n == small
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """The field F_p of integers modulo a prime p, 2 <= p < 2^61."""

    __slots__ = ("modulus",)

    def __init__(self, modulus: int):
        bits = modulus.bit_length() if isinstance(modulus, int) else 0  # names a long int
        if isinstance(modulus, int) and modulus >= MAX_MODULUS:
            raise OutOfRange(f"modulus must be < 2^61, got {bits} bits")
        if not isinstance(modulus, int) or not is_prime(modulus):
            raise NotPrime(f"{modulus if bits <= 64 else f'a {bits}-bit int'} is not prime")
        object.__setattr__(self, "modulus", modulus)

    @property
    def characteristic(self) -> int:
        return self.modulus

    def __setattr__(self, name, value):
        raise AttributeError("PrimeField is immutable")

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.modulus == self.modulus

    def __hash__(self):
        return hash(("PrimeField", self.modulus))

    def __repr__(self):
        return f"PrimeField({self.modulus})"

    def __call__(self, value: int | FieldElem) -> FieldElem:
        """Coerce an integer (any sign) or element into this field."""
        if isinstance(value, FieldElem):
            if value.field != self:
                raise FieldMismatch(f"element of {value.field} used in {self}")
            return value
        return FieldElem(value % self.modulus, self)

    def inv(self, x: FieldElem | int) -> FieldElem:
        """Multiplicative inverse; raises ZeroDivisionError at zero."""
        r = x.residue if isinstance(x, FieldElem) else x % self.modulus
        if r == 0:
            raise ZeroDivisionError("inverse of zero in a prime field")
        return FieldElem(pow(r, -1, self.modulus), self)

    def pow(self, x: FieldElem | int, k: int) -> FieldElem:
        """x^k for k >= 0, with 0^0 == 1."""
        if k < 0:
            return self.inv(self.pow(x, -k))
        r = x.residue if isinstance(x, FieldElem) else x % self.modulus
        return FieldElem(pow(r, k, self.modulus), self)


@dataclass(frozen=True, slots=True)
class FieldElem:
    """An element of a specific PrimeField, held as a residue in [0, p)."""

    residue: int
    field: PrimeField

    def _coerce(self, other) -> int:
        if isinstance(other, FieldElem):
            if other.field != self.field:
                raise FieldMismatch(f"{other.field} element mixed into {self.field}")
            return other.residue
        if isinstance(other, int):
            return other % self.field.modulus
        return NotImplemented

    def __add__(self, other):
        r = self._coerce(other)
        if r is NotImplemented:
            return NotImplemented
        return FieldElem((self.residue + r) % self.field.modulus, self.field)

    __radd__ = __add__

    def __sub__(self, other):
        r = self._coerce(other)
        if r is NotImplemented:
            return NotImplemented
        return FieldElem((self.residue - r) % self.field.modulus, self.field)

    def __rsub__(self, other):
        r = self._coerce(other)
        if r is NotImplemented:
            return NotImplemented
        return FieldElem((r - self.residue) % self.field.modulus, self.field)

    def __mul__(self, other):
        r = self._coerce(other)
        if r is NotImplemented:
            return NotImplemented
        return FieldElem(self.residue * r % self.field.modulus, self.field)

    __rmul__ = __mul__

    def __truediv__(self, other):
        r = self._coerce(other)
        if r is NotImplemented:
            return NotImplemented
        if r == 0:
            raise ZeroDivisionError("division by zero field element")
        p = self.field.modulus
        return FieldElem(self.residue * pow(r, -1, p) % p, self.field)

    def __rtruediv__(self, other):
        r = self._coerce(other)
        if r is NotImplemented:
            return NotImplemented
        return FieldElem(r, self.field) / self

    def __neg__(self):
        return FieldElem(-self.residue % self.field.modulus, self.field)

    def __pow__(self, k: int):
        return self.field.pow(self, k)

    def inv(self) -> FieldElem:
        return self.field.inv(self)

    def __eq__(self, other):
        if isinstance(other, FieldElem):
            return other.field == self.field and other.residue == self.residue
        if isinstance(other, int):
            return self.residue == other % self.field.modulus
        return NotImplemented

    def __hash__(self):
        return hash((self.residue, self.field.modulus))

    def __bool__(self):
        return self.residue != 0

    def __int__(self):
        return self.residue

    def __str__(self):
        # External form: plain decimal residue in [0, p).
        return str(self.residue)

    def __repr__(self):
        return f"FieldElem({self.residue} mod {self.field.modulus})"
