"""Dense univariate polynomial algebra over a prime field.

A ``Poly`` owns an immutable, normalized coefficient tuple (index i holds
the coefficient of X^i; the tuple is empty for the zero polynomial and
never ends in 0 otherwise) together with its ``PrimeField``. The degree of
the zero polynomial is the sentinel ``ZERO_DEGREE`` (minus infinity), which
compares below every integer but poisons arithmetic instead of silently
acting like -1.

Module-level helpers (``gcd``, ``xgcd``, ``pow_mod``) operate on Poly
values; the underscore-prefixed kernels work on raw coefficient lists and
carry the performance-sensitive inner loops.

Only this module packs coefficients into ints (von zur Gathen & Gerhard, Modern
Computer Algebra, 8.4). ``_mul`` is Kronecker substitution (slots for min(len a,
len b)·(p−1)², one multiply in C) but for pairs too short to repay it. ``_linear_map``
(v -> sum v_i·rows[i], one packed int per row) is factor's Frobenius and, for f of
degree 6 to 8, ``_reducer`` (rows X^i mod f, i < 2n − 1); from the size switch on
``_reducer`` uses the Newton inverse of reversed f (ibid., 9.1).

Text grammar (both directions, bit-exact): a polynomial is either a
comma-separated low-to-high coefficient list ("1,0,3") or a symbolic sum
("3*X^2+1"). The printer emits the symbolic form with descending powers
and coefficients reduced to [0, p).
"""

from __future__ import annotations

import re
import sys
from array import array
from operator import mul
from typing import Iterable, Sequence

from .errors import (BothZero, FieldMismatch, ParseError, PreconditionViolated,
                     ZeroPolynomial)
from .ff import FieldElem, PrimeField

ZERO_DEGREE = float("-inf")

# Modulus degree from which _reducer takes the Newton inverse, not the packed remainder
# table, and factor's irreducibility test runs Ben-Or, not Berlekamp's count.
_SIZE_SWITCH = 9

_BYTE_ORDER = sys.byteorder
_ARRAY_CODES = {array(code).itemsize: code for code in "QIHB"}


# ---------------------------------------------------------------------------
# Raw kernels on normalized coefficient lists (low-to-high, ints in [0, p)).


def _trim(c: list[int]) -> list[int]:
    while c and not c[-1]:
        c.pop()
    return c


def _add(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, bi in enumerate(b):
        out[i] = (out[i] + bi) % p
    return _trim(out)


def _sub(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    out = list(a) + [0] * (len(b) - len(a))
    for i, bi in enumerate(b):
        out[i] = (out[i] - bi) % p
    return _trim(out)


def _slot_bytes(terms: int, p: int) -> int:
    # Bytes per Kronecker slot that hold a sum of `terms` products, no carry.
    k = ((terms * (p - 1) ** 2).bit_length() + 7) // 8
    return k if k > 8 else 1 << (k - 1).bit_length()


def _pack(a: Sequence[int], k: int) -> int:
    # The int sum a_i * 256^(k*i), residues a_i in [0, p).
    if k <= 8:
        return int.from_bytes(array(_ARRAY_CODES[k], a).tobytes(), _BYTE_ORDER)
    return int.from_bytes(b"".join(c.to_bytes(k, _BYTE_ORDER) for c in a), _BYTE_ORDER)


def _unpack(x: int, k: int, n: int, p: int) -> list[int]:
    # The n slots of x, each reduced mod p; the inverse of _pack, untrimmed.
    raw = x.to_bytes(k * n, _BYTE_ORDER)
    if k <= 8:
        return [v % p for v in array(_ARRAY_CODES[k], raw)]
    return [int.from_bytes(raw[i : i + k], _BYTE_ORDER) % p for i in range(0, k * n, k)]


def _mul(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    if not a or not b:
        return []
    la, lb = len(a), len(b)
    # Schoolbook/Kronecker time, CPython 3.11, p = 10007: 2x16 1.0, 3x12 1.1, 5x6 1.2,
    # 8x8 1.8, 2x65 1.7; slots over 8 bytes pack slowly, p = 2^61 - 1: 8x8 1.0,
    # 10x10 0.7, 12x12 1.2, 5x65 1.0, 8x65 1.3.
    if la * lb < 30 or la * lb < 5 * (la + lb) and _slot_bytes(min(la, lb), p) > 8:
        out = [0] * (la + lb - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return _trim([v % p for v in out])
    k = _slot_bytes(min(la, lb), p)
    x = _pack(a, k)
    y = x if a is b else _pack(b, k)
    return _trim(_unpack(x * y, k, la + lb - 1, p))


def _mul_scalar(a: Sequence[int], s: int, p: int) -> list[int]:
    s %= p
    if s == 0:
        return []
    return [ai * s % p for ai in a]


def _divmod(a: Sequence[int], b: Sequence[int], p: int) -> tuple[list[int], list[int]]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if len(a) < len(b):
        return [], list(a)
    inv_lc = pow(b[-1], -1, p)
    rem = list(a)
    nb = len(b)
    quot = [0] * (len(a) - nb + 1)
    for i in range(len(a) - nb, -1, -1):
        if len(rem) == i + nb:
            q = rem[-1] * inv_lc % p
            quot[i] = q
            if q:
                for j in range(nb - 1):
                    rem[i + j] = (rem[i + j] - q * b[j]) % p
            rem.pop()
            _trim(rem)
    return quot, rem


def _times_x(g: list[int], f: Sequence[int], p: int, times: int = 1) -> list[int]:
    # X^times * g mod f, f monic, g reduced: one shift step of O(deg f) per power.
    n = len(f) - 1
    for _ in range(times):
        t = g[-1] if len(g) == n else 0
        g = [0, *g[: n - 1]]
        if t:  # t * X^n = -t * (f - X^n) mod f
            g = [(gi - t * fi) % p for gi, fi in zip(g, f)]
    return _trim(g)


def _linear_map(rows: Sequence[Sequence[int]], p: int):
    # v -> sum v_i * rows[i] mod p, trimmed; each row is one Kronecker int with slots
    # for len(rows) products.
    n = max(map(len, rows), default=0)  # the output width
    k = _slot_bytes(len(rows), p)
    ints = [_pack(r, k) for r in rows]
    return lambda v: _trim(_unpack(sum(map(mul, v, ints)), k, n, p))


def _reducer(f: Sequence[int], p: int):
    # a -> a mod f. If n < len a < 2n: from the switch on, the inverse of reversed f;
    # for 6 <= n below it, the linear map of X^i mod f, i < 2n - 1 (1.3-2.2x division).
    f = _monic(f, p)
    n = len(f) - 1
    table = None
    inv = [1]
    prec = 1
    while n >= _SIZE_SWITCH and prec < n - 1:
        prec = min(2 * prec, n - 1)
        err = _mul(_mul(inv, inv, p), f[: n - prec : -1], p)[:prec]
        inv = _sub(_mul_scalar(inv, 2, p), err, p)

    def rem(a: Sequence[int]) -> list[int]:
        nonlocal table
        m = len(a) - n
        if n < 6 or not 0 < m < n:
            return _divmod(a, f, p)[1]
        if n >= _SIZE_SWITCH:
            q_rev = _mul(a[: n - 1 : -1], inv[:m], p)[:m]
            q = [0] * (m - len(q_rev)) + q_rev[::-1]
            return _sub(a[:n], _mul(q, f, p)[:n], p)
        if table is None:
            rows = [[0] * i + [1] for i in range(n)]
            for _ in range(n - 1):
                rows.append(_times_x(rows[-1], f, p))
            table = _linear_map(rows, p)
        return table(a)

    return rem


def _monic(a: Sequence[int], p: int) -> list[int]:
    if not a or a[-1] == 1:
        return list(a)
    return _mul_scalar(a, pow(a[-1], -1, p), p)


def _gcd(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    while b:
        a, b = b, _divmod(a, b, p)[1]
    return _monic(a, p)


def _xgcd(a, b, p):
    s, s1 = [1], []
    t, t1 = [], [1]
    while b:
        q, r = _divmod(a, b, p)
        a, b = b, r
        s, s1 = s1, _sub(s, _mul(q, s1, p), p)
        t, t1 = t1, _sub(t, _mul(q, t1, p), p)
    if a:
        inv_lc = pow(a[-1], -1, p)
        a = _mul_scalar(a, inv_lc, p)
        s = _mul_scalar(s, inv_lc, p)
        t = _mul_scalar(t, inv_lc, p)
    return a, s, t


def _pow_mod(base: Sequence[int], k: int, rem, p: int) -> list[int]:
    # rem is a prebuilt _reducer of the modulus, so callers reuse its inverse.
    result = rem([1])
    acc = rem(base)
    while k:
        if k & 1:
            result = rem(_mul(result, acc, p))
        k >>= 1
        if k:
            acc = rem(_mul(acc, acc, p))
    return result


def _compose_mod(outer, inner, modulus, p):
    # outer(inner) mod modulus by Horner; only benchmarks/tracing.py binds it.
    rem = _reducer(modulus, p)
    result: list[int] = []
    for coeff in reversed(list(outer)):
        result = rem(_mul(result, inner, p))
        if coeff:
            result = _add(result, [coeff], p)
    return result


def _deriv(a: Sequence[int], p: int) -> list[int]:
    return _trim([i * ai % p for i, ai in enumerate(a)][1:])


def _eval(a: Sequence[int], x: int, p: int) -> int:
    acc = 0
    for coeff in reversed(list(a)):
        acc = (acc * x + coeff) % p
    return acc


# ---------------------------------------------------------------------------
# The Poly value type.


class Poly:
    """An immutable dense polynomial over a PrimeField."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: PrimeField, coeffs: Iterable[int | FieldElem] = ()):
        p = field.modulus
        raw = [int(c) % p for c in coeffs]
        _trim(raw)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", tuple(raw))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors

    @classmethod
    def zero(cls, field: PrimeField) -> Poly:
        return cls(field, ())

    @classmethod
    def one(cls, field: PrimeField) -> Poly:
        return cls(field, (1,))

    @classmethod
    def x(cls, field: PrimeField) -> Poly:
        return cls(field, (0, 1))

    @classmethod
    def constant(cls, field: PrimeField, c: int | FieldElem) -> Poly:
        return cls(field, (int(c),))

    @classmethod
    def linear(cls, field: PrimeField, root: int | FieldElem) -> Poly:
        """The monic polynomial X - root."""
        return cls(field, (-int(root), 1))

    # -- structure

    @property
    def degree(self) -> int | float:
        """Degree, or ZERO_DEGREE (-inf) for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else ZERO_DEGREE

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return self.coeffs == (1,)

    def lc(self) -> FieldElem:
        """Leading coefficient (zero for the zero polynomial)."""
        return self.field(self.coeffs[-1] if self.coeffs else 0)

    def monic(self) -> Poly:
        return self._wrap(_monic(self.coeffs, self.field.modulus))

    def _wrap(self, raw: list[int]) -> Poly:
        out = object.__new__(Poly)
        object.__setattr__(out, "field", self.field)
        object.__setattr__(out, "coeffs", tuple(raw))
        return out

    def _coerce(self, other) -> tuple[int, ...] | None:
        if isinstance(other, Poly):
            if other.field != self.field:
                raise FieldMismatch("polynomials over different fields")
            return other.coeffs
        if isinstance(other, FieldElem):
            if other.field != self.field:
                raise FieldMismatch("scalar from a different field")
            return (other.residue,) if other.residue else ()
        if isinstance(other, int):
            r = other % self.field.modulus
            return (r,) if r else ()
        return None

    # -- ring operations

    def __add__(self, other):
        oc = self._coerce(other)
        if oc is None:
            return NotImplemented
        return self._wrap(_add(self.coeffs, oc, self.field.modulus))

    __radd__ = __add__

    def __sub__(self, other):
        oc = self._coerce(other)
        if oc is None:
            return NotImplemented
        return self._wrap(_sub(self.coeffs, oc, self.field.modulus))

    def __rsub__(self, other):
        oc = self._coerce(other)
        if oc is None:
            return NotImplemented
        return self._wrap(_sub(oc, self.coeffs, self.field.modulus))

    def __mul__(self, other):
        oc = self._coerce(other)
        if oc is None:
            return NotImplemented
        return self._wrap(_mul(self.coeffs, oc, self.field.modulus))

    __rmul__ = __mul__

    def __neg__(self):
        return self._wrap([(-c) % self.field.modulus for c in self.coeffs])

    def __divmod__(self, other):
        oc = self._coerce(other)
        if oc is None:
            return NotImplemented
        q, r = _divmod(self.coeffs, oc, self.field.modulus)
        return self._wrap(q), self._wrap(r)

    def __floordiv__(self, other):
        qr = self.__divmod__(other)
        return qr[0] if qr is not NotImplemented else NotImplemented

    def __mod__(self, other):
        qr = self.__divmod__(other)
        return qr[1] if qr is not NotImplemented else NotImplemented

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        result = Poly.one(self.field)
        acc = self
        while k:
            if k & 1:
                result = result * acc
            k >>= 1
            if k:
                acc = acc * acc
        return result

    def derivative(self) -> Poly:
        """Formal derivative; exponents divisible by p drop out."""
        return self._wrap(_deriv(self.coeffs, self.field.modulus))

    def __call__(self, x: int | FieldElem) -> FieldElem:
        """Horner evaluation; empty polynomial evaluates to 0."""
        xr = int(self.field(x))
        return self.field(_eval(self.coeffs, xr, self.field.modulus))

    # -- comparisons / hashing

    def __eq__(self, other):
        if isinstance(other, Poly):
            return other.field == self.field and other.coeffs == self.coeffs
        if isinstance(other, (int, FieldElem)):
            return self.coeffs == self._coerce(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.field.modulus, self.coeffs))

    def __bool__(self):
        return bool(self.coeffs)

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"Poly(F{self.field.modulus}, {format_poly(self)})"


# ---------------------------------------------------------------------------
# Module-level algebra on Poly values.


def gcd(f: Poly, g: Poly) -> Poly:
    """Monic greatest common divisor; BothZero if f = g = 0."""
    if f.field != g.field:
        raise FieldMismatch("gcd of polynomials over different fields")
    if f.is_zero() and g.is_zero():
        raise BothZero("gcd(0, 0) is undefined")
    return f._wrap(_gcd(f.coeffs, g.coeffs, f.field.modulus))


def xgcd(f: Poly, g: Poly) -> tuple[Poly, Poly, Poly]:
    """Extended Euclid: returns (g0, u, v) with u*f + v*g = g0, g0 monic."""
    if f.field != g.field:
        raise FieldMismatch("xgcd of polynomials over different fields")
    if f.is_zero() and g.is_zero():
        raise BothZero("xgcd(0, 0) is undefined")
    d, u, v = _xgcd(f.coeffs, g.coeffs, f.field.modulus)
    return f._wrap(d), f._wrap(u), f._wrap(v)


def pow_mod(base: Poly, k: int, modulus: Poly) -> Poly:
    """base^k reduced modulo a nonzero polynomial, for k >= 0."""
    if k < 0:
        raise PreconditionViolated(f"pow_mod needs k >= 0, got {k}")
    if base.field != modulus.field:
        raise FieldMismatch("pow_mod operands over different fields")
    if modulus.is_zero():
        raise ZeroDivisionError("pow_mod modulus is zero")
    p = base.field.modulus
    return base._wrap(_pow_mod(base.coeffs, k, _reducer(modulus.coeffs, p), p))


def is_separable(f: Poly) -> bool:
    """True iff gcd(f, f') = 1; constants count as separable.

    A nonconstant polynomial with vanishing derivative is a p-th power,
    hence inseparable.
    """
    if f.is_zero():
        raise ZeroPolynomial("separability of the zero polynomial is undefined")
    if f.degree == 0:
        return True
    fp = f.derivative()
    if fp.is_zero():
        return False
    return gcd(f, fp).is_one()


# ---------------------------------------------------------------------------
# Text grammar.

_TERM_RE = re.compile(
    r"^(?:(?P<coeff>[+-]?\d+)\*?)?(?:[Xx](?:\^(?P<exp>\d+))?)?$"
)


# "X^k" costs a dense list of k + 1 coefficients, so parse_poly bounds k.
_MAX_EXPONENT = 1 << 20


def parse_poly(field: PrimeField, text: str) -> Poly:
    """Parse "1,0,3" (low-to-high coefficients) or "3*X^2+1" (exponents <= 2^20)."""
    s = text.strip()
    if not s:
        raise ParseError("empty polynomial text")
    if "," in s:
        try:
            coeffs = [int(part) for part in s.split(",")]
        except ValueError as exc:
            raise ParseError(f"bad coefficient list {text!r}") from exc
        return Poly(field, coeffs)
    compact = s.replace(" ", "")
    # Split into signed terms; normalize a leading bare sign.
    pieces = re.split(r"(?=[+-])", compact)
    coeffs: dict[int, int] = {}
    for piece in pieces:
        if piece in ("", "+", "-"):
            if piece:
                raise ParseError(f"dangling sign in {text!r}")
            continue
        sign = 1
        body = piece
        if body[0] in "+-":
            sign = -1 if body[0] == "-" else 1
            body = body[1:]
        m = _TERM_RE.match(body)
        if not m or (m.group("coeff") is None and "X" not in body.upper()):
            raise ParseError(f"bad term {piece!r} in {text!r}")
        try:
            coeff = int(m.group("coeff") or 1)
            exp = int(m.group("exp") or 1) if "X" in body.upper() else 0
        except ValueError as exc:  # more digits than int() converts
            raise ParseError(f"bad term {piece!r} in {text!r}") from exc
        if exp > _MAX_EXPONENT:
            raise ParseError(f"exponent {exp} exceeds {_MAX_EXPONENT} in {text!r}")
        coeffs[exp] = coeffs.get(exp, 0) + sign * coeff
    top = max(coeffs, default=0)
    dense = [coeffs.get(i, 0) for i in range(top + 1)]
    return Poly(field, dense)


def format_poly(f: Poly) -> str:
    """Symbolic form, descending powers, coefficients in [0, p)."""
    if f.is_zero():
        return "0"
    parts = []
    for i in range(len(f.coeffs) - 1, -1, -1):
        c = f.coeffs[i]
        if not c:
            continue
        if i == 0:
            parts.append(str(c))
        elif i == 1:
            parts.append("X" if c == 1 else f"{c}*X")
        else:
            parts.append(f"X^{i}" if c == 1 else f"{c}*X^{i}")
    return "+".join(parts)
