"""Dense univariate polynomial algebra over a prime field.

A ``Poly`` owns an immutable, normalized coefficient tuple (index i holds
the coefficient of X^i; the tuple is empty for the zero polynomial and
never ends in 0 otherwise) together with its ``PrimeField``. The degree of
the zero polynomial is the sentinel ``ZERO_DEGREE`` (minus infinity), which
compares below every integer but poisons arithmetic instead of silently
acting like -1.

Module-level helpers (``gcd``, ``xgcd``, ``pow_mod``) operate on Poly values; the
underscore-prefixed kernels work on raw coefficient lists and carry the
performance-sensitive inner loops.

Only this module packs coefficients into ints (von zur Gathen & Gerhard, Modern Computer
Algebra, 8.4). ``_mul`` is Kronecker substitution (slots for min(len a, len b)·(p−1)²,
one multiply in C) but for pairs too short to repay it. ``_linear_map`` (v -> sum
v_i·rows[i], one packed int per row) is factor's Frobenius on the rows X^(i·p) mod f of
``_frobenius_rows``: one mulmod by X^p per row where the kernel's slots are at most 4
bytes (every p <= 19 to degree 128), else the map g -> X^p·g. ``_reducer`` gives a -> a
mod f and a, b, ... -> a·b·... mod f by ``_barrett``'s packed mulmod (by X^(2n−1) div f,
then per slot by ⌊2^s/p⌋; Barrett 1986), each factor packed once, for f of every degree
n >= 1; only a constant f reduces by long division. ``_pow_mod`` (square and multiply,
X^p for factor) and ``_compose_mod`` (Horner, X^(p²) = X^p∘X^p) run on the same kernel,
packed once. ``_euclid``, under ``_gcd``, ``_xgcd`` and ``_resultant`` (which reads the
remainders' lengths and leading coefficients), is Euclid on packed ints with the same
slot reduction, by long division only for a gcd or resultant of an operand below
``_EUCLID_PACKED``.

Text grammar (both directions, bit-exact): a polynomial is either a
comma-separated low-to-high coefficient list ("1,0,3") or a symbolic sum
("3*X^2+1"). The printer emits the symbolic form with descending powers
and coefficients reduced to [0, p).
"""

from __future__ import annotations

import re
import sys
from array import array
from itertools import accumulate, repeat
from operator import mul
from typing import Iterable, Sequence

from .errors import (BothZero, FieldMismatch, ParseError, PreconditionViolated,
                     ZeroPolynomial)
from .ff import FieldElem, PrimeField

ZERO_DEGREE = float("-inf")

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


def _slot_bytes(top: int) -> int:
    # Bytes per Kronecker slot that hold values up to top, no carry: 1, 2, 4, 8 or more.
    k = (top.bit_length() + 7) // 8
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
    # 8x8 1.8, 2x65 1.7; p = 2^61 - 1, slots over 8 bytes: 6x6 0.85, 7x7 0.97, 8x8 1.10,
    # 9x9 1.12, 4x20 0.89, 5x30 1.07, 5x65 1.16, 6x12 1.01, 3x40 0.85.
    if la * lb < 30:
        out = [0] * (la + lb - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return _trim([v % p for v in out])
    k = _slot_bytes(min(la, lb) * (p - 1) ** 2)
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


def _times_x(g: list[int], f: Sequence[int], p: int) -> list[int]:
    # X * g mod f, f monic, g reduced: one shift step of O(deg f).
    n = len(f) - 1
    t = g[-1] if len(g) == n else 0
    g = [0, *g[: n - 1]]
    if t:  # t * X^n = -t * (f - X^n) mod f
        g = [(gi - t * fi) % p for gi, fi in zip(g, f)]
    return _trim(g)


def _linear_map(rows: Sequence[Sequence[int]], p: int):
    # v -> sum v_i * rows[i] mod p, trimmed; each row is one Kronecker int with slots
    # for len(rows) products.
    n = max(map(len, rows), default=0)  # the output width
    k = _slot_bytes(len(rows) * (p - 1) ** 2)
    ints = [_pack(r, k) for r in rows]
    return lambda v: _trim(_unpack(sum(map(mul, v, ints)), k, n, p))


def _frobenius_rows(xp: list[int], rem, p: int) -> list[list[int]]:
    # Rows X^(i*p) mod f for i < n = deg f, rem = _reducer(f, p), xp = X^p mod f. Where
    # rem's kernel has slots of at most 4 bytes, row i + 1 is row i times X^p by one
    # packed mulmod; wider, each row is the linear map g -> X^p * g of the one before.
    n, (kb, mulmod) = rem.n, rem.kernel
    if kb <= 4:
        xs = accumulate(repeat(_pack(xp, kb), n - 1), mulmod, initial=1)
        return [_trim(_unpack(x, kb, n, p)) for x in xs]
    cols = [xp]
    for _ in range(n - 1):
        cols.append(_times_x(cols[-1], rem.f, p))
    step, rows = _linear_map(cols, p), [[1]]
    for _ in range(n - 1):
        rows.append(step(rows[-1]))
    return rows


def _slot_reduction(vmax: int, p: int) -> tuple[int, int, int]:
    # k, s and m = 2^s // p: a slot v < vmax becomes v - p((v*m) >> s) in [0, 2p), as s is
    # the least with v*m / 2^s > v/p - 1 for v < vmax, and v*m fits in k bytes.
    s = ((vmax - 1) // p).bit_length()
    while (vmax - 1) * ((1 << s) % p) >= p << s:
        s += 1
    m = (1 << s) // p
    return _slot_bytes((vmax - 1) * m), s, m


def _barrett(f: Sequence[int], p: int):
    # f monic, degree n. Returns k and x, y -> x*y mod f on ints of n k-byte slots, each
    # in [0, 2p) (x, y: slot 0 < 3p, and y may be x << 8k). If deg z < 2n, z div f is
    # ((z >> n slots) * mu) >> n - 1 slots, mu = X^(2n-1) div f; _slot_reduction for
    # v < (6n + 4)p^2 bounds z (4n + 4)p^2, the quotient 2np^2, and z's low slots plus a
    # bias of 2np^2 (a multiple of p above any slot of the quotient times f).
    n = len(f) - 1
    g, rev = f[-2::-1], [1]  # rev f = 1 + g_0 X + ..., rev = 1 / rev f mod X^n = rev mu
    for i in range(1, n):
        rev.append(-sum(map(mul, g[:i], reversed(rev))) % p)
    k, s, m = _slot_reduction((6 * n + 4) * p * p, p)
    low, top, shift = (1 << 8 * k * n) - 1, 8 * k * n, 8 * k * (n - 1)
    ones = low // ((1 << 8 * k) - 1)  # 1 in each slot
    mask, bias = ones * ((1 << 8 * k - s) - 1), ones * 2 * n * p * p
    mu, f_low = _pack(rev[::-1], k), _pack(f[:n], k)

    def mulmod(x: int, y: int) -> int:
        z = x * y
        h = z >> top
        h -= p * (h * m >> s & mask)
        q = h * mu >> shift
        q -= p * (q * m >> s & mask)
        r = (z & low) + bias - (q * f_low & low)
        return r - p * (r * m >> s & mask)

    return k, mulmod


def _reducer(f: Sequence[int], p: int):
    # a -> a mod f, a, *more -> a*b*... mod f: by the Barrett kernel (rem.kernel, None for
    # a constant f; rem.n = n, rem.f = monic f) for one n < len a < 2n, or for factors all
    # reduced, packed once each, one mulmod per factor; otherwise by long division.
    f = _monic(f, p)
    n = len(f) - 1
    kernel = _barrett(f, p) if n else None

    def rem(a: Sequence[int], *more: Sequence[int]) -> list[int]:
        if more and not (kernel and max(map(len, (a, *more))) <= n):
            return rem(_mul(a, more[0], p), *more[1:])
        if not more and not (kernel and 0 < len(a) - n < n):
            return _divmod(a, f, p)[1] if len(a) > n else list(a)
        k, mulmod = kernel
        x = _pack(a, k)
        z = x if more else mulmod(x, 1)
        for b in more:
            z = mulmod(z, x if b is a else _pack(b, k))
        return _trim(_unpack(z, k, n, p))

    rem.kernel, rem.n, rem.f = kernel, n, f
    return rem


def _monic(a: Sequence[int], p: int) -> list[int]:
    if not a or a[-1] == 1:
        return list(a)
    return _mul_scalar(a, pow(a[-1], -1, p), p)


# Packed steps from this length of the shorter operand up. Long division's time over
# theirs on each workload's own calls, CPython 3.11, by that length: sweep's resultants
# (p = 3, 5) 1: 0.24, 4: 0.70; certify's gcds (p = 101, 10007) 1: 0.19, 3: 0.77, 8: 0.98,
# 9: 1.09; scan's at 8 (p = 10007): gcds 1.03, resultants 0.97; factor's gcds (p = 5,
# 10007, 2^61 - 1) 5: 1.10, 9: 1.65, 16 and up: 2.83. Packed at every length, sweep,
# certify and scan ran 3-9 % fewer ops/s.
_EUCLID_PACKED = 9


def _euclid(a: Sequence[int], b: Sequence[int], p: int, cofactors: bool = False):
    # Euclid's remainders r_0 = a, r_1 = b, r_2 = a mod b, ...: the last nonzero one, the
    # lengths of all and of the final 0, and lc r_1, lc r_2, ...; or, always packed, it, s
    # and t with s*a + t*b = it. Packed with lc r in slot 0, the step A - c*X^d*B is A +
    # (p - c)B then A >> 1 slot; S is s, then t from slot n. Slots stay < 10p^2: B, S1 are
    # < 2p, and A, S are reduced to [0, 2p) after 4 steps and at the end of each quotient.
    lens, lcs = [len(a), len(b)], []
    if not cofactors and min(lens) < _EUCLID_PACKED:
        while b:
            a, b = b, _divmod(a, b, p)[1] if len(b) > 1 else []  # c divides all
            lens.append(len(b))
            lcs.append(a[-1])
        return list(a), lens, lcs
    (la, lb), n = lens, max(*lens, 1)
    k, s, m = _slot_reduction(10 * p * p, p)
    K, one = 8 * k, (1 << 8 * k) - 1
    mask = ((1 << 2 * K * n) - 1) // one * ((1 << K - s) - 1)  # 2^(8k - s) - 1 per slot
    A, B, S, S1 = _pack(a[::-1], k), _pack(b[::-1], k), 1, 1 << K * n
    while lb:
        lc = (B & one) % p
        inv, steps = pow(lc, -1, p), 0
        while la >= lb:
            c = p - (A & one) * inv % p  # p - lc A / lc B, in (0, p]
            if c < p:
                A += c * B
                if cofactors:
                    S += c * S1 << K * (la - lb)
                steps += 1
            A, la = A >> K, la - 1
            if steps == 4 or steps and la < lb:
                A, steps = A - p * ((A * m >> s) & mask), 0
                if cofactors:
                    S -= p * ((S * m >> s) & mask)
        while la and (A & one) % p == 0:
            A, la = A >> K, la - 1
        A, B, S, S1, la, lb = B, A, S1, S, lb, la
        lens.append(lb)
        lcs.append(lc)
    g = _unpack(A, k, la, p)[::-1]
    if cofactors:
        st = _unpack(S, k, 2 * n, p)
        return g, _trim(st[:n]), _trim(st[n:])
    return g, lens, lcs


def _gcd(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    return _monic(_euclid(a, b, p)[0], p)


def _resultant(a: Sequence[int], b: Sequence[int], p: int) -> int:
    # res(a, b) = (-1)^(deg a deg b) lc(b)^(deg a - deg r) res(b, r), r = a mod b, down to
    # res(a, c) = c^deg a for a constant c, or to 0 if no remainder is a constant.
    if not a:
        return 0
    out, (_, lens, lcs) = 1, _euclid(a, b, p)
    for m, n, r, c in zip(lens, lens[1:], lens[2:], lcs):  # r_(i-1), r_i, r_(i+1)
        if n == 1:
            return out * pow(c, m - 1, p) % p
        out = out * (-1) ** ((m - 1) * (n - 1)) * pow(c, m - r, p) % p
    return 0


def _xgcd(a: Sequence[int], b: Sequence[int], p: int):
    if len(b) == 1 or len(a) == 1:  # a unit: no steps
        return ([1], [], [pow(b[0], -1, p)]) if len(b) == 1 else ([1], [pow(a[0], -1, p)], [])
    g, s, t = _euclid(a, b, p, cofactors=True)
    inv = pow(g[-1], -1, p) if g else 1
    return _mul_scalar(g, inv, p), _mul_scalar(s, inv, p), _mul_scalar(t, inv, p)


def _pow_mod(base: Sequence[int], k: int, rem, p: int) -> list[int]:
    # base^k mod f, rem = _reducer(f, p): packed once, one mulmod of rem's kernel per
    # square or product, unpacked once. Base X starts free at X^(k >> s), the least s with
    # k >> s < deg f, and takes each 1 bit below as a shift inside its square.
    if not rem.kernel:
        return []  # every polynomial is 0 modulo a unit
    n, (kb, mulmod) = rem.n, rem.kernel
    if list(base) == [0, 1]:
        s = next(s for s in range(k.bit_length() + 1) if k >> s < n)
        x = 1 << 8 * kb * (k >> s)
        for i in range(s - 1, -1, -1):
            x = mulmod(x, x << 8 * kb if k >> i & 1 else x)
    else:
        a = _pack(rem(base), kb)
        x = a if k else 1
        for i in range(k.bit_length() - 2, -1, -1):
            x = mulmod(x, x)
            if k >> i & 1:
                x = mulmod(x, a)
    return _trim(_unpack(x, kb, n, p))


def _compose_mod(outer: Sequence[int], inner: Sequence[int], rem, p: int) -> list[int]:
    # outer(inner) mod f, rem = _reducer(f, p), by Horner's rule on rem's kernel: one
    # mulmod per coefficient of outer below its lead (a slot-0 add keeps slot 0 < 3p).
    if not rem.kernel:
        return []
    n, (kb, mulmod) = rem.n, rem.kernel
    y, x = _pack(inner if len(inner) <= n else rem(inner), kb), 0
    for c in reversed(outer):
        x = mulmod(x, y) + c if x else c
    return _trim(_unpack(x, kb, n, p))


def _deriv(a: Sequence[int], p: int) -> list[int]:
    return _trim([i * ai % p for i, ai in enumerate(a)][1:])


def _eval(a: Sequence[int], x: int, p: int) -> int:
    acc = 0
    for coeff in reversed(a):
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
        _set_field(self, field)
        _set_coeffs(self, tuple(raw))

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
        _set_field(out, self.field)
        _set_coeffs(out, tuple(raw))
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
        if isinstance(other, (Poly, FieldElem)) and other.field != self.field:
            return False  # another field's polynomial or scalar
        oc = self._coerce(other)
        return NotImplemented if oc is None else self.coeffs == oc

    def __hash__(self):
        return hash((self.field.modulus, self.coeffs))

    def __bool__(self):
        return bool(self.coeffs)

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"Poly(F{self.field.modulus}, {format_poly(self)})"


# The slots' member descriptors write past __setattr__, faster than object.__setattr__.
_set_field, _set_coeffs = Poly.field.__set__, Poly.coeffs.__set__


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
