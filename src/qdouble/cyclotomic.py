"""Exact arithmetic in the cyclotomic field Q(zeta_N).

Values are rational polynomials in zeta_N reduced modulo the N-th cyclotomic
polynomial: an integer coefficient vector plus a positive integer denominator,
gcd-normalized. All equality tests are exact.

The exact core only sums roots of unity (root_sum), scales by integers and
fractions, and compares; twists and braiding phases stay exponents of zeta_N.
Field products and conj are reference arithmetic for the field-level tests.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Iterable, Sequence

from .errors import InputError


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, low degree first, monic."""
    if n < 1:
        raise InputError("n >= 1")
    # divide x^n - 1 by the product of all proper-divisor cyclotomic polynomials
    num = [0] * (n + 1)
    num[0], num[n] = -1, 1
    for d in range(1, n):
        if n % d == 0:
            num = _poly_divide_exact(num, cyclotomic_polynomial(d))
    return tuple(num)


def _poly_divide_exact(num: Sequence[int], den: Sequence[int]) -> list[int]:
    """Exact division of integer polynomials with monic divisor."""
    num = list(num)
    dd = len(den) - 1
    if den[-1] != 1:
        raise ValueError("divisor must be monic")
    out = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            out[i - dd] = c
            for j in range(dd + 1):
                num[i - dd + j] -= c * den[j]
    if any(num):
        raise ValueError("division not exact")
    return out


class CycloContext:
    """Fixed field Q(zeta_N) and its reduction data."""

    def __init__(self, N: int):
        if N < 1:
            raise InputError("N >= 1")
        self.N = N
        phi = cyclotomic_polynomial(N)
        self.degree = d = len(phi) - 1
        # x^d = -sum p_j x^j over the nonzero lower coefficients p_j of Phi_N
        self._phi_low = tuple((j, p) for j, p in enumerate(phi[:d]) if p)
        # sort_key_of's memo: the character tables of one double share their keys
        self._sort_keys: dict[tuple[int, ...], tuple] = {}

    # constants are built on demand: a Cyclo points to its context, so a
    # context holding Cyclo values would be a reference cycle

    @property
    def one(self) -> "Cyclo":
        return self.from_int(1)

    def from_int(self, c: int) -> "Cyclo":
        d = self.degree
        return Cyclo(self, (c,) + (0,) * (d - 1), 1)

    def from_fraction(self, q: Fraction) -> "Cyclo":
        d = self.degree
        return _make(self, [q.numerator] + [0] * (d - 1), q.denominator)

    def root_sum(self, exps: Iterable[int]) -> "Cyclo":
        """sum of zeta_N^e over the exponents: counted mod N, then folded."""
        N = self.N
        acc = [0] * N
        for e in exps:
            acc[e % N] += 1
        return Cyclo(self, tuple(self._fold(acc)), 1)

    def _fold(self, acc: list[int]) -> list[int]:
        """The field's one reduction: sum acc[k] x^k (k < N, as x^N = 1) mod Phi_N.

        acc is folded in place from x^(N-1) down to x^d through
        x^d = -sum p_j x^j; its d low coefficients are the remainder.
        """
        d, low = self.degree, self._phi_low
        for k in range(self.N - 1, d - 1, -1):
            c = acc[k]
            if c:
                base = k - d
                for j, p in low:
                    acc[base + j] -= c * p
        return acc[:d]

    def sort_key_of(self, exps: tuple[int, ...]) -> tuple:
        """root_sum(exps).sort_key(), computed once per exponent tuple."""
        key = self._sort_keys.get(exps)
        if key is None:
            key = self._sort_keys[exps] = self.root_sum(exps).sort_key()
        return key

    def __repr__(self) -> str:
        return f"CycloContext(N={self.N})"


def _make(ctx: CycloContext, num: list[int], den: int) -> "Cyclo":
    if den < 0:
        num = [-c for c in num]
        den = -den
    g = den
    for c in num:
        g = gcd(g, c)
        if g == 1:
            break
    if g > 1:
        num = [c // g for c in num]
        den //= g
    if den == 0:
        raise ZeroDivisionError("zero denominator")
    return Cyclo(ctx, tuple(num), den)


class Cyclo:
    """An element of Q(zeta_N); construct via CycloContext methods."""

    __slots__ = ("ctx", "num", "den")

    def __init__(self, ctx: CycloContext, num: tuple[int, ...], den: int):
        self.ctx = ctx
        self.num = num
        self.den = den

    # -- ring operations ------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, int):
            return self.ctx.from_int(other)
        if isinstance(other, Fraction):
            return self.ctx.from_fraction(other)
        self._check(other)
        return other

    def __add__(self, other) -> "Cyclo":
        a, b = self, self._coerce(other)
        da, db = a.den, b.den
        return _make(a.ctx, [x * db + y * da for x, y in zip(a.num, b.num)], da * db)

    __radd__ = __add__

    def __sub__(self, other) -> "Cyclo":
        a, b = self, self._coerce(other)
        da, db = a.den, b.den
        return _make(a.ctx, [x * db - y * da for x, y in zip(a.num, b.num)], da * db)

    def __rsub__(self, other) -> "Cyclo":
        return self._coerce(other) - self

    def __mul__(self, other):
        ctx = self.ctx
        if isinstance(other, int):
            return _make(ctx, [c * other for c in self.num], self.den)
        if isinstance(other, Fraction):
            return _make(ctx, [c * other.numerator for c in self.num],
                         self.den * other.denominator)
        self._check(other)
        N = ctx.N
        acc = [0] * N
        for i, ai in enumerate(self.num):
            if ai:
                for j, bj in enumerate(other.num, i):
                    if bj:
                        acc[j % N] += ai * bj
        return _make(ctx, ctx._fold(acc), self.den * other.den)

    __rmul__ = __mul__

    def conj(self) -> "Cyclo":
        """Complex conjugation zeta -> zeta^{-1}."""
        ctx = self.ctx
        acc = [0] * ctx.N
        for i, c in enumerate(self.num):
            acc[-i % ctx.N] += c
        return _make(ctx, ctx._fold(acc), self.den)

    # -- predicates and conversions --------------------------------------------

    @property
    def is_rational(self) -> bool:
        return all(c == 0 for c in self.num[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise InputError(f"not rational: {self}")
        return Fraction(self.num[0], self.den)

    def to_complex(self) -> complex:
        z = cmath.exp(2j * cmath.pi / self.ctx.N)
        acc = 0j
        for c in reversed(self.num):
            acc = acc * z + c
        return acc / self.den

    def sort_key(self) -> tuple:
        return (self.den,) + self.num

    def _check(self, other: "Cyclo") -> None:
        if self.ctx is not other.ctx:
            raise InputError("mixed cyclotomic contexts")

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.den == 1 and self.num[0] == other and all(c == 0 for c in self.num[1:])
        if not isinstance(other, Cyclo):
            return NotImplemented
        self._check(other)
        return self.den == other.den and self.num == other.num

    def __hash__(self) -> int:
        # a value equal to an int (den 1, num (c, 0, ...)) hashes like c, as __eq__ needs
        is_int = self.den == 1 and not any(self.num[1:])
        return hash(self.num[0] if is_int else (self.den, self.num))

    def __repr__(self) -> str:
        terms = []
        for i, c in enumerate(self.num):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                terms.append(f"{c}*z^{i}" if c != 1 else f"z^{i}")
        body = " + ".join(terms) if terms else "0"
        return body if self.den == 1 else f"({body})/{self.den}"

