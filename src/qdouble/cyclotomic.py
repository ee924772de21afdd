"""Exact arithmetic in the cyclotomic field Q(zeta_N).

Values are rational polynomials in zeta_N reduced modulo the N-th cyclotomic
polynomial: an integer coefficient vector plus a positive integer denominator,
gcd-normalized. All equality tests are exact.
"""

from __future__ import annotations

import cmath
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Iterable, Sequence


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, low degree first, monic."""
    if n < 1:
        raise ValueError("n >= 1")
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
            raise ValueError("N >= 1")
        self.N = N
        phi = cyclotomic_polynomial(N)
        self.degree = len(phi) - 1
        d = self.degree
        # reduction rows: coefficients of x^k mod Phi_N for k up to the largest
        # exponent produced by products (2d-2) and by conjugation lookups (N-1)
        top = max(N - 1, 2 * d - 2, d)
        rows: list[tuple[int, ...]] = [tuple(1 if i == k else 0 for i in range(d)) for k in range(d)]
        for k in range(d, top + 1):
            prev = rows[k - 1]
            shifted = [0] + list(prev[: d - 1])
            lead = prev[d - 1]
            if lead:
                for i in range(d):
                    shifted[i] -= lead * phi[i]
            rows.append(tuple(shifted))
        self._pow_rows = tuple(rows)
        self._root_exp: dict[tuple[int, ...], int] = {}
        for k in range(N):
            self._root_exp.setdefault(rows[k], k)

    # constants are built on demand: a Cyclo points to its context, so a
    # context holding Cyclo values would be a reference cycle

    @property
    def zero(self) -> "Cyclo":
        return Cyclo(self, (0,) * self.degree, 1)

    @property
    def one(self) -> "Cyclo":
        return Cyclo(self, self._pow_rows[0], 1)

    def root(self, k: int) -> "Cyclo":
        """zeta_N^k."""
        return Cyclo(self, self._pow_rows[k % self.N], 1)

    def root_exponent(self, z: "Cyclo") -> int | None:
        """k with z = zeta_N^k, or None if z is not one of those roots."""
        if z.den != 1:
            return None
        return self._root_exp.get(z.num)

    def from_int(self, c: int) -> "Cyclo":
        d = self.degree
        return Cyclo(self, (c,) + (0,) * (d - 1), 1)

    def from_fraction(self, q: Fraction) -> "Cyclo":
        d = self.degree
        return _make(self, [q.numerator] + [0] * (d - 1), q.denominator)

    def sum(self, terms: Iterable["Cyclo"]) -> "Cyclo":
        total = self.zero
        for t in terms:
            total = total + t
        return total

    def root_sum(self, exps: Iterable[int]) -> "Cyclo":
        """sum of zeta_N^e over the exponents: counted mod N, reduced once."""
        res = [0] * self.degree
        for e, c in Counter(e % self.N for e in exps).items():
            res = [r + c * x for r, x in zip(res, self._pow_rows[e])]
        return Cyclo(self, tuple(res), 1)

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

    def __neg__(self) -> "Cyclo":
        return Cyclo(self.ctx, tuple(-c for c in self.num), self.den)

    def __mul__(self, other):
        ctx = self.ctx
        if isinstance(other, int):
            return _make(ctx, [c * other for c in self.num], self.den)
        if isinstance(other, Fraction):
            return _make(ctx, [c * other.numerator for c in self.num],
                         self.den * other.denominator)
        self._check(other)
        d = ctx.degree
        a, b = self.num, other.num
        conv = [0] * (2 * d - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        conv[i + j] += ai * bj
        res = list(conv[:d])
        rows = ctx._pow_rows
        for k in range(d, 2 * d - 1):
            c = conv[k]
            if c:
                row = rows[k]
                for i in range(d):
                    res[i] += c * row[i]
        return _make(ctx, res, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, int):
            return _make(self.ctx, list(self.num), self.den * other)
        if isinstance(other, Fraction):
            return self * Fraction(other.denominator, other.numerator)
        return NotImplemented

    def conj(self) -> "Cyclo":
        """Complex conjugation zeta -> zeta^{-1}."""
        ctx = self.ctx
        d = ctx.degree
        rows = ctx._pow_rows
        res = [0] * d
        for i, c in enumerate(self.num):
            if c:
                row = rows[(ctx.N - i) % ctx.N]
                for j in range(d):
                    res[j] += c * row[j]
        return _make(ctx, res, self.den)

    # -- predicates and conversions --------------------------------------------

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.num)

    @property
    def is_rational(self) -> bool:
        return all(c == 0 for c in self.num[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"not rational: {self}")
        return Fraction(self.num[0], self.den)

    def as_int(self) -> int:
        q = self.as_fraction()
        if q.denominator != 1:
            raise ValueError(f"not an integer: {self}")
        return q.numerator

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
            raise ValueError("mixed cyclotomic contexts")

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.den == 1 and self.num[0] == other and all(c == 0 for c in self.num[1:])
        if not isinstance(other, Cyclo):
            return NotImplemented
        self._check(other)
        return self.den == other.den and self.num == other.num

    def __hash__(self) -> int:
        return hash((self.den, self.num))

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

