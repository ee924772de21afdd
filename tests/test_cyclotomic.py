"""Exact cyclotomic arithmetic."""

import cmath
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qdouble import CycloContext
from qdouble.cyclotomic import cyclotomic_polynomial


KNOWN_POLYS = {
    1: (-1, 1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    5: (1, 1, 1, 1, 1),
    6: (1, -1, 1),
    8: (1, 0, 0, 0, 1),
    9: (1, 0, 0, 1, 0, 0, 1),
    12: (1, 0, -1, 0, 1),
}


def test_cyclotomic_polynomials():
    for n, coeffs in KNOWN_POLYS.items():
        assert cyclotomic_polynomial(n) == coeffs


def test_roots_of_unity_relations():
    for N in (1, 2, 3, 4, 5, 6, 8, 12):
        ctx = CycloContext(N)
        assert ctx.root(0) == 1
        for k in range(2 * N):
            assert ctx.root(k) == ctx.root(k % N)
            assert ctx.root(k) * ctx.root(N - k % N) == 1
        if N > 1:
            assert ctx.sum(ctx.root(k) for k in range(N)).is_zero


def test_root_exponent_round_trip():
    ctx = CycloContext(12)
    for k in range(12):
        assert ctx.root_exponent(ctx.root(k)) == k
    assert ctx.root_exponent(ctx.from_int(2)) is None
    assert ctx.root_exponent(ctx.root(3) + 1) is None


def test_quadratic_gauss_sum():
    ctx = CycloContext(5)
    g = ctx.sum(ctx.root(k * k % 5) for k in range(5))
    assert g * g == 5


def test_rational_detection():
    ctx = CycloContext(8)
    z = ctx.root(1)
    assert not z.is_rational
    w = z * z * z * z  # zeta_8^4 = -1
    assert w.is_rational and w.as_int() == -1
    half = ctx.from_fraction(Fraction(1, 2))
    assert half.as_fraction() == Fraction(1, 2)
    with pytest.raises(ValueError):
        half.as_int()


def test_conjugation():
    ctx = CycloContext(7)
    for k in range(7):
        assert ctx.root(k).conj() == ctx.root((7 - k) % 7)
    z = ctx.root(1) + 2 * ctx.root(3)
    assert z.conj().conj() == z


def test_to_complex_accuracy():
    for N in (3, 5, 8, 16):
        ctx = CycloContext(N)
        for k in range(N):
            approx = ctx.root(k).to_complex()
            exact = cmath.exp(2j * cmath.pi * k / N)
            assert abs(approx - exact) < 1e-12


def test_sort_key_consistent_with_eq():
    ctx = CycloContext(6)
    vals = [ctx.root(k) for k in range(6)] + [ctx.from_int(2), ctx.root(1) + 1]
    for a in vals:
        for b in vals:
            if a == b:
                assert a.sort_key() == b.sort_key()
            else:
                assert a.sort_key() != b.sort_key()


small_coeffs = st.lists(st.integers(-4, 4), min_size=1, max_size=4)


def _elem(ctx, coeffs, den):
    total = ctx.zero
    for k, c in enumerate(coeffs):
        total = total + ctx.root(k % ctx.N) * c
    return total / den


@settings(max_examples=80, deadline=None)
@given(st.sampled_from((3, 4, 5, 8, 12)), small_coeffs, small_coeffs,
       small_coeffs, st.integers(1, 3))
def test_field_laws(N, ca, cb, cc, den):
    ctx = CycloContext(N)
    a, b, c = _elem(ctx, ca, 1), _elem(ctx, cb, den), _elem(ctx, cc, 1)
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == 0
    assert (a + b).conj() == a.conj() + b.conj()
    assert (a * b).conj() == a.conj() * b.conj()


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 60), st.lists(st.integers(-200, 200), max_size=30))
def test_root_sum_matches_field_sum(N, exps):
    ctx = CycloContext(N)
    assert ctx.root_sum(exps) == ctx.sum(ctx.root(e) for e in exps)
