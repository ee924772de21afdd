"""Exact cyclotomic arithmetic."""

import cmath
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from qdouble import CycloContext
from qdouble.cyclotomic import Cyclo, cyclotomic_polynomial


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
        assert ctx.root_sum((0,)) == 1
        for k in range(2 * N):
            assert ctx.root_sum((k,)) == ctx.root_sum((k % N,))
            assert ctx.root_sum((k,)) * ctx.root_sum((N - k % N,)) == 1
        if N > 1:
            assert sum([ctx.root_sum((k,)) for k in range(N)], ctx.root_sum(())) == 0


def test_quadratic_gauss_sum():
    ctx = CycloContext(5)
    g = sum([ctx.root_sum((k * k % 5,)) for k in range(5)], ctx.root_sum(()))
    assert g * g == 5


def test_rational_detection():
    ctx = CycloContext(8)
    z = ctx.root_sum((1,))
    assert not z.is_rational
    w = z * z * z * z  # zeta_8^4 = -1
    assert w.is_rational and w.as_fraction() == -1
    half = ctx.from_fraction(Fraction(1, 2))
    assert half.as_fraction() == Fraction(1, 2)
    with pytest.raises(ValueError):
        z.as_fraction()


def test_conjugation():
    ctx = CycloContext(7)
    for k in range(7):
        assert ctx.root_sum((k,)).conj() == ctx.root_sum(((7 - k) % 7,))
    z = ctx.root_sum((1,)) + 2 * ctx.root_sum((3,))
    assert z.conj().conj() == z


def test_to_complex_accuracy():
    for N in (3, 5, 8, 16):
        ctx = CycloContext(N)
        for k in range(N):
            approx = ctx.root_sum((k,)).to_complex()
            exact = cmath.exp(2j * cmath.pi * k / N)
            assert abs(approx - exact) < 1e-12


def test_sort_key_consistent_with_eq():
    ctx = CycloContext(6)
    vals = [ctx.root_sum((k,)) for k in range(6)] + [ctx.from_int(2), ctx.root_sum((1,)) + 1]
    for a in vals:
        for b in vals:
            if a == b:
                assert a.sort_key() == b.sort_key()
            else:
                assert a.sort_key() != b.sort_key()


def test_hash_agrees_with_int_equality():
    # a value equal to an int hashes like it, so sets and dicts treat the two as one key
    for N in (1, 2, 3, 4, 6, 8):
        ctx = CycloContext(N)
        ints = [ctx.root_sum([0]), ctx.root_sum(()), ctx.from_int(-3),
                ctx.from_fraction(Fraction(4, 2)), ctx.root_sum([0] * 5)]
        for v, c in zip(ints, (1, 0, -3, 2, 5)):
            assert v == c and hash(v) == hash(c)
        assert len({ctx.root_sum([0]), 1}) == 1 and {1: "one"}[ctx.one] == "one"
        if N > 2:
            # zeta_N is no int (zeta_2 = -1 is)
            z = ctx.root_sum([1])
            assert z != 1 and len({z, 1}) == 2


small_coeffs = st.lists(st.integers(-4, 4), min_size=1, max_size=4)


def _elem(ctx, coeffs, den):
    total = ctx.root_sum(())
    for k, c in enumerate(coeffs):
        total = total + ctx.root_sum((k % ctx.N,)) * c
    return total * Fraction(1, den)


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
    assert ctx.root_sum(exps) == sum([ctx.root_sum((e,)) for e in exps], ctx.root_sum(()))


@lru_cache(maxsize=None)
def _oracle_rows(N):
    """x^k mod Phi_N for k < N, by shift and reduce: a second algorithm to the fold."""
    phi = cyclotomic_polynomial(N)
    d = len(phi) - 1
    rows = [tuple(int(i == k) for i in range(d)) for k in range(d)]
    while len(rows) < N:
        prev = rows[-1]
        rows.append(tuple(s - prev[-1] * p for s, p in zip((0,) + prev[:-1], phi)))
    return rows


def _oracle_sum(N, coeffs):
    """Coordinate sum of c x^(e mod N) mod Phi_N over the (e, c) pairs."""
    counts = [0] * N
    for e, c in coeffs:
        counts[e % N] += c
    rows = _oracle_rows(N)
    total = [0] * len(rows[0])
    for row, c in zip(rows, counts):
        if c:
            total = [t + c * r for t, r in zip(total, row)]
    return tuple(total)


def test_fold_reaches_coefficient_two():
    # Phi_105 and Phi_210 are the first with a coefficient outside {0, 1, -1},
    # Phi_385 the first with one outside {0, +-1, +-2}
    for N in (105, 210):
        assert max(abs(p) for _, p in CycloContext(N)._phi_low) == 2
    assert max(abs(p) for _, p in CycloContext(385)._phi_low) == 3


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.integers(1, 120), st.sampled_from((1, 2, 105, 210, 385))),
       st.lists(st.integers(-500, 500), max_size=60))
def test_root_sum_fold_matches_pow_rows(N, exps):
    ctx = CycloContext(N)
    z = ctx.root_sum(exps)
    assert z.num == _oracle_sum(N, ((e, 1) for e in exps)) and z.den == 1
    exact = sum(cmath.exp(2j * cmath.pi * e / N) for e in exps)
    assert abs(z.to_complex() - exact) <= 1e-9 * max(len(exps), 1)


def test_product_and_conj_match_pow_rows():
    # the schoolbook product and the reindexed sum, reduced by the oracle rows
    for N in (8, 24, 105, 210, 385):
        ctx = CycloContext(N)
        for seed in range(20):
            rng = random.Random(seed)
            a, b = (Cyclo(ctx, tuple(rng.randint(-9, 9) for _ in range(ctx.degree)), 1)
                    for _ in range(2))
            product = [(i + j, x * y) for i, x in enumerate(a.num)
                       for j, y in enumerate(b.num)]
            conj = [(-i, x) for i, x in enumerate(a.num)]
            assert (a * b).num == _oracle_sum(N, product), (N, seed)
            assert a.conj().num == _oracle_sum(N, conj), (N, seed)
