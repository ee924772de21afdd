"""Shared, cached constructions for the test suite."""

import functools
import random
from functools import reduce

from qdouble import (TwistedDouble, builtin_cyclic, builtin_group, coboundary,
                     cyclic_group, pullback, validate)
from qdouble.cocycles import ThreeCocycle, product
from qdouble.cyclotomic import cyclotomic_polynomial
from qdouble.groups import FiniteGroup, direct_product


@functools.lru_cache(maxsize=None)
def power_rows(N: int) -> list[tuple[int, ...]]:
    """x^k mod Phi_N for k < N, by shift and reduce: a second algorithm to the
    library's fold."""
    phi = cyclotomic_polynomial(N)
    d = len(phi) - 1
    rows = [tuple(int(i == k) for i in range(d)) for k in range(d)]
    while len(rows) < N:
        prev = rows[-1]
        rows.append(tuple(s - prev[-1] * p for s, p in zip((0,) + prev[:-1], phi)))
    return rows


@functools.lru_cache(maxsize=None)
def untwisted(name: str) -> TwistedDouble:
    return TwistedDouble(builtin_group(name))


@functools.lru_cache(maxsize=None)
def untwisted_cyclic(n: int) -> TwistedDouble:
    return TwistedDouble(cyclic_group(n))


@functools.lru_cache(maxsize=None)
def twisted_cyclic(n: int, q: int) -> TwistedDouble:
    om = builtin_cyclic(n, q)
    return TwistedDouble(om.group, om)


@functools.lru_cache(maxsize=None)
def untwisted_product(*names: str) -> TwistedDouble:
    """Untwisted double of the direct product of builtin groups, e.g. ("Z2", "Z4")."""
    return TwistedDouble(reduce(direct_product, map(builtin_group, names)))


@functools.lru_cache(maxsize=None)
def twisted_z2_cubed() -> TwistedDouble:
    """Z2^3 with omega(a, b, c) = (-1)^(a1 b2 c3), where g = 4 g1 + 2 g2 + g3."""
    G = reduce(direct_product, [builtin_group("Z2")] * 3)
    n = G.order
    omega = ThreeCocycle(G, 2, tuple(tuple(tuple((a >> 2) & (b >> 1) & c & 1 for c in range(n))
                                           for b in range(n)) for a in range(n)))
    validate(omega)
    return TwistedDouble(G, omega)


def times_coboundary(omega: ThreeCocycle, m: int) -> ThreeCocycle:
    """omega times the coboundary of a normalized 2-cochain mod m, seeded by m."""
    G = omega.group
    rng = random.Random(m)
    mu = [[rng.randrange(m) if x and y else 0 for y in range(G.order)]
          for x in range(G.order)]
    return product(omega, coboundary(G, mu, m))


@functools.lru_cache(maxsize=None)
def twisted_cyclic_coboundary(n: int, q: int, m: int) -> TwistedDouble:
    """The standard cocycle omega_q on Z/n times a seeded coboundary mod m."""
    omega = times_coboundary(builtin_cyclic(n, q), m)
    return TwistedDouble(omega.group, omega)


@functools.lru_cache(maxsize=None)
def twisted_quotient(name: str, cob_m: int | None = None) -> TwistedDouble:
    """Semion cocycle pulled back along an index-2 quotient, times a coboundary mod cob_m."""
    G = builtin_group(name)
    N = next(N for N in G.normal_subgroups if 2 * len(N) == G.order)
    omega = pullback(builtin_cyclic(2, 1),
                     [0 if g in N.member_set else 1 for g in range(G.order)], G)
    if cob_m is not None:
        omega = times_coboundary(omega, cob_m)
    return TwistedDouble(G, omega)


def _relabeling(n: int, seed: int) -> list[int]:
    """A seeded random permutation of range(n) that fixes the identity 0."""
    rest = list(range(1, n))
    random.Random(seed).shuffle(rest)
    return [0] + rest


def relabeled_group(G: FiniteGroup, seed: int) -> FiniteGroup:
    """G with its non-identity elements permuted at random."""
    perm = _relabeling(G.order, seed)
    table = [[0] * G.order for _ in range(G.order)]
    for a in range(G.order):
        for b in range(G.order):
            table[perm[a]][perm[b]] = perm[G.mul(a, b)]
    return FiniteGroup(table, name=f"{G.name}'")


@functools.lru_cache(maxsize=None)
def relabeled(dd: TwistedDouble, seed: int) -> TwistedDouble:
    """dd on relabeled_group(dd.group, seed), its cocycle pulled back along the relabeling."""
    G = relabeled_group(dd.group, seed)
    perm = _relabeling(G.order, seed)
    return TwistedDouble(G, pullback(dd.omega, sorted(range(G.order), key=perm.__getitem__), G))


def braiding_doubles() -> list[TwistedDouble]:
    """Untwisted, twisted cyclic, twisted quotient and coboundary-twisted doubles."""
    return ([untwisted(name) for name in ("Z2", "Z4", "S3", "D4", "Q8")]
            + [twisted_cyclic(n, q) for n, q in ((4, 1), (6, 3), (8, 3))]
            + [twisted_quotient(name, m) for name in ("S3", "D4", "Q8") for m in (None, 3)]
            + [twisted_cyclic_coboundary(4, 1, 3)])
