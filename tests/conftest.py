"""Shared, cached constructions for the test suite."""

import functools
import random

from qdouble import (TwistedDouble, builtin_cyclic, builtin_group, coboundary,
                     cyclic_group, pullback)
from qdouble.cocycles import product


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
def twisted_quotient(name: str, cob_m: int | None = None) -> TwistedDouble:
    """Semion cocycle pulled back along an index-2 quotient, times a coboundary mod cob_m."""
    G = builtin_group(name)
    N = next(N for N in G.normal_subgroups if 2 * len(N) == G.order)
    omega = pullback(builtin_cyclic(2, 1),
                     [0 if g in N.member_set else 1 for g in range(G.order)], G)
    if cob_m is not None:
        rng = random.Random(cob_m)
        mu = [[rng.randrange(cob_m) if x and y else 0 for y in range(G.order)]
              for x in range(G.order)]
        omega = product(omega, coboundary(G, mu, cob_m))
    return TwistedDouble(G, omega)
