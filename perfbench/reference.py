"""A fixed pure-Python reference block that measures the interpreter's speed.

The harness times this block next to every command and reports each
command's wall time in units of the adjacent block times.  Other tenants of a
shared host slow every interpreter-bound loop alike, by up to half, for
seconds to minutes at a time; the ratio cancels most of that slowdown, where
the wall time carries all of it.  The block does the kinds of work qdouble
does (integer vectors mod a prime, Fraction arithmetic, tuple-keyed dicts,
frozensets) plus a walk over a list too large for the core's caches, and
imports nothing from qdouble, so a change to the program does not move it.
Under load the kernel alone slows more than the commands and the walk alone
less; the block's mix (about a quarter of its time in the walk) keeps the ratio
level.
"""

from __future__ import annotations

import time
from fractions import Fraction
from math import gcd

KERNELS_PER_WALK = 12
BLOCK_REPEATS = 3


def _kernel() -> int:
    p = 1000003
    a = [(i * 7919 + 3) % p for i in range(40)]
    b = [(i * 104729 + 11) % p for i in range(40)]
    prod = [0] * 79
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = (prod[i + j] + x * y) % p
    counts: dict[tuple[int, int, int], int] = {}
    for i in range(60):
        for j in range(30):
            key = (i % 7, j, i ^ j)
            counts[key] = counts.get(key, 0) + gcd(i + 1, j + 1)
    q = Fraction(0)
    for i in range(1, 40):
        q += Fraction(i % 5 + 1, i + 2)
    sets = {frozenset(range(i % 9, i % 9 + 4)) for i in range(200)}
    return sum(prod) + len(counts) + q.denominator + len(sets)


def _memory_walk() -> int:
    """Pseudo-random reads from a fresh list of 2**16 ints (about 2.5 MB)."""
    n = 1 << 16
    values = list(range(n))
    total, j = 0, 1
    for _ in range(10000):
        j = (j * 1103515245 + 12345) & (n - 1)
        total += values[j]
    return total


def reference_block() -> float:
    """Wall time of one reference block, about 35 ms on an idle core."""
    t0 = time.perf_counter()
    for _ in range(BLOCK_REPEATS):
        for _ in range(KERNELS_PER_WALK):
            _kernel()
        _memory_walk()
    return time.perf_counter() - t0
