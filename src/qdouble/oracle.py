"""Set-level cross-checks for the triple enumeration.

The oracle works directly on sets of simple objects: fusion closure uses the
Verlinde coefficients (so it is independent of the triple machinery), on
bitmasks of simples with precomputed product and dual masks, and the full
lattice of closed sets is generated from the bottom by joining closed sets
with the closures of single simples.
"""

from __future__ import annotations

from typing import Iterable

from .doubledata import TwistedDouble
from . import subcats as sc


def bits(mask: int) -> list[int]:
    """Indices of the set bits, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _mask(members: Iterable[int]) -> int:
    mask = 0
    for i in members:
        mask |= 1 << i
    return mask


def _masks(dd: TwistedDouble) -> tuple[list[list[int]], list[int]]:
    """Product masks prod[i][j] (bit k set iff N_ij^k > 0) and dual bits 1 << i*."""
    key = ("oracle_masks",)
    cached = dd.subcat_caches.get(key)
    if cached is None:
        n = len(dd.gamma)
        prod = [[_mask(dd.tensor_components(i, j)) for j in range(n)] for i in range(n)]
        cached = dd.subcat_caches[key] = (prod, [1 << d for d in dd.duals])
    return cached


def _close(dd: TwistedDouble, closed: int, extra: int) -> int:
    """Closure of closed | extra under duals and products, where closed is closed."""
    prod, dual = _masks(dd)
    members = bits(closed)
    cur = closed
    new = extra & ~closed
    while new:
        fresh = bits(new)
        cur |= new
        members += fresh
        grown = 0
        for i in fresh:
            grown |= dual[i]
            row = prod[i]
            for j in members:
                grown |= row[j]
        new = grown & ~cur
    return cur


def fusion_closure(dd: TwistedDouble, seed: Iterable[int]) -> frozenset[int]:
    """Smallest set of simples containing the seed and the unit, closed under
    duals and tensor constituents."""
    return frozenset(bits(_close(dd, 0, _mask(seed) | 1 << dd.unit_index)))


def all_closed_sets(dd: TwistedDouble) -> frozenset[frozenset[int]]:
    """Every fusion-closed set of simples, by joining closed sets with atoms.

    Atoms are the closures of single simples. A closed set is the join of the
    atoms it contains, so the sets reachable from the bottom by joining one
    atom at a time are all of them.
    """
    bottom = _mask(fusion_closure(dd, ()))
    atoms = {_mask(fusion_closure(dd, (i,))) for i in range(len(dd.gamma))}
    seen = {bottom}
    frontier = [bottom]
    while frontier:
        nxt = []
        for c in frontier:
            for a in atoms:
                if a & ~c:
                    j = _close(dd, c, a)
                    if j not in seen:
                        seen.add(j)
                        nxt.append(j)
        frontier = nxt
    return frozenset(frozenset(bits(c)) for c in seen)


def adjoint_closure(dd: TwistedDouble, members: Iterable[int]) -> frozenset[int]:
    """Fusion closure of all constituents of X (x) X* over the given simples."""
    prod, _ = _masks(dd)
    duals = dd.duals
    seed = 0
    for i in members:
        seed |= prod[i][duals[i]]
    return fusion_closure(dd, bits(seed))


def centralizing_simples(dd: TwistedDouble, members: Iterable[int]) -> frozenset[int]:
    """Simples that centralize every member: the AND of the members' braiding rows."""
    rows = dd.braiding_rows
    mask = (1 << len(rows)) - 1
    for j in members:
        mask &= rows[j]
    return frozenset(bits(mask))


def projectively_centralizing_simples(dd: TwistedDouble,
                                      members: Iterable[int]) -> frozenset[int]:
    """Simples whose S-matrix entries against the set have maximal magnitude.

    These are exactly the simples centralizing the adjoint of the subcategory
    the set spans.
    """
    ms = list(members)
    return frozenset(i for i in range(len(dd.gamma))
                     if all(dd.magnitude_centralize(i, j) for j in ms))


def certify(dd: TwistedDouble) -> dict:
    """Cross-validate the triple enumeration against set-level oracles.

    Untwisted doubles get the full closure oracle: the member sets of the
    enumerated triples must coincide with the fusion-closed sets, bijectively.
    Twisted doubles (no Verlinde data) are checked by the double-centralizer
    identity and the dimension product law instead.
    """
    triples = sc.enumerate_all(dd)
    members = {t: sc.subcat_members(dd, t) for t in triples}
    sets = list(members.values())
    if len(set(sets)) != len(sets):
        raise AssertionError("two distinct triples share one member set")

    report = {"triples": len(triples)}
    order = dd.group.order
    whole_dim = order * order
    for t in triples:
        c = sc.centralizer_triple(dd, t)
        if sc.subcat_members(dd, c) != centralizing_simples(dd, members[t]):
            raise AssertionError(f"centralizer member set wrong at {t}")
        if sc.subcat_members(dd, sc.centralizer_triple(dd, c)) != members[t]:
            raise AssertionError(f"double centralizer failed at {t}")
        if t.dim(order) * c.dim(order) != whole_dim:
            raise AssertionError(f"dimension product law failed at {t}")

    if dd.omega.is_trivial:
        closed = all_closed_sets(dd)
        if frozenset(sets) != closed:
            missing = closed - frozenset(sets)
            extra = frozenset(sets) - closed
            raise AssertionError(
                f"enumeration mismatch: {len(missing)} closed sets missing, "
                f"{len(extra)} member sets not closed")
        report["closed_sets"] = len(closed)
        report["bijection"] = True
    else:
        report["closed_sets"] = None
        report["bijection"] = None
    return report
