"""Set-level cross-checks for the triple enumeration.

The oracle works directly on sets of simple objects, as bitmasks: fusion
closure uses the Verlinde coefficients (so it is independent of the triple
machinery) through precomputed product and dual masks, and the full lattice
of closed sets is every intersection of the Müger centralizer rows read off
the S-matrix, each checked to be fusion-closed.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Iterable, Sequence

from .doubledata import TwistedDouble
from .errors import CheckFailure
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
        prod = [[sum(1 << k for k, _ in row) for row in rows] for rows in dd.fusion]
        cached = dd.subcat_caches[key] = (prod, [1 << d for d in dd.duals])
    return cached


def _close(dd: TwistedDouble, extra: int) -> int:
    """Closure of extra under duals and products."""
    prod, dual = _masks(dd)
    members, cur, new = [], 0, extra
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


def _intersections(rows: Sequence[int]) -> set[int]:
    """Every intersection of the bitmask rows, the empty one (all simples) included."""
    fam = {(1 << len(rows)) - 1}
    for r in rows:
        fam |= {c & r for c in fam}
    return fam


def fusion_closure(dd: TwistedDouble, seed: Iterable[int]) -> frozenset[int]:
    """Smallest set of simples containing the seed and the unit, closed under
    duals and tensor constituents."""
    return frozenset(bits(_close(dd, _mask(seed) | 1 << dd.unit_index)))


def all_closed_sets(dd: TwistedDouble) -> frozenset[frozenset[int]]:
    """Every fusion-closed set of simples: the intersections of centralizer rows.

    Bit j of row i is set iff S_ij = d_i d_j, Müger's criterion for simples
    i and j to centralize, read off the S-matrix by comparing coordinates.
    The family is exact. s_matrix has proved S S^dagger = |G|^2 I, so the
    category is modular, and by Müger's double centralizer theorem every
    fusion subcategory D equals D'': the intersection of the rows of the
    members of its centralizer D'. Conversely an intersection of rows is the
    centralizer of a set of simples, so it is closed; the empty intersection
    is the whole set. One pass over the rows therefore yields every closed
    set. The rows must equal braiding_rows, which cross-checks centralize,
    and every set must be closed under duals and the Verlinde products.
    """
    S, gamma = dd.s_matrix, dd.gamma
    rows = [_mask(j for j, sj in enumerate(gamma) if S[i][j] == si.dim * sj.dim)
            for i, si in enumerate(gamma)]
    braided = dd.braiding_rows
    for i, row in enumerate(rows):
        if row != braided[i]:
            raise CheckFailure(
                f"{dd.where}: centralizer row {i} read off S is not braiding row {i}; "
                f"they differ first at simple {bits(row ^ braided[i])[0]}")
    fam = _intersections(rows)
    for c in fam:
        if _close(dd, c) != c:
            raise CheckFailure(f"{dd.where}: the intersection of centralizer rows "
                               f"{bits(c)} is not fusion-closed")
    return frozenset(frozenset(bits(c)) for c in fam)


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
    """Simples whose double braiding with every member is a scalar.

    Equivalently |S_ij| = d_i d_j against every member: these are exactly the
    simples centralizing the adjoint of the subcategory the set spans.
    """
    ms = list(members)
    return frozenset(i for i in range(len(dd.gamma))
                     if all(dd.common_phase(i, j) is not None for j in ms))


def _differ(got: frozenset[int], expect: frozenset[int]) -> str:
    return f"they differ first at simple {min(got ^ expect)}"


def certify(dd: TwistedDouble) -> dict:
    """Cross-validate the triple enumeration against set-level oracles.

    Each centralizer triple's members must be the AND of the members'
    braiding rows, and the member sets of the enumerated triples must be
    exactly the intersections of braiding rows, one triple per set. Rep
    D^omega(G) is modular for every omega, so by Müger's double centralizer
    theorem every fusion subcategory is such an intersection and every such
    intersection is a fusion subcategory. Untwisted doubles read the rows
    off the proven S-matrix through all_closed_sets, which also checks each
    set for fusion closure, and report the closed sets. Twisted doubles
    fold braiding_rows directly and report None: all_closed_sets is exact
    for them too, but this keeps their pinned verify all output.

    Hence the double-centralizer and dimension laws hold on every triple. With
    C(X) = centralizing_simples(X), symmetric rows give X <= C(C(X)), so
    C(C(C(X))) = C(X); each M is an intersection of rows, M = C(X), so
    C(C(M)) = M. The centralizer triple S(H, K, .) has members C(M), and
    subcat_members certifies dim M = |K|[G:H], dim C(M) = |H|[G:K]: product |G|^2.

    The flags of sc.all_flags, the pass that flag_counts reads, must match
    their set-level definitions, with M the members and C = C(M): symmetric
    iff M <= C, isotropic iff every member's twist is 0, Lagrangian iff
    isotropic of dimension |G|, nondegenerate iff M n C is the unit.
    """
    triples = sc.enumerate_all(dd)
    members = {t: sc.subcat_members(dd, t) for t in triples}
    owner: dict[frozenset[int], sc.Triple] = {}
    for t, ms in members.items():
        other = owner.setdefault(ms, t)
        if other is not t:
            raise CheckFailure(
                f"{sc.where(dd, t)}: member set shared with K = {list(other.K.members)}, "
                f"H = {list(other.H.members)}")

    gamma, unit, order = dd.gamma, frozenset((dd.unit_index,)), dd.group.order
    for t, flags in zip(triples, sc.all_flags(dd)):
        ms = members[t]
        got = sc.subcat_members(dd, sc.centralizer_triple(dd, t))
        central = centralizing_simples(dd, ms)
        if got != central:
            raise CheckFailure(f"{sc.where(dd, t)}: centralizer triple's members are not "
                               f"the AND of braiding rows; {_differ(got, central)}")
        isotropic = all(gamma[i].twist == 0 for i in ms)
        expect = sc.TripleFlags(ms <= central, isotropic, isotropic and t.dim == order,
                                ms & central == unit)
        if flags != expect:
            name = next(f.name for f in fields(flags)
                        if getattr(flags, f.name) != getattr(expect, f.name))
            raise CheckFailure(f"{sc.where(dd, t)}: flag {name} is {getattr(flags, name)}, "
                               f"its set-level definition gives {getattr(expect, name)}")

    untwisted = dd.omega.is_trivial
    closed = (all_closed_sets(dd) if untwisted else
              frozenset(frozenset(bits(c)) for c in _intersections(dd.braiding_rows)))
    sets = frozenset(members.values())
    if sets != closed:
        raise CheckFailure(
            f"{dd.where}: enumeration mismatch: {len(closed - sets)} closed sets "
            f"missing, {len(sets - closed)} member sets not closed; the least set "
            f"in only one family is {min(map(sorted, closed ^ sets))}")
    return {"triples": len(triples),
            "closed_sets": len(closed) if untwisted else None,
            "bijection": True if untwisted else None}
