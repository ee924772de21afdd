"""Finite groups as explicit multiplication tables.

Elements are indices 0..n-1 with the identity always at index 0. Conjugacy
classes, centralizers, normal subgroups and central series are computed once
and cached on the group object.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from typing import Iterable, Sequence

DEFAULT_ORDER_CAP = 512


class NotAGroup(ValueError):
    """The multiplication table violates a group axiom."""


class GroupTooLarge(ValueError):
    """A generated or validated group exceeds the order cap."""


@dataclass(frozen=True)
class Subgroup:
    """A subgroup given by its sorted member indices inside a fixed parent group."""

    parent_order: int
    members: tuple[int, ...]
    group: "FiniteGroup" = field(compare=False, repr=False)

    def __post_init__(self) -> None:
        if tuple(sorted(set(self.members))) != self.members:
            raise ValueError("members must be sorted and distinct")
        if not self.members or self.members[0] != 0:
            raise ValueError("subgroup must contain the identity 0")

    def __len__(self) -> int:
        return len(self.members)

    @cached_property
    def member_set(self) -> frozenset[int]:
        return frozenset(self.members)

    @cached_property
    def bitmask(self) -> int:
        mask = 0
        for g in self.members:
            mask |= 1 << g
        return mask

    @property
    def is_trivial(self) -> bool:
        return len(self.members) == 1

    @property
    def is_whole(self) -> bool:
        return len(self.members) == self.parent_order

    @cached_property
    def is_normal(self) -> bool:
        G = self.group
        return all(G.conj(g, k) in self.member_set for g in range(G.order) for k in self.members)

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """A greedy generating set: each generator is the least member not yet reached."""
        gens: list[int] = []
        reached = {0}
        while len(reached) < len(self.members):
            gens.append(next(g for g in self.members if g not in reached))
            reached = self.group.generated_subgroup(gens).member_set
        return tuple(gens)


def _mul_perm(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """Composition p*q acting as (p*q)(i) = p(q(i))."""
    return tuple(p[q[i]] for i in range(len(p)))


class FiniteGroup:
    """A finite group on indices 0..order-1, identity at 0, given by its table."""

    def __init__(self, table: Sequence[Sequence[int]], name: str = "G", validate: bool = True,
                 cap: int = DEFAULT_ORDER_CAP):
        n = len(table)
        if n == 0:
            raise NotAGroup("empty table")
        if n > cap:
            raise GroupTooLarge(f"order {n} exceeds cap {cap}")
        self.order = n
        self.mult: tuple[tuple[int, ...], ...] = tuple(tuple(row) for row in table)
        self.name = name
        if validate:
            self._validate()
        self.inv: tuple[int, ...] = tuple(self.mult[a].index(0) for a in range(n))

    # -- construction -------------------------------------------------------

    @staticmethod
    def from_permutation_generators(gens: Sequence[Sequence[int]], name: str = "G",
                                    cap: int = DEFAULT_ORDER_CAP) -> "FiniteGroup":
        """Closure of permutation generators under composition, breadth first."""
        if not gens:
            raise NotAGroup("no generators")
        deg = len(gens[0])
        gen_tuples = []
        for g in gens:
            t = tuple(g)
            if len(t) != deg or sorted(t) != list(range(deg)):
                raise NotAGroup(f"not a permutation of 0..{deg - 1}: {g}")
            gen_tuples.append(t)
        gen_tuples.sort()
        ident = tuple(range(deg))
        elements: list[tuple[int, ...]] = [ident]
        index: dict[tuple[int, ...], int] = {ident: 0}
        i = 0
        while i < len(elements):
            x = elements[i]
            for g in gen_tuples:
                y = _mul_perm(x, g)
                if y not in index:
                    if len(elements) >= cap:
                        raise GroupTooLarge(f"generated group exceeds cap {cap}")
                    index[y] = len(elements)
                    elements.append(y)
            i += 1
        n = len(elements)
        table = [[index[_mul_perm(elements[a], elements[b])] for b in range(n)] for a in range(n)]
        return FiniteGroup(table, name=name, validate=False, cap=cap)

    # -- validation ---------------------------------------------------------

    def _validate(self) -> None:
        n = self.order
        mult = self.mult
        for a in range(n):
            if len(mult[a]) != n or any(not (0 <= x < n) for x in mult[a]):
                raise NotAGroup("table is not n x n over 0..n-1")
        if any(mult[0][j] != j for j in range(n)) or any(mult[j][0] != j for j in range(n)):
            raise NotAGroup("index 0 is not a two-sided identity")
        all_elems = set(range(n))
        for a in range(n):
            if set(mult[a]) != all_elems:
                raise NotAGroup(f"row {a} is not a permutation (no unique division)")
        for b in range(n):
            if {mult[a][b] for a in range(n)} != all_elems:
                raise NotAGroup(f"column {b} is not a permutation (no unique division)")
        for a in range(n):
            b = mult[a].index(0)
            if mult[b][a] != 0:
                raise NotAGroup(f"element {a} has no two-sided inverse")
        # Light's test: associativity on a generating set implies it everywhere.
        # The right-multiplication closure of the greedy generators is the whole
        # table, so every element is a product of them.
        for g in self.whole_group.generators:
            col_g = [mult[x][g] for x in range(n)]
            row_g = mult[g]
            for x in range(n):
                xg = col_g[x]
                mx = mult[x]
                mxg = mult[xg]
                for y in range(n):
                    if mx[row_g[y]] != mxg[y]:
                        raise NotAGroup(f"associativity fails at ({x}, {g}, {y})")

    # -- basic operations ----------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return self.mult[a][b]

    def inverse(self, a: int) -> int:
        return self.inv[a]

    def conj(self, g: int, a: int) -> int:
        """g a g^{-1}."""
        return self.mult[self.mult[g][a]][self.inv[g]]

    def commutator(self, a: int, b: int) -> int:
        """a b a^{-1} b^{-1}."""
        return self.mult[self.mult[a][b]][self.inv[self.mult[b][a]]]

    def commute(self, a: int, b: int) -> bool:
        return self.mult[a][b] == self.mult[b][a]

    def order_of(self, a: int) -> int:
        k, x = 1, a
        while x != 0:
            x = self.mult[x][a]
            k += 1
        return k

    @cached_property
    def exponent(self) -> int:
        from math import lcm
        return lcm(*(self.order_of(a) for a in range(self.order)))

    @cached_property
    def is_abelian(self) -> bool:
        return all(self.mult[a][b] == self.mult[b][a]
                   for a in range(self.order) for b in range(a))

    # -- conjugacy structure --------------------------------------------------

    @cached_property
    def conjugacy_classes(self) -> tuple[tuple[int, ...], ...]:
        """Classes as sorted tuples, ordered by minimal element; identity class first."""
        seen = [False] * self.order
        classes = []
        for a in range(self.order):
            if seen[a]:
                continue
            cls = sorted({self.conj(g, a) for g in range(self.order)})
            for x in cls:
                seen[x] = True
            classes.append(tuple(cls))
        return tuple(classes)

    @cached_property
    def class_index_of(self) -> tuple[int, ...]:
        out = [0] * self.order
        for i, cls in enumerate(self.conjugacy_classes):
            for x in cls:
                out[x] = i
        return tuple(out)

    @cached_property
    def class_reps(self) -> tuple[int, ...]:
        """Minimal-index representative of each class."""
        return tuple(cls[0] for cls in self.conjugacy_classes)

    def class_of(self, a: int) -> tuple[int, ...]:
        return self.conjugacy_classes[self.class_index_of[a]]

    def centralizer_members(self, a: int) -> tuple[int, ...]:
        cache = self.__dict__.setdefault("_centralizer_cache", {})
        if a not in cache:
            cache[a] = tuple(g for g in range(self.order) if self.commute(g, a))
        return cache[a]

    # -- subgroups -------------------------------------------------------------

    def subgroup(self, members: Iterable[int], check: bool = True) -> Subgroup:
        ms = tuple(sorted(set(members)))
        sub = Subgroup(self.order, ms, self)
        if check:
            mset = sub.member_set
            if 0 not in mset:
                raise ValueError("subgroup must contain the identity")
            for a in ms:
                for b in ms:
                    if self.mult[a][b] not in mset:
                        raise ValueError(f"not closed under multiplication: {a}*{b}")
        return sub

    @cached_property
    def trivial_subgroup(self) -> Subgroup:
        return self.subgroup((0,), check=False)

    @cached_property
    def whole_group(self) -> Subgroup:
        return self.subgroup(range(self.order), check=False)

    def generated_subgroup(self, gens: Iterable[int]) -> Subgroup:
        gens = sorted(set(gens) | {0})
        members = {0}
        elems = [0]
        i = 0
        # closure under right multiplication by generators; finiteness gives inverses
        while i < len(elems):
            x = elems[i]
            for g in gens:
                y = self.mult[x][g]
                if y not in members:
                    members.add(y)
                    elems.append(y)
            i += 1
        return self.subgroup(members, check=False)

    def normal_closure(self, gens: Iterable[int]) -> Subgroup:
        conj_gens = {self.conj(g, a) for a in gens for g in range(self.order)}
        return self.generated_subgroup(conj_gens)

    def product_subgroup(self, A: Subgroup, B: Subgroup) -> Subgroup:
        """AB as a subgroup; valid whenever AB = BA (e.g. either factor normal)."""
        prod = {self.mult[a][b] for a in A.members for b in B.members}
        return self.subgroup(prod)

    def intersect(self, A: Subgroup, B: Subgroup) -> Subgroup:
        return self.subgroup(A.member_set & B.member_set, check=False)

    @cached_property
    def normal_subgroups(self) -> tuple[Subgroup, ...]:
        """All normal subgroups, by join-closure of normal closures of single elements."""
        found: dict[frozenset[int], Subgroup] = {}

        def add(sub: Subgroup) -> bool:
            key = sub.member_set
            if key in found:
                return False
            found[key] = sub
            return True

        add(self.trivial_subgroup)
        for g in range(1, self.order):
            add(self.normal_closure((g,)))
        changed = True
        while changed:
            changed = False
            subs = list(found.values())
            for A, B in combinations(subs, 2):
                if A.member_set <= B.member_set or B.member_set <= A.member_set:
                    continue
                if add(self.product_subgroup(A, B)):
                    changed = True
        return tuple(sorted(found.values(), key=lambda s: (len(s), s.members)))

    def centralizing_pairs(self) -> tuple[tuple[Subgroup, Subgroup], ...]:
        """Ordered pairs (K, H) of normal subgroups commuting elementwise."""
        normals = self.normal_subgroups
        pairs = []
        for K in normals:
            for H in normals:
                if all(self.commute(k, h) for k in K.members for h in H.members):
                    pairs.append((K, H))
        return tuple(pairs)

    # -- central structure -------------------------------------------------------

    @cached_property
    def center(self) -> Subgroup:
        members = [g for g in range(self.order)
                   if all(self.commute(g, x) for x in range(self.order))]
        return self.subgroup(members, check=False)

    def centralizer_of_subgroup(self, K: Subgroup) -> Subgroup:
        members = [g for g in range(self.order)
                   if all(self.commute(g, k) for k in K.members)]
        return self.subgroup(members, check=False)

    def commutator_subgroup(self, K: Subgroup) -> Subgroup:
        """[G, K], generated by commutators g k g^{-1} k^{-1}."""
        gens = {self.commutator(g, k) for g in range(self.order) for k in K.members}
        return self.generated_subgroup(gens)

    @cached_property
    def derived_subgroup(self) -> Subgroup:
        return self.commutator_subgroup(self.whole_group)

    def preimage_of_center_of_quotient(self, H: Subgroup) -> Subgroup:
        """{g : [g, x] in H for all x in G}, for H normal."""
        if not H.is_normal:
            raise ValueError("quotient requires a normal subgroup")
        hset = H.member_set
        members = [g for g in range(self.order)
                   if all(self.commutator(g, x) in hset for x in range(self.order))]
        return self.subgroup(members, check=False)

    def lower_central_series(self) -> tuple[Subgroup, ...]:
        """G = C_0 >= C_1 = [G,G] >= ..., up to and excluding the first repeat."""
        terms = [self.whole_group]
        while True:
            nxt = self.commutator_subgroup(terms[-1])
            if nxt.member_set == terms[-1].member_set:
                break
            terms.append(nxt)
        return tuple(terms)

    def upper_central_series(self) -> tuple[Subgroup, ...]:
        """{e} = C^0 <= C^1 = Z(G) <= ..., up to and excluding the first repeat."""
        terms = [self.trivial_subgroup]
        while True:
            nxt = self.preimage_of_center_of_quotient(terms[-1])
            if nxt.member_set == terms[-1].member_set:
                break
            terms.append(nxt)
        return tuple(terms)

    def lower_central_term(self, n: int) -> Subgroup:
        series = self.lower_central_series()
        return series[min(n, len(series) - 1)]

    def upper_central_term(self, n: int) -> Subgroup:
        series = self.upper_central_series()
        return series[min(n, len(series) - 1)]

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name}, order={self.order})"


# -- standard groups ---------------------------------------------------------


def cyclic_group(n: int) -> FiniteGroup:
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return FiniteGroup(table, name=f"Z{n}", validate=False)


def direct_product(G: FiniteGroup, H: FiniteGroup, name: str | None = None) -> FiniteGroup:
    nh = H.order
    n = G.order * nh

    def idx(a: int, b: int) -> int:
        return a * nh + b

    table = [[0] * n for _ in range(n)]
    for a1 in range(G.order):
        for b1 in range(nh):
            for a2 in range(G.order):
                for b2 in range(nh):
                    table[idx(a1, b1)][idx(a2, b2)] = idx(G.mult[a1][a2], H.mult[b1][b2])
    return FiniteGroup(table, name=name or f"{G.name}x{H.name}", validate=False)


def symmetric_group(n: int) -> FiniteGroup:
    if n < 1:
        raise ValueError("n >= 1")
    if n == 1:
        return FiniteGroup([[0]], name="S1", validate=False)
    cycle = tuple(list(range(1, n)) + [0])
    swap = tuple([1, 0] + list(range(2, n)))
    return FiniteGroup.from_permutation_generators([cycle, swap], name=f"S{n}")


def dihedral_group(n: int) -> FiniteGroup:
    """Dihedral group of order 2n (symmetries of the n-gon), n >= 3."""
    if n < 3:
        raise ValueError("n >= 3")
    rot = tuple((i + 1) % n for i in range(n))
    ref = tuple((n - i) % n for i in range(n))
    return FiniteGroup.from_permutation_generators([rot, ref], name=f"D{n}")


def quaternion_group() -> FiniteGroup:
    """Quaternion group of order 8: indices 0..7 = 1, -1, i, -i, j, -j, k, -k."""
    # unit_mul[u][v] = (sign bit, unit) for units 0=1, 1=i, 2=j, 3=k
    unit_mul = {
        (0, 0): (0, 0), (0, 1): (0, 1), (0, 2): (0, 2), (0, 3): (0, 3),
        (1, 0): (0, 1), (2, 0): (0, 2), (3, 0): (0, 3),
        (1, 1): (1, 0), (2, 2): (1, 0), (3, 3): (1, 0),
        (1, 2): (0, 3), (2, 1): (1, 3),
        (2, 3): (0, 1), (3, 2): (1, 1),
        (3, 1): (0, 2), (1, 3): (1, 2),
    }

    def idx(sign: int, unit: int) -> int:
        return 2 * unit + sign

    table = [[0] * 8 for _ in range(8)]
    for u1 in range(4):
        for s1 in range(2):
            for u2 in range(4):
                for s2 in range(2):
                    sp, up = unit_mul[(u1, u2)]
                    table[idx(s1, u1)][idx(s2, u2)] = idx((s1 + s2 + sp) % 2, up)
    return FiniteGroup(table, name="Q8", validate=True)


_BUILTIN_FACTORIES = {
    "Z2": lambda: cyclic_group(2),
    "Z3": lambda: cyclic_group(3),
    "Z4": lambda: cyclic_group(4),
    "Z2xZ2": lambda: direct_product(cyclic_group(2), cyclic_group(2)),
    "S3": lambda: symmetric_group(3),
    "D4": lambda: dihedral_group(4),
    "Q8": quaternion_group,
    "Z8": lambda: cyclic_group(8),
    "S4": lambda: symmetric_group(4),
}


def builtin_group(name: str, cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    try:
        factory = _BUILTIN_FACTORIES[name]
    except KeyError:
        raise ValueError(f"unknown builtin group {name!r}; known: {sorted(_BUILTIN_FACTORIES)}")
    G = factory()
    if G.order > cap:
        raise GroupTooLarge(f"order {G.order} exceeds cap {cap}")
    return G


BUILTIN_GROUP_NAMES = tuple(sorted(_BUILTIN_FACTORIES))
