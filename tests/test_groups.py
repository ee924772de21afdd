"""Group layer: construction, validation, subgroup machinery, series."""

from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from qdouble import (FiniteGroup, GroupTooLarge, InputError, NotAGroup, builtin_group,
                     cyclic_group, dihedral_group, direct_product,
                     quaternion_group, symmetric_group)
from qdouble.groups import BUILTIN_GROUP_NAMES

from conftest import relabeled_group


ORDERS = {"Z2": 2, "Z3": 3, "Z4": 4, "Z2xZ2": 4, "S3": 6, "D4": 8, "Q8": 8,
          "Z8": 8, "S4": 24}


def test_builtin_orders_and_identity():
    for name in BUILTIN_GROUP_NAMES:
        G = builtin_group(name)
        assert G.order == ORDERS[name]
        assert all(G.mul(0, g) == g and G.mul(g, 0) == g for g in range(G.order))


def test_abelian_and_exponent():
    assert builtin_group("Z8").is_abelian
    assert builtin_group("Z2xZ2").exponent == 2
    assert not builtin_group("S3").is_abelian
    assert builtin_group("S3").exponent == 6
    assert builtin_group("Q8").exponent == 4


def test_inverses_and_conjugation():
    G = builtin_group("S4")
    for g in range(G.order):
        assert G.mul(g, G.inverse(g)) == 0
        assert G.mul(G.inverse(g), g) == 0
    for g in (1, 5, 17):
        for a in (2, 3, 11):
            x = G.conj(g, a)
            assert G.conj(G.inverse(g), x) == a


def test_symmetric_group_classes():
    G = symmetric_group(4)
    assert G.order == 24
    sizes = sorted(len(c) for c in G.conjugacy_classes)
    assert sizes == [1, 3, 6, 6, 8]


def test_dihedral_and_quaternion():
    D4 = dihedral_group(4)
    assert D4.order == 8
    assert sorted(len(c) for c in D4.conjugacy_classes) == [1, 1, 2, 2, 2]
    Q8 = quaternion_group()
    assert sorted(len(c) for c in Q8.conjugacy_classes) == [1, 1, 2, 2, 2]
    # every subgroup of Q8 is normal; there are 6 of them
    assert len(Q8.normal_subgroups) == 6


def test_direct_product():
    G = direct_product(cyclic_group(2), cyclic_group(3))
    assert G.order == 6
    assert G.is_abelian
    assert G.exponent == 6


def test_rejects_non_groups():
    with pytest.raises(NotAGroup):
        FiniteGroup([[0, 1], [1, 1]])  # not a latin square
    with pytest.raises(NotAGroup):
        # latin square with identity but broken associativity (order 5 quasigroup)
        FiniteGroup([
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0]])
    with pytest.raises(InputError):
        FiniteGroup.from_permutation_generators([[1, 0], [0, 0]])


def test_order_cap():
    with pytest.raises(GroupTooLarge):
        cyclic_group(1000)
    with pytest.raises(GroupTooLarge):
        FiniteGroup.from_permutation_generators(
            [list(range(1, 9)) + [0]], cap=5)


def test_permutation_generators_s3():
    G = FiniteGroup.from_permutation_generators([[1, 0, 2], [1, 2, 0]])
    assert G.order == 6
    assert not G.is_abelian


def test_lagrange_and_normality():
    for name in ("S3", "D4", "Q8", "S4"):
        G = builtin_group(name)
        for N in G.normal_subgroups:
            assert G.order % len(N) == 0
            assert N.is_normal


def _normal_closures_of_class_sets(G):
    """Member tuples of the normal closures of every set of class reps, sorted by size."""
    reps = G.class_reps
    closures = {G.normal_closure(r for b, r in enumerate(reps) if mask >> b & 1).members
                for mask in range(1 << len(reps))}
    return tuple(sorted(closures, key=lambda ms: (len(ms), ms)))


def test_normal_subgroups_are_closures_of_class_sets():
    groups = [builtin_group(n) for n in ("S3", "D4", "Q8", "S4", "Z8", "Z2xZ2")]
    groups += [reduce(direct_product, map(builtin_group, names))
               for names in (("S3", "S3"), ("D4", "Z2"))]
    groups.append(relabeled_group(groups[-1], 3))
    for G in groups:
        got = tuple(N.members for N in G.normal_subgroups)
        assert got == _normal_closures_of_class_sets(G), G.name
    Z2_4 = reduce(direct_product, [builtin_group("Z2")] * 4)
    assert len(Z2_4.normal_subgroups) == 67


def test_centralizing_pairs_s4():
    G = builtin_group("S4")
    pairs = G.centralizing_pairs()
    # normals of S4: 1, V, A4, S4; only V is abelian among the proper ones
    assert len(G.normal_subgroups) == 4
    sizes = sorted((len(K), len(H)) for K, H in pairs)
    assert sizes == [(1, 1), (1, 4), (1, 12), (1, 24),
                     (4, 1), (4, 4), (12, 1), (24, 1)]


def test_center_and_commutator():
    D4 = builtin_group("D4")
    assert len(D4.center) == 2
    assert D4.commutator_subgroup(D4.whole_group).members == D4.center.members
    S4 = builtin_group("S4")
    assert len(S4.commutator_subgroup(S4.whole_group)) == 12
    assert len(S4.center) == 1


def test_central_series():
    D4 = builtin_group("D4")
    lower = D4.lower_central_series()
    assert [len(t) for t in lower] == [8, 2, 1]
    upper = D4.upper_central_series()
    assert [len(t) for t in upper] == [1, 2, 8]
    S3 = builtin_group("S3")
    assert [len(t) for t in S3.lower_central_series()] == [6, 3]
    assert [len(t) for t in S3.upper_central_series()] == [1]


def test_series_term_clamping():
    S3 = builtin_group("S3")
    assert S3.lower_central_term(10).members == S3.lower_central_term(1).members
    assert len(S3.upper_central_term(10)) == 1
    assert len(S3.lower_central_term(0)) == S3.order
    assert len(S3.upper_central_term(0)) == 1


def test_preimage_of_center_of_quotient():
    G = builtin_group("D4")
    Z = G.center
    pre = G.preimage_of_center_of_quotient(Z)
    # D4/Z2 is abelian, so the preimage is everything
    assert len(pre) == G.order
    triv = G.preimage_of_center_of_quotient(G.trivial_subgroup)
    assert triv.members == Z.members


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(("S3", "D4", "Q8", "S4")), st.data())
def test_generated_subgroup_closed(name, data):
    G = builtin_group(name)
    gens = data.draw(st.lists(st.integers(0, G.order - 1), max_size=3))
    S = G.generated_subgroup(gens)
    ms = S.member_set
    assert 0 in ms
    assert all(G.mul(a, b) in ms for a in ms for b in ms)
    assert all(G.inverse(a) in ms for a in ms)
    assert G.order % len(S) == 0


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(("S3", "D4", "S4")), st.data())
def test_normal_closure_is_normal(name, data):
    G = builtin_group(name)
    seed = data.draw(st.lists(st.integers(0, G.order - 1), max_size=2))
    N = G.normal_closure(seed)
    assert N.is_normal
    assert all(g in N.member_set for g in seed)
