"""Set-level oracles: fusion closure, closed-set enumeration, certification."""

from collections import Counter
from fractions import Fraction

import pytest

from qdouble import CheckFailure, Cyclo, TwistedDouble, builtin_group, oracle, subcats as sc
from qdouble.groups import BUILTIN_GROUP_NAMES

from conftest import (braiding_doubles, twisted_cyclic, twisted_cyclic_coboundary,
                      twisted_quotient, twisted_z2_cubed, untwisted, untwisted_cyclic, untwisted_product)


def test_fusion_closure_basics():
    dd = untwisted("S3")
    unit_only = oracle.fusion_closure(dd, ())
    assert unit_only == frozenset({dd.unit_index})
    everything = oracle.fusion_closure(dd, range(len(dd.gamma)))
    assert everything == frozenset(range(len(dd.gamma)))


def test_fusion_closure_is_closed():
    dd = untwisted("D4")
    duals = dd.duals
    for seed in ((3,), (7, 11), (21,)):
        c = oracle.fusion_closure(dd, seed)
        assert dd.unit_index in c
        for i in c:
            assert duals[i] in c
            for j in c:
                assert set(dd.tensor_components(i, j)) <= c


def test_closure_is_minimal():
    dd = untwisted("Z2")
    # the closure of a semion-free seed never invents new simples
    assert oracle.fusion_closure(dd, (2,)) == frozenset({0, 2})


def _reference_closed_sets(dd):
    """Closed sets by saturating pairwise joins of frozenset closures."""
    n = len(dd.gamma)
    duals = dd.duals
    comps = [[set(dd.tensor_components(i, j)) for j in range(n)] for i in range(n)]

    def closure(seed):
        cur = set(seed) | {dd.unit_index}
        while True:
            grown = set(cur)
            for i in cur:
                grown.add(duals[i])
                for j in cur:
                    grown |= comps[i][j]
            if grown == cur:
                return frozenset(cur)
            cur = grown

    closed = {closure(())} | {closure((i,)) for i in range(n)}
    while True:
        new = {closure(a | b) for a in closed for b in closed} - closed
        if not new:
            return frozenset(closed)
        closed |= new


def test_all_closed_sets_match_pairwise_joins():
    for name in ("Z2xZ2", "S3", "D4", "Q8"):
        dd = untwisted(name)
        assert oracle.all_closed_sets(dd) == _reference_closed_sets(dd)


def test_all_closed_sets_rejects_rows_that_disagree_with_braiding():
    # a fresh double, so the cached ones keep their tables
    dd = TwistedDouble(builtin_group("D4"))
    rows = list(dd.braiding_rows)
    rows[3] &= ~1
    dd.braiding_rows = tuple(rows)
    with pytest.raises(CheckFailure, match="centralizer row 3 read off S is not braiding row 3"):
        oracle.all_closed_sets(dd)


def test_all_closed_sets_rejects_a_set_that_is_not_fusion_closed():
    dd = TwistedDouble(builtin_group("D4"))
    prod, _ = oracle._masks(dd)
    prod[0][0] |= 1 << 1   # the unit alone is an intersection of rows
    with pytest.raises(CheckFailure, match=r"rows \[0\] is not fusion-closed"):
        oracle.all_closed_sets(dd)


def test_certify_every_builtin():
    closed = {"Z2": 5, "Z3": 6, "Z4": 15, "Z2xZ2": 67, "S3": 8, "D4": 45,
              "Q8": 45, "Z8": 37, "S4": 9}
    assert set(closed) == set(BUILTIN_GROUP_NAMES)
    for name, count in closed.items():
        rep = oracle.certify(untwisted(name))
        assert rep == {"triples": count, "closed_sets": count, "bijection": True}, name


def test_certify_d4xz2():
    # 88 simples: both certificates of the S-matrix and the fusion proof at scale
    rep = oracle.certify(untwisted_product("D4", "Z2"))
    assert rep == {"triples": 1023, "closed_sets": 1023, "bijection": True}


def test_certify_s3xs3():
    # 64 simples over phi(36) = 12 embeddings, proved once per distinct column
    rep = oracle.certify(untwisted_product("S3", "S3"))
    assert rep == {"triples": 68, "closed_sets": 68, "bijection": True}


def test_certify_names_both_triples_of_a_shared_member_set():
    # a fresh double, so the cached one keeps its member sets
    dd = untwisted.__wrapped__("S3")
    first, second = sc.enumerate_all(dd)[:2]
    dd.subcat_caches[second] = sc.subcat_members(dd, first)
    with pytest.raises(CheckFailure) as info:
        oracle.certify(dd)
    assert str(info.value) == ("S3 (cocycle mod 1) at K = [0], H = [0, 2, 5]: "
                               "member set shared with K = [0], H = [0]")


def test_flags_match_their_set_level_definitions():
    # with M the members and C the simples centralizing M: symmetric iff M <= C,
    # isotropic iff every twist is 0, Lagrangian iff isotropic of dimension |G|,
    # nondegenerate iff M n C is the unit
    doubles = (braiding_doubles() + [twisted_z2_cubed()]
               + [untwisted(name) for name in BUILTIN_GROUP_NAMES]
               + [untwisted_product("D4", "Z2"), untwisted_product("S3", "Z3")])
    for dd in doubles:
        for t in sc.enumerate_all(dd):
            members = sc.subcat_members(dd, t)
            central = oracle.centralizing_simples(dd, members)
            isotropic = all(dd.gamma[i].twist == 0 for i in members)
            expect = sc.TripleFlags(members <= central, isotropic,
                                    isotropic and t.dim == dd.group.order,
                                    members & central == {dd.unit_index})
            assert sc.classify(dd, t) == expect, (dd.where, t)


def test_closed_sets_are_joins_of_singletons():
    dd = untwisted("S3")
    closed = oracle.all_closed_sets(dd)
    for s in closed:
        rebuilt = oracle.fusion_closure(dd, s)
        assert rebuilt == s


def test_certify_twisted():
    rep = oracle.certify(twisted_cyclic(2, 1))
    assert rep["triples"] == 5
    assert rep["bijection"] is None
    # non-abelian twisted doubles: certify compares every centralizer's members
    # with the braiding predicate
    for name, count in (("S3", 8), ("D4", 45), ("Q8", 45)):
        for cob_m in (None, 3):
            rep = oracle.certify(twisted_quotient(name, cob_m))
            assert rep["triples"] == count
            assert rep["bijection"] is None


def _twisted_doubles():
    """omega_q on Z/n for n <= 6, the six semion quotients, and Z4's coboundary."""
    return [*(twisted_cyclic(n, q) for n in range(2, 7) for q in range(1, n)),
            *(twisted_quotient(name, m) for name in ("S3", "D4", "Q8") for m in (None, 3)),
            twisted_cyclic_coboundary(4, 1, 3)]


def test_twisted_double_centralizer_and_dimension_laws():
    # what verify all states for a twisted double, asserted on the member sets:
    # C(C(M)) = M and dim M dim C(M) = |G|^2, with C = centralizing_simples;
    # and the member sets are the closed sets read off the twisted S-matrix
    doubles = _twisted_doubles()
    n_triples = 0
    for dd in doubles:
        squares = [s.dim ** 2 for s in dd.gamma]
        member_sets = set()
        for t in sc.enumerate_all(dd):
            members = sc.subcat_members(dd, t)
            cent = oracle.centralizing_simples(dd, members)
            assert oracle.centralizing_simples(dd, cent) == members, (dd.group.name, t)
            dims = [sum(squares[i] for i in ms) for ms in (members, cent)]
            assert dims[0] * dims[1] == dd.group.order ** 2, (dd.group.name, t)
            member_sets.add(members)
            n_triples += 1
        assert oracle.all_closed_sets(dd) == member_sets, (dd.group.name, dd.omega.modulus)
    assert (len(doubles), n_triples) == (22, 357)


def test_twisted_z2_cubed_matches_untwisted_d4():
    # the first twisted double on a non-cyclic group: D^omega(Z2^3) with
    # omega = (-1)^(a1 b2 c3) has the modular data of D(D4) (Goff-Mason-Ng)
    dd = twisted_z2_cubed()
    triples = sc.enumerate_all(dd)
    assert (len(dd.gamma), len(triples)) == (22, 45)
    member_sets = {sc.subcat_members(dd, t) for t in triples}
    assert len(member_sets) == 45
    assert oracle.all_closed_sets(dd) == member_sets

    def spectrum(dd):
        return Counter((s.dim, Fraction(s.twist, dd.ctx.N)) for s in dd.gamma)
    assert spectrum(dd) == spectrum(untwisted("D4"))


def test_certify_twisted_rejects_a_missing_triple():
    # a fresh double, so the cached one keeps its enumeration
    dd = twisted_cyclic.__wrapped__(4, 1)
    triples = sc.enumerate_all(dd)
    drop = next(t for t in triples if sc.centralizer_triple(dd, t) != t)
    dd.subcat_caches[("all",)] = tuple(t for t in triples if t != drop)
    with pytest.raises(CheckFailure, match="enumeration mismatch: 1 closed sets missing, 0 "):
        oracle.certify(dd)


def test_certify_various():
    # every omega_q on Z/n, n <= 8: the member sets are the intersections of braiding rows,
    # and the closed sets read off the S-matrix, twisted or not
    for dd in (untwisted("Z2xZ2"), untwisted_cyclic(5),
               *(twisted_cyclic(n, q) for n in range(2, 9) for q in range(1, n))):
        oracle.certify(dd)
        members = {sc.subcat_members(dd, t) for t in sc.enumerate_all(dd)}
        assert oracle.all_closed_sets(dd) == members, (dd.group.name, dd.omega.modulus)


def test_adjoint_closure_of_whole():
    dd = untwisted("S3")
    everything = frozenset(range(len(dd.gamma)))
    ad = oracle.adjoint_closure(dd, everything)
    expected = sc.subcat_members(dd, sc.adjoint_series_term(dd, 1))
    assert ad == expected


def test_centralizing_simples_match_triples():
    for dd in (untwisted("D4"), twisted_cyclic(4, 1)):
        for t in sc.enumerate_all(dd):
            members = sc.subcat_members(dd, t)
            got = oracle.centralizing_simples(dd, members)
            expect = sc.subcat_members(dd, sc.centralizer_triple(dd, t))
            assert got == expect


def test_projective_centralizer_is_adjoint_centralizer():
    # magnitude-centralizing a set equals exactly centralizing its adjoint, on every triple
    for dd in (*map(untwisted, ("S3", "D4", "Q8")), *_twisted_doubles()):
        for t in sc.enumerate_all(dd):
            members = sc.subcat_members(dd, t)
            proj = oracle.projectively_centralizing_simples(dd, members)
            ad = oracle.adjoint_closure(dd, members)
            assert proj == oracle.centralizing_simples(dd, ad), (dd.group.name, t)


def test_braiding_oracles_multiply_no_cyclo_pair(monkeypatch):
    # certify, the projective centralizer and the Gauss sum decide on exponents,
    # never on field products; the Gauss sum adds no field elements either
    mul = Cyclo.__mul__

    def guarded(self, other):
        if isinstance(other, Cyclo):
            raise RuntimeError("Cyclo x Cyclo product")
        return mul(self, other)

    def no_add(self, other):
        raise RuntimeError("Cyclo addition")

    monkeypatch.setattr(Cyclo, "__mul__", guarded)
    monkeypatch.setattr(Cyclo, "__add__", no_add)
    monkeypatch.setattr(Cyclo, "__radd__", no_add)
    # fresh doubles, so no cached table hides a product
    for dd in (TwistedDouble(builtin_group("D4")), twisted_quotient.__wrapped__("D4", 3)):
        oracle.certify(dd)
        for t in sc.enumerate_all(dd):
            members = sc.subcat_members(dd, t)
            proj = oracle.projectively_centralizing_simples(dd, members)
            assert oracle.centralizing_simples(dd, members) <= proj
            sc.gauss_sum(dd, t)
