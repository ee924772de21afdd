"""Set-level oracles: fusion closure, closed-set enumeration, certification."""

import pytest

from qdouble import Cyclo, TwistedDouble, builtin_group, oracle, subcats as sc
from qdouble.groups import BUILTIN_GROUP_NAMES

from conftest import (twisted_cyclic, twisted_quotient, untwisted, untwisted_cyclic,
                      untwisted_product)


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


def test_all_closed_sets_counts():
    for name, count in (("Z2", 5), ("Z4", 15), ("S3", 8)):
        dd = untwisted(name)
        assert len(oracle.all_closed_sets(dd)) == count


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


def test_closed_sets_are_joins_of_singletons():
    dd = untwisted("S3")
    closed = oracle.all_closed_sets(dd)
    for s in closed:
        rebuilt = oracle.fusion_closure(dd, s)
        assert rebuilt == s


def test_certify_untwisted():
    rep = oracle.certify(untwisted("S3"))
    assert rep["bijection"] is True
    assert rep["triples"] == rep["closed_sets"] == 8


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


def test_certify_various():
    for dd in (untwisted("Z2xZ2"), untwisted_cyclic(5), twisted_cyclic(4, 3)):
        oracle.certify(dd)


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
    # magnitude-centralizing a set equals exactly centralizing its adjoint
    for name in ("S3", "D4", "Q8"):
        dd = untwisted(name)
        for t in sc.enumerate_all(dd):
            if not t.B.is_trivial:
                continue
            members = sc.subcat_members(dd, t)
            proj = oracle.projectively_centralizing_simples(dd, members)
            ad = oracle.adjoint_closure(dd, members)
            assert proj == oracle.centralizing_simples(dd, ad)


def test_braiding_oracles_multiply_no_cyclo_pair(monkeypatch):
    # certify and the projective centralizer decide on exponents, never on field products
    mul = Cyclo.__mul__

    def guarded(self, other):
        if isinstance(other, Cyclo):
            raise RuntimeError("Cyclo x Cyclo product")
        return mul(self, other)

    monkeypatch.setattr(Cyclo, "__mul__", guarded)
    # fresh doubles, so no cached table hides a product
    for dd in (TwistedDouble(builtin_group("D4")), twisted_quotient.__wrapped__("D4", 3)):
        oracle.certify(dd)
        for t in sc.enumerate_all(dd):
            members = sc.subcat_members(dd, t)
            proj = oracle.projectively_centralizing_simples(dd, members)
            assert oracle.centralizing_simples(dd, members) <= proj
