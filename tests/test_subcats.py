"""Triples (K, H, B): enumeration, lattice operations, invariants."""

from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest

from qdouble import CheckFailure, InputError, builtin_group, direct_product, subcats as sc
from qdouble.linmod import solve_mod
from qdouble.subcats import DimensionMismatch, NotASubcategory, UnsupportedTriple

from conftest import (braiding_doubles, relabeled, twisted_cyclic, twisted_cyclic_coboundary,
                      twisted_quotient, twisted_z2_cubed, untwisted, untwisted_cyclic,
                      untwisted_product)


EXPECTED_COUNTS = {"Z2": 5, "Z4": 15, "Z2xZ2": 67, "S3": 8, "D4": 45, "Q8": 45}


def test_triple_counts():
    for name, count in EXPECTED_COUNTS.items():
        dd = untwisted(name)
        assert len(sc.enumerate_all(dd)) == count


def test_members_match_cyclo_membership():
    # (a, chi) lies in S(K, H, B) iff a is in K and chi(h) = deg B(a, h) on H
    for dd in braiding_doubles():
        ctx = dd.ctx
        for t in sc.enumerate_all(dd):
            expect = set()
            for s in dd.gamma:
                if s.a not in t.K.member_set:
                    continue
                if all(ctx.root_sum(s.spectra[h]) == ctx.root_sum((t.exp(s.a, h),)) * s.degree
                       for h in t.H.members):
                    expect.add(s.index)
            assert sc.subcat_members(dd, t) == expect, (dd.group.name, t)


def test_enumeration_sorted_and_distinct():
    for name in ("Z4", "S3", "D4"):
        dd = untwisted(name)
        ts = sc.enumerate_all(dd)
        keys = [t.sort_key() for t in ts]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)


def test_member_sets_partition_invariants():
    for name in EXPECTED_COUNTS:
        dd = untwisted(name)
        for t in sc.enumerate_all(dd):
            members = sc.subcat_members(dd, t)
            assert dd.unit_index in members
            total = sum(dd.gamma[i].dim ** 2 for i in members)
            assert total == t.dim


def test_round_trip_canonical_triple():
    # the coboundary-twisted quotients carry nonzero conjugation phases
    for dd in [twisted_cyclic(2, 1), twisted_cyclic(4, 2)] + braiding_doubles():
        for t in sc.enumerate_all(dd):
            assert sc.triple_of(dd, sc.subcat_members(dd, t)) == t


def test_not_a_subcategory():
    dd = untwisted("S3")
    # supports include a transposition class but the union is not a subgroup
    three_dim = next(i for i, s in enumerate(dd.gamma) if s.dim == 3)
    with pytest.raises(NotASubcategory):
        sc.triple_of(dd, {dd.unit_index, three_dim})
    with pytest.raises(NotASubcategory):
        sc.triple_of(dd, set())  # missing unit
    # indices that are not simples: past the end, and negative (no wrap-around)
    for bad in (99, -1):
        with pytest.raises(NotASubcategory, match=rf"\[{bad}\] are not indices"):
            sc.triple_of(dd, {dd.unit_index, bad})


def test_build_subcat_dimension_mismatch():
    dd = untwisted("Z4")
    G = dd.group
    K = G.whole_group
    H = G.whole_group
    # a table that is not multiplicative fails the dimension count
    bad = tuple(tuple(1 if (k == 1 and h == 1) else 0 for h in range(4))
                for k in range(4))
    with pytest.raises(NotASubcategory, match="not a G-invariant bicharacter"):
        sc.build_subcat(dd, K, H, bad)
    with pytest.raises(DimensionMismatch, match=r"^Z4 \(cocycle mod 1\) at K = \[0, 1, 2, 3\], "
                       r"H = \[0, 1, 2, 3\]: members carry dimension 3, triple predicts 4$"):
        sc.subcat_members(dd, sc.Triple(K, H, bad))
    # entries lie in 0..N-1, so each subcategory has one value: on Z2,
    # ((0, 0), (0, 3)) would have the members of the enumerated ((0, 0), (0, 1))
    # and still compare unequal to it
    dd = untwisted("Z2")
    W = dd.group.whole_group
    for B in (((0, 0), (0, 3)), ((0, 0), (0, -1))):
        with pytest.raises(InputError, match=r"entries must lie in 0\.\.1"):
            sc.build_subcat(dd, W, W, B)
    assert sc.build_subcat(dd, W, W, ((0, 0), (0, 1))) in sc.enumerate_all(dd)


def _accepts(dd, K, H, B):
    try:
        sc.build_subcat(dd, K, H, B)
    except NotASubcategory:
        return False
    return True


def test_build_subcat_accepts_exactly_bicharacters():
    """build_subcat checks the equations bicharacters solves, on one table."""
    # B(e, 1) = -1 on untwisted Z2 is not normalized, yet its members {1, 2}
    # carry the dimension 2 that the triple predicts
    dd = untwisted("Z2")
    W = dd.group.whole_group
    assert not _accepts(dd, W, W, ((0, 1), (0, 0)))
    for dd in braiding_doubles():
        N = dd.ctx.N
        for K, H in dd.group.centralizing_pairs():
            valid = {t.B for t in sc.bicharacters(dd, K, H)}
            nk, nh = len(K), len(H)
            # every table of the small pairs; with K or H trivial, B is its
            # row or column at e, which the single-entry changes below cover
            if nk > 1 and nh > 1 and N ** (nk * nh) <= 4096:
                for flat in product(range(N), repeat=nk * nh):
                    B = tuple(flat[i:i + nh] for i in range(0, nk * nh, nh))
                    assert _accepts(dd, K, H, B) == (B in valid), (dd.group.name, B)
            # every single-entry change of one valid table (or the zero table)
            base = min(valid, default=((0,) * nh,) * nk)
            for i, j in product(range(nk), range(nh)):
                row = list(base[i])
                for v in range(N):
                    row[j] = v
                    B = base[:i] + (tuple(row),) + base[i + 1:]
                    assert _accepts(dd, K, H, B) == (B in valid), (dd.group.name, B)


def test_triple_of_exact_on_small_doubles():
    """On every set of simples holding the unit, triple_of returns the
    enumerated triple with exactly those members, or raises NotASubcategory."""
    reasons = set()
    for dd in (untwisted_cyclic(3), untwisted("S3"), twisted_cyclic(2, 1),
               twisted_cyclic(3, 1)):
        by_members = {sc.subcat_members(dd, t): t for t in sc.enumerate_all(dd)}
        others = [i for i in range(len(dd.gamma)) if i != dd.unit_index]
        for mask in range(1 << len(others)):
            simples = frozenset([dd.unit_index] +
                                [i for b, i in enumerate(others) if mask >> b & 1])
            if simples in by_members:
                assert sc.triple_of(dd, simples) == by_members[simples]
                continue
            with pytest.raises(NotASubcategory) as exc:
                sc.triple_of(dd, simples)
            reasons.add(next(r for r in ("not a subgroup", "not a root of unity",
                                         "not a G-invariant bicharacter",
                                         "rebuilds a different set")
                             if r in str(exc.value)))
    assert len(reasons) == 4


def test_build_subcat_requires_centralizing_pair():
    dd = untwisted("S3")
    G = dd.group
    A3 = G.normal_subgroups[1]
    assert len(A3) == 3
    # A3 and the whole group do not commute elementwise
    with pytest.raises(ValueError):
        sc.build_subcat(dd, A3, G.whole_group, ((0,) * len(G.whole_group),) * len(A3))


def _brute_force_bichars(dd, K, H):
    """All exponent tables satisfying the three defining families, directly."""
    G, N, scale = dd.group, dd.ctx.N, dd.scale
    beta = dd.omega.beta
    km, hm = K.members, H.members
    free = [(k, h) for k in km[1:] for h in hm[1:]]
    found = []
    for vals in product(range(N), repeat=len(free)):
        L = {(k, h): 0 for k in km for h in hm}
        L.update(dict(zip(free, vals)))
        ok = True
        for k in km:
            for h1 in hm:
                for h2 in hm:
                    if (L[(k, G.mul(h1, h2))] - L[(k, h1)] - L[(k, h2)]
                            + scale * beta(k, h1, h2)) % N:
                        ok = False
        for h in hm:
            for k1 in km:
                for k2 in km:
                    if ok and (L[(G.mul(k1, k2), h)] - L[(k1, h)] - L[(k2, h)]
                               - scale * beta(h, k1, k2)) % N:
                        ok = False
        for k in km:
            for x in range(G.order):
                xi = G.inverse(x)
                for h in hm:
                    if ok and (L[(G.conj(xi, k), h)] - L[(k, G.conj(x, h))]
                               - scale * (beta(k, x, h) + beta(k, G.mul(x, h), xi)
                                          - beta(k, x, xi))) % N:
                        ok = False
        if ok:
            found.append(tuple(tuple(L[(k, h)] for h in hm) for k in km))
    return sorted(found)


def test_bicharacters_match_brute_force():
    for dd in (untwisted("Z2"), twisted_cyclic(2, 1)):
        G = dd.group
        K = H = G.whole_group
        got = sorted(t.B for t in sc.bicharacters(dd, K, H))
        assert got == _brute_force_bichars(dd, K, H)
    dd = untwisted("S3")
    G = dd.group
    A3 = G.normal_subgroups[1]
    got = sorted(t.B for t in sc.bicharacters(dd, A3, A3))
    assert got == _brute_force_bichars(dd, A3, A3)


def _all_pairs_bichars(dd, K, H):
    """Solutions of the full system: every element pair in both slots, every x in G."""
    G = dd.group
    N, scale, beta = dd.ctx.N, dd.scale, dd.omega.beta
    km, hm = K.members, H.members
    nh = len(hm)
    col = {(k, h): (i - 1) * (nh - 1) + (j - 1)
           for i, k in enumerate(km) for j, h in enumerate(hm) if i and j}
    equations = []

    def add(terms, rhs):
        row = [0] * ((len(km) - 1) * (nh - 1))
        for k, h, sign in terms:
            if (k, h) in col:
                row[col[(k, h)]] += sign
        equations.append((row, rhs))

    for k in km:
        for h1 in hm:
            for h2 in hm:
                add(((k, G.mul(h1, h2), 1), (k, h1, -1), (k, h2, -1)),
                    -scale * beta(k, h1, h2))
    for h in hm:
        for k1 in km:
            for k2 in km:
                add(((G.mul(k1, k2), h, 1), (k1, h, -1), (k2, h, -1)),
                    scale * beta(h, k1, k2))
    for k in km:
        for x in range(G.order):
            for h in hm:
                add(((G.conj(G.inverse(x), k), h, 1), (k, G.conj(x, h), -1)),
                    scale * dd.omega.conj_exp(k, x, h))
    return [tuple((0,) * nh if i == 0 else
                  (0,) + tuple(s[(i - 1) * (nh - 1) + j - 1] for j in range(1, nh))
                  for i in range(len(km)))
            for s in solve_mod(equations, len(col), N)]


def test_bicharacters_on_generators_match_all_pairs():
    """Equations on generators only decide the same system as every element pair."""
    doubles = [untwisted_product("Z2", "Z4"), untwisted_product("Z3", "Z3"),
               untwisted("S3"), untwisted("D4"), untwisted("Q8")]
    doubles += [twisted_cyclic_coboundary(n, q, 3) for n in (4, 6, 8) for q in (1, n // 2)]
    doubles += [twisted_quotient(name, m) for name in ("S3", "D4", "Q8") for m in (None, 3)]
    for dd in doubles:
        for K, H in dd.group.centralizing_pairs():
            got = [t.B for t in sc.bicharacters(dd, K, H)]
            assert got == _all_pairs_bichars(dd, K, H), (dd.group.name, K.members, H.members)


def test_bicharacters_match_all_pairs_under_relabeling():
    """The generators, and so the Cayley trees, move with the labeling; the solutions do not."""
    doubles = [untwisted_product("Z2", "Z4"), untwisted_product("Z3", "Z3"),
               untwisted_product("S3", "Z3"), untwisted("D4"),
               twisted_cyclic_coboundary(6, 1, 3),
               twisted_quotient("S3", 3), twisted_quotient("D4", 3)]
    for dd in doubles:
        for seed in (1, 2):
            rd = relabeled(dd, seed)
            for K, H in rd.group.centralizing_pairs():
                got = [t.B for t in sc.bicharacters(rd, K, H)]
                assert got == _all_pairs_bichars(rd, K, H), (dd.group.name, seed, K.members)


def _identity_doubles():
    return (braiding_doubles() + [twisted_z2_cubed()]
            + [twisted_cyclic(n, q) for n in range(2, 10) for q in range(1, n)])


def test_equation_identities_on_every_centralizing_pair():
    """(A), (B) and (C) of _equations' docstring, exhaustively: every element
    quadruple of every centralizing pair, and for (B) and (C) every x in G."""
    bad = []
    for dd in _identity_doubles():
        G, omega = dd.group, dd.omega
        m, mul, beta, c = omega.modulus, G.mult, omega.beta_table, omega.conj_exp
        for K, H in G.centralizing_pairs():
            km, hm = K.members, H.members
            for k1, k2, h1, h2 in product(km, km, hm, hm):
                a = (beta(mul[k1][k2])[h1][h2] - beta(k1)[h1][h2] - beta(k2)[h1][h2]
                     + beta(mul[h1][h2])[k1][k2] - beta(h1)[k1][k2] - beta(h2)[k1][k2])
                if a % m:
                    bad.append(("A", G.name, k1, k2, h1, h2))
            for x in range(G.order):
                xi = G.inverse(x)
                for k, h1, h2 in product(km, hm, hm):
                    b = (c(k, x, mul[h1][h2]) - c(k, x, h1) - c(k, x, h2)
                         - beta(k)[G.conj(x, h1)][G.conj(x, h2)] + beta(G.conj(xi, k))[h1][h2])
                    if b % m:
                        bad.append(("B", G.name, k, x, h1, h2))
                for k1, k2, h in product(km, km, hm):
                    cc = (c(mul[k1][k2], x, h) - c(k1, x, h) - c(k2, x, h)
                          - beta(h)[G.conj(xi, k1)][G.conj(xi, k2)] + beta(G.conj(x, h))[k1][k2])
                    if cc % m:
                        bad.append(("C", G.name, k1, k2, x, h))
    assert not bad, bad[:5]


def _formal_beta(G, acc, sign, a, x, y):
    """Add sign beta_a(x, y) = w(a, x, y) + w(x, y, a^xy) - w(x, a^x, y) to acc, by omega-triple."""
    acc[a, x, y] += sign
    acc[x, y, G.conj(G.inverse(G.mul(x, y)), a)] += sign
    acc[x, G.conj(G.inverse(x), a), y] -= sign


def _formal_dw(G, acc, sign, g1, g2, g3, g4):
    """Add sign dw(g1, g2, g3, g4), validate's lhs - rhs, to acc, by omega-triple."""
    mul = G.mul
    for triple, s in (((g2, g3, g4), 1), ((mul(g1, g2), g3, g4), -1),
                      ((g1, mul(g2, g3), g4), 1), ((g1, g2, mul(g3, g4)), -1),
                      ((g1, g2, g3), 1)):
        acc[triple] += sign * s


def test_shuffle_identity_is_formal():
    """(A) holds term by term in omega, with no cocycle assumed: on S3 x S3,
    with k1, k2 in S3 x 1 and h1, h2 in 1 x S3, the omega-triples of the
    beta side and of the six-shuffle dw side are the same Counter."""
    G = direct_product(builtin_group("S3"), builtin_group("S3"))
    ks, hs = range(0, 36, 6), range(6)      # (a, e) is 6a, (e, b) is b
    for k1, k2, h1, h2 in product(ks, ks, hs, hs):
        betas, dws = Counter(), Counter()
        for sign, a, x, y in ((1, G.mul(k1, k2), h1, h2), (-1, k1, h1, h2), (-1, k2, h1, h2),
                              (1, G.mul(h1, h2), k1, k2), (-1, h1, k1, k2), (-1, h2, k1, k2)):
            _formal_beta(G, betas, sign, a, x, y)
        for sign, quadruple in ((-1, (k1, k2, h1, h2)), (1, (k1, h1, k2, h2)),
                                (-1, (k1, h1, h2, k2)), (1, (h1, k1, h2, k2)),
                                (-1, (h1, k1, k2, h2)), (-1, (h1, h2, k1, k2))):
            _formal_dw(G, dws, sign, *quadruple)
        betas.subtract(dws)
        assert not any(betas.values()), (k1, k2, h1, h2)


def test_beta_associativity_is_formal():
    """The identity behind (B): beta_a(x, y) + beta_a(xy, z) - beta_a(x, yz)
    - beta_{a^x}(y, z) = dw(a, x, y, z) - dw(x, a^x, y, z) + dw(x, y, a^xy, z)
    - dw(x, y, z, a^xyz), term by term in omega, on all of S3."""
    G = builtin_group("S3")

    def conj_by(g, b):
        """g^-1 b g"""
        return G.conj(G.inverse(g), b)

    for a, x, y, z in product(range(6), repeat=4):
        xy, yz = G.mul(x, y), G.mul(y, z)
        betas, dws = Counter(), Counter()
        for sign, b, u, v in ((1, a, x, y), (1, a, xy, z), (-1, a, x, yz), (-1, conj_by(x, a), y, z)):
            _formal_beta(G, betas, sign, b, u, v)
        for sign, quadruple in ((1, (a, x, y, z)), (-1, (x, conj_by(x, a), y, z)),
                                (1, (x, y, conj_by(xy, a), z)),
                                (-1, (x, y, z, conj_by(G.mul(xy, z), a)))):
            _formal_dw(G, dws, sign, *quadruple)
        betas.subtract(dws)
        assert not any(betas.values()), (a, x, y, z)


def test_equations_on_generator_pairs_only():
    """_equations yields |Kg| |H| |Hg| + |Hg| |K| |Kg| + |Kg| |Hg| |Gg| rows."""
    for dd in (untwisted("D4"), untwisted_product("Z2", "Z4"), twisted_quotient("S3", 3),
               twisted_z2_cubed()):
        gg = len(dd.group.whole_group.generators)
        for K, H in dd.group.centralizing_pairs():
            kg, hg = len(K.generators), len(H.generators)
            count = sum(1 for _ in sc._equations(dd, K, H))
            assert count == kg * len(H) * hg + hg * len(K) * kg + kg * hg * gg, \
                (dd.group.name, K.members, H.members)


def test_build_subcat_rejects_a_table_wrong_off_the_generator_pairs():
    """On Z4 with K = H = Z4, the zero table changed at (2, 2) satisfies every
    equation of _equations, as 2 is no generator, yet breaks the tree edge
    B(2, 1 + 1) = B(2, 1) B(2, 1); build_subcat also checks the forms."""
    dd = untwisted("Z4")
    W = dd.group.whole_group
    assert W.generators == (1,) and dd.group.mul(1, 1) == 2
    B = tuple(tuple(int(k == h == 2) for h in W.members) for k in W.members)
    t = sc.Triple(W, W, B)
    assert not any((t.exp(*a) - t.exp(*b) - t.exp(*d) - r) % dd.ctx.N
                   for a, b, d, r in sc._equations(dd, W, W))
    with pytest.raises(NotASubcategory, match="not a G-invariant bicharacter"):
        sc.build_subcat(dd, W, W, B)


def test_contains_matches_member_sets():
    for name in ("Z4", "S3"):
        dd = untwisted(name)
        ts = sc.enumerate_all(dd)
        mem = {t: sc.subcat_members(dd, t) for t in ts}
        for t1 in ts:
            for t2 in ts:
                assert sc.contains(dd, t1, t2) == (mem[t1] <= mem[t2])


def test_centralizer_is_commutant():
    for dd in (untwisted("S3"), twisted_cyclic(2, 1), twisted_cyclic(4, 3)):
        n = len(dd.gamma)
        for t in sc.enumerate_all(dd):
            members = sc.subcat_members(dd, t)
            expect = frozenset(i for i in range(n)
                               if all(dd.centralize(i, j) for j in members))
            got = sc.subcat_members(dd, sc.centralizer_triple(dd, t))
            assert got == expect


def test_centralizer_involution():
    for dd in (untwisted("D4"), twisted_cyclic(4, 1)):
        for t in sc.enumerate_all(dd):
            assert sc.centralizer_triple(dd, sc.centralizer_triple(dd, t)) == t


def test_muger_center_members():
    for dd in (untwisted("S3"), twisted_cyclic(2, 1)):
        for t in sc.enumerate_all(dd):
            members = sc.subcat_members(dd, t)
            z = sc.muger_center(dd, t)
            expect = frozenset(i for i in members
                               if all(dd.centralize(i, j) for j in members))
            assert sc.subcat_members(dd, z) == expect


def test_meet_names_the_double_and_both_triples():
    # B(e, 1) = 1 is no bicharacter: h = 2 is 0 * 2 and 1 * 1 in H1 H2, giving 0 and 2
    dd = untwisted("Z3")
    G = dd.group
    t1 = sc.Triple(G.trivial_subgroup, G.whole_group, ((0, 1, 0),))
    t2 = sc.Triple(G.whole_group, G.whole_group, ((0, 1, 0), (0, 0, 0), (0, 0, 0)))
    with pytest.raises(CheckFailure) as info:
        sc.meet(dd, t1, t2)
    assert str(info.value) == ("Z3 (cocycle mod 1): meet of K = [0], H = [0, 1, 2] and "
                               "K = [0, 1, 2], H = [0, 1, 2]: "
                               "pairing not well defined at (0, 2): 0 != 2")


def test_duplicate_triples_name_the_double_and_the_triple(monkeypatch):
    # a fresh double, so the cached one keeps its enumeration
    dd = untwisted.__wrapped__("S3")
    once = sc.bicharacters
    monkeypatch.setattr(sc, "bicharacters", lambda dd, K, H: once(dd, K, H) * 2)
    with pytest.raises(CheckFailure) as info:
        sc.enumerate_all(dd)
    assert str(info.value) == ("S3 (cocycle mod 1) at K = [0], H = [0]: "
                               "duplicate triples in enumeration")


def test_classify_z2():
    dd = untwisted("Z2")
    flags = [sc.classify(dd, t).short() for t in sc.enumerate_all(dd)]
    assert flags == ["sym,iso,lag", "sym,iso,nondeg", "nondeg",
                     "sym,iso,lag", "sym"]


def _classify_reference(dd, t):
    """The flags by their definitions, one exp() call per entry of B read."""
    N, K, H, exp = dd.ctx.N, t.K, t.H, t.exp
    k_in_h = K.member_set <= H.member_set
    symmetric = k_in_h and all((exp(k1, k2) + exp(k2, k1)) % N == 0
                               for k1 in K.members for k2 in K.members)
    isotropic = k_in_h and all(exp(k, k) == 0 for k in K.members)
    KH = dd.group.intersect(K, H)
    radical = [a for a in KH.members
               if all((exp(a, j) + exp(j, a)) % N == 0 for j in KH.members)]
    nondegenerate = len(H) * len(K) == dd.group.order * len(KH) and len(radical) == 1
    return sc.TripleFlags(symmetric, isotropic, isotropic and K.members == H.members,
                          nondegenerate)


def test_classify_matches_reference():
    doubles = braiding_doubles() + [untwisted_product("Z3", "Z3"), relabeled(untwisted("D4"), 1)]
    for dd in doubles:
        for t in sc.enumerate_all(dd):
            assert sc.classify(dd, t) == _classify_reference(dd, t), (dd.group.name, t)


def test_classify_implications():
    for name in EXPECTED_COUNTS:
        dd = untwisted(name)
        for t in sc.enumerate_all(dd):
            f = sc.classify(dd, t)
            if f.lagrangian:
                assert f.isotropic
            if f.isotropic:
                assert f.symmetric
            # symmetric subcategories are their own center
            if f.symmetric:
                assert sc.muger_center(dd, t) == t


def test_nondegenerate_iff_trivial_center():
    for dd in (untwisted("D4"), twisted_cyclic(2, 1), twisted_cyclic(4, 2)):
        for t in sc.enumerate_all(dd):
            f = sc.classify(dd, t)
            z = sc.muger_center(dd, t)
            assert f.nondegenerate == (len(sc.subcat_members(dd, z)) == 1)


def test_primality():
    assert sc.is_prime(untwisted("Z2"))
    assert sc.is_prime(untwisted("Z4"))
    assert sc.is_prime(untwisted("S3"))
    assert sc.is_prime(untwisted("S4"))
    assert not sc.is_prime(untwisted_cyclic(3))
    assert not sc.is_prime(untwisted_cyclic(5))
    assert not sc.is_prime(twisted_cyclic(2, 1))


def test_nondegenerate_counts():
    assert sc.nondegenerate_count(untwisted_cyclic(3)) == 2
    assert sc.nondegenerate_count(untwisted_cyclic(5)) == 4
    assert sc.nondegenerate_count(twisted_cyclic(2, 1)) == 2
    assert sc.nondegenerate_count(untwisted("S3")) == 0


def test_gauss_sum_whole_and_trivial():
    for dd in (untwisted("S3"), untwisted("D4"), twisted_cyclic(2, 1),
               twisted_cyclic(4, 1)):
        order = dd.group.order
        assert sc.gauss_sum(dd, sc.whole_triple(dd)) == order
        assert sc.gauss_sum(dd, sc.trivial_triple(dd)) == 1
        zeta = sc.central_charge(dd, sc.whole_triple(dd))
        assert abs(zeta - 1) < 1e-9


def _cyclo_gauss_sums(dd, t):
    """Both sides of the Gauss sum with field sums: the class formula in B, and
    sum_i theta_i d_i^2 with theta_i = chi_i(a_i) / deg_i read off the character."""
    G, ctx = dd.group, dd.ctx
    KH = G.intersect(t.K, t.H)
    reps = [a for a in G.class_reps if a in KH.member_set]
    formula = sum([ctx.root_sum((t.exp(a, a),)) * len(G.class_of(a)) for a in reps],
                  ctx.root_sum(()))
    thetas = []
    for i in sc.subcat_members(dd, t):
        s = dd.gamma[i]
        theta = ctx.root_sum(s.spectra[s.a]) * Fraction(1, s.degree)
        thetas.append(theta * s.dim ** 2)
    return formula * (G.order // len(t.H)), sum(thetas, ctx.root_sum(()))


def test_gauss_sum_matches_field_reference():
    for dd in braiding_doubles() + [untwisted("S4")]:
        for t in sc.enumerate_all(dd):
            formula, twists = _cyclo_gauss_sums(dd, t)
            assert sc.gauss_sum(dd, t) == formula == twists, (dd.group.name, t)


def test_gauss_sum_mismatch_names_the_double_and_the_triple():
    # the fermion's twist moved from -1 to 1: the twist sum is 4, the formula 2
    dd = untwisted.__wrapped__("Z2")
    gamma = list(dd.gamma)
    gamma[3] = replace(gamma[3], twist=gamma[3].twist + 1)
    dd._gamma = tuple(gamma)
    with pytest.raises(CheckFailure) as info:
        sc.gauss_sum(dd, sc.whole_triple(dd))
    assert str(info.value) == ("Z2 (cocycle mod 1) at K = [0, 1], H = [0]: "
                               "Gauss sum mismatch: formula 2, twist sum 4")


def test_semion_invariants():
    dd = twisted_cyclic(2, 1)
    ctx = dd.ctx
    ts = [t for t in sc.enumerate_all(dd)
          if len(t.K) == 2 and len(t.H) == 2 and any(map(any, t.B))]
    assert len(ts) == 2
    taus = {sc.gauss_sum(dd, t) for t in ts}
    assert taus == {ctx.root_sum((1,)) + 1, ctx.root_sum((3,)) + 1}  # 1 + i and 1 - i
    zetas = sorted(sc.central_charge(dd, t).imag for t in ts)
    assert abs(zetas[0] + 2 ** -0.5) < 1e-9 and abs(zetas[1] - 2 ** -0.5) < 1e-9


def test_central_charge_magnitude_nondegenerate():
    for dd in (untwisted("D4"), twisted_cyclic(4, 1)):
        for t in sc.enumerate_all(dd):
            if sc.classify(dd, t).nondegenerate:
                assert abs(abs(sc.central_charge(dd, t)) - 1) < 1e-9


def test_adjoint_requires_trivial_data():
    dd = twisted_cyclic(2, 1)
    with pytest.raises(UnsupportedTriple):
        sc.adjoint_triple(dd, sc.whole_triple(dd))
    dd2 = untwisted("Z2")
    ts = sc.enumerate_all(dd2)
    nontrivial_b = next(t for t in ts if any(map(any, t.B)))
    with pytest.raises(UnsupportedTriple):
        sc.adjoint_triple(dd2, nontrivial_b)


def test_adjoint_of_whole():
    for name in ("S3", "D4", "S4"):
        dd = untwisted(name)
        G = dd.group
        ad = sc.adjoint_triple(dd, sc.whole_triple(dd))
        assert ad.K.members == G.commutator_subgroup(G.whole_group).members
        assert ad.H.members == G.center.members


def test_adjoint_members_match_closure_definition():
    from qdouble import oracle
    for name in ("S3", "D4"):
        dd = untwisted(name)
        for t in sc.enumerate_all(dd):
            if any(map(any, t.B)):
                continue
            members = sc.subcat_members(dd, t)
            ad = sc.adjoint_triple(dd, t)
            assert sc.subcat_members(dd, ad) == oracle.adjoint_closure(dd, members)


def test_central_series_stabilizes():
    dd = untwisted("D4")
    assert sc.adjoint_series_term(dd, 0) == sc.whole_triple(dd)
    assert sc.central_series_term(dd, 0) == sc.trivial_triple(dd)
    # D4 is nilpotent of class 2: the adjoint series hits the trivial triple
    t2 = sc.adjoint_series_term(dd, 2)
    assert sc.subcat_members(dd, t2) == frozenset({dd.unit_index})
    assert sc.central_series_term(dd, 2) == sc.whole_triple(dd)
