"""Acceptance suite: ten verifiable criteria, one test (and one line) each.

Every numeric assertion is exact unless a tolerance is stated inline.
"""

import time

from qdouble import oracle, subcats as sc
from qdouble import (builtin_cyclic, builtin_group, check_identities, coboundary,
                     validate)
from qdouble.characters import beta_regular_class_count

from conftest import (braiding_doubles, twisted_cyclic, twisted_z2_cubed, untwisted,
                      untwisted_cyclic)

UNTWISTED_NAMES = ("Z2", "Z4", "Z2xZ2", "S3", "D4", "Q8")


def _all_untwisted():
    return [untwisted(n) for n in UNTWISTED_NAMES] + [untwisted_cyclic(3)]


def _all_twisted():
    return [twisted_cyclic(2, 1), twisted_cyclic(4, 1), twisted_cyclic(4, 2)]


def test_criterion_01_closure_bijection():
    """Triple enumeration is a bijection onto fusion-closed sets, under 60 s."""
    start = time.monotonic()
    counts = {}
    for dd in _all_untwisted():
        report = oracle.certify(dd)
        assert report["bijection"] is True
        assert report["triples"] == report["closed_sets"]
        counts[dd.group.name] = report["triples"]
    elapsed = time.monotonic() - start
    assert counts["Z2"] == 5
    assert elapsed < 60.0
    print(f"criterion 1 PASS: bijection on {len(counts)} groups "
          f"({counts}) in {elapsed:.1f}s")


def test_criterion_02_cyclic_nondegenerates_and_primality():
    """Pointed doubles: nondegenerate counts for Z/3, Z/5; Z/2, Z/4 prime."""
    assert sc.nondegenerate_count(untwisted_cyclic(3)) == 2
    assert sc.nondegenerate_count(untwisted_cyclic(5)) == 4
    assert sc.is_prime(untwisted("Z2"))
    assert sc.is_prime(untwisted("Z4"))
    print("criterion 2 PASS: Z3 count 2, Z5 count 4; Z2 and Z4 prime")


def test_criterion_03_symmetric_group_primality():
    """D(S3) and D(S4) are prime, S4 within the 600 s budget."""
    start = time.monotonic()
    assert sc.is_prime(untwisted("S3"))
    assert sc.is_prime(untwisted("S4"))
    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    print(f"criterion 3 PASS: S3 and S4 prime in {elapsed:.1f}s")


def test_criterion_04_twisted_z2_semion():
    """Semion double: counts, pairing values, Gauss sums, central charges."""
    dd = twisted_cyclic(2, 1)
    ctx = dd.ctx
    triples = sc.enumerate_all(dd)
    assert len(triples) == 5
    assert sc.nondegenerate_count(dd) == 2
    assert not sc.is_prime(dd)
    semions = [t for t in triples
               if len(t.K) == 2 and len(t.H) == 2 and any(map(any, t.B))]
    assert len(semions) == 2
    vals = sorted(t.exp(1, 1) for t in semions)
    assert vals == [1, 3] and ctx.N == 4  # B(1,1) = i and -i
    i_unit = ctx.root_sum((1,))
    taus = sorted((sc.gauss_sum(dd, t) for t in semions),
                  key=lambda z: z.sort_key())
    assert {str(t) for t in taus} == {str(1 + i_unit), str(1 - i_unit)}
    zetas = sorted((sc.central_charge(dd, t) for t in semions),
                   key=lambda z: z.imag)
    half = 2 ** -0.5
    assert abs(zetas[0] - complex(half, -half)) < 1e-9
    assert abs(zetas[1] - complex(half, half)) < 1e-9
    print("criterion 4 PASS: twisted Z2 has 5 triples, 2 nondegenerate, "
          "B(1,1) = +-i, tau = 1 -+ i, zeta = e^{-+i pi/4}, not prime")


def test_criterion_05_dimension_duality_roundtrip():
    """Exact dimension counts, centralizer duality, canonical round-trips."""
    n_triples = 0
    for dd in _all_untwisted() + _all_twisted():
        duals = dd.duals
        assert all(duals[duals[i]] == i for i in range(len(duals)))
        for t in sc.enumerate_all(dd):
            members = sc.subcat_members(dd, t)
            assert sum(dd.gamma[i].dim ** 2 for i in members) == t.dim
            assert sc.centralizer_triple(dd, sc.centralizer_triple(dd, t)) == t
            assert sc.triple_of(dd, members) == t
            n_triples += 1
    print(f"criterion 5 PASS: dimensions, duality and round-trips exact "
          f"on {n_triples} triples")


def test_criterion_06_gauss_sums():
    """Both Gauss sum routes agree exactly; whole category normalizations."""
    n_checked = 0
    for dd in _all_untwisted() + _all_twisted():
        for t in sc.enumerate_all(dd):
            sc.gauss_sum(dd, t)  # internally computed two ways and compared
            n_checked += 1
        whole = sc.whole_triple(dd)
        assert sc.gauss_sum(dd, whole) == dd.group.order
        assert abs(sc.central_charge(dd, whole) - 1) < 1e-9
        assert sc.gauss_sum(dd, sc.trivial_triple(dd)) == 1
    print(f"criterion 6 PASS: dual Gauss computations agree on {n_checked} "
          f"triples; tau(whole) = |G| and zeta(whole) = 1")


def _check_lattice_laws(dd):
    """Meet/join/centralizer of every pair of triples against set oracles."""
    ts = sc.enumerate_all(dd)
    mem = {t: sc.subcat_members(dd, t) for t in ts}
    for t1 in ts:
        assert sc.meet(dd, t1, t1) == t1
        assert sc.join(dd, t1, t1) == t1
        c = sc.centralizer_triple(dd, t1)
        assert sc.subcat_members(dd, c) == oracle.centralizing_simples(
            dd, mem[t1])
        for t2 in ts:
            m = sc.meet(dd, t1, t2)
            assert sc.subcat_members(dd, m) == mem[t1] & mem[t2]
            assert m == sc.meet(dd, t2, t1)
            j = sc.join(dd, t1, t2)
            assert j == sc.join(dd, t2, t1)
            jm = sc.subcat_members(dd, j)
            assert jm >= mem[t1] | mem[t2]
            assert all(not (mem[t] >= mem[t1] | mem[t2]) or jm <= mem[t]
                       for t in ts)
            assert sc.meet(dd, t1, j) == t1
            assert sc.join(dd, t1, m) == t1


def test_criterion_07_lattice_laws():
    """Meet/join/centralizer against set oracles plus lattice axioms."""
    for dd in (untwisted("Z2"), untwisted("Z4"), untwisted("Z2xZ2"),
               untwisted("S3"), untwisted("D4"),
               twisted_cyclic(2, 1), twisted_cyclic(4, 1)):
        _check_lattice_laws(dd)
    print("criterion 7 PASS: lattice operations match set oracles; "
          "idempotence, commutativity, absorption hold")


def test_lattice_laws_on_twisted_doubles():
    # S3, D4 and Q8 under cocycles pulled back from a quotient, a coboundary-twisted Z4,
    # and Z2^3 under omega(a, b, c) = (-1)^(a1 b2 c3); criterion 7 has no non-abelian twist
    for dd in (*braiding_doubles(), twisted_z2_cubed()):
        _check_lattice_laws(dd)


def test_criterion_08_cocycle_identity_suite():
    """Cyclic cocycles for n <= 8 and random coboundaries pass all identities."""
    import random
    start = time.monotonic()
    n_cocycles = 0
    for n in range(2, 9):
        for q in range(n):
            om = builtin_cyclic(n, q)
            validate(om)
            check_identities(om)
            n_cocycles += 1
    rng = random.Random(2024)
    for name in ("Z2", "Z3", "Z4", "Z2xZ2", "S3", "D4", "Q8", "Z8"):
        G = builtin_group(name)
        for _ in range(20):
            m = rng.choice((2, 3, 4))
            mu = [[0] * G.order for _ in range(G.order)]
            for a in range(1, G.order):
                for b in range(1, G.order):
                    mu[a][b] = rng.randrange(m)
            om = coboundary(G, mu, m)
            validate(om)
            check_identities(om)
            n_cocycles += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"criterion 8 PASS: {n_cocycles} cocycles validated with all "
          f"identity families in {elapsed:.1f}s")


def test_criterion_09_central_series():
    """Closed-form series terms match the iterated closure oracles."""
    for name in ("S3", "D4", "Q8", "S4"):
        dd = untwisted(name)
        prev = frozenset(range(len(dd.gamma)))
        n = 0
        while True:
            n += 1
            cur = oracle.adjoint_closure(dd, prev)
            assert cur == sc.subcat_members(dd, sc.adjoint_series_term(dd, n))
            lower = sc.subcat_members(dd, sc.central_series_term(dd, n))
            assert lower == oracle.centralizing_simples(dd, cur)
            assert lower == oracle.projectively_centralizing_simples(dd, prev)
            if cur == prev:
                break
            prev = cur
    print("criterion 9 PASS: adjoint and centralizer series match the "
          "closure oracles on S3, D4, Q8, S4")


def test_criterion_10_character_layer():
    """Orthogonality, degree counts, class counting for every table used."""
    n_tables = 0
    for dd in _all_untwisted() + _all_twisted():
        G = dd.group
        m = dd.omega.modulus
        for a in G.class_reps:
            P = dd.centralizer_table(a)
            C, members = P.group, G.centralizer_members(a)
            assert sum(d * d for d in P.degrees) == C.order
            beta = [[dd.omega.beta(a, x, y) % m for y in members] for x in members]
            assert P.n_chars == beta_regular_class_count(C, beta, m)
            for i in range(P.n_chars):
                for j in range(P.n_chars):
                    total = sum([P.value(i, x) * P.value(j, x).conj()
                                 for x in range(C.order)], dd.ctx.root_sum(()))
                    assert total == (C.order if i == j else 0)
            n_tables += 1
    print(f"criterion 10 PASS: orthogonality, squared-degree and counting "
          f"identities exact for {n_tables} centralizer tables")
