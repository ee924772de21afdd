"""Ordinary and projective character tables, computed exactly."""

from functools import lru_cache, reduce

import pytest

from qdouble import (BUILTIN_GROUP_NAMES, CycloContext, GroupTooLarge, InputError, TwistedDouble,
                     builtin_cyclic, builtin_group, cyclic_group, enumerate_all, ordinary_table,
                     projective_table, trivial_cocycle)
from qdouble.characters import (LiftFailure, _abelian_rows, _canonical, _check_orthonormal,
                                _check_walk_rows, _ordinary_rows, beta_regular_class_count,
                                central_extension)
from qdouble.groups import FiniteGroup, NotAGroup, direct_product
from qdouble.linmod import solve_mod

from conftest import (braiding_doubles, relabeled_group, times_coboundary, twisted_cyclic,
                      twisted_cyclic_coboundary, twisted_z2_cubed)


EXPECTED_DEGREES = {
    "Z2": (1, 1), "Z3": (1, 1, 1), "Z4": (1, 1, 1, 1), "Z8": (1,) * 8,
    "Z2xZ2": (1, 1, 1, 1), "S3": (1, 1, 2), "D4": (1, 1, 1, 1, 2),
    "Q8": (1, 1, 1, 1, 2), "S4": (1, 1, 2, 3, 3),
}


def _ctx_for(G):
    return CycloContext(G.exponent)


def _trivial_index(T):
    """The row whose class values are all 1."""
    return next(i for i in range(T.n_chars)
                if all(T.value(i, rep) == T.ctx.one for rep in T.group.class_reps))


def _kernel(T, i):
    """Elements g with chi_i(g) = chi_i(e)."""
    deg = T.ctx.from_int(T.degrees[i])
    return tuple(g for g in range(T.group.order) if T.value(i, g) == deg)


def test_degrees():
    for name, degrees in EXPECTED_DEGREES.items():
        G = builtin_group(name)
        T = ordinary_table(_ctx_for(G), G)
        assert T.degrees == degrees
        assert sum(d * d for d in T.degrees) == G.order


def test_trivial_character_first():
    for name in EXPECTED_DEGREES:
        G = builtin_group(name)
        T = ordinary_table(_ctx_for(G), G)
        assert _trivial_index(T) == 0
        one = T.ctx.one
        assert all(T.value(0, g) == one for g in range(G.order))


def test_s3_values():
    G = builtin_group("S3")
    T = ordinary_table(CycloContext(6), G)
    sign_row = [T.value(1, rep) for rep in G.class_reps]
    two_row = [T.value(2, rep) for rep in G.class_reps]
    # classes: identity, 3-cycles, transpositions
    assert sorted(v.as_fraction() for v in sign_row) == [-1, 1, 1]
    assert sorted(v.as_fraction() for v in two_row) == [-1, 0, 2]


def test_row_orthogonality():
    for name in ("S3", "D4", "Q8", "S4", "Z8"):
        G = builtin_group(name)
        T = ordinary_table(_ctx_for(G), G)
        n = T.n_chars
        for i in range(n):
            for j in range(n):
                total = sum([T.value(i, g) * T.value(j, g).conj()
                             for g in range(G.order)], T.ctx.root_sum(()))
                assert total == (G.order if i == j else 0)


def test_column_orthogonality():
    G = builtin_group("D4")
    T = ordinary_table(CycloContext(4), G)
    classes = G.conjugacy_classes
    reps = G.class_reps
    for ci, c in enumerate(classes):
        for cj in range(len(classes)):
            total = sum([T.value(i, reps[ci]) * T.value(i, reps[cj]).conj()
                         for i in range(T.n_chars)], T.ctx.root_sum(()))
            expected = G.order // len(c) if ci == cj else 0
            assert total == expected


def test_kernels_are_normal():
    G = builtin_group("S4")
    T = ordinary_table(_ctx_for(G), G)
    for i in range(T.n_chars):
        ker = G.subgroup(_kernel(T, i))
        assert ker.is_normal
    assert len(_kernel(T, 0)) == G.order


def test_counting_identity_ordinary():
    for name in EXPECTED_DEGREES:
        G = builtin_group(name)
        T = ordinary_table(_ctx_for(G), G)
        assert T.n_chars == len(G.conjugacy_classes)


def test_exponent_must_divide():
    G = builtin_group("S3")
    with pytest.raises(ValueError):
        ordinary_table(CycloContext(4), G)


def _beta_from_cocycle(om, a):
    G = om.group
    cm = G.centralizer_members(a)
    return [[om.beta(a, x, y) for y in cm] for x in cm], cm


def test_projective_semion():
    # beta_1 for the Z2 semion cocycle forces chi(1) = +-i
    om = builtin_cyclic(2, 1)
    G = om.group
    beta, cm = _beta_from_cocycle(om, 1)
    C = cyclic_group(2)
    ctx = CycloContext(4)
    P = projective_table(ctx, C, beta, 2)
    assert P.degrees == (1, 1)
    vals = sorted(P.spectra[i][1] for i in range(2))
    assert vals == [(1,), (3,)]  # i and -i


def test_projective_klein_four():
    # the nondegenerate 2-cocycle on Z2xZ2 has a single degree-2 character
    C = builtin_group("Z2xZ2")
    beta = [[0] * 4 for _ in range(4)]
    for a in range(4):
        for b in range(4):
            # bilinear form <(a1,a2),(b1,b2)> = a2*b1 mod 2
            beta[a][b] = ((a % 2) * (b // 2)) % 2
    ctx = CycloContext(4)
    P = projective_table(ctx, C, beta, 2)
    assert P.degrees == (2,)
    assert beta_regular_class_count(C, beta, 2) == 1
    # sum of squared degrees still matches the group order
    assert sum(d * d for d in P.degrees) == 4


def test_projective_counting_identity():
    om = builtin_cyclic(4, 1)
    G = om.group
    for a in range(4):
        beta, cm = _beta_from_cocycle(om, a)
        C = cyclic_group(4)
        ctx = CycloContext(16)
        P = projective_table(ctx, C, beta, 4)
        assert P.n_chars == beta_regular_class_count(C, beta, 4)
        assert sum(d * d for d in P.degrees) == 4


def test_projective_orthogonality():
    om = builtin_cyclic(4, 3)
    beta, cm = _beta_from_cocycle(om, 1)
    C = cyclic_group(4)
    ctx = CycloContext(16)
    P = projective_table(ctx, C, beta, 4)
    for i in range(P.n_chars):
        for j in range(P.n_chars):
            total = sum([P.value(i, x) * P.value(j, x).conj()
                         for x in range(C.order)], ctx.root_sum(()))
            assert total == (C.order if i == j else 0)


def test_central_extension_cap():
    C = builtin_group("Z2xZ2", cap=4)
    beta = [[0] * 4 for _ in range(4)]
    beta[1][2] = 1
    with pytest.raises(GroupTooLarge):
        central_extension(C, beta, 2)


def test_central_extension_rejects_a_non_cocycle_before_building():
    # normalized, but beta(1,1) + beta(2,2) - beta(1,0) - beta(1,2) = 1 at (1, 1, 2):
    # E is not associative, and its group-axiom check says so before any character
    C = cyclic_group(3)
    beta = [[0] * 3 for _ in range(3)]
    beta[1][1] = 1
    with pytest.raises(NotAGroup, match="associativity fails"):
        central_extension(C, beta, 3)


def test_central_extension_names_a_non_cocycle_triple_of_c():
    # the same beta: E fails associativity at its indices (3, 3, 6) = x m' + i, which
    # is C's triple (1, 1, 2), where the 2-cocycle identity of beta fails
    beta = [[0] * 3 for _ in range(3)]
    beta[1][1] = 1
    with pytest.raises(NotAGroup, match=r"^associativity fails at \(1, 1, 2\) of Z3: "
                                        r"beta mod 3 is not a 2-cocycle there$"):
        central_extension(cyclic_group(3), beta, 3)


def test_central_extension_names_an_unnormalized_pair_of_c():
    # not "table must have its identity at index 0": the message names beta and
    # the least pair of C with e in it where beta is nonzero
    C = builtin_group("S3")
    for beta, pair in (([[1] * 6 for _ in range(6)], "0, 0"),
                       ([[int((x == 0) != (y == 0)) for y in range(6)] for x in range(6)], "0, 1")):
        with pytest.raises(InputError,
                           match=rf"^beta mod 2 is not normalized: beta\({pair}\) != 0 on S3$"):
            central_extension(C, beta, 2)


def test_walk_rejects_a_non_cocycle_at_a_pair():
    # beta(1,1) = 1 on Z3 is symmetric, so the walk runs; its rows pass every pair with
    # the generator 1 and fail L(x y) = L(x) + L(y) - B(x, y) first at (2, 2)
    beta = [[0] * 3 for _ in range(3)]
    beta[1][1] = 1
    with pytest.raises(LiftFailure, match=r"at \(2, 2\)"):
        projective_table(CycloContext(9), cyclic_group(3), beta, 3)


@pytest.mark.parametrize("name, N, error", [("Z2", 4, LiftFailure), ("S3", 12, InputError)])
def test_a_beta_that_is_not_normalized_gets_no_table(name, N, error):
    # both betas are symmetric, so the walk runs on Z2 and fails at (0, 0); Dixon runs on
    # S3, whose E has no identity at index 0. A constant beta is even a 2-cocycle.
    C = builtin_group(name)
    n = C.order
    for beta in ([[1] * n for _ in range(n)],
                 [[int((x == 0) != (y == 0)) for y in range(n)] for x in range(n)]):
        with pytest.raises(error):
            projective_table(CycloContext(N), C, beta, 2)


def test_central_extension_is_the_group_when_beta_vanishes_mod_m():
    # beta = 0 mod m gives m' = 1: E is C itself, returned without a new table
    C = builtin_group("S3")
    assert central_extension(C, [[0] * 6 for _ in range(6)], 4) is C
    assert central_extension(C, [[2 * ((x * y) % 3) for y in range(6)] for x in range(6)],
                             2) is C


# -- abelian tables by generator extension, spectra, the orthonormality kernel --------


def _solve_mod_rows(ctx, C):
    """Exponent rows of all characters of abelian C from L(x g) = L(x) + L(g) mod N.

    One unknown per non-identity element, one equation per element and
    generator, solved by solve_mod and sorted by root sort keys; the
    construction the generator walk replaced.
    """
    n = C.order
    equations = []
    for x in range(n):
        for g in C.whole_group.generators:
            row = [0] * (n - 1)
            for h, sign in ((C.mul(x, g), 1), (x, -1), (g, -1)):
                if h != 0:
                    row[h - 1] += sign
            equations.append((row, 0))
    exps = [(0,) + tuple(s) for s in solve_mod(equations, n - 1, ctx.N)]
    exps.sort(key=lambda es: (1 if any(es) else 0,
                              tuple(ctx.root_sum((e,)).sort_key() for e in es)))
    return exps


def _exponent_rows(T):
    return [tuple(sp[0] for sp in row) for row in T.spectra]


def _centralizer_cocycles(dd):
    """(C, beta, m) for the centralizer C of every class representative of dd."""
    m = dd.omega.modulus
    for a in dd.group.class_reps:
        members = dd.group.centralizer_members(a)
        yield (dd.centralizer_table(a).group,
               [[dd.omega.beta(a, x, y) % m for y in members] for x in members], m)


def _centralizer_extensions(dd):
    """The central extensions projective_table builds for every centralizer of dd."""
    return [central_extension(C, beta, m) for C, beta, m in _centralizer_cocycles(dd)]


def test_abelian_table_matches_solve_mod():
    groups = [(CycloContext(G.exponent), relabeled_group(G, seed)) for seed, G in enumerate(
        [reduce(direct_product, map(builtin_group, names))
         for names in (("Z2", "Z4"), ("Z3", "Z3"), ("Z2", "Z2", "Z2"), ("Z4", "Z4"))]
        + [cyclic_group(12)])]
    doubles = [twisted_cyclic(n, q) for n in range(2, 8) for q in range(1, n)]
    doubles += [twisted_cyclic_coboundary(n, q, 3) for n, q in ((4, 1), (6, 1), (6, 3))]
    groups += [(dd.ctx, E) for dd in doubles for E in _centralizer_extensions(dd)]
    assert any(E.order == 49 for _, E in groups)
    for ctx, C in groups:
        T = ordinary_table(ctx, C)
        assert _exponent_rows(T) == _solve_mod_rows(ctx, C), C.name


def test_central_extensions_are_groups():
    # every beta_a of a validated omega gives an E that passes the group axioms,
    # up to Z/7 by Z/7
    doubles = braiding_doubles() + [twisted_cyclic(n, q) for n in range(2, 8) for q in range(n)]
    extensions = [E for dd in doubles for E in _centralizer_extensions(dd)]
    assert any(E.order == 49 for E in extensions)   # Z/7 by Z/7
    for E in extensions:
        FiniteGroup(E.mult, name=E.name)


def test_spectra_match_values():
    # every spectrum is d sorted exponents in [0, N); rows sort by degree, then the
    # trivial character first, then the value sort keys element by element
    tables = []
    for dd in braiding_doubles():
        tables.append(ordinary_table(dd.ctx, dd.group))
        tables += [dd.centralizer_table(a) for a in dd.group.class_reps]
    for name in EXPECTED_DEGREES:
        G = builtin_group(name)
        tables.append(ordinary_table(_ctx_for(G), G))
    assert any(not T.group.is_abelian for T in tables)
    for T in tables:
        ctx, n = T.ctx, T.group.order
        assert len(T.spectra) == T.n_chars
        for d, row in zip(T.degrees, T.spectra):
            assert len(row) == n
            for sp in row:
                assert len(sp) == d and list(sp) == sorted(sp)
                assert all(0 <= e < ctx.N for e in sp)
        keys = [(T.degrees[i],
                 any(T.value(i, x) != ctx.one for x in range(n)),
                 tuple(T.value(i, x).sort_key() for x in range(n)))
                for i in range(T.n_chars)]
        assert keys == sorted(keys) and len(set(keys)) == len(keys), T.group.name


def _shifted(spectra, i, x):
    """spectra with the first exponent of row i at column x moved by one."""
    rows = [list(row) for row in spectra]
    sp = rows[i][x]
    rows[i][x] = (sp[0] + 1,) + sp[1:]
    return rows


def test_orthonormality_kernel_rejects_shifted_exponent():
    T = ordinary_table(CycloContext(6), builtin_group("S3"))
    _check_orthonormal(T.ctx, T.spectra, 6)
    with pytest.raises(LiftFailure, match="rows 0, 2 are not orthonormal"):
        _check_orthonormal(T.ctx, _shifted(T.spectra, 2, 1), 6)
    A = ordinary_table(CycloContext(4), cyclic_group(4))
    with pytest.raises(LiftFailure, match="rows 0, 3 are not orthonormal"):
        _check_orthonormal(A.ctx, _shifted(A.spectra, 3, 2), 4)
    P = twisted_cyclic(4, 1).centralizer_table(1)
    _check_orthonormal(P.ctx, P.spectra, 4)
    with pytest.raises(LiftFailure, match="rows 0, 1 are not orthonormal"):
        _check_orthonormal(P.ctx, _shifted(P.spectra, 1, 3), 4)


# -- projective tables start both engines at the central character ---------------


def _filtered_table(ctx, C, beta, m):
    """Every character of the central extension E, kept where chi(z) = d zeta_m' at
    z = index 1 and restricted along x -> (x, 0); the construction the seeded
    engines replaced."""
    E = central_extension(C, beta, m)
    mp = E.order // C.order
    T = ordinary_table(ctx, E)
    keep = [i for i, row in enumerate(T.spectra)
            if mp == 1 or all(e == ctx.N // mp for e in row[1])]
    return _canonical(ctx, C, [T.degrees[i] for i in keep], [T.spectra[i][::mp] for i in keep])


@lru_cache(maxsize=None)
def _coboundary_product(names, m):
    """The double of a product of builtin groups under a seeded coboundary mod m."""
    G = reduce(direct_product, map(builtin_group, names))
    return TwistedDouble(G, times_coboundary(trivial_cocycle(G), m))


_COBOUNDARY_PRODUCTS = ((("Z2", "Z2", "Z2"), 4), (("Z2", "Z4"), 4), (("Z3", "Z3"), 3))


def _projective_cases():
    doubles = braiding_doubles() + [twisted_cyclic(n, q) for n in range(2, 8) for q in range(1, n)]
    doubles += [twisted_cyclic_coboundary(n, q, 3) for n, q in ((4, 1), (6, 1), (6, 3))]
    doubles += [_coboundary_product(*case) for case in _COBOUNDARY_PRODUCTS] + [twisted_z2_cubed()]
    return [(dd.ctx, C, beta, m) for dd in doubles for C, beta, m in _centralizer_cocycles(dd)]


def test_projective_table_matches_filtered_full_table():
    extensions = set()
    for ctx, C, beta, m in _projective_cases():
        P, ref = projective_table(ctx, C, beta, m), _filtered_table(ctx, C, beta, m)
        assert (P.degrees, P.spectra) == (ref.degrees, ref.spectra), C.name
        E = central_extension(C, beta, m)
        mp = E.order // C.order
        rows = _abelian_rows(ctx, C, beta, m) if E.is_abelian else _ordinary_rows(ctx, E, mp)
        assert len(rows[0]) == beta_regular_class_count(C, beta, m)
        extensions.add((E.is_abelian, mp > 1, E.order, len(C.whole_group.generators),
                        C.is_abelian))
    # the twisted walk up to Z/7 by Z/7 and on 2 and 3 generators, and Dixon on seeded
    # non-abelian extensions, of an abelian C too (beta not symmetric)
    assert (True, True, 49, 1, True) in extensions
    assert {(True, True, 8 * 4, 3, True), (True, True, 8 * 4, 2, True),
            (True, True, 9 * 3, 2, True)} <= extensions
    assert (False, True, 8 * 2, 3, True) in extensions
    assert any(not abelian and seeded for abelian, seeded, *_ in extensions)


def test_unseeded_rows_fail_the_central_character_check(monkeypatch):
    cases = [(ctx, C, beta, m) for ctx, C, beta, m in _projective_cases()
             if central_extension(C, beta, m) is not C]
    # the ordinary walk on an abelian E's quotient C, beta ignored, fails the twisted equations
    ctx, C, beta, m = next(c for c in cases if central_extension(*c[1:]).is_abelian)
    ordinary = _abelian_rows(ctx, C, ((0,) * C.order,) * C.order, 1)[1]
    rows = [[sp[0] for sp in row] for row in ordinary]
    with pytest.raises(LiftFailure, match=r"abelian character \[.*\] fails L\(x y\) = "
                                          r"L\(x\) \+ L\(y\) - B\(x, y\)"):
        _check_walk_rows(ctx, C, beta, m, rows)
    # Dixon rows of all of E fail the central character check
    ctx, C, beta, m = next(c for c in cases if not central_extension(*c[1:]).is_abelian)
    monkeypatch.setattr("qdouble.characters._ordinary_rows",
                        lambda ctx, E, mp: _ordinary_rows(ctx, E, 1))
    with pytest.raises(LiftFailure, match=r"row \d+ has spectrum \(.*\) at z, "
                                          r"expected every exponent \d+"):
        projective_table(ctx, C, beta, m)


def test_walk_row_check_rejects_a_repeated_row():
    # a repeated row passes the twisted generator equations; distinctness, half of the
    # walk's orthonormality proof, is what rejects it
    walks = [c for c in _projective_cases() if central_extension(*c[1:]).is_abelian]
    assert any(central_extension(*c[1:]) is not c[1] for c in walks)
    for ctx, C, beta, m in walks:
        rows = [[sp[0] for sp in row] for row in _abelian_rows(ctx, C, beta, m)[1]]
        _check_walk_rows(ctx, C, beta, m, rows)
        with pytest.raises(LiftFailure, match="abelian characters are not distinct"):
            _check_walk_rows(ctx, C, beta, m, rows + [rows[-1][:]])


def test_every_table_is_orthonormal_over_its_group():
    # the runtime checks orthonormality only on Dixon rows over E; walk rows and rows
    # restricted to C are orthonormal by proof, and this checks the proofs' conclusion
    tables = [projective_table(*case) for case in _projective_cases()]
    tables += [ordinary_table(_ctx_for(G), G) for G in map(builtin_group, BUILTIN_GROUP_NAMES)]
    assert any(T.group.is_abelian and max(T.degrees) > 1 for T in tables)   # restricted Dixon
    for T in tables:
        _check_orthonormal(T.ctx, T.spectra, T.group.order)


def test_central_extension_is_built_for_dixon_only(monkeypatch):
    cases = _projective_cases()
    dixon = sum(not central_extension(C, beta, m).is_abelian for _, C, beta, m in cases)
    calls = []

    def counted(C, beta, m):
        calls.append(C)
        return central_extension(C, beta, m)

    monkeypatch.setattr("qdouble.characters.central_extension", counted)
    for case in cases:
        projective_table(*case)
    assert 0 < len(calls) == dixon < len(cases)


def test_a_central_element_gets_the_group_itself():
    for dd in braiding_doubles() + [_coboundary_product(*c) for c in _COBOUNDARY_PRODUCTS]:
        G = dd.group
        for a in G.class_reps:
            central = a in G.center.member_set
            assert (dd.centralizer_table(a).group is G) == central, (G.name, a)


def test_coboundary_twisted_products_keep_the_untwisted_triple_counts():
    # a coboundary twist is equivalent to no twist: the counts the benchmark pins
    for names, m, count in ((("Z2", "Z4"), 4, 249), (("Z3", "Z3"), 3, 212)):
        assert len(enumerate_all(_coboundary_product(names, m))) == count, names
