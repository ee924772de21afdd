"""Ordinary and projective character tables, computed exactly."""

import random
from functools import reduce

import pytest

from qdouble import (CapExceeded, CycloContext, builtin_cyclic, builtin_group,
                     cyclic_group, ordinary_table, projective_table)
from qdouble.characters import (LiftFailure, _check_orthonormal, beta_regular_class_count,
                                central_extension, validate_two_cocycle)
from qdouble.groups import FiniteGroup, direct_product
from qdouble.linmod import solve_mod

from conftest import braiding_doubles, twisted_cyclic, twisted_cyclic_coboundary


EXPECTED_DEGREES = {
    "Z2": (1, 1), "Z3": (1, 1, 1), "Z4": (1, 1, 1, 1), "Z8": (1,) * 8,
    "Z2xZ2": (1, 1, 1, 1), "S3": (1, 1, 2), "D4": (1, 1, 1, 1, 2),
    "Q8": (1, 1, 1, 1, 2), "S4": (1, 1, 2, 3, 3),
}


def _ctx_for(G):
    return CycloContext(G.exponent)


def _trivial_index(T):
    """The row whose class values are all 1."""
    return next(i for i, row in enumerate(T.class_values) if all(v == T.ctx.one for v in row))


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
    sign_row = T.class_values[1]
    two_row = T.class_values[2]
    # classes: identity, 3-cycles, transpositions
    assert sorted(v.as_int() for v in sign_row) == [-1, 1, 1]
    assert sorted(v.as_int() for v in two_row) == [-1, 0, 2]


def test_row_orthogonality():
    for name in ("S3", "D4", "Q8", "S4", "Z8"):
        G = builtin_group(name)
        T = ordinary_table(_ctx_for(G), G)
        n = T.n_chars
        for i in range(n):
            for j in range(n):
                total = T.ctx.sum(T.value(i, g) * T.value(j, g).conj()
                                  for g in range(G.order))
                assert total == (G.order if i == j else 0)


def test_column_orthogonality():
    G = builtin_group("D4")
    T = ordinary_table(CycloContext(4), G)
    classes = G.conjugacy_classes
    for ci, c in enumerate(classes):
        for cj in range(len(classes)):
            total = T.ctx.sum(T.class_values[i][ci] * T.class_values[i][cj].conj()
                              for i in range(T.n_chars))
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
    validate_two_cocycle(C, beta, 2)
    ctx = CycloContext(4)
    P = projective_table(ctx, C, beta, 2)
    assert P.degrees == (1, 1)
    vals = sorted(ctx.root_exponent(P.value(i, 1)) for i in range(2))
    assert vals == [1, 3]  # i and -i


def test_projective_klein_four():
    # the nondegenerate 2-cocycle on Z2xZ2 has a single degree-2 character
    C = builtin_group("Z2xZ2")
    beta = [[0] * 4 for _ in range(4)]
    for a in range(4):
        for b in range(4):
            # bilinear form <(a1,a2),(b1,b2)> = a2*b1 mod 2
            beta[a][b] = ((a % 2) * (b // 2)) % 2
    validate_two_cocycle(C, beta, 2)
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
            total = ctx.sum(P.value(i, x) * P.value(j, x).conj()
                            for x in range(C.order))
            assert total == (C.order if i == j else 0)


def test_central_extension_cap():
    C = builtin_group("Z2xZ2")
    beta = [[0] * 4 for _ in range(4)]
    beta[1][2] = 1
    with pytest.raises(CapExceeded):
        central_extension(C, beta, 2, cap=4)


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
                              tuple(ctx.root(e).sort_key() for e in es)))
    return exps


def _exponent_rows(T):
    cls = T.group.class_index_of
    return [tuple(T.class_spectra[i][cls[x]][0] for x in range(T.group.order))
            for i in range(T.n_chars)]


def _relabeled(G, seed):
    """G with its non-identity elements permuted at random."""
    rng = random.Random(seed)
    rest = list(range(1, G.order))
    rng.shuffle(rest)
    perm = [0] + rest
    table = [[0] * G.order for _ in range(G.order)]
    for a in range(G.order):
        for b in range(G.order):
            table[perm[a]][perm[b]] = perm[G.mul(a, b)]
    return FiniteGroup(table, name=f"{G.name}'")


def _centralizer_extensions(dd):
    """The central extensions projective_table builds for every centralizer of dd."""
    m = dd.omega.modulus
    for a in dd.group.class_reps:
        cd = dd.centralizer_data(a)
        beta = [[dd.omega.beta(a, x, y) % m for y in cd.members] for x in cd.members]
        yield central_extension(cd.group, beta, m).ext


def test_abelian_table_matches_solve_mod():
    groups = [(CycloContext(G.exponent), _relabeled(G, seed)) for seed, G in enumerate(
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


def test_spectra_match_values():
    for dd in braiding_doubles():
        ctx = dd.ctx
        tables = [(ordinary_table(ctx, dd.group), "class")]
        tables += [(dd.centralizer_data(a).table, "element") for a in dd.group.class_reps]
        for T, kind in tables:
            spectra = T.class_spectra if kind == "class" else T.spectra
            values = T.class_values if kind == "class" else T.values
            for d, sp_row, val_row in zip(T.degrees, spectra, values):
                assert len(sp_row) == len(val_row)
                for sp, v in zip(sp_row, val_row):
                    assert len(sp) == d and list(sp) == sorted(sp)
                    assert all(0 <= e < ctx.N for e in sp)
                    assert ctx.root_sum(sp) == v


def _shifted(spectra, i, x):
    """spectra with the first exponent of row i at column x moved by one."""
    rows = [list(row) for row in spectra]
    sp = rows[i][x]
    rows[i][x] = (sp[0] + 1,) + sp[1:]
    return rows


def test_orthonormality_kernel_rejects_shifted_exponent():
    G = builtin_group("S3")
    T = ordinary_table(CycloContext(6), G)
    sizes = [len(c) for c in G.conjugacy_classes]
    _check_orthonormal(T.ctx, T.class_spectra, 6, "rows", weights=sizes)
    with pytest.raises(LiftFailure, match="rows 0, 2 are not orthonormal"):
        _check_orthonormal(T.ctx, _shifted(T.class_spectra, 2, 1), 6, "rows",
                           weights=sizes)
    A = ordinary_table(CycloContext(4), cyclic_group(4))
    with pytest.raises(LiftFailure, match="abelian rows 0, 3 are not orthonormal"):
        _check_orthonormal(A.ctx, _shifted(A.class_spectra, 3, 2), 4, "abelian rows")
    P = twisted_cyclic(4, 1).centralizer_data(1).table
    _check_orthonormal(P.ctx, P.spectra, 4, "projective rows")
    with pytest.raises(LiftFailure, match="projective rows 0, 1 are not orthonormal"):
        _check_orthonormal(P.ctx, _shifted(P.spectra, 1, 3), 4, "projective rows")
