"""Ordinary and projective character tables, computed exactly."""

import pytest

from qdouble import (CapExceeded, CycloContext, builtin_cyclic, builtin_group,
                     cyclic_group, ordinary_table, projective_table)
from qdouble.characters import (beta_regular_class_count, central_extension,
                                validate_two_cocycle)


EXPECTED_DEGREES = {
    "Z2": (1, 1), "Z3": (1, 1, 1), "Z4": (1, 1, 1, 1), "Z8": (1,) * 8,
    "Z2xZ2": (1, 1, 1, 1), "S3": (1, 1, 2), "D4": (1, 1, 1, 1, 2),
    "Q8": (1, 1, 1, 1, 2), "S4": (1, 1, 2, 3, 3),
}


def _ctx_for(G):
    return CycloContext(G.exponent)


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
        assert T.trivial_index == 0
        one = T.ctx.one
        assert all(T.value(0, g) == one for g in range(G.order))


def test_s3_values():
    G = builtin_group("S3")
    T = ordinary_table(CycloContext(6), G)
    sign_row = T.row(1)
    two_row = T.row(2)
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
        ker = G.subgroup(T.kernel(i))
        assert ker.is_normal
    assert len(T.kernel(0)) == G.order


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
