"""Modular data of the double: simples, S-matrix, twists, fusion."""

import gc
import weakref
from fractions import Fraction
from math import lcm
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from qdouble import TwistedDouble, VerlindeNonInteger, builtin_group
from qdouble.oracle import certify

from conftest import (braiding_doubles, twisted_cyclic, twisted_quotient, untwisted,
                      untwisted_cyclic)


EXPECTED_SIMPLES = {"Z2": 4, "Z3": 9, "Z4": 16, "Z2xZ2": 16, "S3": 8,
                    "D4": 22, "Q8": 22, "S4": 21}


def test_simple_counts():
    for name, count in EXPECTED_SIMPLES.items():
        dd = untwisted(name)
        assert len(dd.gamma) == count


def test_trivial_group_double():
    # the trivial group's only extension has order 1, with no element (e, 1)
    dd = untwisted_cyclic(1)
    assert [(s.dim, s.twist) for s in dd.gamma] == [(1, 1)]
    assert dd.s_matrix == ((1,),) and dd.fusion == (((1,),),)


def test_global_dimension():
    for name in ("S3", "D4", "Q8", "S4"):
        dd = untwisted(name)
        assert sum(s.dim ** 2 for s in dd.gamma) == dd.group.order ** 2


def test_s3_dims_and_twists():
    dd = untwisted("S3")
    assert [s.dim for s in dd.gamma] == [1, 1, 2, 3, 3, 2, 2, 2]
    ctx = dd.ctx
    one = ctx.one
    assert dd.gamma[0].twist == one
    twists = [ctx.root_exponent(s.twist) for s in dd.gamma]
    # unit and Rep(S3) pieces are untwisted; a transposition pair has theta = -1
    assert twists[:4] == [0, 0, 0, 0]
    assert ctx.root(twists[4]) == ctx.from_int(-1)


def test_unit_object():
    for name in EXPECTED_SIMPLES:
        dd = untwisted(name)
        u = dd.gamma[dd.unit_index]
        assert u.a == 0 and u.dim == 1
        assert u.twist == dd.ctx.one


def test_d_z2_s_matrix():
    dd = untwisted("Z2")
    expected = [[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]]
    S = dd.s_matrix
    for i in range(4):
        for j in range(4):
            assert S[i][j] == expected[i][j]


def test_s_matrix_properties():
    for name in ("S3", "D4"):
        dd = untwisted(name)
        S = dd.s_matrix
        n = len(dd.gamma)
        for i in range(n):
            assert S[0][i] == dd.gamma[i].dim
            for j in range(i + 1):
                assert S[i][j] == S[j][i]


def test_verlinde_fusion_ring():
    for name in ("Z2", "S3", "D4"):
        dd = untwisted(name)
        N = dd.fusion
        n = len(dd.gamma)
        duals = dd.duals
        for i in range(n):
            # unit acts as identity
            assert all(N[0][i][k] == (1 if k == i else 0) for k in range(n))
            # dual pairing: unit appears exactly in i x i*
            for j in range(n):
                assert N[i][j][0] == (1 if j == duals[i] else 0)
        # dimensions form a ring homomorphism
        dims = [s.dim for s in dd.gamma]
        for i in range(n):
            for j in range(n):
                assert dims[i] * dims[j] == sum(N[i][j][k] * dims[k]
                                                for k in range(n))


def test_duals_are_involutive():
    for name in ("S3", "D4", "Q8", "S4"):
        dd = untwisted(name)
        duals = dd.duals
        assert all(duals[duals[i]] == i for i in range(len(duals)))


def test_d_s3_self_dual():
    dd = untwisted("S3")
    assert dd.duals == tuple(range(8))


def test_twisted_z2_semion():
    dd = twisted_cyclic(2, 1)
    assert [s.dim for s in dd.gamma] == [1, 1, 1, 1]
    ctx = dd.ctx
    twists = [ctx.root_exponent(s.twist) for s in dd.gamma]
    # two objects are semions with twist +-i
    assert sorted(t * 4 // ctx.N for t in twists) == [0, 0, 1, 3]
    with pytest.raises(NotImplementedError):
        dd.s_matrix


def test_twisted_centralize_table():
    dd = twisted_cyclic(2, 1)
    table = {(i, j) for i in range(4) for j in range(4) if dd.centralize(i, j)}
    assert table == {(0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (2, 0), (3, 0),
                     (1, 1), (2, 3), (3, 2)}


def test_centralize_symmetry():
    for dd in (untwisted("S3"), twisted_cyclic(4, 1), twisted_quotient("D4", 3)):
        n = len(dd.gamma)
        for i in range(n):
            for j in range(n):
                assert dd.centralize(i, j) == dd.centralize(j, i)


def test_centralize_matches_s_matrix():
    # untwisted: centralize(i, j) iff S_ij = d_i d_j
    for name in ("Z4", "S3"):
        dd = untwisted(name)
        S = dd.s_matrix
        n = len(dd.gamma)
        for i in range(n):
            for j in range(n):
                equal = S[i][j] == dd.gamma[i].dim * dd.gamma[j].dim
                assert dd.centralize(i, j) == equal


def _cyclo_centralize(dd, i, j):
    """The braiding predicate on field values: zeta_m^e chi_i(u) chi_j(v) = d_i d_j."""
    G, ctx = dd.group, dd.ctx
    si, sj = dd.gamma[i], dd.gamma[j]
    if not all(G.commute(u, v) for u in G.class_of(si.a) for v in G.class_of(sj.a)):
        return False
    cdi, cdj = dd.centralizer_data(si.a), dd.centralizer_data(sj.a)
    degdeg = ctx.from_int(si.degree * sj.degree)
    for u, v, e in dd._pair_terms(si.a, sj.a):
        lhs = cdi.value(si.char_index, u) * cdj.value(sj.char_index, v)
        if lhs * ctx.root((e % dd.omega.modulus) * dd.scale) != degdeg:
            return False
    return True


def test_braiding_rows_match_cyclo_predicate():
    for dd in braiding_doubles():
        n = len(dd.gamma)
        rows = dd.braiding_rows
        for i in range(n):
            expect = sum(1 << j for j in range(n) if _cyclo_centralize(dd, i, j))
            assert rows[i] == expect, (dd.group.name, dd.omega.modulus, i)
        # r[x] is defined exactly where |chi(x)|^2 = d^2, an independent norm test
        for s in dd.gamma:
            cd = dd.centralizer_data(s.a)
            r = dd.scalar_exps(s.index)
            for x in range(dd.group.order):
                if x not in cd.local_of:
                    assert r[x] is None
                    continue
                chi = cd.value(s.char_index, x)
                assert (r[x] is not None) == (chi * chi.conj() == s.degree ** 2)
                if r[x] is not None:
                    assert chi == dd.ctx.root(r[x]) * s.degree


def _pair_sum(dd, i, j):
    """X = sum over _pair_terms of zeta_m^e chi_i(u) chi_j(v), with Cyclo products."""
    si, sj = dd.gamma[i], dd.gamma[j]
    cdi, cdj = dd.centralizer_data(si.a), dd.centralizer_data(sj.a)
    return dd.ctx.sum(cdi.value(si.char_index, u) * cdj.value(sj.char_index, v)
                      * dd.ctx.root(e * dd.scale)
                      for u, v, e in dd._pair_terms(si.a, sj.a))


def test_common_phase_matches_cyclo_predicates():
    # |S_ij| = d_i d_j iff |X| = |G| deg_i deg_j, and then X = |G| deg_i deg_j zeta_N^k
    for dd in braiding_doubles():
        order = dd.group.order
        S = dd.s_matrix if dd.omega.is_trivial else None
        for i, si in enumerate(dd.gamma):
            for j, sj in enumerate(dd.gamma):
                k = dd.common_phase(i, j)
                X = _pair_sum(dd, i, j)
                top = order * si.degree * sj.degree
                where = (dd.group.name, dd.omega.modulus, i, j)
                assert (k is not None) == (X * X.conj() == top * top), where
                if k is not None:
                    assert X == dd.ctx.root(k) * top, where
                if S is not None:
                    d = si.dim * sj.dim
                    assert (k is not None) == (S[i][j] * S[i][j].conj() == d * d), where
                assert (k == 0) == _cyclo_centralize(dd, i, j), where


def test_tensor_components():
    dd = untwisted("D4")
    N = dd.fusion
    for i in (0, 3, 11, 21):
        for j in (0, 5, 13):
            comps = dd.tensor_components(i, j)
            assert set(comps) == {k for k in range(len(dd.gamma)) if N[i][j][k]}


def _cyclo_verlinde(dd):
    """N_ij^k = sum_s S_is S_js conj(S_ks) / (d_s |G|^2), every sum in Q(zeta_N)."""
    S = dd.s_matrix
    n = len(dd.gamma)
    order2 = dd.group.order ** 2
    N = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            t = [S[i][s] * S[j][s] / dd.gamma[s].dim for s in range(n)]
            for k in range(n):
                val = dd.ctx.sum(t[s] * S[k][s].conj() for s in range(n))
                q = val.as_fraction() / order2
                assert q.denominator == 1 and q >= 0
                N[i][j][k] = N[j][i][k] = int(q)
    return tuple(tuple(tuple(r) for r in p) for p in N)


def test_fusion_matches_cyclo_verlinde():
    for name in ("Z2", "Z4", "S3", "D4"):
        dd = untwisted(name)
        assert dd.fusion == _cyclo_verlinde(dd)


def test_fusion_proof_rejects_rescaled_column():
    # zeta_N times column s keeps S S^dagger = |G|^2 I and leaves Verlinde's
    # formula with S_0s in the denominator unchanged, so the F_p candidate is
    # the true table; only the exact check N_i S = S Lambda_i sees the change
    dd = TwistedDouble(builtin_group("D4"))
    S = [list(row) for row in dd.s_matrix]
    s = 5
    zeta = dd.ctx.root(1)
    for row in S:
        row[s] = row[s] * zeta
    dd._smatrix = tuple(tuple(row) for row in S)
    with pytest.raises(VerlindeNonInteger,
                       match=r"D4: fusion row N\[0\]\[0\] .* at s = 5$"):
        dd.fusion


def test_fusion_proof_rejects_wrong_candidate():
    dd = untwisted("S3")
    S, n = dd.s_matrix, len(dd.gamma)
    for change in ("zero row", "one more"):
        N = [[list(r) for r in p] for p in dd.fusion]
        if change == "zero row":
            N[2][3] = N[3][2] = [0] * n
        else:
            N[2][3][4] += 1
            N[3][2][4] += 1
        with pytest.raises(VerlindeNonInteger, match=r"N\[2\]\[3\]"):
            dd._prove_fusion(S, N)


def _ungraded_verlinde(dd, S):
    """The F_p Verlinde candidate with k over every simple: no class grading."""
    emb = dd._embeddings(S)
    p, D, n = emb.p, emb.D, len(S)
    S_p, conj_p = emb.at[1 % dd.ctx.N], emb.at[-1 % dd.ctx.N]
    scale = [pow(D * D * x * dd.group.order ** 2, p - 2, p) for x in S_p[0]]
    N = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            t = [x * y * c % p for x, y, c in zip(S_p[i], S_p[j], scale)]
            for k in range(n):
                N[i][j][k] = N[j][i][k] = sum(map(mul, t, conj_p[k])) % p
    return N


def test_graded_candidates_match_ungraded_loop():
    doubles = [dd for dd in braiding_doubles() if dd.omega.is_trivial] + [untwisted_cyclic(8)]
    for dd in doubles:
        S = dd.s_matrix
        assert dd._verlinde_mod_p(S) == _ungraded_verlinde(dd, S), dd.group.name


def _off_grade(dd):
    """(i, j, k), i <= j, with class(a_k) outside class(a_i) class(a_j): all |G|^2 products."""
    G, gamma = dd.group, dd.gamma
    for i, si in enumerate(gamma):
        for j in range(i, len(gamma)):
            grade = {G.mul(x, y) for x in G.class_of(si.a) for y in G.class_of(gamma[j].a)}
            for k, sk in enumerate(gamma):
                if sk.a not in grade:
                    yield i, j, k


def test_fusion_proof_is_not_graded():
    # the candidates skip off-grade k, but the proof still pins those zeros
    for name in ("S3", "D4"):
        dd = untwisted(name)
        S = dd.s_matrix
        i, j, k = next(t for t in _off_grade(dd) if 0 not in t)
        N = [[list(r) for r in p] for p in dd.fusion]
        assert N[i][j][k] == 0
        N[i][j][k] = N[j][i][k] = 1
        with pytest.raises(VerlindeNonInteger, match=rf"N\[{i}\]\[{j}\]"):
            dd._prove_fusion(S, N)


def test_double_frees_its_field_without_the_cycle_collector():
    # no Cyclo is held by its context, so a certified double's field is freed
    # by reference counting alone
    gc.disable()
    try:
        dd = TwistedDouble(builtin_group("D4"))
        certify(dd)
        ctx = weakref.ref(dd.ctx)
        del dd
        assert ctx() is None
    finally:
        gc.enable()


def _cyclo_unitary(dd, S):
    """Whether S S^dagger = |G|^2 I, with every inner product summed in Q(zeta_N)."""
    ctx, n = dd.ctx, len(S)
    order2 = ctx.from_int(dd.group.order ** 2)
    conj_rows = [[x.conj() for x in row] for row in S]
    for i in range(n):
        for j in range(i, n):
            inner = ctx.sum(S[i][k] * conj_rows[j][k] for k in range(n))
            if inner != (order2 if i == j else ctx.zero):
                return False
    return True


def _cyclo_prove_fusion(dd, S, N):
    """Whether sum_k N_ij^k S_ks = S_is S_js / d_s, on flat coefficient vectors and field products."""
    n, deg = len(dd.gamma), dd.ctx.degree
    dims = [s.dim for s in dd.gamma]
    D = lcm(*(x.den for row in S for x in row))
    flat = [[c * (D // x.den) for x in row for c in x.num] for row in S]
    for i in range(n):
        for j in range(i, n):
            ks = [k for k, c in enumerate(N[i][j]) if c]
            cs = [N[i][j][k] for k in ks]
            lhs = ([sum(a * b for a, b in zip(cs, vals)) for vals in zip(*(flat[k] for k in ks))]
                   if ks else [0] * (n * deg))
            for s in range(n):
                rhs = S[i][s] * S[j][s]
                q = rhs.den * dims[s]
                if any(a * q != b * D for a, b in zip(lhs[s * deg:(s + 1) * deg], rhs.num)):
                    return False
    return True


def _residual_coordinates(dd, S, N):
    """Power-basis coordinates of every residual of both identities, for c = D S, exactly.

    Unitarity: sum_k c_ik conj(c_jk) - D^2 |G|^2 delta_ij for i <= j.
    Fusion: D d_s sum_k N_ij^k c_ks - c_is c_js for i <= j and every s.
    """
    ctx, n = dd.ctx, len(S)
    dims = [s.dim for s in dd.gamma]
    D = lcm(*(x.den for row in S for x in row))
    c = [[x * D for x in row] for row in S]
    target = D * D * dd.group.order ** 2
    unitary, fusion = [], []
    for i in range(n):
        for j in range(i, n):
            x = ctx.sum(c[i][k] * c[j][k].conj() for k in range(n)) - (target if i == j else 0)
            assert x.den == 1
            unitary += x.num
            for s in range(n):
                y = ctx.sum(c[k][s] * (D * dims[s] * m) for k, m in enumerate(N[i][j]) if m)
                y = y - c[i][s] * c[j][s]
                assert y.den == 1
                fusion += y.num
    return unitary, fusion


BOUND_GROUPS = ("Z2", "Z4", "S3", "D4", "Q8", "Z2xZ2", "S4")


def _mutations(dd):
    """(label, S, N): the true data, then one entry + 1, one column times zeta_N, one wrong N_ij^k."""
    S, n = dd.s_matrix, len(dd.gamma)
    N = dd.fusion
    bumped = [list(row) for row in S]
    bumped[n - 1][n - 2] = bumped[n - 1][n - 2] + 1
    turned = [[x * dd.ctx.root(1) if s == n - 1 else x for s, x in enumerate(row)]
              for row in S]
    wrong = [[list(r) for r in p] for p in N]
    wrong[1][1][0] += 1
    return [("true", S, N),
            ("entry + 1", tuple(map(tuple, bumped)), N),
            ("column * zeta", tuple(map(tuple, turned)), N),
            ("wrong N", S, wrong)]


def _accepts(check, *args):
    try:
        check(*args)
    except ArithmeticError:
        return False
    return True


def test_embedding_bound_covers_every_residual():
    # p > 2B is a proof only if B bounds every coordinate of every residual,
    # including the nonzero residuals of corrupted inputs
    for name in BOUND_GROUPS:
        dd = untwisted(name)
        for label, S, N in _mutations(dd):
            emb = dd._embeddings(S)
            assert emb.p > 2 * emb.bound
            unitary, fusion = _residual_coordinates(dd, S, N)
            worst = max(map(abs, unitary + fusion))
            assert worst <= emb.bound, (name, label, worst, emb.bound)
            assert (worst == 0) == (label == "true"), (name, label)


def test_embedding_checks_match_cyclo_checks():
    for name in BOUND_GROUPS:
        dd = untwisted(name)
        for label, S, N in _mutations(dd):
            unitary = _accepts(dd._prove_unitary, S)
            fusion = _accepts(dd._prove_fusion, S, N)
            assert unitary == _cyclo_unitary(dd, S), (name, label)
            assert fusion == _cyclo_prove_fusion(dd, S, N), (name, label)
            # unit-modulus column rescaling keeps S unitary; only fusion sees it
            assert unitary == (label in ("true", "column * zeta", "wrong N")), (name, label)
            assert fusion == (label == "true"), (name, label)


def test_checks_reject_a_prime_multiple_perturbation():
    # c + p zeta^k agrees with c at every embedding into F_p for the prime p
    # that the true S picks; the checks must recompute B from their input and
    # move to a larger prime
    dd = TwistedDouble(builtin_group("D4"))
    S, N = dd.s_matrix, dd.fusion
    emb = dd._embeddings(S)
    p, D = emb.p, emb.D
    a, b = 3, 5
    rows = [list(row) for row in S]
    rows[a][b] = rows[a][b] + dd.ctx.root(1) * Fraction(p, D)
    S2 = tuple(map(tuple, rows))
    assert (rows[a][b] - S[a][b]) * D == dd.ctx.root(1) * p
    unitary, fusion = _residual_coordinates(dd, S2, N)
    for residual in (unitary, fusion):
        assert any(residual) and all(x % p == 0 for x in residual)
    p2 = dd._embeddings(S2).p
    assert p2 > p
    with pytest.raises(ArithmeticError,
                       match=rf"^D4: S-matrix rows 0, 3 not orthogonal mod p = {p2} at t = 1$"):
        dd._prove_unitary(S2)
    with pytest.raises(VerlindeNonInteger,
                       match=rf"^D4: fusion row N\[\d+\]\[\d+\] fails .* mod p = {p2} "
                             rf"at t = \d+, at s = {b}$"):
        dd._prove_fusion(S2, N)
    # the true data still passes, on its own prime
    dd._prove_unitary(S)
    dd._prove_fusion(S, N)
    assert dd._embeddings(S).p == p


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 7), st.integers(0, 7), st.integers(0, 7))
def test_verlinde_associativity_s3(i, j, k):
    dd = untwisted("S3")
    N = dd.fusion
    n = len(dd.gamma)
    for m in range(n):
        lhs = sum(N[i][j][t] * N[t][k][m] for t in range(n))
        rhs = sum(N[j][k][t] * N[i][t][m] for t in range(n))
        assert lhs == rhs


def test_twists_are_roots_of_unity():
    for dd in (untwisted("S4"), untwisted_cyclic(5), twisted_cyclic(4, 2)):
        ctx = dd.ctx
        for s in dd.gamma:
            assert ctx.root_exponent(s.twist) is not None
