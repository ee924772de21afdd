"""Modular data of the double: simples, S-matrix, twists, fusion."""

import gc
import weakref
from dataclasses import replace
from fractions import Fraction
from math import lcm
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from qdouble import (CheckFailure, GroupTooLarge, InputError, NotACocycle, ThreeCocycle,
                     TwistedDouble, VerlindeNonInteger, builtin_cyclic, builtin_group, characters)
from qdouble.characters import LiftFailure, projective_table
from qdouble.oracle import certify

from conftest import (braiding_doubles, power_rows, twisted_cyclic, twisted_quotient,
                      twisted_z2_cubed, untwisted, untwisted_cyclic, untwisted_product)


EXPECTED_SIMPLES = {"Z2": 4, "Z3": 9, "Z4": 16, "Z2xZ2": 16, "S3": 8,
                    "D4": 22, "Q8": 22, "S4": 21}


def _dense(N):
    """The full table N[i][j][k] of sparse fusion rows, every absent k read as 0."""
    return [[[dict(row).get(k, 0) for k in range(len(N))] for row in rows] for rows in N]


def _plus_one(row, k):
    """The sparse row with N^k raised by 1, k added to the support if absent."""
    counts = dict(row)
    counts[k] = counts.get(k, 0) + 1
    return tuple(sorted(counts.items()))


def test_simple_counts():
    for name, count in EXPECTED_SIMPLES.items():
        dd = untwisted(name)
        assert len(dd.gamma) == count


def test_trivial_group_double():
    # the trivial group's only extension has order 1, with no element (e, 1)
    dd = untwisted_cyclic(1)
    assert [(s.dim, s.twist) for s in dd.gamma] == [(1, 0)]
    assert dd.s_matrix == ((1,),) and _dense(dd.fusion) == [[[1]]]


def test_cap_lives_on_the_group():
    # the double and every central extension it builds read the group's cap
    om = builtin_cyclic(8, 1)
    G = builtin_group("Z8", cap=8)
    with pytest.raises(InputError, match=r"phi\(64\) = 32, above cap 8"):
        TwistedDouble(G, ThreeCocycle(G, om.modulus, om.dlog))
    G = builtin_group("Z8", cap=32)
    dd = TwistedDouble(G, ThreeCocycle(G, om.modulus, om.dlog))
    with pytest.raises(GroupTooLarge, match="extension order 64 exceeds cap 32"):
        dd.gamma
    G = builtin_group("Z8", cap=64)
    assert len(TwistedDouble(G, ThreeCocycle(G, om.modulus, om.dlog)).gamma) == 64


def test_double_rejects_a_non_cocycle_on_construction():
    # normalized, but the identity fails at (1, 1, 1, 1): no double is built
    G = builtin_group("Z3")
    dlog = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    dlog[1][1][1] = 1
    msg = r"^Z3 \(cocycle mod 3\): cocycle identity fails at \(1, 1, 1, 1\)$"
    with pytest.raises(NotACocycle, match=msg) as ei:
        TwistedDouble(G, ThreeCocycle(G, 3, tuple(tuple(map(tuple, p)) for p in dlog)))
    assert ei.value.witness == (1, 1, 1, 1)


def test_a_centralizer_table_failure_names_the_double(monkeypatch):
    # one regular class too many: projective_table's count check fails, and the
    # double adds its group, cocycle modulus and the element a
    count = characters.beta_regular_class_count
    monkeypatch.setattr(characters, "beta_regular_class_count", lambda *a: count(*a) + 1)
    with pytest.raises(LiftFailure) as ei:
        TwistedDouble(builtin_group("S3")).centralizer_table(1)
    assert str(ei.value) == ("S3 (cocycle mod 1): centralizer of a = 1: "
                             "projective character count does not match regular classes")


def test_global_dimension():
    for name in ("S3", "D4", "Q8", "S4"):
        dd = untwisted(name)
        assert sum(s.dim ** 2 for s in dd.gamma) == dd.group.order ** 2


def test_s3_dims_and_twists():
    dd = untwisted("S3")
    assert [s.dim for s in dd.gamma] == [1, 1, 2, 3, 3, 2, 2, 2]
    ctx = dd.ctx
    assert dd.gamma[0].twist == 0
    twists = [s.twist for s in dd.gamma]
    # unit and Rep(S3) pieces are untwisted; a transposition pair has theta = -1
    assert twists[:4] == [0, 0, 0, 0]
    assert ctx.root_sum((twists[4],)) == -1


def test_unit_object():
    for name in EXPECTED_SIMPLES:
        dd = untwisted(name)
        u = dd.gamma[dd.unit_index]
        assert u.a == 0 and u.dim == 1
        assert u.twist == 0


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
        N = _dense(dd.fusion)
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
    twists = [s.twist for s in dd.gamma]
    # two objects are semions with twist +-i
    assert sorted(t * 4 // ctx.N for t in twists) == [0, 0, 1, 3]
    # semion x anti-semion: S is the S-matrix of D(Z2) with its last two columns swapped
    expected = [[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, -1, 1], [1, -1, 1, -1]]
    assert [list(row) for row in dd.s_matrix] == expected
    # every simple is invertible and self-dual: the fusion ring of Z2 x Z2
    assert dd.duals == (0, 1, 2, 3)
    assert [[dd.fusion[i][j] for j in range(4)] for i in range(4)] == \
        [[((i ^ j, 1),) for j in range(4)] for i in range(4)]


@pytest.mark.parametrize("name, error, match", [
    ("S3", VerlindeNonInteger, r"N\[5\]\[5\]\[0\]"),
    ("D4", CheckFailure, "not orthogonal"),
    ("Q8", CheckFailure, "not orthogonal")])
def test_omega_phase_sign_is_pinned(monkeypatch, name, error, match):
    # the coboundary-twisted semion quotients pin the sign of the omega phase:
    # with the conjugate phase zeta_m^-e per term the checks of S and fusion fail
    dd = twisted_quotient.__wrapped__(name, 3)
    pair_terms = dd._pair_terms
    monkeypatch.setattr(dd, "_pair_terms",
                        lambda a, b: [(u, v, -e) for u, v, e in pair_terms(a, b)])
    with pytest.raises(error, match=match):
        dd.fusion


def test_abelian_omega_phase_leaves_s_unchanged(monkeypatch):
    # on D^omega(Z2^3) the phase e is nonzero on 168 of the 512 _pair_terms
    # terms, yet S does not move without it: on an abelian G, e != 0 only
    # where a projective character vanishes, so only nonabelian G pin the phase
    dd = twisted_z2_cubed()
    els = range(dd.group.order)
    terms = [e for a in els for b in els for _, _, e in dd._pair_terms(a, b)]
    assert (len(terms), sum(e != 0 for e in terms)) == (512, 168)
    fresh = twisted_z2_cubed.__wrapped__()
    pair_terms = fresh._pair_terms
    monkeypatch.setattr(fresh, "_pair_terms",
                        lambda a, b: [(u, v, 0) for u, v, _ in pair_terms(a, b)])
    assert ([[z.sort_key() for z in row] for row in fresh.s_matrix]
            == [[z.sort_key() for z in row] for row in dd.s_matrix])


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


def _chi(dd, s, x):
    """chi(x) in Q(zeta_N) for the simple s and x in C_G(s.a), read off s.spectra."""
    return dd.ctx.root_sum(s.spectra[x])


def _cyclo_centralize(dd, i, j):
    """The braiding predicate on field values: zeta_m^e chi_i(u) chi_j(v) = d_i d_j."""
    G, ctx = dd.group, dd.ctx
    si, sj = dd.gamma[i], dd.gamma[j]
    if not all(G.commute(u, v) for u in G.class_of(si.a) for v in G.class_of(sj.a)):
        return False
    degdeg = ctx.from_int(si.degree * sj.degree)
    for u, v, e in dd._pair_terms(si.a, sj.a):
        lhs = _chi(dd, si, u) * _chi(dd, sj, v)
        if lhs * ctx.root_sum(((e % dd.omega.modulus) * dd.scale,)) != degdeg:
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
            r = s.scalar_exps
            for x in range(dd.group.order):
                if not dd.group.commute(x, s.a):
                    assert r[x] is None
                    continue
                chi = _chi(dd, s, x)
                assert (r[x] is not None) == (chi * chi.conj() == s.degree ** 2)
                if r[x] is not None:
                    assert chi == dd.ctx.root_sum((r[x],)) * s.degree


def _pair_sum(dd, i, j):
    """X = sum over _pair_terms of zeta_m^e chi_i(u) chi_j(v), with Cyclo products."""
    si, sj = dd.gamma[i], dd.gamma[j]
    return sum([_chi(dd, si, u) * _chi(dd, sj, v)
                * dd.ctx.root_sum((e * dd.scale,))
                for u, v, e in dd._pair_terms(si.a, sj.a)], dd.ctx.root_sum(()))


def test_common_phase_matches_cyclo_predicates():
    # |S_ij| = d_i d_j iff |X| = |G| deg_i deg_j, and then X = |G| deg_i deg_j zeta_N^k
    for dd in braiding_doubles():
        order = dd.group.order
        S = dd.s_matrix
        for i, si in enumerate(dd.gamma):
            for j, sj in enumerate(dd.gamma):
                k = dd.common_phase(i, j)
                X = _pair_sum(dd, i, j)
                top = order * si.degree * sj.degree
                where = (dd.group.name, dd.omega.modulus, i, j)
                assert (k is not None) == (X * X.conj() == top * top), where
                if k is not None:
                    assert X == dd.ctx.root_sum((k,)) * top, where
                d = si.dim * sj.dim
                assert (k is not None) == (S[i][j] * S[i][j].conj() == d * d), where
                assert (k == 0) == _cyclo_centralize(dd, i, j), where


def test_balancing():
    # S_ij = theta_i^-1 theta_j^-1 sum_k N_{i* j}^k d_k theta_k, the right side one
    # root_sum with exponent t_k - t_i - t_j repeated N_{i* j}^k d_k times
    for dd in braiding_doubles():
        S, N, duals = dd.s_matrix, _dense(dd.fusion), dd.duals
        t = [s.twist for s in dd.gamma]
        dims = [s.dim for s in dd.gamma]
        for i in range(len(t)):
            for j in range(i, len(t)):
                rhs = dd.ctx.root_sum(t[k] - t[i] - t[j]
                                      for k, c in enumerate(N[duals[i]][j])
                                      for _ in range(c * dims[k]))
                assert S[i][j] == rhs, (dd.group.name, dd.omega.modulus, i, j)


def _cyclo_verlinde(dd):
    """N_ij^k = sum_s S_is S_js conj(S_ks) / (d_s |G|^2), every sum in Q(zeta_N)."""
    S = dd.s_matrix
    n = len(dd.gamma)
    order2 = dd.group.order ** 2
    N = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            t = [S[i][s] * S[j][s] * Fraction(1, dd.gamma[s].dim) for s in range(n)]
            for k in range(n):
                val = sum([t[s] * S[k][s].conj() for s in range(n)], dd.ctx.root_sum(()))
                q = val.as_fraction() / order2
                assert q.denominator == 1 and q >= 0
                N[i][j][k] = N[j][i][k] = int(q)
    return N


def test_fusion_matches_cyclo_verlinde():
    for name in ("Z2", "Z4", "S3", "D4"):
        dd = untwisted(name)
        assert _dense(dd.fusion) == _cyclo_verlinde(dd)


def test_fusion_proof_rejects_rescaled_column():
    # zeta_N times column s keeps S S^dagger = |G|^2 I and leaves Verlinde's
    # formula with S_0s in the denominator unchanged, so the F_p candidate is
    # the true table; only the exact check N_i S = S Lambda_i sees the change
    dd = TwistedDouble(builtin_group("D4"))
    S = [list(row) for row in dd.s_matrix]
    s = 5
    zeta = dd.ctx.root_sum((1,))
    for row in S:
        row[s] = row[s] * zeta
    dd._smatrix = tuple(tuple(row) for row in S)
    with pytest.raises(VerlindeNonInteger,
                       match=r"^D4 \(cocycle mod 1\): fusion row N\[0\]\[0\] .* "
                             r"at s = 5$"):
        dd.fusion


def test_fusion_proof_rejects_wrong_candidate():
    dd = untwisted("S3")
    S = dd.s_matrix
    for change in ("zero row", "one more"):
        N = [list(rows) for rows in dd.fusion]
        N[2][3] = N[3][2] = () if change == "zero row" else _plus_one(N[2][3], 4)
        with pytest.raises(VerlindeNonInteger, match=r"N\[2\]\[3\]"):
            dd._prove_fusion(S, N)


def test_fusion_proof_rejects_negative_and_over_mass_rows():
    # a negated row is wrong at some s; a row heavier than n d_max^2 lies outside the
    # bound of _Embeddings, so it is rejected before its residual is read
    dd = untwisted("S3")
    S = dd.s_matrix
    mass = dd._embeddings(S).mass
    N = [list(rows) for rows in dd.fusion]
    negated = tuple((k, -c) for k, c in N[2][3])
    for row, match in ((negated, r"N\[2\]\[3\] fails sum_k N_ij\^k S_ks"),
                       (((0, -mass - 1),), rf"N\[2\]\[3\] has sum_k \|N_ij\^k\| = {mass + 1} >")):
        N[2][3] = N[3][2] = row
        with pytest.raises(VerlindeNonInteger, match=match):
            dd._prove_fusion(S, N)


def _fused_doubles():
    """Every kind of double that tier-1 fuses: untwisted Z/n (n <= 8), builtins and
    products, omega_q on Z/n (n <= 8), the twisted quotients and coboundaries, D^omega(Z2^3),
    and S3 under a zero cocycle of modulus 35."""
    G = builtin_group("S3")
    zero35 = ThreeCocycle(G, 35, tuple(tuple((0,) * 6 for _ in range(6)) for _ in range(6)))
    return list(dict.fromkeys([
        *map(untwisted_cyclic, range(1, 9)), untwisted("Z2xZ2"), untwisted("S4"),
        untwisted_product("D4", "Z2"), untwisted_product("S3", "S3"),
        *(twisted_cyclic(n, q) for n in range(2, 9) for q in range(1, n)),
        *braiding_doubles(), twisted_z2_cubed(), TwistedDouble(G, zero35)]))


def test_fusion_rows_are_sorted_supports_stored_once():
    # fusion[i][j] holds (k, N_ij^k) with N_ij^k > 0 and k ascending, the same tuple
    # as fusion[j][i], and sum_k N_ij^k d_k = d_i d_j
    for dd in _fused_doubles():
        N, dims = dd.fusion, [s.dim for s in dd.gamma]
        n = len(dims)
        assert len(N) == n and all(len(rows) == n for rows in N)
        for i in range(n):
            for j in range(n):
                row, where = N[i][j], (dd.group.name, dd.omega.modulus, i, j)
                assert row is N[j][i], where
                ks = [k for k, _ in row]
                assert ks == sorted(set(ks)) and all(0 <= k < n for k in ks), where
                assert all(type(c) is int and c > 0 for _, c in row), where
                assert sum(c * dims[k] for k, c in row) == dims[i] * dims[j], where


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
    doubles = braiding_doubles() + [untwisted_cyclic(8)]
    for dd in doubles:
        S = dd.s_matrix
        assert _dense(dd._verlinde_mod_p(S)) == _ungraded_verlinde(dd, S), dd.group.name


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
        N = [list(rows) for rows in dd.fusion]
        assert k not in dict(N[i][j])
        N[i][j] = N[j][i] = _plus_one(N[i][j], k)
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
            inner = sum([S[i][k] * conj_rows[j][k] for k in range(n)], ctx.root_sum(()))
            if inner != (order2 if i == j else ctx.root_sum(())):
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
            x = (sum([c[i][k] * c[j][k].conj() for k in range(n)], ctx.root_sum(()))
                 - (target if i == j else 0))
            assert x.den == 1
            unitary += x.num
            for s in range(n):
                y = sum([c[k][s] * (D * dims[s] * m) for k, m in enumerate(N[i][j]) if m],
                        ctx.root_sum(()))
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
    turned = [[x * dd.ctx.root_sum((1,)) if s == n - 1 else x for s, x in enumerate(row)]
              for row in S]
    wrong = [list(rows) for rows in N]
    wrong[1][1] = _plus_one(wrong[1][1], 0)
    return [("true", S, N),
            ("entry + 1", tuple(map(tuple, bumped)), N),
            ("column * zeta", tuple(map(tuple, turned)), N),
            ("wrong N", S, wrong)]


def _accepts(check, *args):
    try:
        check(*args)
    except CheckFailure:
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
            unitary, fusion = _residual_coordinates(dd, S, _dense(N))
            worst = max(map(abs, unitary + fusion))
            assert worst <= emb.bound, (name, label, worst, emb.bound)
            assert (worst == 0) == (label == "true"), (name, label)


def test_embedding_bound_reads_the_norm_rows():
    # B recomputed from the docstring's formula, with R_inf and R_1 read off the
    # shift-and-reduce rows of zeta_N^k for every k < N; these fields have R_1 > 1
    # (zeta^2 = zeta - 1 for N = 6), so rows for k < phi(N) alone would give 1
    doubles = [untwisted("S3"), untwisted("Z3"), untwisted("S4"), untwisted_cyclic(5),
               untwisted_cyclic(6), twisted_cyclic(3, 1), twisted_quotient("S3", 3),
               untwisted_product("S3", "Z3")]
    for dd in doubles:
        rows = power_rows(dd.ctx.N)
        r_inf = max(abs(v) for r in rows for v in r)
        r_one = max(sum(map(abs, r)) for r in rows)
        assert r_one > 1, dd.where
        S = dd.s_matrix
        n, d_max = len(S), max(s.dim for s in dd.gamma)
        D = lcm(*(x.den for row in S for x in row))
        l1 = max(sum(abs(v) * (D // x.den) for v in x.num) for row in S for x in row)
        linf = max(abs(v) * (D // x.den) for row in S for x in row for v in x.num)
        unitary = n * r_inf * l1 * r_one * l1 + D * D * dd.group.order ** 2
        fusion = D * d_max * n * d_max ** 2 * linf + r_inf * l1 * l1
        assert dd._embeddings(S).bound == max(unitary, fusion), dd.where


def test_embedding_checks_match_cyclo_checks():
    for name in BOUND_GROUPS:
        dd = untwisted(name)
        for label, S, N in _mutations(dd):
            unitary = _accepts(dd._prove_unitary, S)
            fusion = _accepts(dd._prove_fusion, S, N)
            assert unitary == _cyclo_unitary(dd, S), (name, label)
            assert fusion == _cyclo_prove_fusion(dd, S, _dense(N)), (name, label)
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
    rows[a][b] = rows[a][b] + dd.ctx.root_sum((1,)) * Fraction(p, D)
    S2 = tuple(map(tuple, rows))
    assert (rows[a][b] - S[a][b]) * D == dd.ctx.root_sum((1,)) * p
    unitary, fusion = _residual_coordinates(dd, S2, _dense(N))
    for residual in (unitary, fusion):
        assert any(residual) and all(x % p == 0 for x in residual)
    p2 = dd._embeddings(S2).p
    assert p2 > p
    with pytest.raises(CheckFailure,
                       match=rf"^D4 \(cocycle mod 1\): S-matrix rows 0, 3 not orthogonal "
                             rf"mod p = {p2} at t = 1$"):
        dd._prove_unitary(S2)
    with pytest.raises(VerlindeNonInteger,
                       match=rf"^D4 \(cocycle mod 1\): fusion row N\[\d+\]\[\d+\] fails .* "
                             rf"mod p = {p2} "
                             rf"at t = \d+, at s = {b}$"):
        dd._prove_fusion(S2, N)
    # the true data still passes, on its own prime
    dd._prove_unitary(S)
    dd._prove_fusion(S, N)
    assert dd._embeddings(S).p == p


def test_embedding_proofs_keep_one_column_per_distinct_pair():
    # sigma_t permutes the columns of a modular S and keeps their dimensions, so
    # sigma_1 already holds every distinct (d_s, column) and the one unitarity class
    for dd in (*map(untwisted, BOUND_GROUPS), *map(untwisted_cyclic, range(2, 9))):
        emb = dd._embeddings(dd.s_matrix)
        assert len(emb.columns) == len(dd.gamma), dd.group.name
        assert emb.unitary_ts == [1], dd.group.name


@pytest.mark.parametrize("name, t0", [("D4", 5), ("S4", 19)])
def test_a_column_seen_at_one_embedding_is_checked(name, t0):
    # one entry of at[t0] moved by 1: the column matches none at another
    # embedding, so both proofs check t0 on their own and fail there
    dd = TwistedDouble(builtin_group(name))
    S, N = dd.s_matrix, dd.fusion
    S2 = tuple(map(tuple, S))          # a new S, so a new _Embeddings to edit
    emb = dd._embeddings(S2)
    p, n, s = emb.p, len(S), len(S) - 1
    emb.at[t0] = [list(row) for row in emb.at[t0]]
    emb.at[t0][0][s] = (emb.at[t0][0][s] + 1) % p
    assert [(t, k) for t, k, _, _ in emb.columns] == [(1, k) for k in range(n)] + [(t0, s)]
    t_unitary = min(t0, dd.ctx.N - t0)
    assert emb.unitary_ts[0] == 1 and t_unitary in emb.unitary_ts
    with pytest.raises(CheckFailure,
                       match=rf"^{name} \(cocycle mod 1\): S-matrix rows 0, 0 not orthogonal "
                             rf"mod p = {p} at t = {t_unitary}$"):
        dd._prove_unitary(S2)
    with pytest.raises(VerlindeNonInteger,
                       match=rf"^{name} \(cocycle mod 1\): fusion row N\[0\]\[0\] fails .* "
                             rf"mod p = {p} "
                             rf"at t = {t0}, at s = {s}$"):
        dd._prove_fusion(S2, N)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 7), st.integers(0, 7), st.integers(0, 7))
def test_verlinde_associativity_s3(i, j, k):
    dd = untwisted("S3")
    N = _dense(dd.fusion)
    n = len(dd.gamma)
    for m in range(n):
        lhs = sum(N[i][j][t] * N[t][k][m] for t in range(n))
        rhs = sum(N[j][k][t] * N[i][t][m] for t in range(n))
        assert lhs == rhs


def test_twists_are_roots_of_unity():
    for dd in (untwisted("S4"), untwisted_cyclic(5), twisted_cyclic(4, 2)):
        for s in dd.gamma:
            assert isinstance(s.twist, int) and 0 <= s.twist < dd.ctx.N


def test_twist_is_the_scalar_at_a():
    # theta_i = chi_i(a_i) / deg_i = zeta_N^twist, read in the field, and the
    # twist is the scalar exponent of rho_i(a_i) that the braiding kernel uses
    for dd in braiding_doubles():
        for s in dd.gamma:
            where = (dd.group.name, dd.omega.modulus, s.index)
            chi = _chi(dd, s, s.a)
            assert chi == dd.ctx.root_sum((s.twist,)) * s.degree, where
            assert s.twist == s.scalar_exps[s.a], where


def test_simples_carry_their_centralizer_rows_on_g():
    # each table row of C_G(a), read in sorted member order, is the simple's
    # spectra on G, None exactly off C_G(a); the twist is the scalar at a
    for dd in braiding_doubles() + [twisted_z2_cubed()]:
        G, ctx = dd.group, dd.ctx
        for a in G.class_reps:
            P, members = dd.centralizer_table(a), G.centralizer_members(a)
            simples = [s for s in dd.gamma if s.a == a]
            assert [s.char_index for s in simples] == list(range(P.n_chars))
            for s in simples:
                where = (G.name, dd.omega.modulus, s.index)
                assert [g for g in range(G.order) if s.spectra[g] is not None] == \
                    list(members), where
                for x, g in enumerate(members):
                    assert ctx.root_sum(s.spectra[g]) == P.value(s.char_index, x), where
                assert s.scalar_exps[s.a] == s.twist, where


# -- the double's own checks name the double ------------------------------------------


def _fresh_s3():
    return TwistedDouble(builtin_group("S3"))


def _wrap_centre_table(monkeypatch, change):
    """projective_table with change applied to the table of C_G(e) = G."""
    def wrapped(ctx, C, beta, m):
        P = projective_table(ctx, C, beta, m)
        return change(P) if C.order == 6 else P
    monkeypatch.setattr("qdouble.doubledata.projective_table", wrapped)


def test_a_nonscalar_twist_names_the_double(monkeypatch):
    # rho(e) of the 2-dim character made (0, 3): not a scalar
    _wrap_centre_table(monkeypatch, lambda P: replace(
        P, spectra=P.spectra[:2] + (((0, 3),) + P.spectra[2][1:],)))
    with pytest.raises(CheckFailure) as err:
        _fresh_s3().gamma
    assert str(err.value) == ("S3 (cocycle mod 1): twist of (0, 2) is not a root of "
                              "unity: eigenvalue exponents (0, 3)")


def test_missing_squared_dimensions_name_the_double(monkeypatch):
    _wrap_centre_table(monkeypatch, lambda P: replace(
        P, degrees=P.degrees[:2], spectra=P.spectra[:2]))
    with pytest.raises(CheckFailure) as err:
        _fresh_s3().gamma
    assert str(err.value) == "S3 (cocycle mod 1): squared dimensions sum to 32, expected 36"


def test_a_wrong_dimension_is_the_s_row_witness():
    dd = _fresh_s3()
    gamma = list(dd.gamma)
    gamma[3] = replace(gamma[3], dim=gamma[3].dim + 1)
    dd._gamma = tuple(gamma)
    with pytest.raises(CheckFailure) as err:
        dd.s_matrix
    assert str(err.value) == ("S3 (cocycle mod 1): first S-matrix row does not match "
                              "dimensions at s = 3: S_0s = 3, d_s = 4")


def test_a_second_unit_row_names_the_double():
    # N_10^0 = 1 next to N_11^0 = 1: simple 1 would have two duals
    dd = _fresh_s3()
    rows = [list(r) for r in dd.fusion]
    rows[1][0] = ((0, 1),)
    dd._fusion = tuple(map(tuple, rows))
    with pytest.raises(CheckFailure) as err:
        dd.duals
    assert str(err.value) == "S3 (cocycle mod 1): dual of 1 is not unique: [0, 1]"
