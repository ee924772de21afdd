"""Exact irreducible characters, ordinary and projective, as eigenvalue spectra.

Every table is projective: the beta-characters of C for a 2-cocycle beta mod m
are the characters of E = C x_beta Z/m' with chi(z) = d zeta_m' at z = (e, 1),
restricted along x -> (x, 0); beta = 0 mod 1 gives the ordinary table. If E
would be abelian, a walk along the generators finds them on C itself, twisted
by beta. Otherwise Dixon runs on E: common eigenvectors of the class-sum
matrices over F_p, p = 1 (mod N), lifted exactly to Q(zeta_N) via eigenvalue
multiplicities, from the eigenspace of {z} at zeta_m'. Only Dixon's rows are
checked for orthonormality; walk rows and restricted rows are so by proof.
Nor is beta taken on trust: walk rows are checked on every pair of C, and E
must pass the group axioms, so a beta that is not a normalized 2-cocycle raises.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd, isqrt
from typing import Sequence

from .cyclotomic import Cyclo, CycloContext
from .errors import CheckFailure, InputError
from .groups import FiniteGroup, GroupTooLarge, NotAGroup
from .linmod import (charpoly_mod, mat_mul_mod, nullspace_mod, poly_roots_mod,
                     primitive_root, rref_mod, smallest_prime_one_mod)


class LiftFailure(CheckFailure):
    """The exact lift of a modular character value failed a consistency check."""


@dataclass(frozen=True)
class CharacterTable:
    """Irreducible beta-characters of a group; beta = 0 gives the ordinary ones.

    spectra[i][x] holds the sorted exponents of zeta_N over the eigenvalues of
    rho_i(x), where rho(x) rho(y) = zeta_m^{beta(x,y)} rho(xy); chi_i(x) is their sum.
    """

    group: FiniteGroup = field(compare=False)
    ctx: CycloContext = field(compare=False)
    degrees: tuple[int, ...]
    spectra: tuple[tuple[tuple[int, ...], ...], ...] = field(repr=False)

    @property
    def n_chars(self) -> int:
        return len(self.degrees)

    def value(self, i: int, x: int) -> Cyclo:
        return self.ctx.root_sum(self.spectra[i][x])


def _canonical(ctx: CycloContext, C: FiniteGroup, degrees: Sequence[int],
               spectra: Sequence[Sequence[tuple[int, ...]]]) -> CharacterTable:
    """The table with its rows in the one canonical order.

    Rows sort by degree, then the trivial character first, then the value
    sort keys element by element. For class functions this is the order by
    class values: classes are ordered by their least element, so the first
    element where two rows differ is a class representative. Keys are
    computed once per distinct spectrum and context, by ctx.sort_key_of.
    """
    one = ctx.one.sort_key()
    keys = [tuple(map(ctx.sort_key_of, row)) for row in spectra]
    order = sorted(range(len(degrees)),
                   key=lambda i: (degrees[i], any(k != one for k in keys[i]), keys[i]))
    return CharacterTable(C, ctx, tuple(degrees[i] for i in order),
                          tuple(tuple(spectra[i]) for i in order))


def ordinary_table(ctx: CycloContext, C: FiniteGroup) -> CharacterTable:
    """The full irreducible character table of C over Q(zeta_N): beta = 0 mod 1."""
    return projective_table(ctx, C, ((0,) * C.order,) * C.order, 1)


def _ordinary_rows(ctx: CycloContext, C: FiniteGroup, mp: int) -> tuple[list[int], list[tuple]]:
    """Dixon's degrees and per-element spectra of C's irreducible characters,
    checked, orthonormality included, but in no particular order.

    mp > 1 says that index 1 is a central element z of order mp, and only the
    characters with chi(z) = d zeta_mp are built: the refinement starts from
    that central character, so their squared degrees sum to |C| / mp; mp = 1
    builds them all. The caller checks that exponent(C) divides N.
    """
    n = C.order
    classes = C.conjugacy_classes
    r = len(classes)
    reps = C.class_reps
    sizes = [len(c) for c in classes]
    N = ctx.N

    p = smallest_prime_one_mod(N, isqrt(4 * n ** 3) + 1)
    z = pow(primitive_root(p), (p - 1) // N, p)

    # class-sum structure matrices, transposed so eigen-rows carry the values;
    # the identity class 0 has the identity matrix
    mats_t = []
    for i in range(r):
        M = [[0] * r for _ in range(r)]
        for u in classes[i]:
            ui = C.inverse(u)
            for k in range(r):
                M[C.class_index_of[C.mul(ui, reps[k])]][k] += 1
        mats_t.append([[M[j][k] for j in range(r)] for k in range(r)])

    def left_eigenspace(S, B, lam):
        """The rows q S with q B = lam q, in reduced echelon form (None if there
        are none), and their dimension: the coordinate rows of S's row space
        transform by B on the right."""
        Bl = [[(B[j][i] - lam * (i == j)) % p for j in range(len(S))] for i in range(len(S))]
        Q = nullspace_mod(Bl, p)
        return (rref_mod(mat_mul_mod(Q, S, p), p) if Q else None), len(Q)

    # refine common eigenspaces (row spaces, kept in reduced echelon form), starting
    # from the one where the class {z} acts by zeta_mp (z = e and all of F_p^r if mp = 1)
    zc = C.class_index_of[1] if mp > 1 else 0
    seed, _ = left_eigenspace(mats_t[0], mats_t[zc], pow(z, N // mp, p))
    spaces: list[tuple[list[list[int]], list[int]]] = [seed] if seed else []
    for A in (A for i, A in enumerate(mats_t) if i not in (0, zc)):
        refined = []
        for S, pivots in spaces:
            if len(S) == 1:
                refined.append((S, pivots))
                continue
            SA = mat_mul_mod(S, A, p)
            B = [[SA[i][c] for c in pivots] for i in range(len(S))]
            roots = poly_roots_mod(charpoly_mod(B, p), p)
            total = 0
            for lam in sorted(set(roots)):
                sub, dim = left_eigenspace(S, B, lam)
                if sub:
                    refined.append(sub)
                total += dim
            if total != len(S):
                raise LiftFailure("class matrix not diagonalizable over F_p")
        spaces = refined
    if any(len(S) != 1 for S, _ in spaces):
        raise LiftFailure("common eigenspaces did not split to lines")

    inv_size = [pow(s, p - 2, p) for s in sizes]
    inv_class = [C.class_index_of[C.inverse(reps[k])] for k in range(r)]
    degrees, rows = [], []
    for S, _ in spaces:
        w = S[0]
        if w[0] == 0:
            raise LiftFailure("eigenvector vanishes on the identity class")
        w0inv = pow(w[0], p - 2, p)
        w = [(x * w0inv) % p for x in w]
        omega = [sum(A[k][0] * w[k] for k in range(r)) % p for A in mats_t]
        s_inv = sum(omega[k] * omega[inv_class[k]] % p * inv_size[k] for k in range(r)) % p
        if s_inv == 0:
            raise LiftFailure("degree denominator vanished")
        d2 = (n * pow(s_inv, p - 2, p)) % p
        d = isqrt(d2)
        if d * d != d2:
            raise LiftFailure(f"degree squared lifted to non-square {d2}")
        X = [(d * omega[k]) % p * inv_size[k] % p for k in range(r)]

        per_class = []
        for k in range(r):
            g = reps[k]
            o = C.order_of(g)
            pcls = []
            x = 0
            for _ in range(o):
                pcls.append(C.class_index_of[x])
                x = C.mul(x, g)
            zo_inv = pow(z, (N // o) * (p - 2), p)
            o_inv = pow(o, p - 2, p)
            eigen_exps: list[int] = []
            for t in range(o):
                m_t = o_inv * sum(X[pcls[s]] * pow(zo_inv, s * t, p) for s in range(o)) % p
                if m_t > d:
                    raise LiftFailure(f"eigenvalue multiplicity {m_t} exceeds degree {d}")
                eigen_exps += [t * (N // o)] * m_t
            if len(eigen_exps) != d:
                raise LiftFailure(
                    f"multiplicities sum to {len(eigen_exps)}, expected degree {d}")
            per_class.append(tuple(eigen_exps))
        degrees.append(d)
        rows.append(tuple(map(per_class.__getitem__, C.class_index_of)))

    if sum(d * d for d in degrees) != n // mp:
        # Ind from <z> to C of zeta_mp has dimension |C| / mp
        raise LiftFailure(f"squared degrees do not sum to |C| / {mp} = {n // mp}")
    _check_orthonormal(ctx, rows, n)
    return degrees, rows


def _check_orthonormal(ctx: CycloContext, spectra, order: int) -> None:
    """Raise unless sum_x chi_i(x) conj(chi_j(x)) = order [i == j] for all i <= j.

    chi_i(x) is the sum of zeta_N^a over a in spectra[i][x], so each inner product is
    one root_sum of differences a - b.
    """
    for i, row in enumerate(spectra):
        for j in range(i, len(spectra)):
            inner = ctx.root_sum(a - b for si, sj in zip(row, spectra[j])
                                 for a in si for b in sj)
            if inner != (order if i == j else 0):
                raise LiftFailure(f"rows {i}, {j} are not orthonormal")


def _abelian_rows(ctx: CycloContext, C: FiniteGroup, beta: Sequence[Sequence[int]],
                  m: int) -> tuple[list[int], list[tuple]]:
    """The beta-characters of an abelian C with beta symmetric mod m, all of degree 1:
    the maps L: C -> Z/N with L(x) + L(y) = L(xy) + B(x, y), B = (N/m) beta
    (beta = 0 gives the homomorphisms into the N-th roots of unity).

    Built along the generators from H = {e}: if t is the least power with g^t
    in H = <earlier generators>, the equations at (g^s, g) for 0 < s < t leave
    L(g) = c with t c = R for R = L(g^t) + sum_{0<s<t} B(g^s, g) mod N, solved
    in exactly the t ways c = R/t + k N/t (0 <= k < t), and L extends to
    h g^s as L(h) + L(g^s) - B(h, g^s). That gives |C| rows, which
    _check_walk_rows proves to be the beta-characters, orthonormal.
    """
    n, N, u = C.order, ctx.N, ctx.N // m
    elems, rows, member = [0], [[0] * n], {0}
    for g in C.whole_group.generators:
        coset, drift, t, gt = [], 0, 1, g     # drift = sum of beta(g^s, g) over 0 < s < t
        while gt not in member:
            coset += [(t, h, C.mul(h, gt), u * (drift + beta[h][gt])) for h in elems]
            drift += beta[gt][g]
            t, gt = t + 1, C.mul(gt, g)
        extended = []
        for row in rows:
            R = (row[gt] + u * drift) % N
            if R % t:
                raise LiftFailure(f"exponent {R} at {gt} = {g}^{t} is not divisible by {t}")
            for k in range(t):
                c = R // t + k * (N // t)
                new = row[:]
                for s, h, x, w in coset:
                    new[x] = (row[h] + s * c - w) % N
                extended.append(new)
        rows = extended
        elems += [x for _, _, x, _ in coset]
        member.update(elems)
    if len(rows) != n:
        raise LiftFailure(f"abelian group has {len(rows)} characters, expected {n}")
    _check_walk_rows(ctx, C, beta, m, rows)
    single = [(e,) for e in range(N)]
    return [1] * n, [tuple(map(single.__getitem__, row)) for row in rows]


def _check_walk_rows(ctx: CycloContext, C: FiniteGroup,
                     beta: Sequence[Sequence[int]], m: int, rows) -> None:
    """Raise unless every exponent row L has L(x y) = L(x) + L(y) - (N/m) beta(x, y) mod N
    for every pair x, y of C, and the rows are distinct.

    The equations say rho(x) rho(y) = zeta_m^beta(x, y) rho(xy) for
    rho = zeta_N^L, which defines a degree-1 beta-character. Walk rows have
    L(e) = 0, and such a row passes only if beta is a normalized 2-cocycle.
    The rows are orthonormal over C: for L != L', D = L - L' has
    D(x y) = D(x) + D(y), so D is a nonzero homomorphism C -> Z/N, and
    sum_x zeta_N^D(x) = 0 (each root of unity in its image, a subgroup of
    order > 1, is hit equally often).
    """
    N, u = ctx.N, ctx.N // m
    for row in rows:
        for x, (mx, bx) in enumerate(zip(C.mult, beta)):
            for y, xy in enumerate(mx):
                if row[xy] != (row[x] + row[y] - u * bx[y]) % N:
                    raise LiftFailure(f"abelian character {row} fails L(x y) = "
                                      f"L(x) + L(y) - B(x, y) at ({x}, {y})")
    if len(set(map(tuple, rows))) != len(rows):
        raise LiftFailure("abelian characters are not distinct")


# -- projective characters ------------------------------------------------------


def _extension_degree(C: FiniteGroup, beta: Sequence[Sequence[int]], m: int) -> int:
    """m' = m / gcd(m, all beta), so that |E| = |C| m', after the check against C's cap."""
    mp = m // gcd(m, *(b % m for row in beta for b in row))
    if C.order * mp > C.cap:
        raise GroupTooLarge(f"extension order {C.order * mp} exceeds cap {C.cap}")
    return mp


def central_extension(C: FiniteGroup, beta: Sequence[Sequence[int]], m: int) -> FiniteGroup:
    """The central extension E of C by Z/m' that the 2-cocycle beta mod m defines.

    With g = gcd(m, all beta) and b = (beta mod m) / g, E is C x Z/m' for
    m' = m / g under (x, i)(y, j) = (xy, i + j + b(x, y)). (x, i) sits at index
    x m' + i, so m' = |E| / |C|, the section x -> (x, 0) is x -> x m', and
    (e, 1) is index 1. When m' = 1 every beta is 0 mod m and E is C itself,
    returned as is. Otherwise, after the check against C's cap, index 0 of E
    is the identity iff beta vanishes at e, checked first, and FiniteGroup's
    group-axiom check decides that beta is a 2-cocycle: E is associative iff
    b(x,y) + b(xy,w) = b(x,yw) + b(y,w) (mod m'), the identity divided by g.
    Either failure names a pair or triple of C, not indices of E.
    """
    mp = _extension_degree(C, beta, m)
    if mp == 1:
        return C
    n, g = C.order, m // mp
    bp = [[(beta[x][y] % m) // g for y in range(n)] for x in range(n)]
    bad = [(x, y) for x in range(n) for y in range(n) if bp[x][y] and 0 in (x, y)]
    if bad:
        raise InputError(f"beta mod {m} is not normalized: beta{bad[0]} != 0 on {C.name}")
    table = [[0] * (n * mp) for _ in range(n * mp)]
    for x in range(n):
        for i in range(mp):
            row = table[x * mp + i]
            for y in range(n):
                xy = C.mul(x, y)
                b = bp[x][y]
                for j in range(mp):
                    row[y * mp + j] = xy * mp + (i + j + b) % mp
    try:
        return FiniteGroup(table, name=f"{C.name}~{mp}", cap=C.cap)
    except NotAGroup:
        # E is a group whenever b is a normalized 2-cocycle, so some triple fails
        triple = next((x, y, w) for x in range(n) for y in range(n) for w in range(n)
                   if (bp[x][y] + bp[C.mul(x, y)][w] - bp[x][C.mul(y, w)] - bp[y][w]) % mp)
        raise NotAGroup(f"associativity fails at {triple} of {C.name}: "
                        f"beta mod {m} is not a 2-cocycle there") from None


def beta_regular_class_count(C: FiniteGroup, beta: Sequence[Sequence[int]], m: int) -> int:
    """Number of classes whose elements commute with their centralizer under beta."""
    count = 0
    for rep in C.class_reps:
        if all((beta[rep][y] - beta[y][rep]) % m == 0
               for y in C.centralizer_members(rep)):
            count += 1
    return count


def projective_table(ctx: CycloContext, C: FiniteGroup, beta: Sequence[Sequence[int]],
                     m: int) -> CharacterTable:
    """All irreducible beta-characters of C, exactly; beta = 0 gives the ordinary ones.

    They are the characters chi of the central extension E with
    chi(z) = d zeta_m' at z = (e, 1), restricted along x -> (x, 0). E is
    abelian iff C is and beta(x, y) = beta(y, x) mod m; then _abelian_rows
    walks C itself, twisted by beta, and E is never built. Otherwise Dixon
    runs on E = central_extension, seeded at zeta_m', so no row is filtered
    out; each is checked instead: every eigenvalue of rho(z) must be zeta_m'.

    Restricted Dixon rows are orthonormal over C: _ordinary_rows checked them
    over E, and rho(z) = zeta_m' I. Since (x, i) = (x, 0) z^i, chi_i(x, i)
    conj(chi_j(x, i)) = chi_i(x, 0) conj(chi_j(x, 0)), so the sum over E is m'
    times the sum over C, and |E| = m' |C|.
    """
    n = C.order
    walk = C.is_abelian and all((beta[x][y] - beta[y][x]) % m == 0
                                for x in range(n) for y in range(x))
    E = C if walk else central_extension(C, beta, m)
    mp = _extension_degree(C, beta, m) if walk else E.order // n
    if ctx.N % (mp * C.exponent):
        # exponent(E) divides m' * exponent(C)
        raise InputError(f"N = {ctx.N} is not a multiple of m' exponent(C) = {mp * C.exponent}")
    if walk:
        degrees, spectra = _abelian_rows(ctx, C, beta, m)
    else:
        degrees, spectra = _ordinary_rows(ctx, E, mp)
        # z = (e, 1) is index 1 % m' (the identity if m' = 1), and (x, 0) is index x m'
        z, zeta = 1 % mp, ctx.N // mp % ctx.N
        for i, row in enumerate(spectra):
            if any(e != zeta for e in row[z]):
                raise LiftFailure(f"row {i} has spectrum {row[z]} at z, "
                                  f"expected every exponent {zeta}")
        spectra = [row[::mp] for row in spectra]

    if len(degrees) != beta_regular_class_count(C, beta, m):
        raise LiftFailure("projective character count does not match regular classes")
    return _canonical(ctx, C, degrees, spectra)
