"""Exact irreducible characters, ordinary and projective.

Ordinary tables come from the class-algebra method: common eigenvectors of the
class-sum structure matrices over a prime field F_p with p = 1 (mod N), lifted
exactly to Q(zeta_N) via eigenvalue multiplicities. Projective characters for a
2-cocycle beta are ordinary characters of a central extension with a fixed
central character, restricted along the section x -> (x, 0).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd, isqrt
from typing import Sequence

from .cyclotomic import Cyclo, CycloContext
from .groups import FiniteGroup, GroupTooLarge, DEFAULT_ORDER_CAP
from .linmod import (charpoly_mod, mat_mul_mod, nullspace_mod, poly_roots_mod,
                     primitive_root, rref_mod, smallest_prime_one_mod)


class LiftFailure(ArithmeticError):
    """The exact lift of a modular character value failed a consistency check."""


class CapExceeded(ValueError):
    """A derived group (central extension) exceeds the order cap."""


@dataclass(frozen=True)
class CharacterTable:
    """Ordinary irreducible characters; values indexed by conjugacy class."""

    group: FiniteGroup = field(compare=False)
    ctx: CycloContext = field(compare=False)
    degrees: tuple[int, ...]
    class_values: tuple[tuple[Cyclo, ...], ...]
    # sorted exponents of zeta_N over the eigenvalues of rho_i on class k; they sum to the value
    class_spectra: tuple[tuple[tuple[int, ...], ...], ...] = field(compare=False, repr=False)

    @property
    def n_chars(self) -> int:
        return len(self.degrees)

    def value(self, i: int, g: int) -> Cyclo:
        return self.class_values[i][self.group.class_index_of[g]]


def ordinary_table(ctx: CycloContext, C: FiniteGroup) -> CharacterTable:
    """The full irreducible character table of C over Q(zeta_N)."""
    if ctx.N % C.exponent:
        raise ValueError(f"exponent {C.exponent} does not divide N = {ctx.N}")
    if C.is_abelian:
        return _abelian_table(ctx, C)
    classes = C.conjugacy_classes
    r = len(classes)
    reps = C.class_reps
    sizes = [len(c) for c in classes]
    n = C.order
    N = ctx.N

    p = smallest_prime_one_mod(N, isqrt(4 * n ** 3) + 1)
    z = pow(primitive_root(p), (p - 1) // N, p)

    # class-sum structure matrices, transposed so eigen-rows carry the values
    mats_t = []
    for i in range(1, r):
        M = [[0] * r for _ in range(r)]
        for u in classes[i]:
            ui = C.inverse(u)
            for k in range(r):
                M[C.class_index_of[C.mul(ui, reps[k])]][k] += 1
        mats_t.append([[M[j][k] for j in range(r)] for k in range(r)])

    # refine common eigenspaces (row spaces, kept in reduced echelon form)
    spaces: list[tuple[list[list[int]], list[int]]] = \
        [rref_mod([[int(i == j) for j in range(r)] for i in range(r)], p)]
    for A in mats_t:
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
                # left eigenvectors of B: coordinate rows transform by B on the right
                Bl = [[(B[j][i] - lam * (i == j)) % p for j in range(len(S))]
                      for i in range(len(S))]
                Q = nullspace_mod(Bl, p)
                if not Q:
                    continue
                sub = mat_mul_mod(Q, S, p)
                refined.append(rref_mod(sub, p))
                total += len(Q)
            if total != len(S):
                raise LiftFailure("class matrix not diagonalizable over F_p")
        spaces = refined
    if any(len(S) != 1 for S, _ in spaces):
        raise LiftFailure("common eigenspaces did not split to lines")

    inv_size = [pow(s, p - 2, p) for s in sizes]
    inv_class = [C.class_index_of[C.inverse(reps[k])] for k in range(r)]
    rows_out = []
    for S, _ in spaces:
        w = S[0]
        if w[0] == 0:
            raise LiftFailure("eigenvector vanishes on the identity class")
        w0inv = pow(w[0], p - 2, p)
        w = [(x * w0inv) % p for x in w]
        omega = [0] * r
        omega[0] = 1
        for i, A in enumerate(mats_t, start=1):
            omega[i] = sum(A[k][0] * w[k] for k in range(r)) % p
        s_inv = sum(omega[k] * omega[inv_class[k]] % p * inv_size[k] for k in range(r)) % p
        if s_inv == 0:
            raise LiftFailure("degree denominator vanished")
        d2 = (n * pow(s_inv, p - 2, p)) % p
        d = isqrt(d2)
        if d * d != d2:
            raise LiftFailure(f"degree squared lifted to non-square {d2}")
        X = [(d * omega[k]) % p * inv_size[k] % p for k in range(r)]

        values, spectra = [], []
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
            values.append(ctx.root_sum(eigen_exps))
            spectra.append(tuple(eigen_exps))
        rows_out.append((d, tuple(values), tuple(spectra)))

    one = ctx.one
    rows_out.sort(key=lambda row: (row[0],
                                   0 if all(v == one for v in row[1]) else 1,
                                   tuple(v.sort_key() for v in row[1])))
    degrees, values, spectra = zip(*rows_out)
    if sum(d * d for d in degrees) != n:
        raise LiftFailure("squared degrees do not sum to the group order")
    _check_orthonormal(ctx, spectra, n, "rows", weights=sizes)
    return CharacterTable(C, ctx, degrees, values, spectra)


def _check_orthonormal(ctx: CycloContext, spectra, order: int, what: str,
                       weights: Sequence[int] | None = None) -> None:
    """Raise unless sum_x w_x chi_i(x) conj(chi_j(x)) = order [i == j] for all i <= j.

    chi_i(x) is the sum of zeta_N^a over a in spectra[i][x], so each inner product is
    one root_sum of differences a - b; a weight w_x repeats the left exponents at x.
    """
    left = spectra if weights is None else [
        [sp * w for sp, w in zip(row, weights)] for row in spectra]
    for i, row in enumerate(left):
        for j in range(i, len(spectra)):
            inner = ctx.root_sum(a - b for si, sj in zip(row, spectra[j])
                                 for a in si for b in sj)
            if inner != (order if i == j else 0):
                raise LiftFailure(f"{what} {i}, {j} are not orthonormal")


def _abelian_table(ctx: CycloContext, C: FiniteGroup) -> CharacterTable:
    """Characters of an abelian group: all homomorphisms into the N-th roots of unity.

    Built along the generators: if t is the least power with g^t in
    H = <earlier generators>, a character of H with exponent e at g^t extends
    to <H, g> in exactly the t ways c = e/t + k N/t (0 <= k < t), sending
    h g^s to its exponent at h plus s c. Every row is then checked against
    the generator equations L(x g) = L(x) + L(g) mod N. Each element is its
    own class, so class values equal element values.
    """
    n, N = C.order, ctx.N
    gens = C.whole_group.generators
    elems, member, rows = [0], {0}, [[0] * n]
    for g in gens:
        t, gt = 1, g
        while gt not in member:
            t, gt = t + 1, C.mul(gt, g)
        coset, gs = [], 0
        for s in range(1, t):
            gs = C.mul(gs, g)
            coset += [(s, h, C.mul(h, gs)) for h in elems]
        extended = []
        for row in rows:
            e = row[gt]
            if e % t:
                raise LiftFailure(f"exponent {e} at {gt} = {g}^{t} is not divisible by {t}")
            for k in range(t):
                c = e // t + k * (N // t)
                new = row[:]
                for s, h, x in coset:
                    new[x] = (row[h] + s * c) % N
                extended.append(new)
        rows = extended
        elems += [x for _, _, x in coset]
        member.update(elems)
    if len(rows) != n:
        raise LiftFailure(f"abelian group has {len(rows)} characters, expected {n}")
    for g in gens:
        times_g = [C.mul(x, g) for x in range(n)]
        for row in rows:
            for x, xg in enumerate(times_g):
                if row[xg] != (row[x] + row[g]) % N:
                    raise LiftFailure(f"abelian character {row} fails "
                                      f"L(x g) = L(x) + L(g) at x = {x}, g = {g}")
    roots = [ctx.root(e) for e in range(N)]
    keys = [z.sort_key() for z in roots]
    exps = sorted((tuple(row) for row in rows),
                  key=lambda es: (1 if any(es) else 0, tuple(map(keys.__getitem__, es))))
    if len(set(exps)) != n:
        raise LiftFailure("abelian characters are not distinct")
    single = [(e,) for e in range(N)]
    spectra = tuple(tuple(map(single.__getitem__, es)) for es in exps)
    # distinct homomorphisms are orthogonal; verify exactly on small groups
    if n <= 16:
        _check_orthonormal(ctx, spectra, n, "abelian rows")
    values = tuple(tuple(map(roots.__getitem__, es)) for es in exps)
    return CharacterTable(C, ctx, (1,) * n, values, spectra)


# -- projective characters ------------------------------------------------------


def validate_two_cocycle(C: FiniteGroup, beta: Sequence[Sequence[int]], m: int) -> None:
    n = C.order
    if any(beta[0][x] % m or beta[x][0] % m for x in range(n)):
        raise ValueError("2-cocycle must be normalized")
    for x in range(n):
        for y in range(n):
            xy = C.mul(x, y)
            for w in range(n):
                if (beta[x][y] + beta[xy][w] - beta[x][C.mul(y, w)] - beta[y][w]) % m:
                    raise ValueError(f"2-cocycle identity fails at ({x}, {y}, {w})")


@dataclass(frozen=True)
class CentralExtension:
    """E = C x_{beta} Z/m', with section x -> (x, 0) at index x*m'."""

    base: FiniteGroup = field(compare=False)
    ext: FiniteGroup = field(compare=False)
    m_prime: int

    def section(self, x: int) -> int:
        return x * self.m_prime

    @property
    def central_generator(self) -> int:
        """The element (e, 1); only meaningful when m_prime > 1."""
        return 1


def central_extension(C: FiniteGroup, beta: Sequence[Sequence[int]], m: int,
                      cap: int = DEFAULT_ORDER_CAP) -> CentralExtension:
    """Central extension of C by the image of the cocycle values in Z/m."""
    n = C.order
    g = m
    for x in range(n):
        for y in range(n):
            g = gcd(g, beta[x][y] % m)
    mp = m // g if g else 1
    if n * mp > cap:
        raise CapExceeded(f"extension order {n * mp} exceeds cap {cap}")
    bp = [[(beta[x][y] % m) // g if g else 0 for y in range(n)] for x in range(n)]
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
        ext = FiniteGroup(table, name=f"{C.name}~{mp}", cap=cap)
    except GroupTooLarge as exc:
        raise CapExceeded(str(exc)) from exc
    return CentralExtension(C, ext, mp)


@dataclass(frozen=True)
class ProjectiveCharacterTable:
    """Irreducible characters of the beta-twisted group algebra of C.

    Values are stored per element (projective characters need not be class
    functions). Convention: rho(x) rho(y) = zeta_m^{beta(x,y)} rho(xy).
    """

    group: FiniteGroup = field(compare=False)
    ctx: CycloContext = field(compare=False)
    modulus: int
    degrees: tuple[int, ...]
    values: tuple[tuple[Cyclo, ...], ...]
    # sorted exponents of zeta_N over the eigenvalues of rho_i(x); they sum to values[i][x]
    spectra: tuple[tuple[tuple[int, ...], ...], ...] = field(compare=False, repr=False)

    @property
    def n_chars(self) -> int:
        return len(self.degrees)

    def value(self, i: int, x: int) -> Cyclo:
        return self.values[i][x]


def beta_regular_class_count(C: FiniteGroup, beta: Sequence[Sequence[int]], m: int) -> int:
    """Number of classes whose elements commute with their centralizer under beta."""
    count = 0
    for rep in C.class_reps:
        if all((beta[rep][y] - beta[y][rep]) % m == 0
               for y in C.centralizer_members(rep)):
            count += 1
    return count


def projective_table(ctx: CycloContext, C: FiniteGroup, beta: Sequence[Sequence[int]],
                     m: int, cap: int = DEFAULT_ORDER_CAP) -> ProjectiveCharacterTable:
    """All irreducible beta-characters of C, exactly."""
    validate_two_cocycle(C, beta, m)
    ce = central_extension(C, beta, m, cap=cap)
    E, mp = ce.ext, ce.m_prime
    if ctx.N % (mp * C.exponent):
        # exponent(E) divides m' * exponent(C)
        raise ValueError(f"context N = {ctx.N} too small for extension")
    T = ordinary_table(ctx, E)
    # chi(z) = zeta_m' d iff every eigenvalue of rho(z) is zeta_m': |chi(z)| = d only for scalars
    zc = E.class_index_of[ce.central_generator]
    keep = [i for i in range(T.n_chars)
            if mp == 1 or all(e == ctx.N // mp for e in T.class_spectra[i][zc])]
    secs = [E.class_index_of[ce.section(x)] for x in range(C.order)]
    degrees = [T.degrees[i] for i in keep]
    values = [tuple(T.class_values[i][k] for k in secs) for i in keep]
    spectra = [tuple(T.class_spectra[i][k] for k in secs) for i in keep]

    if sum(d * d for d in degrees) != C.order:
        raise LiftFailure("projective squared degrees do not sum to the group order")
    if len(degrees) != beta_regular_class_count(C, beta, m):
        raise LiftFailure("projective character count does not match regular classes")
    _check_orthonormal(ctx, spectra, C.order, "projective rows")

    one = ctx.one
    order = sorted(range(len(degrees)),
                   key=lambda i: (degrees[i],
                                  0 if all(v == one for v in values[i]) else 1,
                                  tuple(v.sort_key() for v in values[i])))
    return ProjectiveCharacterTable(C, ctx, m,
                                    tuple(degrees[i] for i in order),
                                    tuple(values[i] for i in order),
                                    tuple(spectra[i] for i in order))
