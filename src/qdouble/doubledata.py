"""Modular data of the twisted Drinfeld double of a finite group.

Simple objects are pairs (a, chi): a conjugacy class representative and an
irreducible projective character of its centralizer for the conjugation
2-cocycle beta_a. Each simple carries its representation's spectra on G, read
off the centralizer's table once; the twist, the S-matrix, the braiding and
subcategory membership all read them at elements of G. Everything is computed
exactly over Q(zeta_N) with N = modulus(omega) * |G|, after omega is validated as
a normalized 3-cocycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import add, mul

from .characters import CharacterTable, projective_table
from .cocycles import ThreeCocycle, trivial_cocycle, validate
from .cyclotomic import Cyclo, CycloContext
from .errors import CheckFailure, InputError
from .groups import FiniteGroup
from .linmod import factorize, primitive_root, smallest_prime_one_mod


class VerlindeNonInteger(CheckFailure):
    """A fusion coefficient failed to be a nonnegative integer."""


@dataclass(frozen=True)
class SimpleObject:
    """A simple object (a, chi) of the double, rho read at the elements g of G.

    spectra[g] holds the sorted exponents of zeta_N over the eigenvalues of rho(g),
    and scalar_exps[g] the k with rho(g) = zeta_N^k I, None where rho(g) is not
    scalar; both are None off C_G(a).
    """

    index: int
    a: int                      # class representative, minimal in its class
    char_index: int             # row in the centralizer's projective table
    degree: int
    dim: int
    twist: int = field(compare=False)   # k with theta = zeta_N^k
    spectra: tuple[tuple[int, ...] | None, ...] = field(compare=False, repr=False)
    scalar_exps: tuple[int | None, ...] = field(compare=False, repr=False)


class TwistedDouble:
    """Bundle of (G, omega) with cached exact modular data; building it validates omega."""

    def __init__(self, G: FiniteGroup, omega: ThreeCocycle | None = None):
        if omega is None:
            omega = trivial_cocycle(G)
        if omega.group is not G and omega.group.mult != G.mult:
            raise InputError("cocycle is not defined on this group")
        self.group = G
        self.omega = omega
        N, cap = omega.modulus * G.order, G.cap
        # phi(N) >= sqrt(N / 2), so an N above 2 cap^2 is over the cap unfactored
        small = N <= 2 * cap * cap
        phi = N
        for p in factorize(N) if small else ():
            phi = phi // p * (p - 1)
        if phi > cap:
            digits = N.bit_length() * 3 // 10   # no str(N), which int()'s digit limit may refuse
            while 10 ** digits <= N:
                digits += 1
            degree = f"({N}) = {phi}" if small else f"(N) >= sqrt(N / 2), N of {digits} digits"
            raise InputError(f"field Q(zeta_{N if small else 'N'}) has degree phi{degree}, "
                             f"above cap {cap}")
        validate(omega)
        self.ctx = CycloContext(N)
        self.scale = self.ctx.N // omega.modulus
        self._gamma: tuple[SimpleObject, ...] | None = None
        self._smatrix: tuple[tuple[Cyclo, ...], ...] | None = None
        self._fusion: tuple[tuple[tuple[tuple[int, int], ...], ...], ...] | None = None
        self._conj_lists: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
        self._emb: _Embeddings | None = None
        self.subcat_caches: dict = {}

    @property
    def where(self) -> str:
        """The group and cocycle modulus, as every failed check names the double."""
        return f"{self.group.name} (cocycle mod {self.omega.modulus})"

    # -- simple objects -----------------------------------------------------------

    def centralizer_table(self, a: int) -> CharacterTable:
        """Projective table of C_G(a) for beta_a, C indexed by the members of C_G(a) in
        sorted order; a central a gets G itself, so C's cached properties are computed
        once per double."""
        G = self.group
        local_of = {g: i for i, g in enumerate(G.centralizer_members(a))}
        Ba = self.omega.beta_table(a)
        if len(local_of) == G.order:
            C, beta = G, Ba
        else:
            C = FiniteGroup([[local_of[G.mul(x, y)] for y in local_of] for x in local_of],
                            name=f"C({G.name},{a})", validate=False, cap=G.cap)
            beta = [[Ba[x][y] for y in local_of] for x in local_of]
        return projective_table(self.ctx, C, beta, self.omega.modulus)

    @property
    def gamma(self) -> tuple[SimpleObject, ...]:
        """The simples (a, chi), each table row translated to G once with its twist."""
        if self._gamma is None:
            G = self.group
            simples = []
            for a in G.class_reps:
                P = self.centralizer_table(a)
                ksize = len(G.class_of(a))
                for ci, deg in enumerate(P.degrees):
                    row = dict(zip(G.centralizer_members(a), P.spectra[ci]))
                    spectra = tuple(map(row.get, range(G.order)))
                    scalars = tuple(sp[0] if sp and sp[0] == sp[-1] else None
                                    for sp in spectra)
                    if scalars[a] is None:   # rho(a) is scalar iff its spectrum is
                        raise CheckFailure(
                            f"{self.where}: twist of ({a}, {ci}) is not a root of unity: "
                            f"eigenvalue exponents {spectra[a]}")
                    simples.append(SimpleObject(len(simples), a, ci, deg, ksize * deg,
                                                scalars[a], spectra, scalars))
            total = sum(s.dim * s.dim for s in simples)
            if total != G.order ** 2:
                raise CheckFailure(f"{self.where}: squared dimensions sum to {total}, "
                                   f"expected {G.order ** 2}")
            self._gamma = tuple(simples)
        return self._gamma

    @property
    def unit_index(self) -> int:
        return 0

    # -- pairwise class data ----------------------------------------------------------

    def _pair_terms(self, a: int, b: int) -> list[tuple[int, int, int]]:
        """Triples (u, v, e) over g with a and u = g b g^-1 commuting.

        Here v = g^-1 a g and e = conj_exp(b, g^-1, a). The classes of a and b
        commute elementwise iff every g gives a term. The S-matrix sums the
        conjugates of zeta_m^e chi_i(u) chi_j(v).
        """
        key = (a, b)
        if key not in self._conj_lists:
            G = self.group
            conj_exp = self.omega.conj_exp
            terms = []
            for g in range(G.order):
                u = G.conj(g, b)
                if G.commute(a, u):
                    gi = G.inverse(g)
                    terms.append((u, G.conj(gi, a), conj_exp(b, gi, a)))
            self._conj_lists[key] = terms
        return self._conj_lists[key]

    # -- S-matrix and fusion -----------------------------------------------------------

    @property
    def s_matrix(self) -> tuple[tuple[Cyclo, ...], ...]:
        """|G| / (|C(a_i)| |C(a_j)|) = |class(a_i)| |class(a_j)| / |G| times the sum over the
        _pair_terms (u, v, e) of conj(zeta_m^e chi_i(u) chi_j(v)), for every omega
        (Dijkgraaf-Pasquier-Roche); chi_i(u) is the sum of the simple's spectra[u]."""
        if self._smatrix is None:
            G = self.group
            scale = self.scale
            gamma = self.gamma
            n = len(gamma)
            rows: list[list[Cyclo]] = [[None] * n for _ in range(n)]
            for i in range(n):
                si = gamma[i]
                for j in range(i, n):
                    sj = gamma[j]
                    pref = Fraction(len(G.class_of(si.a)) * len(G.class_of(sj.a)), G.order)
                    total = self.ctx.root_sum(
                        -(x + y) - e * scale for u, v, e in self._pair_terms(si.a, sj.a)
                        for x in si.spectra[u] for y in sj.spectra[v])
                    entry = total * pref
                    rows[i][j] = entry
                    rows[j][i] = entry
            S = tuple(tuple(row) for row in rows)
            for x, s in zip(S[0], gamma):
                if x != s.dim:
                    raise CheckFailure(f"{self.where}: first S-matrix row does not match "
                                       f"dimensions at s = {s.index}: S_0s = {x}, d_s = {s.dim}")
            self._prove_unitary(S)
            self._smatrix = S
        return self._smatrix

    @property
    def fusion(self) -> tuple[tuple[tuple[tuple[int, int], ...], ...], ...]:
        """Fusion rows: fusion[i][j] holds the pairs (k, N_ij^k) with N_ij^k > 0, k ascending.

        Each row is stored once: fusion[i][j] is fusion[j][i]. Verlinde's formula
        runs in F_p and proposes each N_ij^k in [0, d_i d_j]; _prove_fusion then
        checks N_i S = S Lambda_i in Q(zeta_N), every absent k read as 0. Since
        s_matrix has proved S S^dagger = |G|^2 I, that identity pins N_i to
        S Lambda_i S^-1, Verlinde's value, so the table is exact.
        """
        if self._fusion is None:
            S = self.s_matrix
            N = self._verlinde_mod_p(S)
            self._prove_fusion(S, N)
            self._fusion = N
        return self._fusion

    def _embeddings(self, S) -> "_Embeddings":
        """S at every embedding of Z[zeta_N] into F_p, kept for the last S given."""
        if self._emb is None or self._emb.S is not S:
            self._emb = _Embeddings(self.ctx, S, self.group.order, [s.dim for s in self.gamma])
        return self._emb

    def _prove_unitary(self, S) -> None:
        """Raise unless S S^dagger = |G|^2 I, checked at each sigma_t of _Embeddings.unitary_ts.

        Since sigma_t(conj x) = sigma_-t(x): sum_k sigma_t(c_ik) sigma_-t(c_jk) = D^2 |G|^2 delta_ij,
        a sum over the column pairs k, equal for every t with the same multiset of pairs.
        """
        emb = self._embeddings(S)
        pairs = [(t, emb.at[t], emb.at[-t % self.ctx.N]) for t in emb.unitary_ts]
        for i in range(len(S)):
            for j in range(i, len(S)):
                for t, A, Abar in pairs:
                    if (sum(map(mul, A[i], Abar[j])) - (i == j) * emb.target) % emb.p:
                        raise CheckFailure(
                            f"{self.where}: S-matrix rows {i}, {j} not orthogonal "
                            f"mod p = {emb.p} at t = {t}")

    def _verlinde_mod_p(self, S) -> tuple[tuple[tuple[tuple[int, int], ...], ...], ...]:
        """Candidate N_ij^k = sum_s S_is S_js conj(S_ks) / (S_0s |G|^2), lifted from F_p.

        Read off sigma_1 and sigma_-1 of _embeddings. Its p > 2 D^2 |G|^2
        exceeds every d_i d_j, divides neither |G| nor D, and sends no
        S_0s = d_s to 0; the lift of N_ij^k must lie in [0, d_i d_j]. Rows are
        in the format of fusion: the nonzero (k, N_ij^k), k ascending, one
        tuple per i <= j, shared by (i, j) and (j, i).

        Only k over the class product are computed; every other k is absent from the row.
        The category is graded by G: (a, chi) lives over the class of a, and a
        tensor product of objects over X and Y lives over XY, so N_ij^k = 0
        unless class(a_k) lies in class(a_i) class(a_j). That product is a
        union of classes, read off as the classes of a_i y over y in class(a_j)
        (g a_i g^-1 y' = g (a_i g^-1 y' g) g^-1). _prove_fusion checks every
        N_ij^k, the skipped zeros included, so a wrong grading cannot pass.
        """
        G = self.group
        n = len(self.gamma)
        emb = self._embeddings(S)
        p, D, dims = emb.p, emb.D, emb.dims
        S_p, conj_p = emb.at[1 % self.ctx.N], emb.at[-1 % self.ctx.N]
        row0 = S_p[0]
        if not (G.order % p and D % p and all(row0) and p > max(dims) ** 2):
            raise VerlindeNonInteger(f"{self.where}: prime {p} divides |G| or D = {D}, "
                                     "sends some S_0s to 0 or is at most d_max^2")
        # with c = D S the s-th term is c_is c_js conj(c_ks) / (D^2 c_0s |G|^2)
        scale = [pow(D * D * x * G.order ** 2, p - 2, p) for x in row0]
        table: list[list[tuple[tuple[int, int], ...]]] = [[()] * n for _ in range(n)]
        # above[c]: the simples over class c; products[(a, b)]: those over class(a) class(b)
        cls_of = G.class_index_of
        above: list[list[int]] = [[] for _ in G.conjugacy_classes]
        for k, s in enumerate(self.gamma):
            above[cls_of[s.a]].append(k)
        products: dict[tuple[int, int], list[int]] = {}
        for i in range(n):
            lam = [x * c % p for x, c in zip(S_p[i], scale)]
            ai = self.gamma[i].a
            for j in range(i, n):
                t = [x * y % p for x, y in zip(S_p[j], lam)]
                bound = dims[i] * dims[j]
                key = (ai, self.gamma[j].a)
                if key not in products:
                    classes = {cls_of[G.mult[ai][y]] for y in G.class_of(key[1])}
                    products[key] = [k for c in sorted(classes) for k in above[c]]
                row = []
                for k in products[key]:
                    v = sum(map(mul, t, conj_p[k])) % p
                    if v > bound:
                        raise VerlindeNonInteger(
                            f"{self.where}: N[{i}][{j}][{k}] = {v} mod {p} "
                            f"has no lift in [0, {bound}]")
                    if v:
                        row.append((k, v))
                table[i][j] = table[j][i] = tuple(row)
        return tuple(map(tuple, table))

    def _prove_fusion(self, S, N) -> None:
        """Raise unless sum_k N_ij^k S_ks = S_is S_js / d_s for all i <= j and s.

        Times D^2 d_s at sigma_t: D d_s sum_k N_ij^k sigma_t(c_ks) = sigma_t(c_is c_js), a
        function of d_s and column s of at[t] alone: flat vectors over _Embeddings.columns.
        Rows with sum_k |N_ij^k| > n d_max^2, outside the bound of _Embeddings, are no
        fusion rows (sum_k N_ij^k <= d_i d_j).
        """
        emb = self._embeddings(S)
        p, n, cols = emb.p, len(self.gamma), emb.columns
        flat = list(zip(*(col for _, _, _, col in cols)))
        weight = [emb.D * d for _, _, d, _ in cols]
        for i in range(n):
            for j in range(i, n):
                lhs, mass = [0] * len(weight), 0
                for k, c in N[i][j]:
                    lhs = list(map(add, lhs, map(c.__mul__, flat[k])))
                    mass += abs(c)
                if mass > emb.mass:
                    raise VerlindeNonInteger(f"{self.where}: fusion row N[{i}][{j}] has "
                                             f"sum_k |N_ij^k| = {mass} > n d_max^2")
                res = [(w * u - x * y) % p for w, u, x, y in zip(weight, lhs, flat[i], flat[j])]
                if any(res):
                    t, s, _, _ = cols[next(q for q, r in enumerate(res) if r)]
                    raise VerlindeNonInteger(
                        f"{self.where}: fusion row N[{i}][{j}] fails sum_k N_ij^k S_ks = "
                        f"S_is S_js / d_s mod p = {p} at t = {t}, at s = {s}")

    @cached_property
    def duals(self) -> tuple[int, ...]:
        duals = []
        for i, rows in enumerate(self.fusion):
            ks = [k for k, row in enumerate(rows) if row[:1] == ((0, 1),)]
            if len(ks) != 1:
                raise CheckFailure(f"{self.where}: dual of {i} is not unique: {ks}")
            duals.append(ks[0])
        return tuple(duals)

    # -- exact braiding predicates -----------------------------------------------------

    def common_phase(self, i: int, j: int, expect: int | None = None) -> int | None:
        """The k with the double braiding of simples i and j equal to zeta_N^k, else None.

        S_ij is pref times a sum, over the terms (u, v, e) of _pair_terms, of the deg_i deg_j
        conjugated eigenvalues of zeta_m^e rho_i(u) (x) rho_j(v), each an N-th root of unity
        (rho comes from a central extension whose exponent divides N = m |G|). There are at
        most |G| terms and pref |G| deg_i deg_j = d_i d_j, so |S_ij| <= d_i d_j, with equality
        in the triangle inequality iff there are |G| terms (the classes of a_i and a_j commute
        elementwise) and all these roots agree. Then rho_i(u) and rho_j(v) are scalars, with
        exponents r_i[u] and r_j[v] in the simples' scalar_exps, and r_i[u] + r_j[v] + e scale
        takes one value k mod N: the double braiding, a module map, acts on every term by
        zeta_N^k. So i and j centralize iff k = 0, and projectively centralize
        (|S_ij| = d_i d_j) iff k exists. A given expect stops the walk at the first term
        whose phase is another (centralize passes 0).
        """
        si, sj = self.gamma[i], self.gamma[j]
        terms = self._pair_terms(si.a, sj.a)
        if len(terms) < self.group.order:
            return None
        ri, rj = si.scalar_exps, sj.scalar_exps
        N, scale = self.ctx.N, self.scale
        k = expect
        for u, v, e in terms:
            x, y = ri[u], rj[v]
            if x is None or y is None:
                return None
            phase = (x + y + e * scale) % N
            if k is None:
                k = phase
            elif phase != k:
                return None
        return k

    def centralize(self, i: int, j: int) -> bool:
        """Whether simples i and j have trivial double braiding."""
        return self.common_phase(i, j, 0) == 0

    @cached_property
    def braiding_rows(self) -> tuple[int, ...]:
        """Bitmask rows: bit j of row i is set iff i and j centralize; each pair decided once."""
        n = len(self.gamma)
        rows = [0] * n
        for i in range(n):
            for j in range(i, n):
                if self.centralize(i, j):
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
        return tuple(rows)

    # -- fusion rows as sets -----------------------------------------------------------

    def tensor_components(self, i: int, j: int) -> tuple[int, ...]:
        return tuple(k for k, _ in self.fusion[i][j])


class _Embeddings:
    """c = D S (D the lcm of its denominators) at every sigma_t: zeta_N -> z^t, t in (Z/N)^x.

    at[t][i][k] = sigma_t(c_ik) in F_p, z a primitive N-th root of unity mod
    p = 1 (mod N). An X in Z[zeta_N] with sigma_t(X) = 0 for every t is 0
    once its power-basis coordinates are at most B < p / 2 in size: p splits
    completely, the kernels of the phi(N) maps sigma_t are the distinct primes
    above p, so X lies in their product pZ[zeta_N] and p divides each
    coordinate. B is computed from S. With R_inf, R_1 the largest max and L1
    norms of the coordinates of the powers zeta_N^k, k < N, and |c|_1,
    |c|_inf those of the c_ik (conj x has L1 norm <= R_1 |x|_1; a product xy
    has coordinates <= R_inf |x|_1 |y|_1), the residuals are at most
    - unitarity: n R_inf |c|_1 R_1 |c|_1 + D^2 |G|^2;
    - fusion: D d_max n d_max^2 |c|_inf + R_inf |c|_1^2, for sum_k |N_ij^k| <= n d_max^2.
    p is the smallest such prime above twice the larger bound. Each residual reads
    at[t] only through integer vectors, so columns and unitary_ts keep one t per
    distinct vector: the skip is exact for any S, right or wrong.
    """

    def __init__(self, ctx: CycloContext, S, order: int, dims: list[int]):
        n, N = len(S), ctx.N
        rows = [ctx.root_sum((k,)).num for k in range(N)]
        self.S, self.N, self.dims = S, N, dims
        self.D = D = lcm(*(x.den for row in S for x in row))
        c = [[[v * (D // x.den) for v in x.num] for x in row] for row in S]
        r_inf = max(abs(v) for r in rows for v in r)
        r_one = max(sum(map(abs, r)) for r in rows)
        l1 = max(sum(map(abs, x)) for row in c for x in row)
        linf = max(abs(v) for row in c for x in row for v in x)
        self.mass = n * max(dims) ** 2
        self.target = D * D * order * order
        self.bound = max(n * r_inf * l1 * r_one * l1 + self.target,
                         D * max(dims) * self.mass * linf + r_inf * l1 * l1)
        self.p = p = smallest_prime_one_mod(N, 2 * self.bound)
        z = pow(primitive_root(p), (p - 1) // N, p)
        self.at: dict[int, list[list[int]]] = {}
        for t in range(N):
            if gcd(t, N) == 1:
                powers = [pow(z, t * e, p) for e in range(ctx.degree)]
                self.at[t] = [[sum(map(mul, x, powers)) % p for x in row] for row in c]

    @cached_property
    def columns(self) -> list[tuple[int, int, int, tuple[int, ...]]]:
        """(t, s, d_s, column s of at[t]) per distinct (d_s, column), at its least (t, s)."""
        # walked backwards, so the least (t, s) of a key is written last
        least = {key: (t, s) for t, A in reversed(self.at.items())
                 for s, key in reversed(list(enumerate(zip(self.dims, zip(*A)))))}
        return sorted((t, s, d, col) for (d, col), (t, s) in least.items())

    @cached_property
    def unitary_ts(self) -> list[int]:
        """Least t per distinct multiset {(column k of at[t], of at[-t])}_k, ascending."""
        return sorted({tuple(sorted(zip(zip(*A), zip(*self.at[-t % self.N])))): t
                       for t, A in reversed(self.at.items())}.values())
