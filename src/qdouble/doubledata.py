"""Modular data of the twisted Drinfeld double of a finite group.

Simple objects are pairs (a, chi): a conjugacy class representative and an
irreducible projective character of its centralizer for the conjugation
2-cocycle beta_a. Everything is computed exactly over Q(zeta_N) with
N = modulus(omega) * |G|.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from operator import add, mul

from .characters import CharacterTable, projective_table
from .cocycles import ThreeCocycle, trivial_cocycle
from .cyclotomic import Cyclo, CycloContext
from .groups import DEFAULT_ORDER_CAP, FiniteGroup
from .linmod import primitive_root, smallest_prime_one_mod


class VerlindeNonInteger(ArithmeticError):
    """A fusion coefficient failed to be a nonnegative integer."""


@dataclass(frozen=True)
class SimpleObject:
    """A simple object (a, chi) of the double."""

    index: int
    a: int                      # class representative, minimal in its class
    char_index: int             # row in the centralizer's projective table
    degree: int
    dim: int
    twist: Cyclo = field(compare=False)


@dataclass(frozen=True)
class CentralizerData:
    """A centralizer C_G(a) materialized as a standalone group."""

    rep: int
    members: tuple[int, ...]            # parent elements, sorted
    local_of: dict                      # parent element -> local index
    group: FiniteGroup = field(compare=False)
    table: CharacterTable = field(compare=False)

    def value(self, char_index: int, parent_element: int) -> Cyclo:
        return self.table.value(char_index, self.local_of[parent_element])

    def spectrum(self, char_index: int, parent_element: int) -> tuple[int, ...]:
        return self.table.spectra[char_index][self.local_of[parent_element]]


class TwistedDouble:
    """Bundle of (G, omega) with cached exact modular data."""

    def __init__(self, G: FiniteGroup, omega: ThreeCocycle | None = None,
                 cap: int = DEFAULT_ORDER_CAP):
        if omega is None:
            omega = trivial_cocycle(G)
        if omega.group is not G and omega.group.mult != G.mult:
            raise ValueError("cocycle is not defined on this group")
        self.group = G
        self.omega = omega
        self.cap = cap                  # order cap for the central extensions
        self.ctx = CycloContext(omega.modulus * G.order)
        self.scale = self.ctx.N // omega.modulus
        self._centralizers: dict[int, CentralizerData] = {}
        self._gamma: tuple[SimpleObject, ...] | None = None
        self._smatrix: tuple[tuple[Cyclo, ...], ...] | None = None
        self._fusion: tuple[tuple[tuple[int, ...], ...], ...] | None = None
        self._duals: tuple[int, ...] | None = None
        self._conj_lists: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
        self._scalar_exps: dict[int, tuple[int | None, ...]] = {}
        self._braiding: tuple[int, ...] | None = None
        self._emb: _Embeddings | None = None
        self.subcat_caches: dict = {}

    # -- simple objects -----------------------------------------------------------

    def centralizer_data(self, a: int) -> CentralizerData:
        """Centralizer of a class representative with its projective table."""
        if a not in self._centralizers:
            G = self.group
            members = G.centralizer_members(a)
            local_of = {g: i for i, g in enumerate(members)}
            n = len(members)
            table = [[local_of[G.mul(x, y)] for y in members] for x in members]
            # a subgroup of an admitted group is admitted
            C = FiniteGroup(table, name=f"C({G.name},{a})", validate=False, cap=G.order)
            m = self.omega.modulus
            beta = [[self.omega.beta(a, x, y) % m for y in members] for x in members]
            P = projective_table(self.ctx, C, beta, m, cap=self.cap)
            self._centralizers[a] = CentralizerData(a, members, local_of, C, P)
        return self._centralizers[a]

    @property
    def gamma(self) -> tuple[SimpleObject, ...]:
        if self._gamma is None:
            G = self.group
            simples = []
            for a in G.class_reps:
                cd = self.centralizer_data(a)
                ksize = len(G.class_of(a))
                for ci in range(cd.table.n_chars):
                    deg = cd.table.degrees[ci]
                    sp = cd.spectrum(ci, a)   # rho(a) is scalar iff its spectrum is
                    if sp[0] != sp[-1]:
                        raise ArithmeticError(
                            f"twist of ({a}, {ci}) is not a root of unity: "
                            f"eigenvalue exponents {sp}")
                    simples.append(SimpleObject(len(simples), a, ci, deg,
                                                ksize * deg, self.ctx.root(sp[0])))
            total = sum(s.dim * s.dim for s in simples)
            if total != G.order ** 2:
                raise ArithmeticError(
                    f"squared dimensions sum to {total}, expected {G.order ** 2}")
            self._gamma = tuple(simples)
        return self._gamma

    @property
    def unit_index(self) -> int:
        return 0

    # -- pairwise class data ----------------------------------------------------------

    def _pair_terms(self, a: int, b: int) -> list[tuple[int, int, int]]:
        """Triples (u, v, e) over g with a and u = g b g^-1 commuting.

        Here v = g^-1 a g and e = conj_exp(b, g^-1, a). The classes of a and b
        commute elementwise iff every g gives a term. The untwisted S-matrix
        sums the conjugates of chi_i(u) chi_j(v).
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

    # -- S-matrix and fusion (defined for trivial cocycle) ------------------------------

    @property
    def s_matrix(self) -> tuple[tuple[Cyclo, ...], ...]:
        if self._smatrix is None:
            if not self.omega.is_trivial:
                raise NotImplementedError("S-matrix requires the trivial cocycle")
            G = self.group
            gamma = self.gamma
            n = len(gamma)
            rows: list[list[Cyclo]] = [[None] * n for _ in range(n)]
            for i in range(n):
                si = gamma[i]
                cdi = self.centralizer_data(si.a)
                for j in range(i, n):
                    sj = gamma[j]
                    cdj = self.centralizer_data(sj.a)
                    pref = Fraction(G.order,
                                    len(cdi.members) * len(cdj.members))
                    total = self.ctx.root_sum(
                        -(x + y) for u, v, _ in self._pair_terms(si.a, sj.a)
                        for x in cdi.spectrum(si.char_index, u)
                        for y in cdj.spectrum(sj.char_index, v))
                    entry = total * pref
                    rows[i][j] = entry
                    rows[j][i] = entry
            S = tuple(tuple(row) for row in rows)
            dims = [s.dim for s in gamma]
            for j in range(n):
                if S[0][j] != self.ctx.from_int(dims[j]):
                    raise ArithmeticError("first S-matrix row does not match dimensions")
            self._prove_unitary(S)
            self._smatrix = S
        return self._smatrix

    @property
    def fusion(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """Fusion coefficients N[i][j][k], exact nonnegative integers.

        Verlinde's formula runs in F_p and proposes each N_ij^k in [0, d_i d_j];
        _prove_fusion then checks N_i S = S Lambda_i in Q(zeta_N). Since
        s_matrix has proved S S^dagger = |G|^2 I, that identity pins N_i to
        S Lambda_i S^-1, Verlinde's value, so the table is exact.
        """
        if self._fusion is None:
            S = self.s_matrix
            N = self._verlinde_mod_p(S)
            self._prove_fusion(S, N)
            self._fusion = tuple(tuple(tuple(r) for r in p) for p in N)
        return self._fusion

    def _embeddings(self, S) -> "_Embeddings":
        """S at every embedding of Z[zeta_N] into F_p, kept for the last S given."""
        if self._emb is None or self._emb.S is not S:
            self._emb = _Embeddings(self.ctx, S, self.group.order, [s.dim for s in self.gamma])
        return self._emb

    def _prove_unitary(self, S) -> None:
        """Raise unless S S^dagger = |G|^2 I, checked at every sigma_t of _Embeddings.

        Since sigma_t(conj x) = sigma_-t(x): sum_k sigma_t(c_ik) sigma_-t(c_jk) = D^2 |G|^2 delta_ij.
        """
        emb = self._embeddings(S)
        pairs = [(t, A, emb.at[-t % self.ctx.N]) for t, A in emb.at.items()]
        for i in range(len(S)):
            for j in range(i, len(S)):
                for t, A, Abar in pairs:
                    if (sum(map(mul, A[i], Abar[j])) - (i == j) * emb.target) % emb.p:
                        raise ArithmeticError(
                            f"{self.group.name}: S-matrix rows {i}, {j} not orthogonal "
                            f"mod p = {emb.p} at t = {t}")

    def _verlinde_mod_p(self, S) -> list[list[list[int]]]:
        """Candidate N_ij^k = sum_s S_is S_js conj(S_ks) / (S_0s |G|^2), lifted from F_p.

        Read off sigma_1 and sigma_-1 of _embeddings. Its p > 2 D^2 |G|^2
        exceeds every d_i d_j, divides neither |G| nor D, and sends no
        S_0s = d_s to 0; the lift of N_ij^k must lie in [0, d_i d_j].

        Only k over the class product are computed; every other N_ij^k stays 0.
        The category is graded by G: (a, chi) lives over the class of a, and a
        tensor product of objects over X and Y lives over XY, so N_ij^k = 0
        unless class(a_k) lies in class(a_i) class(a_j). That product is a
        union of classes, read off as the classes of a_i y over y in class(a_j)
        (g a_i g^-1 y' = g (a_i g^-1 y' g) g^-1). _prove_fusion checks every
        N_ij^k, the skipped zeros included, so a wrong grading cannot pass.
        """
        G = self.group
        n = len(self.gamma)
        dims = [s.dim for s in self.gamma]
        name = G.name
        emb = self._embeddings(S)
        p, D = emb.p, emb.D
        S_p, conj_p = emb.at[1 % self.ctx.N], emb.at[-1 % self.ctx.N]
        row0 = S_p[0]
        if not (G.order % p and D % p and all(row0) and p > max(dims) ** 2):
            raise VerlindeNonInteger(f"{name}: prime {p} divides |G| or D = {D}, "
                                     "sends some S_0s to 0 or is at most d_max^2")
        # with c = D S the s-th term is c_is c_js conj(c_ks) / (D^2 c_0s |G|^2)
        scale = [pow(D * D * x * G.order ** 2, p - 2, p) for x in row0]
        table = [[[0] * n for _ in range(n)] for _ in range(n)]
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
                for k in products[key]:
                    v = sum(map(mul, t, conj_p[k])) % p
                    if v > bound:
                        raise VerlindeNonInteger(
                            f"{name}: N[{i}][{j}][{k}] = {v} mod {p} "
                            f"has no lift in [0, {bound}]")
                    table[i][j][k] = table[j][i][k] = v
        return table

    def _prove_fusion(self, S, N) -> None:
        """Raise unless sum_k N_ij^k S_ks = S_is S_js / d_s for all i <= j and s.

        Times D^2 d_s at sigma_t: D d_s sum_k N_ij^k sigma_t(c_ks) = sigma_t(c_is c_js),
        on flat vectors over (t, s). Rows with sum_k |N_ij^k| > n d_max^2, outside
        the bound of _Embeddings, are no fusion rows (sum_k N_ij^k <= d_i d_j).
        """
        emb = self._embeddings(S)
        p, name, n = emb.p, self.group.name, len(self.gamma)
        ts = list(emb.at)
        flat = [[x for t in ts for x in emb.at[t][k]] for k in range(n)]
        weight = [emb.D * s.dim for s in self.gamma] * len(ts)
        wflat = [list(map(mul, weight, row)) for row in flat]
        for i in range(n):
            for j in range(i, n):
                lhs, mass = [0] * len(weight), 0
                for k, c in enumerate(N[i][j]):
                    if c:
                        lhs = list(map(add, lhs, map(c.__mul__, wflat[k])))
                        mass += abs(c)
                if mass > emb.mass:
                    raise VerlindeNonInteger(f"{name}: fusion row N[{i}][{j}] has "
                                             f"sum_k |N_ij^k| = {mass} > n d_max^2")
                res = [(u - x * y) % p for u, x, y in zip(lhs, flat[i], flat[j])]
                if any(res):
                    pos = next(q for q, r in enumerate(res) if r)
                    raise VerlindeNonInteger(
                        f"{name}: fusion row N[{i}][{j}] fails sum_k N_ij^k S_ks = "
                        f"S_is S_js / d_s mod p = {p} at t = {ts[pos // n]}, at s = {pos % n}")

    @property
    def duals(self) -> tuple[int, ...]:
        if self._duals is None:
            N = self.fusion
            n = len(self.gamma)
            duals = []
            for i in range(n):
                ks = [k for k in range(n) if N[i][k][0] == 1]
                if len(ks) != 1:
                    raise ArithmeticError(f"dual of {i} is not unique: {ks}")
                duals.append(ks[0])
            self._duals = tuple(duals)
        return self._duals

    # -- exact braiding predicates -----------------------------------------------------

    def scalar_exps(self, i: int) -> tuple[int | None, ...]:
        """r[x] = k with every eigenvalue of rho_i(x) zeta_N^k, or None; None off C_G(a_i)."""
        if i not in self._scalar_exps:
            s = self.gamma[i]
            cd = self.centralizer_data(s.a)
            sps = (cd.spectrum(s.char_index, x) if x in cd.local_of else None
                   for x in range(self.group.order))
            self._scalar_exps[i] = tuple(sp[0] if sp and sp[0] == sp[-1] else None
                                         for sp in sps)
        return self._scalar_exps[i]

    def common_phase(self, i: int, j: int) -> int | None:
        """The k with the double braiding of simples i and j equal to zeta_N^k, else None.

        S_ij is pref times a sum, over the terms (u, v, e) of _pair_terms, of
        the deg_i deg_j conjugated eigenvalues of zeta_m^e rho_i(u) (x) rho_j(v),
        each an N-th root of unity (rho comes from a central extension whose
        exponent divides N = m |G|). There are at most |G| terms and
        pref |G| deg_i deg_j = d_i d_j, so |S_ij| <= d_i d_j, with equality in
        the triangle inequality iff there are |G| terms (the classes of a_i
        and a_j commute elementwise) and all these roots agree. Then rho_i(u)
        and rho_j(v) are scalars, held by scalar_exps, and
        r_i[u] + r_j[v] + e scale takes one value k mod N: the double braiding,
        a module map, acts on every term by zeta_N^k. So i and j centralize iff
        k = 0, and projectively centralize (|S_ij| = d_i d_j) iff k exists.
        """
        si, sj = self.gamma[i], self.gamma[j]
        terms = self._pair_terms(si.a, sj.a)
        if len(terms) < self.group.order:
            return None
        ri, rj = self.scalar_exps(i), self.scalar_exps(j)
        N, scale = self.ctx.N, self.scale
        k = None
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
        return self.common_phase(i, j) == 0

    @property
    def braiding_rows(self) -> tuple[int, ...]:
        """Bitmask rows: bit j of row i is set iff i and j centralize; each pair decided once."""
        if self._braiding is None:
            n = len(self.gamma)
            rows = [0] * n
            for i in range(n):
                for j in range(i, n):
                    if self.centralize(i, j):
                        rows[i] |= 1 << j
                        rows[j] |= 1 << i
            self._braiding = tuple(rows)
        return self._braiding

    # -- fusion-closure helpers (used by the oracle and adjoint computations) -----------

    def tensor_components(self, i: int, j: int) -> tuple[int, ...]:
        N = self.fusion
        return tuple(k for k in range(len(self.gamma)) if N[i][j][k])


class _Embeddings:
    """c = D S (D the lcm of its denominators) at every sigma_t: zeta_N -> z^t, t in (Z/N)^x.

    at[t][i][k] = sigma_t(c_ik) in F_p, z a primitive N-th root of unity mod
    p = 1 (mod N). An X in Z[zeta_N] with sigma_t(X) = 0 for every t is 0
    once its power-basis coordinates are at most B < p / 2 in size: p splits
    completely, the kernels of the phi(N) maps sigma_t are the distinct primes
    above p, so X lies in their product pZ[zeta_N] and p divides each
    coordinate. B is computed from S. With R_inf, R_1 the largest max and L1
    norms of ctx._pow_rows (coordinates of the powers of zeta_N) and |c|_1,
    |c|_inf those of the c_ik (conj x has L1 norm <= R_1 |x|_1; a product xy
    has coordinates <= R_inf |x|_1 |y|_1), the residuals are at most
    - unitarity: n R_inf |c|_1 R_1 |c|_1 + D^2 |G|^2;
    - fusion: D d_max n d_max^2 |c|_inf + R_inf |c|_1^2, for sum_k |N_ij^k| <= n d_max^2.
    p is the smallest such prime above twice the larger bound.
    """

    def __init__(self, ctx: CycloContext, S, order: int, dims: list[int]):
        n, N, rows = len(S), ctx.N, ctx._pow_rows
        self.S = S
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
