"""Modular data of the twisted Drinfeld double of a finite group.

Simple objects are pairs (a, chi): a conjugacy class representative and an
irreducible projective character of its centralizer for the conjugation
2-cocycle beta_a. Everything is computed exactly over Q(zeta_N) with
N = modulus(omega) * |G|.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from operator import mul

from .characters import ProjectiveCharacterTable, projective_table
from .cocycles import ThreeCocycle, trivial_cocycle
from .cyclotomic import Cyclo, CycloContext
from .groups import FiniteGroup
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
    table: ProjectiveCharacterTable = field(compare=False)

    def value(self, char_index: int, parent_element: int) -> Cyclo:
        return self.table.value(char_index, self.local_of[parent_element])

    def spectrum(self, char_index: int, parent_element: int) -> tuple[int, ...]:
        return self.table.spectra[char_index][self.local_of[parent_element]]


class TwistedDouble:
    """Bundle of (G, omega) with cached exact modular data."""

    def __init__(self, G: FiniteGroup, omega: ThreeCocycle | None = None):
        if omega is None:
            omega = trivial_cocycle(G)
        if omega.group is not G and omega.group.mult != G.mult:
            raise ValueError("cocycle is not defined on this group")
        self.group = G
        self.omega = omega
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
            C = FiniteGroup(table, name=f"C({G.name},{a})", validate=False)
            m = self.omega.modulus
            beta = [[self.omega.beta(a, x, y) % m for y in members] for x in members]
            P = projective_table(self.ctx, C, beta, m)
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
            order2 = self.ctx.from_int(G.order ** 2)
            conj_rows = [[x.conj() for x in row] for row in S]
            for i in range(n):
                for j in range(i, n):
                    inner = self.ctx.sum(S[i][k] * conj_rows[j][k] for k in range(n))
                    if inner != (order2 if i == j else self.ctx.zero):
                        raise ArithmeticError(f"S-matrix rows {i}, {j} not orthogonal")
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

    def _verlinde_mod_p(self, S) -> list[list[list[int]]]:
        """Candidate N_ij^k = sum_s S_is S_js conj(S_ks) / (S_0s |G|^2), lifted from F_p.

        The prime p = 1 (mod N) exceeds every d_i d_j, divides neither |G|
        nor a denominator of S, and sends no S_0s to 0; the lift of N_ij^k
        must lie in [0, d_i d_j].
        """
        G = self.group
        n = len(self.gamma)
        dims = [s.dim for s in self.gamma]
        name = G.name
        if any(S[0][s].is_zero for s in range(n)):
            raise VerlindeNonInteger(f"{name}: S has a zero entry in row 0")
        dens = {x.den for row in S for x in row}
        N = self.ctx.N
        p = smallest_prime_one_mod(N, max(dims) ** 2)
        while True:
            if G.order % p and all(d % p for d in dens):
                z = pow(primitive_root(p), (p - 1) // N, p)
                at_z = _evaluator(p, z, self.ctx.degree)
                row0 = [at_z(x) for x in S[0]]
                if all(row0):
                    break
            p = smallest_prime_one_mod(N, p)
        at_zinv = _evaluator(p, pow(z, p - 2, p), self.ctx.degree)
        S_p = [[at_z(x) for x in row] for row in S]
        conj_p = [[at_zinv(x) for x in row] for row in S]
        scale = [pow(x * G.order ** 2, p - 2, p) for x in row0]
        table = [[[0] * n for _ in range(n)] for _ in range(n)]
        for i in range(n):
            lam = [x * c % p for x, c in zip(S_p[i], scale)]
            for j in range(i, n):
                t = [x * y % p for x, y in zip(S_p[j], lam)]
                bound = dims[i] * dims[j]
                for k in range(n):
                    v = sum(map(mul, t, conj_p[k])) % p
                    if v > bound:
                        raise VerlindeNonInteger(
                            f"{name}: N[{i}][{j}][{k}] = {v} mod {p} "
                            f"has no lift in [0, {bound}]")
                    table[i][j][k] = table[j][i][k] = v
        return table

    def _prove_fusion(self, S, N) -> None:
        """Raise unless sum_k N_ij^k S_ks = S_is S_js / d_s for all i <= j and s.

        Exact in Q(zeta_N): with S over one denominator D, row k is a flat
        integer vector of its coefficients, the left side of row (i, j) is
        the combination of those vectors over the nonzero N_ij^k, and each
        right side is one field product.
        """
        n = len(self.gamma)
        deg = self.ctx.degree
        dims = [s.dim for s in self.gamma]
        D = lcm(*(x.den for row in S for x in row))
        flat = [[c * (D // x.den) for x in row for c in x.num] for row in S]
        for i in range(n):
            for j in range(i, n):
                ks = [k for k, c in enumerate(N[i][j]) if c]
                cs = [N[i][j][k] for k in ks]
                lhs = ([sum(map(mul, cs, vals)) for vals in zip(*(flat[k] for k in ks))]
                       if ks else [0] * (n * deg))
                for s in range(n):
                    rhs = S[i][s] * S[j][s]
                    q = rhs.den * dims[s]
                    if any(a * q != b * D
                           for a, b in zip(lhs[s * deg:(s + 1) * deg], rhs.num)):
                        raise VerlindeNonInteger(
                            f"{self.group.name}: fusion row N[{i}][{j}] fails "
                            f"sum_k N_ij^k S_ks = S_is S_js / d_s at s = {s}")

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

    def centralize(self, i: int, j: int) -> bool:
        """Whether simples i and j have trivial double braiding, on root exponents.

        The double braiding is a module map, so it is the identity exactly when
        the classes of a_i and a_j commute elementwise and
        zeta_m^e chi_i(u) chi_j(v) = d_i d_j on every term (u, v, e) of
        _pair_terms. A projective character value chi(u) is a sum of d
        eigenvalues of rho(u), each an N-th root of unity (rho comes from a
        central extension whose exponent divides N = m |G|), so |chi(u)| <= d
        with equality only when rho(u) is the scalar zeta_N^k, i.e. when
        scalar_exps holds k at u. A term can reach d_i d_j only if both factors
        are scalars, and then it does iff r_i[u] + r_j[v] + e scale = 0 (mod N).
        """
        si, sj = self.gamma[i], self.gamma[j]
        terms = self._pair_terms(si.a, sj.a)
        if len(terms) < self.group.order:
            return False
        ri, rj = self.scalar_exps(i), self.scalar_exps(j)
        N, scale = self.ctx.N, self.scale
        for u, v, e in terms:
            x, y = ri[u], rj[v]
            if x is None or y is None or (x + y + e * scale) % N:
                return False
        return True

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

    def magnitude_centralize(self, i: int, j: int) -> bool:
        """Whether |S(i, j)| = dim(i) dim(j); defined for the trivial cocycle."""
        S = self.s_matrix
        gamma = self.gamma
        d = gamma[i].dim * gamma[j].dim
        return S[i][j].norm_squared() == self.ctx.from_int(d * d)

    # -- fusion-closure helpers (used by the oracle and adjoint computations) -----------

    def tensor_components(self, i: int, j: int) -> tuple[int, ...]:
        N = self.fusion
        return tuple(k for k in range(len(self.gamma)) if N[i][j][k])


def _evaluator(p: int, z: int, degree: int):
    """The map Z[zeta_N][1/den] -> F_p sending zeta_N to z, on Cyclo values."""
    powers = [pow(z, k, p) for k in range(degree)]

    def at(x: Cyclo) -> int:
        return sum(map(mul, x.num, powers)) * pow(x.den, p - 2, p) % p
    return at
