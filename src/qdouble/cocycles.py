"""Normalized 3-cocycles on a finite group, stored by discrete log.

A cocycle takes values in the roots of unity mu_m; we store the exponent
(an integer mod m) per triple. The derived 2-cochains beta/eta/gamma/nu are
returned as exponents too; conversion to field values happens downstream.
Nothing here validates a cocycle it builds: TwistedDouble runs validate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import lcm
from typing import Sequence

from .errors import CheckFailure, InputError
from .groups import FiniteGroup, cyclic_group


class NotACocycle(CheckFailure):
    """The 3-cochain fails the cocycle identity; names the group and modulus (where)
    and carries a witness quadruple."""

    def __init__(self, where: str, witness: tuple[int, int, int, int]):
        super().__init__(f"{where}: cocycle identity fails at {witness}")
        self.witness = witness


class NotNormalized(CheckFailure):
    """The 3-cochain fails normalization; names the group and modulus (where) and
    carries a witness pair."""

    def __init__(self, where: str, witness: tuple[int, int]):
        super().__init__(f"{where}: normalization fails at {witness}")
        self.witness = witness


class IdentityViolation(CheckFailure):
    """A derived 2-cochain identity fails; carries the identity name and witness."""

    def __init__(self, name: str, witness: tuple):
        super().__init__(f"identity {name} fails at {witness}")
        self.name = name
        self.witness = witness


@dataclass(frozen=True)
class ThreeCocycle:
    """A normalized 3-cocycle with values zeta_m^dlog[x][y][z]."""

    group: FiniteGroup = field(compare=False)
    modulus: int
    dlog: tuple[tuple[tuple[int, ...], ...], ...]

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise InputError("modulus >= 1")
        n = self.group.order
        if len(self.dlog) != n or any(len(p) != n for p in self.dlog) or \
           any(len(r) != n for r in self._rows):
            raise InputError("dlog table is not n x n x n")
        if any(min(r) < 0 or max(r) >= self.modulus for r in self._rows):
            raise InputError("dlog entries must lie in 0..modulus-1")

    @cached_property
    def _rows(self) -> list[tuple[int, ...]]:
        """Each distinct row object of dlog once: trivial_cocycle has one plane and one row."""
        return [*{id(r): r for p in {id(p): p for p in self.dlog}.values() for r in p}.values()]

    @cached_property
    def is_trivial(self) -> bool:
        return not any(map(any, self._rows))

    @cached_property
    def _beta_tables(self) -> dict[int, tuple[tuple[int, ...], ...]]:
        return {}

    # -- derived 2-cochains, as exponents mod modulus ---------------------------

    def beta(self, a: int, x: int, y: int) -> int:
        """Conjugation 2-cochain on the first slot."""
        return self.beta_table(a)[x][y]

    def beta_table(self, a: int) -> tuple[tuple[int, ...], ...]:
        """The n x n table of beta_a(x, y), cached per a on the cocycle.

        beta_a(x, y) = dlog[a][x][y] + dlog[x][y][(xy)^-1 a xy] - dlog[x][x^-1 a x][y].
        """
        cache = self._beta_tables
        if a not in cache:
            G, d, m = self.group, self.dlog, self.modulus
            da = d[a]
            ca = [G.conj(G.inv[z], a) for z in range(G.order)]      # z^-1 a z
            cache[a] = tuple(tuple((dax[y] + dx[y][ca[xy]] - dx[ca[x]][y]) % m
                                   for y, xy in enumerate(G.mult[x]))
                             for x, (dax, dx) in enumerate(zip(da, d)))
        return cache[a]

    def conj_exp(self, a: int, x: int, h: int) -> int:
        """Exponent of beta_a(x,h) beta_a(xh,x^-1) / beta_a(x,x^-1).

        The phase a beta_a-projective character picks up when it is moved
        along x from the centralizer of a to that of x^-1 a x.
        """
        Ba = self.beta_table(a)
        xi = self.group.inv[x]
        return (Ba[x][h] + Ba[self.group.mult[x][h]][xi] - Ba[x][xi]) % self.modulus

    def eta(self, a: int, x: int, y: int) -> int:
        """Conjugation 2-cochain on the last slot."""
        G = self.group
        xy = G.mul(x, y)
        return (self.dlog[x][y][a]
                + self.dlog[G.conj(xy, a)][x][y]
                - self.dlog[x][G.conj(y, a)][y]) % self.modulus

    def gamma(self, a: int, x: int, y: int) -> int:
        """Right-translation 2-cochain."""
        G = self.group
        ai = G.inverse(a)
        xa = G.conj(ai, x)
        ya = G.conj(ai, y)
        return (self.dlog[x][y][a]
                + self.dlog[a][xa][ya]
                - self.dlog[x][a][ya]) % self.modulus

    def nu(self, a: int, x: int, y: int) -> int:
        """Left-translation 2-cochain."""
        G = self.group
        xa = G.conj(a, x)
        ya = G.conj(a, y)
        return (self.dlog[xa][ya][a]
                + self.dlog[a][x][y]
                - self.dlog[xa][a][y]) % self.modulus


def validate(omega: ThreeCocycle) -> None:
    """Raise NotNormalized or NotACocycle unless omega is a normalized 3-cocycle.

    Only the middle slot is checked for normalization, since the identity forces
    the outer two: at g1 = g2 = e it reads w(e, g3, g4) = w(e, e, g3 g4) - w(e, e, g3),
    and at g3 = g4 = e it reads w(g1, g2, e) = w(g1 g2, e, e) - w(g2, e, e).
    A pass is remembered on omega; a failure is recomputed and raised again.
    """
    if omega.is_trivial or omega.__dict__.get("_valid"):
        return
    G = omega.group
    n = G.order
    m = omega.modulus
    d = omega.dlog
    for g in range(n):
        for l in range(n):
            if d[g][0][l] % m:
                raise NotNormalized(f"{G.name} (cocycle mod {m})", (g, l))
    mul = G.mult
    for g1 in range(n):
        for g2 in range(n):
            g12 = mul[g1][g2]
            for g3 in range(n):
                g23 = mul[g2][g3]
                for g4 in range(n):
                    lhs = d[g2][g3][g4] + d[g1][g23][g4] + d[g1][g2][g3]
                    rhs = d[g12][g3][g4] + d[g1][g2][mul[g3][g4]]
                    if (lhs - rhs) % m:
                        raise NotACocycle(f"{G.name} (cocycle mod {m})", (g1, g2, g3, g4))
    omega.__dict__["_valid"] = True


def trivial_cocycle(G: FiniteGroup) -> ThreeCocycle:
    """omega = 1: modulus 1, every row of dlog one shared zero row, so O(n) memory."""
    row = (0,) * G.order
    return ThreeCocycle(G, 1, ((row,) * G.order,) * G.order)


def builtin_cyclic(n: int, q: int) -> ThreeCocycle:
    """The standard cocycle on Z/n: omega(a,b,c) = zeta_n^{q a floor((b+c)/n)}."""
    G = cyclic_group(n)
    q %= n
    d = tuple(tuple(tuple((q * a * ((b + c) // n)) % n for c in range(n))
                    for b in range(n)) for a in range(n))
    return ThreeCocycle(G, n, d)


def coboundary(G: FiniteGroup, mu: Sequence[Sequence[int]], m: int) -> ThreeCocycle:
    """The 3-coboundary of a normalized 2-cochain mu (exponents mod m)."""
    n = G.order
    if any(mu[0][g] % m or mu[g][0] % m for g in range(n)):
        raise InputError("2-cochain must be normalized")
    mul = G.mult
    d = tuple(tuple(tuple((mu[y][z] - mu[mul[x][y]][z] + mu[x][mul[y][z]] - mu[x][y]) % m
                          for z in range(n)) for y in range(n)) for x in range(n))
    return ThreeCocycle(G, m, d)


def product(w1: ThreeCocycle, w2: ThreeCocycle) -> ThreeCocycle:
    """Pointwise product of two cocycles on the same group."""
    if w1.group is not w2.group and w1.group.mult != w2.group.mult:
        raise InputError("cocycles live on different groups")
    n = w1.group.order
    M = lcm(w1.modulus, w2.modulus)
    f1, f2 = M // w1.modulus, M // w2.modulus
    d = tuple(tuple(tuple((f1 * w1.dlog[x][y][z] + f2 * w2.dlog[x][y][z]) % M
                          for z in range(n)) for y in range(n)) for x in range(n))
    return ThreeCocycle(w1.group, M, d)


def pullback(omega: ThreeCocycle, hom: Sequence[int], G: FiniteGroup) -> ThreeCocycle:
    """Pull back along a homomorphism G -> omega.group given elementwise."""
    H = omega.group
    n = G.order
    if len(hom) != n:
        raise InputError("homomorphism must be defined on all of G")
    for a in range(n):
        for b in range(n):
            if hom[G.mul(a, b)] != H.mul(hom[a], hom[b]):
                raise InputError(f"not a homomorphism at ({a}, {b})")
    d = tuple(tuple(tuple(omega.dlog[hom[x]][hom[y]][hom[z]] for z in range(n))
                    for y in range(n)) for x in range(n))
    return ThreeCocycle(G, omega.modulus, d)


def check_identities(omega: ThreeCocycle) -> dict[str, int]:
    """Verify the standard relations between the derived 2-cochains.

    The number of instances per family is a closed form: n^4 for the three
    product families, sum_a |C(a)|^2 for centralizer agreement, (#commuting
    ordered pairs) n for each commuting nu relation, and
    #{(h, k, y) : hk = kh, (yky^-1)h = h(yky^-1)} for the symmetric beta
    relation. Every instance is a signed sum of the four 2-cochains with no
    constant term (the centralizer family compares them), and ThreeCocycle's
    own cochains vanish on a zero dlog, so a plain ThreeCocycle that
    is_trivial returns the counts there. Otherwise beta, eta, gamma and nu
    are tabulated once (n^3 entries each) through the cochain methods, so a
    subclass that overrides one still reaches the loops, and every instance
    is checked, one table row at a time, in the order of the quantifiers
    below. Raises IdentityViolation on the first failure; returns the counts
    per family.
    """
    G = omega.group
    n = G.order
    m = omega.modulus
    els = range(n)
    inv, mul = G.inv, G.mult
    conj = [[G.conj(g, x) for x in els] for g in els]      # g x g^-1

    commuting = [(h, k) for h in els for k in els if mul[h][k] == mul[k][h]]
    counts = {"beta_cocycle": n ** 4,
              "centralizer_agreement": sum(len(G.centralizer_members(a)) ** 2 for a in els),
              "gamma_product": n ** 4,
              "nu_product": n ** 4,
              "commuting_nu_swap": len(commuting) * n,
              "commuting_nu_conj": len(commuting) * n,
              "commuting_beta_sym": sum(mul[yk][h] == mul[h][yk] for h, k in commuting
                                        for yk in (conj[y][k] for y in els))}
    if type(omega) is ThreeCocycle and omega.is_trivial:
        return counts
    B, E, Gm, V = ([[[f(a, x, y) for y in els] for x in els] for a in els]
                   for f in (omega.beta, omega.eta, omega.gamma, omega.nu))

    def check_row(name: str, prefix: tuple, row: list, indices=els) -> None:
        """Raise at the first index whose entry of row is nonzero."""
        if any(row):
            raise IdentityViolation(
                name, prefix + (next(i for i, r in zip(indices, row) if r),))

    # beta_a(x,y) beta_a(xy,z) = beta_a(x,yz) beta_{x^{-1}ax}(y,z), row over z
    for a in els:
        Ba = B[a]
        for x in els:
            Bax = Ba[x]
            axi = conj[inv[x]][a]
            for y in els:
                b1 = Bax[y]
                check_row("beta_cocycle", (a, x, y),
                          [(b1 + p - Bax[yz] - r) % m
                           for p, yz, r in zip(Ba[mul[x][y]], mul[y], B[axi][y])])

    # on the centralizer of a, all four 2-cochains agree, row over y
    for a in els:
        cent = G.centralizer_members(a)
        for x in cent:
            b, e, g, v = B[a][x], E[a][x], Gm[a][x], V[a][x]
            check_row("centralizer_agreement", (a, x),
                      [not (b[y] == e[y] == g[y] == v[y]) for y in cent], cent)

    # T_{ab}(x,y) / (T_c(gxg^{-1}, gyg^{-1}) T_d(x,y)) = U_x(a,b) U_y(a,b) / U_{xy}(a,b),
    # row over y: gamma by beta with g = a^{-1}, c = b, d = a; nu by eta with g = b, c = a, d = b
    for name, T, U, pick in (("gamma_product", Gm, B, lambda a, b: (conj[inv[a]], b, a)),
                             ("nu_product", V, E, lambda a, b: (conj[b], a, b))):
        for a in els:
            for b in els:
                cg, c, d = pick(a, b)
                Tab, Tc, Td = T[mul[a][b]], T[c], T[d]
                u = [U[y][a][b] for y in els]           # U_y(a,b) over y
                for x in els:
                    r2, ux = Tc[cg[x]], u[x]
                    check_row(name, (a, b, x),
                              [(p - r2[cy] - q - ux - s + u[xy]) % m
                               for p, cy, q, s, xy in zip(Tab[x], cg, Td[x], u, mul[x])])

    # relations for commuting pairs hk = kh
    for h, k in commuting:
        for x in els:
            xi = inv[x]
            hx = conj[x][h]
            lhs = V[x][h][k] - V[x][k][h]
            rhs = B[hx][x][xi] - B[hx][x][k] - B[hx][mul[x][k]][xi]
            if (lhs - rhs) % m:
                raise IdentityViolation("commuting_nu_swap", (h, k, x))

            hxi, kxi = conj[xi][h], conj[xi][k]
            lhs = V[x][hxi][kxi] - V[x][kxi][hxi]
            rhs = V[xi][k][h] - V[xi][h][k]
            if (lhs - rhs) % m:
                raise IdentityViolation("commuting_nu_conj", (h, k, x))

        Bk, Bh, mh = B[k], B[h], mul[h]
        for y in els:
            # the symmetric beta relation also needs yky^{-1} to commute
            # with h, as in its use on elementwise-commuting normal pairs
            yk = conj[y][k]
            if mul[yk][h] != mh[yk]:
                continue
            yi = inv[y]
            lhs = Bk[yi][y] - Bk[yi][h] - Bk[mul[yi][h]][y]
            rhs = Bh[y][yi] - Bh[y][k] - Bh[mul[y][k]][yi]
            if (lhs - rhs) % m:
                raise IdentityViolation("commuting_beta_sym", (h, k, y))

    return counts
