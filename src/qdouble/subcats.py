"""Fusion subcategories of the double, as triples (K, H, B).

A subcategory is determined by a pair of elementwise-commuting normal
subgroups K, H and a G-invariant bicharacter B: K x H -> roots of unity.
It is one frozen value, Triple(K, H, B), with B the table of discrete logs
mod N over the sorted members, N that of the double's field Q(zeta_N).
build_subcat alone decides whether caller-supplied (K, H, B) is such a
triple: entries in 0..N-1 that the system of bicharacters gives back. The
lattice operations (centralizer, meet, join, center) act on triples directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Sequence

from .cyclotomic import Cyclo
from .doubledata import TwistedDouble
from .errors import CheckFailure, InputError
from .groups import Subgroup
from .linmod import solve_mod


class DimensionMismatch(CheckFailure):
    """The members of a triple do not carry its predicted dimension."""


class NotASubcategory(InputError):
    """A set of simple objects, or a (K, H, B), is not a fusion subcategory."""


class UnsupportedTriple(InputError):
    """The operation is only defined for trivial cocycle and pairing."""


@dataclass(frozen=True)
class Triple:
    """The fusion subcategory S(K, H, B).

    B is the bicharacter K x H -> mu_N, N = dd.ctx.N, as a table of discrete
    logs base zeta_N over the sorted members: B[i][j], in 0..N-1, is the
    exponent at (K.members[i], H.members[j]). So each subcategory has one value.
    """

    K: Subgroup
    H: Subgroup
    B: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.B) != len(self.K.members) or \
           any(len(r) != len(self.H.members) for r in self.B):
            raise InputError("pairing table shape mismatch")

    @classmethod
    def with_trivial_pairing(cls, K: Subgroup, H: Subgroup) -> "Triple":
        """S(K, H, 1)."""
        return cls(K, H, tuple((0,) * len(H.members) for _ in K.members))

    def exp(self, k: int, h: int) -> int:
        """Discrete log of B(k, h) base zeta_N."""
        return self.B[self.K.index_of[k]][self.H.index_of[h]]

    def sort_key(self) -> tuple:
        return (len(self.K), self.K.bitmask, len(self.H), self.H.bitmask, self.B)

    @property
    def dim(self) -> int:
        """|K| [G:H], the sum of d_i^2 over the members."""
        return len(self.K) * (self.K.group.order // len(self.H))


# each flag's name, in field order, and its abbreviation in labels
_FLAG_ABBREVIATIONS = {"symmetric": "sym", "isotropic": "iso",
                       "lagrangian": "lag", "nondegenerate": "nondeg"}


@dataclass(frozen=True)
class TripleFlags:
    symmetric: bool
    isotropic: bool
    lagrangian: bool
    nondegenerate: bool

    def names(self) -> list[str]:
        """The names of the flags that hold."""
        return [name for name in _FLAG_ABBREVIATIONS if getattr(self, name)]

    def short(self) -> str:
        """The abbreviations of the flags that hold, comma-joined, or "-"."""
        return ",".join(_FLAG_ABBREVIATIONS[name] for name in self.names()) or "-"


def where(dd: TwistedDouble, t: Triple) -> str:
    """The double of a failed check, named as dd.where names it, and the triple's K and H."""
    return f"{dd.where} at K = {list(t.K.members)}, H = {list(t.H.members)}"


# -- bicharacter enumeration ------------------------------------------------------


def _equations(dd: TwistedDouble, K: Subgroup, H: Subgroup) -> Iterator[tuple]:
    """The equations on B: K x H that, with the tree edges of _system, make B
    a G-invariant bicharacter for the ambient cocycle.

    Each is (plus, minus, minus2, rhs), read B(plus) - B(minus) - B(minus2)
    = rhs in discrete logs mod N, with its terms keyed by (k, h). With Kg, Hg
    and Gg the generators of K, H and G, they are imposed on generator pairs
    only, |Kg| |H| |Hg| + |Hg| |K| |Kg| + |Kg| |Hg| |Gg| equations:

    - second slot, B(k, h1 s) = B(k, h1) B(k, s) beta_k(h1, s)^-1 for k in
      Kg, h1 in H and s in Hg;
    - first slot, B(k1 r, h) = B(k1, h) B(r, h) beta_h(k1, r) for h in Hg,
      k1 in K and r in Kg;
    - G-invariance, B(k^x, h) = B(k, xh) zeta_m^c(k, x, h) for k in Kg, h in
      Hg and x in Gg, with k^x = x^-1 k x, xh = x h x^-1 and c = conj_exp.

    Exactness. All below is mod m for the normalized omega that TwistedDouble
    validated, with K and H normal and commuting elementwise, which is
    checked first. Write dw(g1, g2, g3, g4) = w(g2, g3, g4) - w(g1 g2, g3, g4)
    + w(g1, g2 g3, g4) - w(g1, g2, g3 g4) + w(g1, g2, g3), validate's
    lhs - rhs, which vanishes. Three identities hold:

    (A) beta_{k1 k2}(h1, h2) - beta_k1(h1, h2) - beta_k2(h1, h2)
        + beta_{h1 h2}(k1, k2) - beta_h1(k1, k2) - beta_h2(k1, k2)
        = -dw(k1, k2, h1, h2) + dw(k1, h1, k2, h2) - dw(k1, h1, h2, k2)
          + dw(h1, k1, h2, k2) - dw(h1, k1, k2, h2) - dw(h1, h2, k1, k2),
        term by term in omega, over the six shuffles of (k1, k2) into (h1, h2);
    (B) c(k, x, h1 h2) - c(k, x, h1) - c(k, x, h2)
        = beta_k(xh1, xh2) - beta_{k^x}(h1, h2);
    (C) c(k1 k2, x, h) - c(k1, x, h) - c(k2, x, h)
        = beta_h(k1^x, k2^x) - beta_{xh}(k1, k2).

    For (B), the identity beta_a(x, y) + beta_a(xy, z) - beta_a(x, yz)
    - beta_{a^x}(y, z) = dw(a, x, y, z) - dw(x, a^x, y, z) + dw(x, y, a^xy, z)
    - dw(x, y, z, a^xyz) makes the arrows e_a^x: a -> a^x with
    e_a^x e_{a^x}^y = zeta_m^beta_a(x, y) e_a^xy an associative algebra, in
    which u = e_k^x is invertible and c(k, x, h) is the phase of
    u e_{k^x}^h u^-1 = zeta_m^c(k, x, h) e_k^{xh}. Conjugation by u is
    multiplicative, and expanding u e^h1 e^h2 u^-1 both ways gives (B).
    (C) is (B) for beta_h at x^-1, after the swap c(k, x, h) = c(h, x^-1, k)
    of commuting k and h with k^x commuting with h, as K and H guarantee:
    the relation commuting_beta_sym of check_identities. The same algebra gives the composition law
    c(k, xy, h) = c(k, x, yh) + c(k^x, y, h).

    Propagation. Let sigma_k(h1, h2), phi_h(k1, k2) and iota_x(k, h) be the
    defects (left side minus right side) of the three families on all of
    K and H. B(k, e) = B(e, h) = 0, so sigma_e = phi_e = 0. H centralizes k,
    so beta_k is a 2-cocycle on H and so is sigma_k; hence sigma_k vanishes
    once it does at every (h1, s), s in Hg, as every element is a positive
    word in Hg. Likewise for phi_h with K and Kg.

    - The B terms cancel, so by (A) sigma_{k1 k2} - sigma_k1 - sigma_k2 at
      (h1, h2) equals phi_{h1 h2} - phi_h1 - phi_h2 at (k1, k2).
    - The tree edges give sigma_k(h1, s) = 0 for every k and each edge
      (h1, s) of H's tree; the first family gives phi_s = 0 for s in Hg.
    - Along H's tree, h = h1 s: phi_h(k, r) = phi_h1(k, r) for r in Kg, by
      the first point at (k, r; h1, s). So phi_h = 0 for every h.
    - Along K's tree, k = k1 r: now that phi = 0, the first point gives
      sigma_k(h1, s) = sigma_k1(h1, s) + sigma_r(h1, s), and the second
      family gives sigma_r(h1, s) = 0. So sigma_k = 0 for every k, and B is
      a bicharacter.
    - Then by (B) and (C), iota_x is additive in each slot, so it vanishes on
      K x H once it does on Kg x Hg. By the composition law,
      iota_xy(k, h) = iota_y(k^x, h) + iota_x(k, yh), so invariance under Gg
      gives it under G.
    """
    G = dd.group
    if not (K.is_normal and H.is_normal):
        raise NotASubcategory("K and H must be normal subgroups")
    if not all(G.commute(k, h) for k in K.members for h in H.members):
        raise NotASubcategory("K and H must commute elementwise")
    scale = dd.scale
    beta = dd.omega.beta_table
    km, hm = K.members, H.members
    kgens, hgens = K.generators, H.generators
    # multiplicativity in the second slot at generators of K, twisted by beta_k
    second = (((k, G.mul(h1, s)), (k, h1), (k, s), -scale * Bk[h1][s])
              for k in kgens for Bk in (beta(k),) for h1 in hm for s in hgens)
    # multiplicativity in the first slot at generators of H, twisted by beta_h
    first = (((G.mul(k1, r), h), (k1, h), (r, h), scale * Bh[k1][r])
             for h in hgens for Bh in (beta(h),) for k1 in km for r in kgens)
    # G-invariance on generator pairs, with B(e, e) = 1 as the second minus term
    invariance = (((kx, h), (k, G.conj(x, h)), (0, 0), scale * dd.omega.conj_exp(k, x, h))
                  for k in kgens for x in G.whole_group.generators
                  for kx in (G.conj(G.inverse(x), k),) for h in hgens)
    return chain(second, first, invariance)


def _system(dd: TwistedDouble, K: Subgroup, H: Subgroup) -> tuple[list[list[int]], list[tuple]]:
    """The bicharacters on K x H as affine forms and the rows they must solve.

    The unknowns are B(r, s) for generators r of K and s of H, unknown
    i |Hg| + j at (Kg[i], Hg[j]). The first-slot equations along a Cayley
    tree of K make each B(k, s) an affine form in them, the second-slot ones
    along a tree of H each B(k, h); B(k, e) = B(e, h) = 0, and the form of
    B(r, s) is its unknown, as the trees are breadth-first. Returns
    (columns, residual): columns[p] holds unknown p's coefficients in the
    table flattened over the sorted members, row by row, and the last
    column the constants; residual holds the equations of _equations that do
    not vanish identically on the forms, as (coefficients, rhs), deduplicated
    and sorted. By _equations' argument the bicharacters are exactly the
    forms at the solutions of residual, one table per solution.
    """
    eqs = list(_equations(dd, K, H))
    G = dd.group
    N = dd.ctx.N
    scale = dd.scale
    beta = dd.omega.beta_table
    km, hm = K.members, H.members
    kgens, hgens = K.generators, H.generators
    n = len(kgens) * len(hgens)

    # form[k, h]: coefficients of B(k, h) in the unknowns, then its constant
    form = {(k, 0): [0] * (n + 1) for k in km} | {(0, s): [0] * (n + 1) for s in hgens}
    for j, s in enumerate(hgens):
        Bs = beta(s)
        for k1, i, k in G.cayley_tree(kgens):
            form[k, s] = f = form[k1, s].copy()
            f[i * len(hgens) + j] += 1
            f[n] += scale * Bs[k1][kgens[i]]
    htree = G.cayley_tree(hgens)
    for k, Bk in zip(km, map(beta, km)):
        for h1, j, h in htree:
            form[k, h] = f = [a + b for a, b in zip(form[k, h1], form[k, hgens[j]])]
            f[n] -= scale * Bk[h1][hgens[j]]

    # evaluate column by column: each unknown's coefficients, then the constant
    cols = [{key: f[p] for key, f in form.items()} for p in range(n + 1)]
    values = [[(c[a] - c[b] - c[d]) % N for a, b, d, _ in eqs] for c in cols[:n]]
    values.append([(r - cols[n][a] + cols[n][b] + cols[n][d]) % N for a, b, d, r in eqs])
    residual = sorted({(v[:n], v[n]) for v in zip(*values) if any(v)})
    return [[c[k, h] for k in km for h in hm] for c in cols], residual


def _expand(columns: list[list[int]], solutions: Iterable[Sequence[int]],
            N: int) -> Iterator[list[int]]:
    """The flattened table of each solution x, the last column plus
    x_p columns[p] over the unknowns p, mod N.

    Partial sums over the first p unknowns are kept, and only those from the
    first unknown where x differs from the solution before are redone. For
    solutions in ascending order, as solve_mod returns them, that is mostly
    the last unknown alone.
    """
    n = len(columns) - 1
    partial = [columns[n]] * (n + 1)
    prev: Sequence[int] = ()
    for x in solutions:
        p = next((i for i, (a, b) in enumerate(zip(x, prev)) if a != b), 0)
        for i in range(p, n):
            v = x[i]
            partial[i + 1] = [a + v * b for a, b in zip(partial[i], columns[i])] if v \
                else partial[i]
        prev = x
        yield [a % N for a in partial[n]]


def bicharacters(dd: TwistedDouble, K: Subgroup, H: Subgroup) -> tuple[Triple, ...]:
    """The triples (K, H, B), B over all G-invariant bicharacters on K x H for
    the ambient cocycle, sorted by table: the forms of _system at the
    solutions of its residual rows, from solve_mod.
    """
    columns, residual = _system(dd, K, H)
    N, nh = dd.ctx.N, len(H.members)
    solutions = solve_mod(residual, len(columns) - 1, N)
    tables = sorted(tuple(zip(*[iter(flat)] * nh)) for flat in _expand(columns, solutions, N))
    return tuple(Triple(K, H, B) for B in tables)


# -- membership and canonical triples -------------------------------------------------


def subcat_members(dd: TwistedDouble, t: Triple) -> frozenset[int]:
    """Simple objects of S(K, H, B), with the dimension identity enforced."""
    cached = dd.subcat_caches.get(t)
    if cached is not None:
        return cached
    members = []
    kset = t.K.member_set
    for s in dd.gamma:
        if s.a not in kset:
            continue
        r = s.scalar_exps
        if all(r[h] == t.exp(s.a, h) for h in t.H.members):
            members.append(s.index)
    dim = sum(dd.gamma[i].dim ** 2 for i in members)
    if dim != t.dim:
        raise DimensionMismatch(
            f"{where(dd, t)}: members carry dimension {dim}, triple predicts {t.dim}")
    result = frozenset(members)
    dd.subcat_caches[t] = result
    return result


def build_subcat(dd: TwistedDouble, K: Subgroup, H: Subgroup,
                 B: tuple[tuple[int, ...], ...]) -> Triple:
    """The triple (K, H, B) if B is a table of bicharacters(dd, K, H), else
    NotASubcategory.

    Those tables are the forms of _system at the solutions of its residual
    rows, and the form of B(r, s) at generators r, s is its unknown. So B is
    one exactly when its values on generator pairs solve the residual rows
    and the forms at those values give back all of B. The rows alone would
    not do: _equations holds only with the tree edges, and a table that
    breaks one off the generator pairs can satisfy every row.
    """
    columns, residual = _system(dd, K, H)
    N = dd.ctx.N
    t = Triple(K, H, B)
    if any(min(r) < 0 or max(r) >= N for r in B):
        raise InputError(f"pairing table entries must lie in 0..{N - 1}")
    x = [t.exp(r, s) for r in K.generators for s in H.generators]
    if any((sum(a * v for a, v in zip(c, x)) - rhs) % N for c, rhs in residual) or \
       next(_expand(columns, [x], N)) != [*chain.from_iterable(B)]:
        raise NotASubcategory("the pairing is not a G-invariant bicharacter on K x H "
                              "for this cocycle")
    subcat_members(dd, t)
    return t


def triple_of(dd: TwistedDouble, simples: Iterable[int]) -> Triple:
    """Canonical triple of a set of simple objects; NotASubcategory if malformed."""
    G = dd.group
    gamma = dd.gamma
    idx = frozenset(simples)
    outside = sorted(idx.difference(range(len(gamma))))
    if outside:
        raise NotASubcategory(f"{outside} are not indices of simple objects "
                              f"(0 to {len(gamma) - 1})")
    if dd.unit_index not in idx:
        raise NotASubcategory("the unit object is missing")

    # support subgroup: union of the classes of all a that occur
    support = set()
    for i in idx:
        support.update(G.class_of(gamma[i].a))
    try:
        K = G.subgroup(support)
    except InputError as exc:
        raise NotASubcategory(f"supports are not a subgroup: {exc}") from exc

    # intersection of kernels of the characters at a = e
    hset = set(range(G.order))
    for i in idx:
        if gamma[i].a == 0:
            r = gamma[i].scalar_exps
            hset &= {g for g in range(G.order) if r[g] == 0}
    H = G.subgroup(hset)

    # B on K x H as first read; every k in K is some x^-1 a x
    N = dd.ctx.N
    table: dict[tuple[int, int], int] = {}
    conj_exp = dd.omega.conj_exp
    scale = dd.scale
    for i in sorted(idx):
        a = gamma[i].a
        r = gamma[i].scalar_exps
        for x in range(G.order):
            k = G.conj(G.inverse(x), a)
            for h in H.members:
                # B(k, h) = zeta_m^conj_exp(a, x, h) chi(x h x^-1) / deg
                exp = r[G.conj(x, h)]
                if exp is None:
                    raise NotASubcategory(
                        f"pairing value at ({k}, {h}) is not a root of unity")
                table.setdefault((k, h), (exp + scale * conj_exp(a, x, h)) % N)
    t = build_subcat(dd, K, H, tuple(tuple(table[k, h] for h in H.members)
                                     for k in K.members))
    if subcat_members(dd, t) != idx:
        raise NotASubcategory("the canonical triple rebuilds a different set")
    return t


# -- enumeration -------------------------------------------------------------------


def enumerate_all(dd: TwistedDouble) -> tuple[Triple, ...]:
    """Every fusion subcategory of the double, sorted canonically."""
    key = ("all",)
    cached = dd.subcat_caches.get(key)
    if cached is not None:
        return cached
    triples = sorted((t for K, H in dd.group.centralizing_pairs()
                      for t in bicharacters(dd, K, H)), key=Triple.sort_key)
    # equal triples have equal sort keys, so a repeat sits next to its twin
    for t, u in zip(triples, triples[1:]):
        if t == u:
            raise CheckFailure(f"{where(dd, t)}: duplicate triples in enumeration")
    result = tuple(triples)
    dd.subcat_caches[key] = result
    return result


def whole_triple(dd: TwistedDouble) -> Triple:
    G = dd.group
    return Triple.with_trivial_pairing(G.whole_group, G.trivial_subgroup)


def trivial_triple(dd: TwistedDouble) -> Triple:
    G = dd.group
    return Triple.with_trivial_pairing(G.trivial_subgroup, G.whole_group)


# -- lattice operations ------------------------------------------------------------


def centralizer_triple(dd: TwistedDouble, t: Triple) -> Triple:
    """S(K, H, B)' = S(H, K, (B^op)^{-1})."""
    return Triple(t.H, t.K, tuple(tuple(-e % dd.ctx.N for e in col) for col in zip(*t.B)))


def contains(dd: TwistedDouble, t1: Triple, t2: Triple) -> bool:
    """Whether S(t1) is a subcategory of S(t2)."""
    if not (t1.K.member_set <= t2.K.member_set and
            t2.H.member_set <= t1.H.member_set):
        return False
    return all(t1.exp(k, h) == t2.exp(k, h)
               for k in t1.K.members for h in t2.H.members)


def meet(dd: TwistedDouble, t1: Triple, t2: Triple) -> Triple:
    """Intersection of two subcategories."""
    G, N, scale = dd.group, dd.ctx.N, dd.scale
    H_meet = G.product_subgroup(t1.H, t2.H)
    KK = G.intersect(t1.K, t2.K)
    HH = G.intersect(t1.H, t2.H)
    kernel = [a for a in KK.members
              if all(t1.exp(a, h) == t2.exp(a, h) for h in HH.members)]
    K_meet = G.subgroup(kernel)  # closure check: kernel of a homomorphism

    # pairing on K_meet x H1H2: psi(a, h1 h2) = beta_a(h1, h2)^{-1} B1(a,h1) B2(a,h2),
    # independent of the factorization
    rows = []
    for a in K_meet.members:
        row = {}
        Ba = dd.omega.beta_table(a)
        for h1 in t1.H.members:
            for h2 in t2.H.members:
                h = G.mul(h1, h2)
                e = (-scale * Ba[h1][h2]
                     + t1.exp(a, h1) + t2.exp(a, h2)) % N
                prev = row.setdefault(h, e)
                if prev != e:
                    raise CheckFailure(
                        f"{dd.where}: meet of K = {list(t1.K.members)}, H = {list(t1.H.members)} "
                        f"and K = {list(t2.K.members)}, H = {list(t2.H.members)}: "
                        f"pairing not well defined at ({a}, {h}): {prev} != {e}")
        rows.append(tuple(row[h] for h in H_meet.members))
    return Triple(K_meet, H_meet, tuple(rows))


def join(dd: TwistedDouble, t1: Triple, t2: Triple) -> Triple:
    """Smallest subcategory containing both, via duality from the meet."""
    c = meet(dd, centralizer_triple(dd, t1), centralizer_triple(dd, t2))
    return centralizer_triple(dd, c)


def muger_center(dd: TwistedDouble, t: Triple) -> Triple:
    """Z_2(S) = S meet S'."""
    return meet(dd, t, centralizer_triple(dd, t))


# -- invariants --------------------------------------------------------------------


def classify(dd: TwistedDouble, t: Triple) -> TripleFlags:
    """Flags from one pass over B on KH x KH, KH = K n H (that is K x K when K <= H)."""
    N, K, H = dd.ctx.N, t.K, t.H
    KH = [a for a in K.members if a in H.member_set]
    hpos = [H.index_of[a] for a in KH]
    block = [[*map(t.B[K.index_of[a]].__getitem__, hpos)] for a in KH]
    # a is in the radical iff its row is antisymmetric: B(a, j) B(j, a) = 1 for j in KH
    in_radical = [not any(map(N.__rmod__, map(int.__add__, row, col)))
                  for row, col in zip(block, zip(*block))]
    k_in_h = len(KH) == len(K)
    symmetric = k_in_h and all(in_radical)
    isotropic = k_in_h and not any(row[i] for i, row in enumerate(block))
    lagrangian = isotropic and K.members == H.members
    # K and H are normal, so HK is a subgroup, of order |H||K| / |H n K|
    nondegenerate = len(H) * len(K) == dd.group.order * len(KH) and sum(in_radical) == 1
    return TripleFlags(symmetric, isotropic, lagrangian, nondegenerate)


def flag_counts(dd: TwistedDouble) -> dict[str, int]:
    """How many triples carry each flag, classifying each triple once.

    Keyed by the flag names in field order, then "proper nondegenerate":
    the nondegenerate triples with 1 < dim < |G|^2, that is, other than
    the trivial and the whole triple.
    """
    key = ("flags",)
    cached = dd.subcat_caches.get(key)
    if cached is not None:
        return dict(cached)
    order = dd.group.order
    counts = dict.fromkeys([*_FLAG_ABBREVIATIONS, "proper nondegenerate"], 0)
    for t in enumerate_all(dd):
        names = classify(dd, t).names()
        for name in names:
            counts[name] += 1
        if "nondegenerate" in names and 1 < t.dim < order ** 2:
            counts["proper nondegenerate"] += 1
    dd.subcat_caches[key] = counts
    return dict(counts)


def nondegenerate_count(dd: TwistedDouble) -> int:
    """Number of proper nontrivial nondegenerate subcategories."""
    return flag_counts(dd)["proper nondegenerate"]


def is_prime(dd: TwistedDouble) -> bool:
    """No proper nontrivial subcategory is nondegenerate."""
    return nondegenerate_count(dd) == 0


def gauss_sum(dd: TwistedDouble, t: Triple) -> Cyclo:
    """Gauss sum, computed from the triple and re-derived from twists.

    Each side is one root_sum: [G:H] times B(a, a) once per element of the
    class of each representative a in K n H, and the twist of each member
    i counted d_i^2 times.
    """
    G, ctx, gamma = dd.group, dd.ctx, dd.gamma
    KH = G.intersect(t.K, t.H)
    tau = ctx.root_sum(t.exp(a, a) for a in G.class_reps if a in KH.member_set
                       for _ in G.class_of(a)) * (G.order // len(t.H))
    tau_theta = ctx.root_sum(gamma[i].twist for i in subcat_members(dd, t)
                             for _ in range(gamma[i].dim ** 2))
    if tau != tau_theta:
        raise CheckFailure(
            f"{where(dd, t)}: Gauss sum mismatch: formula {tau}, twist sum {tau_theta}")
    return tau


def central_charge(dd: TwistedDouble, t: Triple) -> complex:
    """tau / sqrt(dim), as a complex float."""
    tau = gauss_sum(dd, t)
    return tau.to_complex() / (t.dim ** 0.5)


# -- adjoint and central series (trivial cocycle, trivial pairing) -------------------


def adjoint_triple(dd: TwistedDouble, t: Triple) -> Triple:
    """S(K, H, 1)_ad = S([G, K], C_G(K) n preimage(Z(G/H)), 1)."""
    if not dd.omega.is_trivial:
        raise UnsupportedTriple("adjoint formula requires the trivial cocycle")
    if any(map(any, t.B)):
        raise UnsupportedTriple("adjoint formula requires the trivial pairing")
    G = dd.group
    K_ad = G.commutator_subgroup(t.K)
    H_ad = G.intersect(G.centralizer_of_subgroup(t.K),
                       G.preimage_of_center_of_quotient(t.H))
    return Triple.with_trivial_pairing(K_ad, H_ad)


def adjoint_series_term(dd: TwistedDouble, n: int) -> Triple:
    """n-th iterated adjoint of the whole category."""
    if not dd.omega.is_trivial:
        raise UnsupportedTriple("central series require the trivial cocycle")
    if n == 0:
        return whole_triple(dd)
    G = dd.group
    K = G.lower_central_term(n)
    H = G.intersect(G.centralizer_of_subgroup(G.lower_central_term(n - 1)),
                    G.upper_central_term(n))
    return Triple.with_trivial_pairing(K, H)


def central_series_term(dd: TwistedDouble, n: int) -> Triple:
    """Centralizer of the n-th adjoint term; n = 1 gives the pointed part's dual."""
    if n == 0:
        return trivial_triple(dd)
    return centralizer_triple(dd, adjoint_series_term(dd, n))
