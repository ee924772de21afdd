"""3-cocycles: validation, builtin families, derived 2-cochains."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from qdouble import (IdentityViolation, InputError, NotACocycle, NotNormalized, ThreeCocycle,
                     builtin_cyclic, builtin_group, check_identities, coboundary,
                     cyclic_group, pullback, trivial_cocycle, validate)
from qdouble.cocycles import product

from conftest import twisted_cyclic_coboundary, twisted_quotient


def test_trivial_validates():
    for name in ("Z2", "S3", "D4"):
        om = trivial_cocycle(builtin_group(name))
        validate(om)
        assert om.is_trivial
        check_identities(om)


def test_shared_rows_are_checked():
    # the checks visit each shared plane and row once, and so every entry still
    G = builtin_group("Z3")
    for bad in ((0, 0, 3), (0, -1, 0), (0, 0)):
        plane = ((0, 0, 0), bad, (0, 0, 0))
        with pytest.raises(InputError):
            ThreeCocycle(G, 3, (plane,) * 3)
        with pytest.raises(InputError):
            ThreeCocycle(G, 3, ((bad,) * 3,) * 3)
    with pytest.raises(InputError):
        ThreeCocycle(G, 3, (((0, 0, 0),) * 3,) * 2 + (((0, 0, 0),) * 2,))
    assert ThreeCocycle(G, 3, (((0, 1, 2),) * 3,) * 3).dlog[2][1] == (0, 1, 2)


def test_is_trivial_reads_unshared_rows():
    # is_trivial walks each distinct row once; a nonzero entry in a row that no
    # other plane or row shares still makes the table nontrivial
    G = builtin_group("Z3")
    zero = (0, 0, 0)
    shared = (zero,) * 3
    assert ThreeCocycle(G, 3, (shared,) * 3).is_trivial
    for x, y in ((1, 1), (2, 2), (1, 2)):
        planes = [shared] * 3
        planes[x] = tuple((0, 0, 1) if r == y else zero for r in range(3))
        assert not ThreeCocycle(G, 3, tuple(planes)).is_trivial


def test_builtin_cyclic_formula():
    n, q = 4, 3
    om = builtin_cyclic(n, q)
    validate(om)
    G = om.group
    for a in range(n):
        for b in range(n):
            for c in range(n):
                assert om.dlog[a][b][c] == (q * a * ((b + c) // n)) % n


def test_builtin_cyclic_families_validate():
    for n in range(2, 7):
        for q in range(n):
            om = builtin_cyclic(n, q)
            validate(om)
            check_identities(om)


def test_semion_cocycle_values():
    om = builtin_cyclic(2, 1)
    # omega(1,1,1) = -1 and all slots touching the identity are 1
    assert om.dlog[1][1][1] == 1 and om.modulus == 2
    assert om.dlog[0][1][1] == 0 and om.dlog[1][0][1] == 0


def test_semion_not_a_coboundary():
    G = cyclic_group(2)
    target = builtin_cyclic(2, 1)
    # normalized 2-cochains mod 2 on Z2 have one free value mu(1,1)
    for m11 in (0, 1):
        mu = ((0, 0), (0, m11))
        db = coboundary(G, mu, 2)
        validate(db)
        assert db.dlog != target.dlog


def test_not_a_cocycle_witness():
    G = cyclic_group(3)
    dlog = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    dlog[1][1][1] = 1
    with pytest.raises(NotACocycle) as ei:
        validate(ThreeCocycle(G, 3, tuple(tuple(tuple(r) for r in p) for p in dlog)))
    assert ei.value.witness == (1, 1, 1, 1)


def test_not_normalized_witness():
    G = cyclic_group(2)
    dlog = (((0, 0), (0, 0)), ((0, 1), (0, 0)))
    with pytest.raises(NotNormalized):
        validate(ThreeCocycle(G, 2, dlog))


def test_validate_decides_exactly_the_normalized_cocycles_on_z2():
    # every dlog table on Z2 mod 2 and mod 3 against the definition, with all three
    # slots normalized; validate checks only the middle slot
    G = cyclic_group(2)
    els = range(2)
    for m in (2, 3):
        for flat in itertools.product(range(m), repeat=8):
            d = tuple(tuple(flat[4 * x + 2 * y: 4 * x + 2 * y + 2] for y in els) for x in els)
            normalized = all(d[0][x][y] == d[x][0][y] == d[x][y][0] == 0
                             for x in els for y in els)
            identity = all((d[g2][g3][g4] + d[g1][g2 ^ g3][g4] + d[g1][g2][g3]
                            - d[g1 ^ g2][g3][g4] - d[g1][g2][g3 ^ g4]) % m == 0
                           for g1, g2, g3, g4 in itertools.product(els, repeat=4))
            try:
                validate(ThreeCocycle(G, m, d))
                accepted = True
            except (NotNormalized, NotACocycle):
                accepted = False
            assert accepted == (normalized and identity), (m, d)


def test_coboundary_validates():
    rng = random.Random(11)
    for name in ("Z4", "S3", "D4"):
        G = builtin_group(name)
        for m in (2, 3, 4):
            mu = [[0] * G.order for _ in range(G.order)]
            for a in range(1, G.order):
                for b in range(1, G.order):
                    mu[a][b] = rng.randrange(m)
            om = coboundary(G, mu, m)
            validate(om)
            check_identities(om)


def test_product_and_pullback():
    a = builtin_cyclic(4, 1)
    b = builtin_cyclic(4, 2)
    ab = product(a, b)
    validate(ab)
    m = ab.modulus
    for x in range(4):
        for y in range(4):
            for z in range(4):
                assert ab.dlog[x][y][z] == (
                    a.dlog[x][y][z] * (m // a.modulus)
                    + b.dlog[x][y][z] * (m // b.modulus)) % m
    # pull back the Z2 semion along Z4 ->> Z2
    G4 = cyclic_group(4)
    hom = [0, 1, 0, 1]
    pulled = pullback(builtin_cyclic(2, 1), hom, G4)
    validate(pulled)
    check_identities(pulled)
    assert not pulled.is_trivial


def test_pullback_rejects_non_hom():
    G4 = cyclic_group(4)
    with pytest.raises(ValueError):
        pullback(builtin_cyclic(2, 1), [0, 1, 1, 0], G4)


def test_identity_families_counts():
    counts = check_identities(builtin_cyclic(3, 1))
    assert set(counts) == {"beta_cocycle", "centralizer_agreement", "gamma_product",
                           "nu_product", "commuting_nu_swap", "commuting_nu_conj",
                           "commuting_beta_sym"}
    assert all(v > 0 for v in counts.values())


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((("Z4", 2), ("S3", 2), ("Z2xZ2", 4))), st.data())
def test_beta_relation_random(spec, data):
    name, m = spec
    G = builtin_group(name)
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    mu = [[0] * G.order for _ in range(G.order)]
    for a in range(1, G.order):
        for b in range(1, G.order):
            mu[a][b] = rng.randrange(m)
    om = coboundary(G, mu, m)
    a, x, y, z = (data.draw(st.integers(0, G.order - 1)) for _ in range(4))
    lhs = (om.beta(a, x, y) + om.beta(a, G.mul(x, y), z)) % m
    rhs = (om.beta(a, x, G.mul(y, z))
           + om.beta(G.conj(G.inverse(x), a), y, z)) % m
    assert lhs == rhs


def _reference_identities(omega):
    """The identity suite one instance at a time through the cochain methods:
    counts per family, or (name, witness) of the first failure."""
    G = omega.group
    n = G.order
    m = omega.modulus
    counts = {name: 0 for name in
              ("beta_cocycle", "centralizer_agreement", "gamma_product",
               "nu_product", "commuting_nu_swap", "commuting_nu_conj",
               "commuting_beta_sym")}
    beta, eta, gamma, nu = omega.beta, omega.eta, omega.gamma, omega.nu
    inv, conj, mul = G.inverse, G.conj, G.mul
    for a in range(n):
        for x in range(n):
            for y in range(n):
                for z in range(n):
                    lhs = beta(a, x, y) + beta(a, mul(x, y), z)
                    rhs = beta(a, x, mul(y, z)) + beta(conj(inv(x), a), y, z)
                    if (lhs - rhs) % m:
                        return "beta_cocycle", (a, x, y, z)
                    counts["beta_cocycle"] += 1
    for a in range(n):
        cent = G.centralizer_members(a)
        for x in cent:
            for y in cent:
                if len({beta(a, x, y), eta(a, x, y), gamma(a, x, y), nu(a, x, y)}) != 1:
                    return "centralizer_agreement", (a, x, y)
                counts["centralizer_agreement"] += 1
    for a in range(n):
        ai = inv(a)
        for b in range(n):
            for x in range(n):
                for y in range(n):
                    lhs = (gamma(mul(a, b), x, y) - gamma(b, conj(ai, x), conj(ai, y))
                           - gamma(a, x, y))
                    rhs = beta(x, a, b) + beta(y, a, b) - beta(mul(x, y), a, b)
                    if (lhs - rhs) % m:
                        return "gamma_product", (a, b, x, y)
                    counts["gamma_product"] += 1
    for a in range(n):
        for b in range(n):
            for x in range(n):
                for y in range(n):
                    lhs = (nu(mul(a, b), x, y) - nu(a, conj(b, x), conj(b, y))
                           - nu(b, x, y))
                    rhs = eta(x, a, b) + eta(y, a, b) - eta(mul(x, y), a, b)
                    if (lhs - rhs) % m:
                        return "nu_product", (a, b, x, y)
                    counts["nu_product"] += 1
    for h in range(n):
        for k in range(n):
            if not G.commute(h, k):
                continue
            for x in range(n):
                xi = inv(x)
                hx = conj(x, h)
                lhs = nu(x, h, k) - nu(x, k, h)
                rhs = beta(hx, x, xi) - beta(hx, x, k) - beta(hx, mul(x, k), xi)
                if (lhs - rhs) % m:
                    return "commuting_nu_swap", (h, k, x)
                counts["commuting_nu_swap"] += 1
                hxi, kxi = conj(xi, h), conj(xi, k)
                lhs = nu(x, hxi, kxi) - nu(x, kxi, hxi)
                rhs = nu(xi, k, h) - nu(xi, h, k)
                if (lhs - rhs) % m:
                    return "commuting_nu_conj", (h, k, x)
                counts["commuting_nu_conj"] += 1
            for y in range(n):
                if not G.commute(conj(y, k), h):
                    continue
                yi = inv(y)
                lhs = beta(k, yi, y) - beta(k, yi, h) - beta(k, mul(yi, h), y)
                rhs = beta(h, y, yi) - beta(h, y, k) - beta(h, mul(y, k), yi)
                if (lhs - rhs) % m:
                    return "commuting_beta_sym", (h, k, y)
                counts["commuting_beta_sym"] += 1
    return counts


def _table_identities(omega):
    try:
        return check_identities(omega)
    except IdentityViolation as exc:
        return exc.name, exc.witness


def _random_cochain(G, m, rng):
    n = G.order
    return ThreeCocycle(G, m, tuple(tuple(tuple(
        rng.randrange(m) if x and y and z else 0 for z in range(n))
        for y in range(n)) for x in range(n)))


def test_identity_suite_matches_reference():
    S3 = builtin_group("S3")
    rng = random.Random(2008)
    cases = [_random_cochain(S3, 3, rng) for _ in range(20)]
    cases += [builtin_cyclic(n, q) for n, q in ((4, 1), (6, 3), (8, 1))]
    cases.append(trivial_cocycle(builtin_group("S4")))
    for omega in cases:
        assert _table_identities(omega) == _reference_identities(omega)


def test_identity_suite_zero_dlog_matches_reference():
    # an all-zero table of any modulus is the trivial cocycle
    for name in ("S4", "D4"):
        G = builtin_group(name)
        n = G.order
        omega = ThreeCocycle(G, 3, tuple(tuple((0,) * n for _ in range(n)) for _ in range(n)))
        assert _table_identities(omega) == _reference_identities(omega)


@pytest.mark.parametrize("cochain", ("beta", "eta", "gamma", "nu"))
def test_identity_suite_witness_per_family(cochain):
    # a valid cocycle whose derived cochain is wrong at one triple: the failing
    # family and its first witness must be those of the reference loops, also
    # on a zero base, whose other tables all vanish
    S3 = builtin_group("S3")
    rng = random.Random(cochain)
    mu = [[rng.randrange(3) if x and y else 0 for y in range(6)] for x in range(6)]
    # (a, a, a) lies in the centralizer of a; the others are random
    a = rng.randrange(1, 6)
    bads = [(a, a, a)] + [tuple(rng.randrange(1, 6) for _ in range(3)) for _ in range(2)]
    zero = ((0,) * 6,) * 6
    for base, bad in itertools.product((coboundary(S3, mu, 3), ThreeCocycle(S3, 3, (zero,) * 6)),
                                       bads):

        def shifted(self, a, x, y, _f=getattr(ThreeCocycle, cochain), _bad=bad):
            return (_f(self, a, x, y) + ((a, x, y) == _bad)) % self.modulus

        omega = type("Perturbed", (ThreeCocycle,), {cochain: shifted})(
            S3, base.modulus, base.dlog)
        got = _table_identities(omega)
        assert got == _reference_identities(omega)
        assert isinstance(got[0], str)


def test_beta_table_matches_beta():
    cocycles = [builtin_cyclic(n, q) for n in range(1, 7) for q in range(n)]
    cocycles += [twisted_cyclic_coboundary(4, 1, 3).omega, trivial_cocycle(builtin_group("S3"))]
    cocycles += [twisted_quotient(name, m).omega for name in ("S3", "D4", "Q8") for m in (None, 3)]
    for omega in cocycles:
        G = omega.group
        els = range(G.order)
        d, m = omega.dlog, omega.modulus
        for a in els:
            table = omega.beta_table(a)
            assert table is omega.beta_table(a)
            # beta_a(x, y) = omega(a, x, y) omega(x, y, (xy)^-1 a xy) / omega(x, x^-1 a x, y)
            assert all(table[x][y] == omega.beta(a, x, y) == (
                d[a][x][y] + d[x][y][G.conj(G.inverse(G.mul(x, y)), a)]
                - d[x][G.conj(G.inverse(x), a)][y]) % m for x in els for y in els)
            # the transport phase reads the same table
            xi = [G.inverse(x) for x in els]
            assert all(omega.conj_exp(a, x, h) == (omega.beta(a, x, h) - omega.beta(a, x, xi[x])
                                                   + omega.beta(a, G.mul(x, h), xi[x])) % omega.modulus
                       for x in els for h in els)
