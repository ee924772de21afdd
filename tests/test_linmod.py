"""Integer linear algebra mod p and mod N."""

from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from qdouble.linmod import (charpoly_mod, ext_gcd, factorize, mat_mul_mod,
                            nullspace_mod, poly_roots_mod, primitive_root, rref_mod,
                            smallest_prime_one_mod, solve_mod)


def test_is_prime_and_factorize():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 97}
    for n in range(2, 100):
        assert (factorize(n) == {n: 1}) == (n in primes or
                                            all(n % p for p in primes if p * p <= n) and n > 31)
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert factorize(97) == {97: 1}


def test_smallest_prime_one_mod():
    # must not skip qualifying primes just above the bound
    assert smallest_prime_one_mod(6, 30) == 31
    assert smallest_prime_one_mod(4, 10) == 13
    for N in (2, 3, 6, 8, 12):
        for lb in (1, 10, 50):
            p = smallest_prime_one_mod(N, lb)
            assert p > lb and p % N == 1 and factorize(p) == {p: 1}


def _plain_prime_search(N, lower_bound):
    """smallest_prime_one_mod deciding every candidate by factorize alone."""
    p = (lower_bound // N) * N + 1
    while p <= lower_bound or factorize(p) != {p: 1}:
        p += N
    return p


def test_smallest_prime_one_mod_matches_plain_search():
    # the base-2 Fermat test only skips composites: the same prime on a grid of
    # moduli and bounds, and on base-2 pseudoprimes, which factorize must reject
    for N in range(1, 201):
        for lb in (0, 1, 2, 3, 100, 2 ** 12 + 1, 2 ** 24):
            assert smallest_prime_one_mod(N, lb) == _plain_prime_search(N, lb), (N, lb)
    for psp in (341, 561, 645, 1105, 1387, 1729, 1905, 2047, 2465, 2701):
        assert pow(2, psp - 1, psp) == 1 and factorize(psp) != {psp: 1}
        for N in (N for N in range(1, 201) if (psp - 1) % N == 0):
            p = smallest_prime_one_mod(N, psp - 1)
            assert p == _plain_prime_search(N, psp - 1) and p != psp, (N, psp)


def test_primitive_root():
    for p in (3, 5, 7, 11, 13, 97):
        g = primitive_root(p)
        seen = set()
        x = 1
        for _ in range(p - 1):
            x = x * g % p
            seen.add(x)
        assert len(seen) == p - 1


def test_ext_gcd():
    for a in range(-8, 9):
        for b in range(-8, 9):
            g, u, v = ext_gcd(a, b)
            assert u * a + v * b == g
            if a or b:
                assert g > 0 and a % g == 0 and b % g == 0


def test_rref_and_nullspace():
    p = 7
    A = [[1, 2, 3], [2, 4, 6], [1, 0, 1]]
    R, pivots = rref_mod(A, p)
    assert len(pivots) == 2
    for row in nullspace_mod(A, p):
        prod = mat_mul_mod([row], [[c] for r in A for c in r][:0] or
                           [[A[j][i] for j in range(3)] for i in range(3)], p)
        # A has the vector in its right kernel
        assert all(sum(A[i][j] * row[j] for j in range(3)) % p == 0
                   for i in range(3))
    assert len(nullspace_mod(A, p)) == 1


def test_det_and_charpoly():
    p = 101
    A = [[2, 1], [1, 3]]
    # charpoly x^2 - 5x + 5
    cp = charpoly_mod(A, p)
    assert cp == [5 % p, (-5) % p, 1]
    roots = poly_roots_mod(cp, p)
    for r in roots:
        assert (r * r - 5 * r + 5) % p == 0


def _leibniz_det(M, p):
    """det M over F_p as the signed sum over permutations."""
    n = len(M)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = (-1) ** inversions
        for i, j in enumerate(perm):
            term *= M[i][j]
        total += term
    return total % p


@settings(max_examples=100, deadline=None)
@given(st.sampled_from((5, 7, 101)), st.data())
def test_charpoly_matches_leibniz_determinant(p, data):
    n = data.draw(st.integers(0, min(4, p - 1)))
    A = data.draw(st.lists(st.lists(st.integers(-p, 2 * p), min_size=n, max_size=n),
                           min_size=n, max_size=n))
    cp = charpoly_mod(A, p)
    assert len(cp) == n + 1 and cp[n] == 1 and all(0 <= v < p for v in cp)
    # a polynomial of degree n is fixed by its values at n + 1 points
    for x in range(n + 1):
        xI_A = [[x * (i == j) - A[i][j] for j in range(n)] for i in range(n)]
        assert sum(v * x ** k for k, v in enumerate(cp)) % p == _leibniz_det(xI_A, p)


def test_charpoly_needs_n_below_p():
    charpoly_mod([[1] * 4 for _ in range(4)], 5)
    for n, p in ((5, 5), (6, 5), (2, 2)):
        with pytest.raises(ValueError):
            charpoly_mod([[1] * n for _ in range(n)], p)


def _brute_solutions(equations, n, N):
    out = []
    for cand in product(range(N), repeat=n):
        if all(sum(c * x for c, x in zip(row, cand)) % N == rhs % N
               for row, rhs in equations):
            out.append(cand)
    return sorted(out)


def test_solve_mod_known_systems():
    # x + y = 1, x - y = 1 mod 4 -> x in {1,3} paired with y in {0,2}
    eqs = [([1, 1], 1), ([1, -1], 1)]
    assert solve_mod(eqs, 2, 4) == _brute_solutions(eqs, 2, 4)
    # inconsistent
    assert solve_mod([([2], 1)], 1, 4) == []
    # pivot divides later coefficient (the transform must terminate)
    eqs = [([4, 0], 2), ([4, 4], 2)]
    assert solve_mod(eqs, 2, 8) == _brute_solutions(eqs, 2, 8)
    # dead ends without the Howell pass: 2x + y = 0 mod 4 forces y even, and
    # in the mod-8 chain 2x0 + x1 = 0, 2x1 + x2 = 0 an odd x2 has no x1
    eqs = [([2, 1], 0)]
    assert solve_mod(eqs, 2, 4) == _brute_solutions(eqs, 2, 4)
    eqs = [([2, 1, 0], 0), ([0, 2, 1], 0)]
    assert solve_mod(eqs, 3, 8) == _brute_solutions(eqs, 3, 8)
    # free variables enumerate the whole modulus
    assert solve_mod([], 1, 6) == [(k,) for k in range(6)]
    # over Z/1 every system has exactly the zero solution
    assert solve_mod([([1, 1], 1)], 2, 1) == [(0, 0)]
    # pivot equal to the entry: ext_gcd(3, 3) is (3, 0, 1), so the pivot row stays
    eqs = [([3, 1], 1), ([3, 2], 2)]
    assert solve_mod(eqs, 2, 6) == _brute_solutions(eqs, 2, 6)
    # coprime non-units: the transform reaches the unit gcd(2, 3)
    assert solve_mod([([2], 0), ([3], 0)], 1, 6) == [(0,)]
    # zero unknowns: 0 = 1 has no solution, the empty system the empty one
    assert solve_mod([([], 1)], 0, 6) == []
    assert solve_mod([], 0, 6) == [()]


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 8), st.integers(1, 3), st.data())
def test_solve_mod_matches_brute_force(N, n, data):
    rows = data.draw(st.lists(
        st.tuples(st.lists(st.integers(-N, N), min_size=n, max_size=n),
                  st.integers(-N, N)),
        max_size=4))
    eqs = [(list(r), rhs) for r, rhs in rows]
    assert solve_mod(eqs, n, N) == _brute_solutions(eqs, n, N)


@st.composite
def _redundant_sparse_system(draw):
    """Rows with at most 3 nonzeros, plus repeats and combinations of them.

    With a planted solution the right-hand sides are consistent, so solution
    sets are often nonempty.
    """
    N = draw(st.sampled_from((8, 12, 36)))
    n = draw(st.integers(1, {8: 4, 12: 3, 36: 2}[N]))
    planted = draw(st.none() | st.lists(st.integers(0, N - 1), min_size=n, max_size=n))
    base = []
    for row in draw(st.lists(st.dictionaries(st.integers(0, n - 1), st.integers(-N, N),
                                             max_size=3), min_size=1, max_size=4)):
        rhs = (draw(st.integers(0, N - 1)) if planted is None
               else sum(c * planted[j] for j, c in row.items()))
        base.append((row, rhs))
    rows = list(base)
    for _ in range(draw(st.integers(0, 10))):
        (r1, b1), (r2, b2) = draw(st.sampled_from(base)), draw(st.sampled_from(base))
        a, c = draw(st.integers(-N, N)), draw(st.integers(-N, N))
        rows.append(({j: a * r1.get(j, 0) + c * r2.get(j, 0) for j in r1.keys() | r2.keys()},
                     a * b1 + c * b2))
    return N, n, rows, draw(st.permutations(rows))


@settings(max_examples=80, deadline=None)
@given(_redundant_sparse_system())
def test_solve_mod_sparse_redundant_rows(system):
    N, n, rows, shuffled = system

    def dense(sparse):
        return [([r.get(j, 0) for j in range(n)], b) for r, b in sparse]

    expected = _brute_solutions(dense(rows), n, N)
    assert solve_mod(dense(rows), n, N) == expected
    assert solve_mod(dense(shuffled), n, N) == expected
