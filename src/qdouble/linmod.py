"""Small exact linear algebra kernels, one elimination per ring.

Over a prime field F_p (the character-table engine): reduced row echelon
form, which also gives nullspaces, and the characteristic polynomial by
Faddeev-LeVerrier, which needs only matrix products and traces.

Over Z/N for composite N (the bicharacter enumeration): solve_mod reduces
augmented rows [coefficients, rhs] with one unimodular Bezout transform per
step, brings them to Howell form and enumerates the solutions by back
substitution.
"""

from __future__ import annotations

from math import gcd
from collections.abc import Iterable, Sequence


# -- elementary number theory ---------------------------------------------------


def factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    f = 2
    while f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def smallest_prime_one_mod(N: int, lower_bound: int) -> int:
    """Smallest prime p with p ≡ 1 (mod N) and p > lower_bound.

    An odd p with 2^(p-1) != 1 (mod p) is composite by Fermat, so it is
    skipped without factorizing; factorize decides every other candidate.
    """
    p = (lower_bound // N) * N + 1
    while p <= lower_bound or (p % 2 and pow(2, p - 1, p) != 1) or factorize(p) != {p: 1}:
        p += N
    return p


def primitive_root(p: int) -> int:
    """Smallest primitive root mod a prime p."""
    if p == 2:
        return 1
    fac = factorize(p - 1)
    for r in range(2, p):
        if all(pow(r, (p - 1) // q, p) != 1 for q in fac):
            return r
    raise ValueError(f"no primitive root found for {p}")


def ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with a*x + b*y = g = gcd(a, b)."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


# -- dense F_p linear algebra -----------------------------------------------------


def mat_mul_mod(A: Sequence[Sequence[int]], B: Sequence[Sequence[int]], p: int) -> list[list[int]]:
    rows, inner, cols = len(A), len(B), len(B[0])
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        Ai = A[i]
        Oi = out[i]
        for k in range(inner):
            a = Ai[k]
            if a:
                Bk = B[k]
                for j in range(cols):
                    Oi[j] = (Oi[j] + a * Bk[j]) % p
    return out


def rref_mod(A: Sequence[Sequence[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form over F_p; returns (matrix, pivot column list)."""
    M = [list(row) for row in A]
    rows = len(M)
    cols = len(M[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if M[i][c] % p), None)
        if pivot_row is None:
            continue
        M[r], M[pivot_row] = M[pivot_row], M[r]
        inv = pow(M[r][c], p - 2, p)
        M[r] = [(x * inv) % p for x in M[r]]
        for i in range(rows):
            if i != r and M[i][c]:
                f = M[i][c]
                M[i] = [(x - f * y) % p for x, y in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return M[:r], pivots


def nullspace_mod(A: Sequence[Sequence[int]], p: int) -> list[list[int]]:
    """Row basis of the right nullspace {v : A v = 0} over F_p."""
    rows = len(A)
    cols = len(A[0]) if rows else 0
    R, pivots = rref_mod(A, p)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = [0] * cols
        v[f] = 1
        for r, c in enumerate(pivots):
            v[c] = (-R[r][f]) % p
        basis.append(v)
    return basis


def charpoly_mod(A: Sequence[Sequence[int]], p: int) -> list[int]:
    """Coefficients of det(x*I - A) over F_p, low degree first, by Faddeev-LeVerrier.

    With M_0 = 0 and c_n = 1, step k sets M_k = A M_{k-1} + c_{n-k+1} I and
    c_{n-k} = -tr(A M_k) / k; every k <= n is invertible because n < p.
    """
    n = len(A)
    if n >= p:
        raise ValueError(f"Faddeev-LeVerrier divides by {n}, which needs a prime above it")
    c = [0] * n + [1]
    AM = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        M = [[v + c[n - k + 1] * (i == j) for j, v in enumerate(row)] for i, row in enumerate(AM)]
        AM = mat_mul_mod(A, M, p)
        c[n - k] = -sum(AM[i][i] for i in range(n)) * pow(k, -1, p) % p
    return c


def poly_roots_mod(coeffs: Sequence[int], p: int) -> list[int]:
    """All roots in F_p of the polynomial with the given coefficients (low first)."""
    roots = []
    for x in range(p):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % p
        if acc == 0:
            roots.append(x)
    return roots


# -- linear systems over Z/N --------------------------------------------------------


def solve_mod(equations: Iterable[tuple[Sequence[int], int]],
              n_unknowns: int, N: int) -> list[tuple[int, ...]]:
    """All solutions in (Z/N)^n of the given (coefficients, rhs) equations, sorted.

    Coefficients are a dense sequence. Works for arbitrary composite N. Each
    equation becomes an augmented row [c_0, ..., c_{n-1}, rhs] mod N and is
    reduced at its least nonzero column c: it becomes the pivot row of c, or
    the pair (pivot row, row) is replaced by the unimodular transform that
    puts the gcd of their entries at c in the pivot and 0 in the row. A row that
    vanishes on the coefficients with a nonzero last entry is inconsistent.
    The rows are then brought to Howell form: for the pivot row at column c
    with pivot p, (N / gcd(p, N)) times the row vanishes at c and is inserted
    too, in ascending order of c, so it lies in the span of the rows pivoted
    after c.
    Hence every assignment to the columns after c that satisfies their rows
    extends to column c, and back substitution from the last column
    enumerates the solutions without dead ends.
    """
    n = n_unknowns
    pivots: list[list[int] | None] = [None] * n

    def insert(row: list[int]) -> bool:
        """Reduce one augmented row into the pivots; False if it ends as 0 = t, t != 0."""
        c = 0
        while True:
            for c in range(c, n):
                if row[c]:
                    break
            else:
                return not row[n]
            prow = pivots[c]
            if prow is None:
                pivots[c] = row
                return True
            # pivot row -> x * pivot row + y * row, row -> (p * row - r * pivot row) / g;
            # y = 0 exactly when p divides r (ext_gcd(6, 2) is (2, 0, 1)), and then
            # x = 1, so the pivot row stays as it is
            g, y, x = ext_gcd(row[c], prow[c])
            fp, fr = prow[c] // g, row[c] // g
            if y:
                pivots[c] = [(x * a + y * b) % N for a, b in zip(prow, row)]
            row = [(fp * b - fr * a) % N for a, b in zip(prow, row)]

    for coeffs, rhs in equations:
        if not insert([v % N for v in coeffs] + [rhs % N]):
            return []
    # the inserted rows vanish at c, so they only touch pivots after c
    for c in range(n):
        if (row := pivots[c]) is not None:
            a = N // gcd(row[c], N)
            if not insert([a * v % N for v in row]):
                return []
    # back substitution from the last column: column c solves p x_c = t (mod N),
    # which has gcd(p, N) solutions; a free column is p = 0, so it takes all N
    partial = [[0] * n]
    for c in reversed(range(n)):
        row = pivots[c] or [0] * (n + 1)
        g, u, _ = ext_gcd(row[c], N)
        step = N // g
        rest = [(j, v) for j, v in enumerate(row[c + 1:n], c + 1) if v]
        extended = []
        for x in partial:
            t = (row[n] - sum(v * x[j] for j, v in rest)) % N
            if t % g:
                raise AssertionError(f"dead end at column {c}: rows not in Howell form")
            x[c] = u * (t // g) % step
            extended.append(x)
            for v in range(x[c] + step, N, step):
                y = x.copy()
                y[c] = v
                extended.append(y)
        partial = extended
    return sorted(map(tuple, partial))
