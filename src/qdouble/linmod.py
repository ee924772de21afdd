"""Small exact linear algebra kernels.

Two independent pieces: dense linear algebra over a prime field F_p (used by
the character-table engine) and a solver for linear systems over Z/N (used for
the bicharacter enumeration).
"""

from __future__ import annotations

from math import gcd
from collections.abc import Iterable, Sequence


# -- elementary number theory ---------------------------------------------------


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


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
    """Smallest prime p with p ≡ 1 (mod N) and p > lower_bound."""
    p = (lower_bound // N) * N + 1
    while p <= lower_bound or not is_prime(p):
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


def det_mod(A: Sequence[Sequence[int]], p: int) -> int:
    M = [list(row) for row in A]
    n = len(M)
    det = 1
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if M[i][c] % p), None)
        if pivot_row is None:
            return 0
        if pivot_row != c:
            M[c], M[pivot_row] = M[pivot_row], M[c]
            det = (-det) % p
        det = (det * M[c][c]) % p
        inv = pow(M[c][c], p - 2, p)
        for i in range(c + 1, n):
            if M[i][c]:
                f = (M[i][c] * inv) % p
                M[i] = [(x - f * y) % p for x, y in zip(M[i], M[c])]
    return det % p


def charpoly_mod(A: Sequence[Sequence[int]], p: int) -> list[int]:
    """Coefficients of det(x*I - A) over F_p, low degree first, by interpolation."""
    n = len(A)
    if n + 1 > p:
        raise ValueError("field too small for interpolation")
    xs = list(range(n + 1))
    ys = []
    for x in xs:
        M = [[(x * (i == j) - A[i][j]) % p for j in range(n)] for i in range(n)]
        ys.append(det_mod(M, p))
    # Lagrange interpolation
    coeffs = [0] * (n + 1)
    for i, xi in enumerate(xs):
        # basis polynomial prod_{j != i} (x - xj) / (xi - xj)
        basis = [1]
        denom = 1
        for j, xj in enumerate(xs):
            if j == i:
                continue
            new = [0] * (len(basis) + 1)
            for k, c in enumerate(basis):
                new[k] = (new[k] - c * xj) % p
                new[k + 1] = (new[k + 1] + c) % p
            basis = new
            denom = (denom * (xi - xj)) % p
        scale = (ys[i] * pow(denom, p - 2, p)) % p
        for k, c in enumerate(basis):
            coeffs[k] = (coeffs[k] + scale * c) % p
    return coeffs


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


class _Echelon:
    """Incremental echelon form of sparse integer rows modulo N, with right-hand sides.

    A row is a dict {column: coefficient}, nonzero coefficients only; each
    pivot row is keyed by its least column.
    """

    def __init__(self, N: int):
        self.N = N
        self.pivot_rows: dict[int, tuple[dict[int, int], int]] = {}
        self.consistent = True

    def insert(self, row: dict[int, int], rhs: int) -> None:
        N = self.N
        while row:
            col = min(row)
            if col not in self.pivot_rows:
                self.pivot_rows[col] = (row, rhs)
                return
            prow, prhs = self.pivot_rows[col]
            pv, rv = prow[col], row[col]
            if rv % pv == 0:
                # subtract a multiple of the pivot row; the pivot row stays
                f = rv // pv
                for j, a in prow.items():
                    v = (row.get(j, 0) - f * a) % N
                    if v:
                        row[j] = v
                    else:
                        row.pop(j, None)
                rhs = (rhs - f * prhs) % N
                continue
            # unimodular 2x2 transform on the union of the supports: the new
            # pivot has entry gcd(pv, rv), the new row has 0
            g, x, y = ext_gcd(pv, rv)
            fp, fr = pv // g, rv // g
            new_p: dict[int, int] = {}
            new_r: dict[int, int] = {}
            for j in prow.keys() | row.keys():
                a, b = prow.get(j, 0), row.get(j, 0)
                if (u := (x * a + y * b) % N):
                    new_p[j] = u
                if (w := (fp * b - fr * a) % N):
                    new_r[j] = w
            self.pivot_rows[col] = (new_p, (x * prhs + y * rhs) % N)
            row, rhs = new_r, (fp * rhs - fr * prhs) % N
        if rhs:
            self.consistent = False


def solve_mod(equations: Iterable[tuple[Sequence[int], int]],
              n_unknowns: int, N: int) -> list[tuple[int, ...]]:
    """All solutions in (Z/N)^n of the given (coefficients, rhs) equations, sorted.

    Coefficients are a dense sequence. Works for arbitrary composite N. The
    rows are eliminated sparsely, then brought to Howell form: for the pivot
    row at column c with pivot p, (N / gcd(p, N)) times the row vanishes at c
    and is inserted too, in ascending order of c, so it lies in the span of
    the rows pivoted after c.
    Hence every assignment to the columns after c that satisfies their rows
    extends to column c, and back substitution from the last column
    enumerates the solutions without dead ends.
    """
    ech = _Echelon(N)
    for row, rhs in equations:
        ech.insert({j: c % N for j, c in enumerate(row) if c % N}, rhs % N)
        if not ech.consistent:
            return []
    n = n_unknowns
    # the inserted rows vanish at c, so they only touch pivots after c
    for c in range(n):
        if c in ech.pivot_rows:
            row, rhs = ech.pivot_rows[c]
            a = N // gcd(row[c], N)
            ech.insert({j: a * v % N for j, v in row.items() if a * v % N}, a * rhs % N)
            if not ech.consistent:
                return []
    # back substitution from the last column: column c solves p x_c = t (mod N),
    # which has gcd(p, N) solutions; a free column is p = 0, so it takes all N
    partial = [[0] * n]
    for c in reversed(range(n)):
        row, rhs = ech.pivot_rows.get(c, ({}, 0))
        g, u, _ = ext_gcd(row.get(c, 0), N)
        step = N // g
        rest = [(j, v) for j, v in row.items() if j != c]
        extended = []
        for x in partial:
            t = (rhs - sum(v * x[j] for j, v in rest)) % N
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
