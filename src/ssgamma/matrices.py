"""Matrices over Q_p as row lists of Fractions: the I+ row test,
right multiplication by the normalizers g_chi as a map on one row, the
one exact elimination, and the double-coset solvers behind the explicit
Whittaker functions.

Both coset solvers rest on one factorization, eliminate_u_iplus: the
unique m = u k with u unit upper triangular and k lower triangular with
its rows in I+, built by back-substitution from the bottom row up.  The
solvers never form m = g g_chi^(-i) (or g g_chi^(-j) / z) in full: they
hand the elimination a generator that maps one row of g at a time, and
the elimination asks for the next row only after the last one passed
the I+ test.  Most points of a brute-force domain fail at the bottom row,
so they cost one mapped row, not N.

The SO solver tries i = 0, then i = 1.  The GL solver runs one
elimination, at the one j that can put the bottom row of m in I+:
  - for j >= 1 that row is l[j..n-1] / z then l[0..j-1] / (p z), with
    l the bottom row of g and z = l[j-1] / p on its diagonal; for j = 0
    it is l / z with z = l[n-1];
  - its off-diagonal entries lie in p iff l[j-1 mod n] has the least
    valuation, strictly less than every entry to its left and no greater
    than any entry to its right;
  - so j = (i0 + 1) mod n, with i0 the leftmost index of least valuation
    in l; an all-zero l lies in no coset.

Each solver returns the factors it computes, of g g_chi^(-i) = u k
(SO) or g g_chi^(-j) = z u k (GL).  Since g_chi normalizes I+, g is then
(z) u g_chi^i k' with k' = g_chi^(-i) k g_chi^i in I+, and the
evaluators of integrals.py read chi(k') off k without forming k'.  The
dense engine that builds group elements (GroupMatrix, so_check, the
determinant, g_chi_so, g_chi_gl), the named elements of the integrands
and the random samplers are in tests/oracles.py, where their products
are the reference for the row builders of integrals.py.

Conventions: SO_m is defined by det = 1 and tg J g = J with J the
antidiagonal of ones.  I+ (the pro-unipotent radical of the standard
Iwahori) is the row test row_in_iplus, which the elimination runs on
each row of k: integral, in p below the diagonal and in 1 + p on it;
the same predicate serves SO_(2l+1) and GL_n.
g_chi_so is the involution with pi^(-1) and pi in the outer corners and
-1 between them on the diagonal; g_chi_gl has ones on the superdiagonal
and pi in the lower-left corner.
"""

from __future__ import annotations

from fractions import Fraction

from .padic import INF, rational_valuation

F0 = Fraction(0)
F1 = Fraction(1)


class MatrixError(Exception):
    pass


class SingularMatrix(MatrixError):
    pass


# ---------------------------------------------------------------------------
# plain Fraction matrix helpers (row-major lists of lists)


def mat_identity(n):
    rows = [[F0] * n for _ in range(n)]
    for i, row in enumerate(rows):
        row[i] = F1
    return rows


def _gauss_jordan(m, n):
    """Reduce the rows m = [B | C] (B the first n columns) in place to
    [I | B^(-1) C] by exact Gauss-Jordan elimination.  Raises
    SingularMatrix when B is singular."""
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            raise SingularMatrix("matrix is singular")
        m[col], m[piv] = m[piv], m[col]
        inv = F1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]


def mat_inv(a):
    n = len(a)
    m = [list(row) + e for row, e in zip(a, mat_identity(n))]
    _gauss_jordan(m, n)
    return [row[n:] for row in m]


def _solve_row(bmat, v):
    """The row c with c . B = v, exactly (the system B^T c^T = v^T)."""
    n = len(bmat)
    m = [[bmat[r][c] for r in range(n)] + [v[c]] for c in range(n)]
    _gauss_jordan(m, n)
    return [row[n] for row in m]


def row_in_iplus(r, row, p) -> bool:
    """The I+ test on row r: in p left of the diagonal, in 1 + p on it and
    integral right of it.  The shared F0 and F1 of the identity pass
    unread: most entries are one of them, and Fraction's tests are slow."""
    d = row[r]
    if d is not F1 and (d.denominator % p == 0 or (d.numerator - d.denominator) % p):
        return False
    for x in row[:r]:
        if x is not F0 and (x.denominator % p == 0 or x.numerator % p):
            return False
    for x in row[r + 1 :]:
        if x is not F0 and x.denominator % p == 0:
            return False
    return True


# ---------------------------------------------------------------------------
# right multiplication by g_chi, one row at a time


def row_times_g_chi_so(row, p):
    """A row of m g_chi_so (= m g_chi_so^(-1)), from that row of m: entry
    1 <- p * entry N, entry N <- entry 1 / p, the middle entries negated;
    zero entries are left alone."""
    a, b = row[0], row[-1]
    return [p * b if b else b, *[-x if x else x for x in row[1:-1]], a / p if a else a]


def row_times_g_chi_gl_inv(row, j, z, pz):
    """A row of m g_chi_gl^(-j) / z, from that row of m: the entries
    rotated j places left, the j that wrap round divided by pz = p z and
    the others by z; zero entries are left alone.  (g_chi_gl sends
    e_(c+1) to e_c and e_1 to p e_N, so its inverse does the reverse.)"""
    return [*[x / z if x else x for x in row[j:]], *[x / pz if x else x for x in row[:j]]]


# ---------------------------------------------------------------------------
# the U * I+ factorization


def eliminate_u_iplus(rows, n, p):
    """Factor an n x n matrix m = u k in GL_n(F): u unit upper triangular,
    k lower triangular with every row in I+; None when m is outside
    U * I+.

    rows yields the rows of m bottom-up, m[n-1] first, and is read only
    as far as the elimination gets.  The factors are unique, and
    back-substitution builds them bottom-up.  Row r of k is m[r] less
    u[r][c] times row c of k, for each c > r.  Row c of k ends at its
    diagonal, which lies in 1 + p, so taking c from the last column
    leftwards, u[r][c] is the one multiple that clears column c, and the
    entry it clears is set to 0 rather than computed.  Row r
    must pass the I+ test before the next row is read, so a matrix that
    fails at row r costs only the rows r..n-1.  u is built once all n rows
    pass.  Returns (u, k) as Fraction row-lists, or None.
    """
    k = [None] * n
    cleared = []
    for r, row in zip(range(n - 1, -1, -1), rows):
        row = list(row)
        for c in range(n - 1, r, -1):
            if row[c]:
                f = row[c] / k[c][c]
                cleared.append((r, c, f))
                kc = k[c]
                for j in range(c):
                    if kc[j]:
                        row[j] -= f * kc[j]
                row[c] = F0
        if not row_in_iplus(r, row, p):
            return None
        k[r] = row
    u = mat_identity(n)
    for r, c, f in cleared:
        u[r][c] = f
    return u, k


def coset_decompose(rows, p):
    """Factor g in SO_(2l+1), given by its rows, as g g_chi^(-i) = u k:
    i in {0, 1}, u unit upper triangular and k lower triangular in I+.
    Returns (u, i, k) as Fraction row-lists, or None when g lies in
    neither double coset U g_chi^i I+.

    Since g_chi normalizes I+, U g_chi^i I+ = U I+ g_chi^i, so g lies in
    it iff g g_chi^(-i) is in U I+, decided by eliminate_u_iplus; then
    g = u g_chi^i k' with k' = g_chi^(-i) k g_chi^i in I+.  g_chi is an
    involution, so a row of g g_chi^(-1) = g g_chi is a column map of that
    row of g (row_times_g_chi_so), and the rows are mapped bottom-up, only
    as the elimination reads them.  The factors lie in SO:
    g -> g* = J tg^(-1) J fixes SO, sends unit upper triangular to unit
    upper triangular and lower triangular to lower triangular.  So for
    m = g g_chi^i in SO, m = m* = u* k* is again the factorization of m,
    and by uniqueness u* = u and k* = k.
    """
    n = len(rows)
    for i in (0, 1):
        bottom_up = (row_times_g_chi_so(row, p) for row in reversed(rows)) if i else reversed(rows)
        res = eliminate_u_iplus(bottom_up, n, p)
        if res is not None:
            u, k = res
            return u, i, k
    return None


def coset_decompose_gl(rows, p):
    """Factor g in GL_n, given by its rows, as g g_chi^(-j) = z u k: j in
    0..n-1, z a nonzero scalar, u unit upper triangular and k lower
    triangular in I+.  Returns (u, j, z, k), or None when g lies in no
    double coset U g_chi^j Z I+.

    At most one j can put the bottom row of m = g g_chi^(-j) / z in I+,
    and the bottom row l of g names it before any division:
      - for j >= 1 that row is l[j..n-1] / z then l[0..j-1] / (p z), with
        z = l[j-1] / p on its diagonal; for j = 0 it is l / z, z = l[n-1];
      - its off-diagonal entries lie in p iff l[j-1 mod n] has the least
        valuation, strictly less than every entry to its left and no
        greater than any entry to its right;
      - so j = (i0 + 1) mod n, i0 the leftmost index of least valuation
        in l, and an all-zero l has none.
    So one elimination runs, at that j; it still tests every row it
    reads, the bottom one included, so the choice never decides a
    verdict.  Each row of m is a column rotation of that row of g
    (row_times_g_chi_gl_inv), built bottom-up only as the elimination
    reads it, so no call inverts or multiplies by g_chi.  The entries
    that wrap round are divided by p z = l[j-1], read off l, so each
    costs one division, not two."""
    n = len(rows)
    last = rows[n - 1]
    vals = [rational_valuation(x, p) for x in last]
    least = min(vals)
    if least == INF:
        return None
    j = (vals.index(least) + 1) % n
    pz = last[j - 1]  # p z; at j = 0 it is last[n - 1] = z, and no entry wraps
    z = pz / p if j else pz
    res = eliminate_u_iplus((row_times_g_chi_gl_inv(row, j, z, pz) for row in reversed(rows)), n, p)
    if res is None:
        return None
    u, k = res
    return u, j, z, k
