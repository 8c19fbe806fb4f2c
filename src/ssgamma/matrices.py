"""Matrices over Q_p as scaled integer rows: the I+ row test, right
multiplication by the normalizers g_chi as a map on one row, the one
exact elimination, and the double-coset solvers behind the explicit
Whittaker functions.

A scaled row is a pair (nums, den), a list of ints and a nonzero int,
with entries nums[c] / den.  The solvers take the rows of g in this form
and work on the integers alone: the row maps and the elimination scale
numerators and denominators, and the I+ test is a set of congruences.
The factors come back as scaled rows, each reduced (the gcd of its
numerators and den is 1, and den > 0), the one such form of a row; the
evaluators of integrals.py make Fractions of the entries they read.

Both coset solvers rest on one factorization, eliminate_u_iplus: the
unique m = u k with u unit upper triangular and k lower triangular with
its rows in I+, built by back-substitution from the bottom row up.  The
solvers never form m = g g_chi^(-i) (or g g_chi^(-j) / z) in full: they
hand the elimination a generator that maps one row of g at a time, and
the elimination asks for the next row only after the last one passed
the I+ test.  Most points of a brute-force domain fail at the bottom row,
so they cost one mapped row, not N.

The SO solver tries i = 0, then i = 1.  The GL solver runs one
elimination, at the one j that can put the bottom row of m in I+, read
off the valuations of the bottom row of g (coset_decompose_gl).  That j,
the scalar z and the bottom row of k depend on the bottom row of g
alone: they are the bottom step (_gl_bottom_step), which a caller whose
points share a bottom row makes once and hands to every solver call.

Each solver returns the factors it computes, of g g_chi^(-i) = u k
(SO) or g g_chi^(-j) = z u k (GL).  Since g_chi normalizes I+, g is then
(z) u g_chi^i k' with k' = g_chi^(-i) k g_chi^i in I+, and the
evaluators of integrals.py read chi(k') off k without forming k'.  The
dense engine that builds group elements (GroupMatrix, so_check, the
determinant, g_chi_so, g_chi_gl), the named elements of the integrands,
the random samplers and the Fraction elimination these solvers replaced
are in tests/oracles.py, where they are the reference for the row
builders of integrals.py and for the solvers.

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
from math import gcd

F0 = Fraction(0)
F1 = Fraction(1)


class MatrixError(Exception):
    pass


class SingularMatrix(MatrixError):
    pass


# ---------------------------------------------------------------------------
# plain Fraction matrix helpers (row-major lists of lists)


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
    m = [list(row) + [F1 if c == r else F0 for c in range(n)] for r, row in enumerate(a)]
    _gauss_jordan(m, n)
    return [row[n:] for row in m]


def _solve_row(bmat, v):
    """The row c with c . B = v, exactly (the system B^T c^T = v^T)."""
    n = len(bmat)
    m = [[bmat[r][c] for r in range(n)] + [v[c]] for c in range(n)]
    _gauss_jordan(m, n)
    return [row[n] for row in m]


def row_in_iplus(r, row, p) -> bool:
    """The I+ test on the scaled row r, as congruences: with p^e the power
    of p in den, the diagonal numerator is den mod p^(e+1), those left of
    it are 0 mod p^(e+1) and those right of it 0 mod p^e."""
    nums, den = row
    d, q = den, 1
    while d and not d % p:  # den = 0 is no row, but must not loop forever
        d //= p
        q *= p
    qp = q * p
    if (nums[r] - den) % qp:
        return False
    for x in nums[:r]:
        if x % qp:
            return False
    if q > 1:
        for x in nums[r + 1 :]:
            if x % q:
                return False
    return True


# ---------------------------------------------------------------------------
# right multiplication by g_chi, one scaled row at a time


def row_times_g_chi_so(row, p):
    """A row of m g_chi_so (= m g_chi_so^(-1)), from that row of m: entry
    1 <- p * entry N, entry N <- entry 1 / p, the middle entries negated,
    all over den * p."""
    nums, den = row
    return [p * p * nums[-1], *[-p * x for x in nums[1:-1]], nums[0]], den * p


def row_times_g_chi_gl_inv(row, j, pn, pd, p):
    """A row of m g_chi_gl^(-j) / z, with p z = pn / pd, from that row of
    m: the entries rotated j places left, the j that wrap round divided
    by p z (numerators times pd) and the others by z (times p pd), all
    over den * pn.  (g_chi_gl sends e_(c+1) to e_c and e_1 to p e_N, so
    its inverse does the reverse.)"""
    nums, den = row
    ppd = p * pd
    return [x * ppd for x in nums[j:]] + [x * pd for x in nums[:j]], den * pn


# ---------------------------------------------------------------------------
# the U * I+ factorization


def _reduced(nums, den):
    """The scaled row divided by the gcd of its numerators and den, signed
    so that den > 0: the one reduced form of the row."""
    g = gcd(*nums, den)
    if den < 0:
        g = -g
    return (nums, den) if g == 1 else ([x // g for x in nums], den // g)


def eliminate_u_iplus(rows, n, p, bottom=None):
    """Factor an n x n matrix m = u k in GL_n(F): u unit upper triangular,
    k lower triangular with every row in I+; None when m is outside
    U * I+.

    rows yields the scaled rows of m bottom-up, m[n-1] first, and is read
    only as far as the elimination gets.  When bottom is given it is row
    n-1 of k, already tested and reduced (the bottom row of k is that of
    m), and rows starts at m[n-2].  The factors are unique, and
    back-substitution builds them bottom-up.  Row r of k is m[r] less
    u[r][c] times row c of k, for each c > r.  Row c of k ends at its
    diagonal, which lies in 1 + p, so taking c from the last column
    leftwards, u[r][c] is the one multiple that clears column c.  For the
    entry x / den and the row (kn, kd) of k, with d = kn[c], that is
    nums <- nums d - x kn and den <- den d, and u[r][c] = x kd / (den d):
    u's numerators are scaled by d beside m's, so the two share den.
    Row r must pass the I+ test before the next row is read, so a matrix
    that fails at row r costs only the rows r..n-1.  Each accepted row
    is reduced, which bounds the integers.  Returns (u, k) as lists of
    scaled rows, or None.
    """
    k = [None] * n
    u = [None] * n
    k[n - 1] = bottom
    for r, (nums, den) in zip(range(n - 1 if bottom is None else n - 2, -1, -1), rows):
        unums = None
        for c in range(n - 1, r, -1):
            x = nums[c]
            if x:
                kn, kd = k[c]
                d = kn[c]
                nums = [a * d - x * b for a, b in zip(nums, kn)]
                den *= d
                unums = [0] * n if unums is None else [a * d for a in unums]
                unums[c] = x * kd
        if not row_in_iplus(r, (nums, den), p):
            return None
        k[r] = _reduced(nums, den)
        if unums is not None:
            unums[r] = den
            u[r] = _reduced(unums, den)
    return [row or ([0] * r + [1] + [0] * (n - 1 - r), 1) for r, row in enumerate(u)], k


def coset_decompose(rows, p):
    """Factor g in SO_(2l+1), given by its scaled rows, as g g_chi^(-i) =
    u k: i in {0, 1}, u unit upper triangular and k lower triangular in
    I+.  Returns (u, i, k) with u and k as lists of reduced scaled rows,
    or None when g lies in neither double coset U g_chi^i I+.

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


def _gl_bottom_step(row, p):
    """The GL solver's step at the bottom row l = (nums, den) of g, a
    function of l alone: (j, pn, den, k_bottom), with j the one j that
    can put the bottom row of m = g g_chi^(-j) / z in I+, p z = pn / den,
    and k_bottom that row of m, tested and reduced, which is the bottom
    row of k; None when l is all zero or that row fails the test.  (A
    nonzero l never fails it: the one j puts 1 on the diagonal and the
    rest in p.  The test stays, so that every row of k is tested.)

    The rule for j (see coset_decompose_gl): j = (i0 + 1) mod n, i0 the
    leftmost index of least valuation in l, read off its numerators, since
    den shifts every valuation alike; p z is l[j-1] at j >= 1 and
    p l[n-1] at j = 0."""
    last, den = row
    least = None
    for c, x in enumerate(last):
        if x:
            v = 0
            while not x % p:
                x //= p
                v += 1
            if least is None or v < least:
                least, i0 = v, c
    if least is None:
        return None
    n = len(last)
    j = (i0 + 1) % n
    pn = last[i0] if j else p * last[i0]
    nums, mden = row_times_g_chi_gl_inv(row, j, pn, den, p)
    if not row_in_iplus(n - 1, (nums, mden), p):
        return None
    return j, pn, den, _reduced(nums, mden)


def coset_decompose_gl(rows, p, bottom=None):
    """Factor g in GL_n, given by its scaled rows, as g g_chi^(-j) =
    z u k: j in 0..n-1, z a nonzero scalar, u unit upper triangular and k
    lower triangular in I+.  Returns (u, j, z, k), z a Fraction and u and
    k lists of reduced scaled rows, or None when g lies in no double
    coset U g_chi^j Z I+.

    At most one j can put the bottom row of m = g g_chi^(-j) / z in I+,
    and the bottom row l of g names it before any division:
      - for j >= 1 that row is l[j..n-1] / z then l[0..j-1] / (p z), with
        z = l[j-1] / p on its diagonal; for j = 0 it is l / z, z = l[n-1];
      - its off-diagonal entries lie in p iff l[j-1 mod n] has the least
        valuation, strictly less than every entry to its left and no
        greater than any entry to its right;
      - so j = (i0 + 1) mod n, i0 the leftmost index of least valuation
        in l, and an all-zero l has none.
    That choice, p z, and the mapped, tested and reduced bottom row of m
    are the bottom step (_gl_bottom_step), a function of l alone: bottom
    is that step computed ahead, for the rows of any g with that bottom
    row, and it is computed here from rows[-1] when absent.  A step of
    None is computed again, so bottom changes no result.  One elimination
    then runs, at that j, from row n-2 up with the bottom row of k given;
    it tests every row it reads and the step tested the bottom one, so
    the choice never decides a verdict.  Each row of m is a column
    rotation of that row of g (row_times_g_chi_gl_inv), built bottom-up
    only as the elimination reads it, so no call inverts or multiplies by
    g_chi."""
    if bottom is None:
        bottom = _gl_bottom_step(rows[-1], p)
        if bottom is None:
            return None
    j, pn, den, k_bottom = bottom
    n = len(rows)
    mapped = (row_times_g_chi_gl_inv(rows[r], j, pn, den, p) for r in range(n - 2, -1, -1))
    res = eliminate_u_iplus(mapped, n, p, k_bottom)
    if res is None:
        return None
    u, k = res
    return u, j, Fraction(pn, den * p), k
