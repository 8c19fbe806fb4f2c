"""Matrices over Q_p as scaled integer rows: the I+ row test, right
multiplication by g_chi_gl^(-j) as a map on one row, the one exact
factorization, and the double-coset solvers behind the explicit
Whittaker functions.

A scaled row is a pair (nums, den), a list of ints and a nonzero int,
with entries nums[c] / den.  The solvers take the rows of g in this form
and work on the integers alone: the row map and the factorization scale
numerators and denominators, and the I+ test is a set of congruences.
The factors come back as scaled rows, each reduced (the gcd of its
numerators and den is 1, and den > 0), the one such form of a row; the
evaluators of integrals.py make Fractions of the entries they read.

Both coset solvers rest on one factorization, factor_u_k: the unique
m = u k with u unit upper triangular and k lower triangular, built by
back-substitution from the bottom row up, with no I+ test.  Every
integrand of integrals.py, times g_chi^(-i) at its one coset index i,
is a fixed matrix m of its inner point times a diagonal torus element D
of its outer point: m D on SO and D m on the JPSS sides.  The factors
are then those of m with k scaled by D: m D = u (k D) and D m =
(D u D^(-1)) (D k).  So m is factored once (on GL at the one j its
bottom row names, gl_coset), and each point tests the rows of the
scaled k, bottom-up, with the one I+ test (_torus_k).  Most points of a
brute-force domain fail at the bottom row, so they cost one scaled row.
A zero pivot of m rejects every D at once.

On SO, with h(d) = diag(d, 1, ..., 1, 1/d), Phi(z, y) = m(y) h(z) and
Phi*(z, y) g_chi = Phi(p z, -y), so no row is mapped by g_chi.  The
corner of u k, that of k, is in 1 + p for k in I+, and Phi g_chi and
Phi* have 0 there: a Phi point lies only in U I+ and a Phi* point only
in U g_chi I+ (integrals._so_buckets).

Each solver returns the factors of g g_chi^(-i) = u k (SO) or
g g_chi^(-j) = z u k (GL).  Since g_chi normalizes I+, g is then
(z) u g_chi^i k' with k' = g_chi^(-i) k g_chi^i in I+, and the
evaluators of integrals.py read chi(k') off k without forming k'.  The
dense engine that builds group elements (GroupMatrix, so_check, the
determinant, g_chi_so, g_chi_gl), the named elements of the integrands,
the random samplers and the Fraction elimination these solvers replaced
are in tests/oracles.py, where they are the reference for the row
builders of integrals.py and for the solvers.

Conventions: SO_m is defined by det = 1 and tg J g = J with J the
antidiagonal of ones.  I+ (the pro-unipotent radical of the standard
Iwahori) is the row test row_in_iplus, which the solvers run on each
row of k: integral, in p below the diagonal and in 1 + p on it; the
same predicate serves SO_(2l+1) and GL_n.
g_chi_so is the involution with pi^(-1) and pi in the outer corners and
-1 between them on the diagonal; g_chi_gl has ones on the superdiagonal
and pi in the lower-left corner.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

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
# right multiplication by g_chi_gl^(-j), one scaled row at a time


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
# the U * k factorization, and the I+ test of its torus-scaled rows


def _reduced(nums, den):
    """The scaled row divided by the gcd of its numerators and den, signed
    so that den > 0: the one reduced form of the row."""
    g = gcd(*nums, den)
    if den < 0:
        g = -g
    return (nums, den) if g == 1 else ([x // g for x in nums], den // g)


def factor_u_k(rows):
    """The unique m = u k of an n x n matrix m, given by its scaled rows:
    u unit upper triangular and k lower triangular, as lists of reduced
    scaled rows, with no I+ test; None at a zero pivot k[r][r].

    Back-substitution builds the factors bottom-up.  Row r of k is m[r]
    less u[r][c] times row c of k, for each c > r.  Row c of k ends at its
    pivot, so taking c from the last column leftwards, u[r][c] is the one
    multiple that clears column c.  For the entry x / den and the row
    (kn, kd) of k, with d = kn[c], that is nums <- nums d - x kn and
    den <- den d, and u[r][c] = x kd / (den d): u's numerators are scaled
    by d beside m's, so the two share den.  Each row is reduced, which
    bounds the integers.  A zero pivot ends it: a k in I+ has its pivots
    in 1 + p, and the factors of m D or D m, for D diagonal, are those of
    m with k scaled by D (_torus_k), whose pivots are k's scaled, so then
    no such product lies in U * I+."""
    n = len(rows)
    k = [None] * n
    u = [None] * n
    for r in range(n - 1, -1, -1):
        nums, den = rows[r]
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
        if not nums[r]:
            return None
        k[r] = _reduced(nums, den)
        if unums is not None:
            unums[r] = den
            u[r] = _reduced(unums, den)
    return [row or ([0] * r + [1] + [0] * (n - 1 - r), 1) for r, row in enumerate(u)], k


def _torus_k(k, diag, p, left):
    """The rows of k D, or of D k when left, D the diagonal matrix whose
    diagonal is the scaled row diag, each tested (row_in_iplus)
    bottom-up and reduced; None at the first row outside I+.  Both are
    lower triangular with the pivots of k scaled, so with the u of k they
    are the factors of m D = u (k D) and D m = (D u D^(-1)) (D k)."""
    dn, dd = diag
    out = []
    for r in range(len(k) - 1, -1, -1):
        nums, den = k[r]
        row = [x * dn[r] for x in nums] if left else [x * e for x, e in zip(nums, dn)], den * dd
        if not row_in_iplus(r, row, p):
            return None
        out.append(row)
    return [_reduced(*row) for row in reversed(out)]


def so_torus(d, n):
    """The diagonal of h(d) = diag(d, 1, ..., 1, 1/d) in SO_n, as a scaled
    row over one denominator."""
    dn, dd = d.numerator, d.denominator
    return [dn * dn] + [dn * dd] * (n - 2) + [dd * dd], dn * dd


def coset_decompose(factors, diag, p):
    """Factor g = m h(d) in SO_(2l+1) as g = u k: u unit upper triangular
    and k lower triangular in I+.  Returns (u, k) as lists of reduced
    scaled rows, or None when g is not in U I+.

    factors is factor_u_k(m), None at a zero pivot, and diag is
    so_torus(d, 2l + 1).  With m = u k, g = u (k h(d)), by uniqueness its
    factors, so g is in U I+ iff every row of k h(d) is in I+ (_torus_k).
    Its callers pass the integrand times g_chi^(-i) as g, i its one coset
    index.  The factors lie in SO: g -> g* = J tg^(-1) J fixes SO, sends
    unit upper triangular to unit upper triangular and lower triangular to
    lower triangular.  So for g in SO, its factors u* k* are again its
    factorization, and by uniqueness u* = u and k* = k."""
    if factors is None:
        return None
    k = _torus_k(factors[1], diag, p, False)
    return None if k is None else (factors[0], k)


def gl_coset(rows, p):
    """(j, z, factor_u_k(m g_chi^(-j) / z)) for m in GL_n given by its
    scaled rows, with j the one j that can put the bottom row of
    m g_chi^(-j) / z in I+ and z the bottom-right entry of m g_chi^(-j);
    None when the bottom row l is zero or a pivot is.

    At most one j can put that row in I+, and l names it before any
    division:
      - for j >= 1 that row is l[j..n-1] / z then l[0..j-1] / (p z), with
        z = l[j-1] / p on its diagonal; for j = 0 it is l / z, z = l[n-1];
      - its off-diagonal entries lie in p iff l[j-1 mod n] has the least
        valuation, strictly less than every entry to its left and no
        greater than any entry to its right;
      - so j = (i0 + 1) mod n, i0 the leftmost index of least valuation
        in l, read off its numerators (den shifts every valuation alike),
        and an all-zero l has none.
    Each row of m g_chi^(-j) / z is a column rotation of that row of m
    (row_times_g_chi_gl_inv), so nothing inverts or multiplies by g_chi.
    coset_decompose_gl tests every row of k, the bottom one included, so
    the choice never decides a verdict."""
    last, den = rows[-1]
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
    factors = factor_u_k([row_times_g_chi_gl_inv(row, j, pn, den, p) for row in rows])
    return None if factors is None else (j, Fraction(pn, den * p), factors)


def coset_decompose_gl(coset, diag, p):
    """Factor g = D m in GL_n as g g_chi^(-j) = z u k: j in 0..n-1, z a
    nonzero scalar, u unit upper triangular and k lower triangular in
    I+.  Returns (u, j, z, k), z a Fraction and u and k lists of reduced
    scaled rows, or None when g lies in no double coset U g_chi^j Z I+.

    coset is gl_coset(m) and diag the diagonal of D, a scaled row, with
    D[n-1] = 1: g then has the bottom row of m, which names j and z, and
    g g_chi^(-j) / z = D u k = (D u D^(-1)) (D k), the factorization when
    every row of D k is in I+ (_torus_k).  D u D^(-1) has u[r][c] times
    D[r] / D[c]."""
    if coset is None:
        return None
    j, z, (u, k) = coset
    k = _torus_k(k, diag, p, True)
    if k is None:
        return None
    dn = diag[0]
    m = lcm(*dn)
    u = [_reduced([x * e * (m // f) for x, f in zip(nums, dn)], den * m) for (nums, den), e in zip(u, dn)]
    return u, j, z, k
