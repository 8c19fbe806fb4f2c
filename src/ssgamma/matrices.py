"""Matrices over Q_p as scaled integer rows: the I+ row test and the
per-point row tests of the integrands, plus the one exact linear solver.

A scaled row is a pair (nums, den), a list of ints and a nonzero int,
with entries nums[c] / den.  The I+ test is a set of congruences on the
integers alone.  Every integrand of integrals.py is, at its one coset
index, a lower-triangular matrix m of its inner point times a diagonal
torus element D of its outer point, and its Whittaker value is zeta^i
exactly when every row of m D (SO) or D m (GL) lies in I+
(integrals.py states the lemma).  coset_decompose and
coset_decompose_gl are those row tests.  The dense engine that builds
group elements, the named elements of the integrands and the Fraction
factorization of any matrix into U g_chi^i I+ are in tests/oracles.py,
the reference the row builders and these tests are checked against.

I+ (the pro-unipotent radical of the standard Iwahori) is the row test
row_in_iplus: integral, in p below the diagonal and in 1 + p on it; the
same predicate serves SO_(2l+1) and GL_n.
"""

from __future__ import annotations

from fractions import Fraction

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
# the per-point row tests of the integrands


def so_torus(d, n):
    """The diagonal of h(d) = diag(d, 1, ..., 1, 1/d) in SO_n, as a scaled
    row over one denominator."""
    dn, dd = d.numerator, d.denominator
    return [dn * dn] + [dn * dd] * (n - 2) + [dd * dd], dn * dd


def coset_decompose(rows, diag, p):
    """The rows of m h(d), m given by its scaled rows and diag =
    so_torus(d, n), when each lies in I+, or None.  The rows are tested
    bottom-up and the first outside I+ ends the test: most points of a
    brute-force window fail at the bottom row."""
    dn, dd = diag
    out = []
    for r in range(len(rows) - 1, -1, -1):
        nums, den = rows[r]
        row = [x * e for x, e in zip(nums, dn)], den * dd
        if not row_in_iplus(r, row, p):
            return None
        out.append(row)
    return out[::-1]


def coset_decompose_gl(rows, d, p, first=0):
    """Rows first, ..., len(rows) - 1 of d k, k given by its scaled rows
    and d a nonzero Fraction, when each lies in I+, or None; tested
    bottom-up like coset_decompose."""
    dn, dd = d.numerator, d.denominator
    out = []
    for r in range(len(rows) - 1, first - 1, -1):
        nums, den = rows[r]
        row = [x * dn for x in nums], den * dd
        if not row_in_iplus(r, row, p):
            return None
        out.append(row)
    return out[::-1]
