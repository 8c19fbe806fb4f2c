"""Matrices over Q_p: split odd orthogonal groups, the normalizers g_chi,
the I+ membership test, and the double-coset solvers behind the explicit
Whittaker functions.

Both coset solvers rest on one factorization, eliminate_u_iplus: the
unique m = u k with u unit upper triangular and k lower triangular with
its rows in I+, built by back-substitution.  The named elements of the
integrands (c_hat, delta_o, omega', embed_j, xbar, b_n, ...) and the
random samplers are in tests/oracles.py, where their products are the
reference for the sparse builders of integrals.py.

Conventions: SO_m is defined by det = 1 and tg J g = J with J the
antidiagonal of ones.  I+ (the pro-unipotent radical of the standard
Iwahori) is the entry test in_iplus: integral, in p below the diagonal
and in 1 + p on it; the same predicate serves SO_(2l+1) and GL_n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

F0 = Fraction(0)
F1 = Fraction(1)


class MatrixError(Exception):
    pass


class BadDimension(MatrixError):
    pass


class SingularMatrix(MatrixError):
    pass


class NotInGroup(MatrixError):
    pass


# ---------------------------------------------------------------------------
# plain Fraction matrix helpers (row-major lists of lists)


def mat_identity(n):
    return [[F1 if i == j else F0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    n, m, k = len(a), len(b[0]), len(b)
    out = [[F0] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            x = ai[t]
            if x:
                bt = b[t]
                for j in range(m):
                    if bt[j]:
                        oi[j] += x * bt[j]
    return out

def mat_transpose(a):
    return [list(col) for col in zip(*a)]


def _gauss_jordan(m, n):
    """Reduce the rows m = [B | C] (B the first n columns) in place to
    [I | B^(-1) C] by exact Gauss-Jordan elimination; returns det B.
    Raises SingularMatrix when B is singular."""
    det = F1
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            raise SingularMatrix("matrix is singular")
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = F1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return det


def mat_det(a):
    """Exact determinant; 0 for a singular matrix."""
    try:
        return _gauss_jordan([list(row) for row in a], len(a))
    except SingularMatrix:
        return F0


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


def mat_star(a):
    """The outer form involution g -> g* = J tg^(-1) J."""
    return [row[::-1] for row in reversed(mat_inv(mat_transpose(a)))]


def in_iplus(entries, p) -> bool:
    """The I+ test on ((row, col), x) pairs: x integral, in p below the
    diagonal, in 1 + p on it.  Entries not listed are those of the
    identity.  Integer checks on the reduced fraction, so v_p(x) >= 0 is
    p not dividing the denominator."""
    for (r, c), x in entries:
        den = x.denominator
        if not den % p:
            return False
        if r > c:
            if x.numerator % p:
                return False
        elif r == c and (x.numerator - den) % p:
            return False
    return True


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GroupMatrix:
    """A square matrix over Q_p tagged with its ambient group."""

    rows: tuple
    prime: int
    ambient: str  # "GL" | "SO_odd" | "SO_even"

    @staticmethod
    def make(rows, prime, ambient="GL", verify=True) -> "GroupMatrix":
        rows = tuple(tuple(Fraction(x) for x in r) for r in rows)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise BadDimension("matrix must be square")
        g = GroupMatrix(rows, prime, ambient)
        if verify:
            if ambient == "GL":
                if mat_det(g.lists()) == 0:
                    raise NotInGroup("GL matrix must be invertible")
            elif ambient in ("SO_odd", "SO_even"):
                if ambient == "SO_odd" and n % 2 == 0:
                    raise BadDimension("SO_odd needs odd size")
                if ambient == "SO_even" and n % 2 == 1:
                    raise BadDimension("SO_even needs even size")
                if not so_check(g):
                    raise NotInGroup("matrix fails the special orthogonal conditions")
        return g

    @property
    def size(self):
        return len(self.rows)

    def lists(self):
        return [list(r) for r in self.rows]

    def items(self):
        """((row, col), entry) for every entry, the pairs in_iplus reads."""
        return (((r, c), x) for r, row in enumerate(self.rows) for c, x in enumerate(row))

    def __mul__(self, other: "GroupMatrix") -> "GroupMatrix":
        if self.size != other.size or self.prime != other.prime:
            raise BadDimension("size or prime mismatch")
        amb = self.ambient if self.ambient == other.ambient else "GL"
        return GroupMatrix(
            tuple(tuple(r) for r in mat_mul(self.lists(), other.lists())), self.prime, amb
        )

    def inv(self) -> "GroupMatrix":
        return GroupMatrix(tuple(tuple(r) for r in mat_inv(self.lists())), self.prime, self.ambient)

    def star(self) -> "GroupMatrix":
        """g* = J tg^(-1) J."""
        return GroupMatrix(tuple(map(tuple, mat_star(self.lists()))), self.prime, self.ambient)

    def is_identity(self) -> bool:
        return self.rows == tuple(tuple(mat_identity(self.size)[i]) for i in range(self.size))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in r) for r in self.rows)
        return f"GroupMatrix[{self.ambient}]({body})"


def so_check(g: GroupMatrix) -> bool:
    """det(g) = 1 and tg J g = J, both exact."""
    n = g.size
    a = g.lists()
    if mat_det(a) != 1:
        return False
    # (tg J g)[i][j] = sum_t a[t][i] * a[n-1-t][j]
    for i in range(n):
        for j in range(n):
            s = sum(a[t][i] * a[n - 1 - t][j] for t in range(n))
            if s != (F1 if i + j == n - 1 else F0):
                return False
    return True


# ---------------------------------------------------------------------------
# named elements


@lru_cache(maxsize=None)
def g_chi_so(ell: int, prime: int) -> GroupMatrix:
    """The normalizer of I+ attached to the affine generic character: the
    antidiagonal-corner element with pi^(-1), -1 block, pi; squares to 1.
    Built and verified once per (l, p); GroupMatrix is immutable."""
    n = 2 * ell + 1
    rows = [[F0] * n for _ in range(n)]
    rows[0][n - 1] = Fraction(1, prime)
    rows[n - 1][0] = Fraction(prime)
    for i in range(1, n - 1):
        rows[i][i] = Fraction(-1)
    return GroupMatrix.make(rows, prime, "SO_odd")


@lru_cache(maxsize=None)
def g_chi_gl(n: int, prime: int) -> GroupMatrix:
    """Superdiagonal ones with pi in the lower-left corner (memoized)."""
    rows = [[F0] * n for _ in range(n)]
    for i in range(n - 1):
        rows[i][i + 1] = F1
    rows[n - 1][0] = Fraction(prime)
    return GroupMatrix.make(rows, prime, "GL")


@lru_cache(maxsize=None)
def _g_chi_gl_inv(n: int, prime: int) -> tuple:
    """The rows of g_chi_gl(n, p)^(-1), inverted once per (n, p)."""
    return tuple(map(tuple, mat_inv(g_chi_gl(n, prime).lists())))


def times_g_chi_gl_inv(rows, p):
    """m g_chi_gl^(-1) as a column rotation: column c <- column c + 1, and
    the last column <- column 1 / p.  (g_chi_gl sends e_(c+1) to e_c and
    e_1 to p e_N, so its inverse does the reverse.)"""
    return [row[1:] + [row[0] / p if row[0] else row[0]] for row in rows]


def times_g_chi_so(rows, p):
    """m g_chi_so (= m g_chi_so^(-1)) as a column map: column 1 <- p *
    column N, column N <- column 1 / p, the middle columns negated; the
    dense form of integrals._times_gchi."""
    return [[p * row[-1]] + [-x for x in row[1:-1]] + [row[0] / p] for row in rows]


# ---------------------------------------------------------------------------
# the U * I+ factorization


def eliminate_u_iplus(m_rows, p):
    """Factor m = u k in GL_N(F): u unit upper triangular, k lower
    triangular with every row in I+; None when m is outside U * I+.

    The factors are unique, and back-substitution builds them bottom-up.
    Row r of k is m[r] less u[r][c] times row c of k, for each c > r.
    Row c of k ends at its diagonal, which lies in 1 + p, so taking c from
    the last column leftwards, u[r][c] is the one multiple that clears
    column c.  Row r must pass the I+ test before the rows above it use
    it.  Returns (u, k) as Fraction row-lists, or None.
    """
    n = len(m_rows)
    u = mat_identity(n)
    k = [None] * n
    for r in range(n - 1, -1, -1):
        row = list(m_rows[r])
        for c in range(n - 1, r, -1):
            if row[c]:
                f = u[r][c] = row[c] / k[c][c]
                kc = k[c]
                for j in range(c + 1):
                    if kc[j]:
                        row[j] -= f * kc[j]
        if not in_iplus((((r, j), x) for j, x in enumerate(row)), p):
            return None
        k[r] = row
    return u, k


@dataclass(frozen=True)
class CosetWitness:
    u: GroupMatrix
    i: int
    k: GroupMatrix


def coset_decompose(g: GroupMatrix, ell: int) -> CosetWitness | None:
    """Decompose g in SO_(2l+1) as u * g_chi^i * k with u upper unipotent
    in SO, i in {0,1}, k in I+; None when g is outside the double coset.

    Since g_chi normalizes I+, membership in U g_chi^i I+ is equivalent to
    g g_chi^(-i) in U I+, decided by eliminate_u_iplus.  g_chi is an
    involution, so g g_chi^(-1) = g g_chi, formed as a column map
    (times_g_chi_so) rather than a product.  The factors already lie in
    SO: g -> g* = J tg^(-1) J fixes SO, sends unit upper triangular to
    unit upper triangular and lower triangular to lower triangular.  So
    for m = g g_chi^i in SO, m = m* = u* k* is again the factorization of
    m, and by uniqueness u* = u and k* = k.
    """
    p = g.prime
    for i in (0, 1):
        m = g.lists() if i == 0 else times_g_chi_so(g.lists(), p)
        res = eliminate_u_iplus(m, p)
        if res is None:
            continue
        u, kp = res
        # g = u kp g_chi^i; rewrite with k = g_chi^(-i) kp g_chi^i in I+
        k = mat_mul(g_chi_so(ell, p).lists(), times_g_chi_so(kp, p)) if i else kp
        km = GroupMatrix.make(k, p, "SO_odd", verify=False)
        if not in_iplus(km.items(), p):
            return None
        return CosetWitness(GroupMatrix.make(u, p, "SO_odd", verify=False), i, km)
    return None


@dataclass(frozen=True)
class GLCosetWitness:
    u: GroupMatrix
    j: int
    z: Fraction
    k: GroupMatrix


def coset_decompose_gl(g: GroupMatrix) -> GLCosetWitness | None:
    """Decompose g in GL_n as u * g_chi^j * z * k (u upper unipotent,
    j in 0..n-1, z central, k in I+), or None.

    For each j in turn, m = g g_chi^(-j) is scaled by its bottom-right
    entry z (zero entries are left alone) and tested for U I+ by
    eliminate_u_iplus.  The next m is a column rotation of this one
    (times_g_chi_gl_inv), so no call inverts or multiplies by g_chi;
    only a found witness uses the memoized g_chi^(-1), to pull g_chi^j
    through k."""
    n, p = g.size, g.prime
    m = g.lists()
    for j in range(n):
        z = m[n - 1][n - 1]
        if z:
            scaled = [[x / z if x else x for x in row] for row in m]
            res = eliminate_u_iplus(scaled, p)
            if res is not None:
                u, kp = res
                # g = u z kp g_chi^j; pull g_chi^j through
                gchi, gchi_inv = g_chi_gl(n, p).lists(), _g_chi_gl_inv(n, p)
                k = kp
                for _ in range(j):
                    k = mat_mul(gchi_inv, mat_mul(k, gchi))
                um = GroupMatrix.make(u, p, "GL", verify=False)
                km = GroupMatrix.make(k, p, "GL", verify=False)
                return GLCosetWitness(um, j, z, km)
        m = times_g_chi_gl_inv(m, p)
    return None
