"""Reference code the tests check the package against.

None of this is on a production path.  The module imports only public
names of ssgamma, so an oracle cannot quietly reuse the fast path's
private helpers; tests/test_layout.py enforces that, and that nothing
defined here is defined again in src/.

  * The dense matrix engine: GroupMatrix (a square matrix tagged with
    its group, verified on request), the products, transpose, the
    involution g -> g*, the determinant by its own forward elimination
    and the inverse by cofactors (cramer_inv), so nothing here runs the
    package's Gauss-Jordan, a Gauss-Jordan of its own (solve_row), the
    reference for CyclotomicNumber.inverse, the I+ test in_iplus, read off valuations
    (the package has only its row test, inside the elimination), the SO
    test so_check, and the normalizers g_chi_so and g_chi_gl.
  * The generic Whittaker function (whittaker_eval): the factors of the
    Fraction solvers below, reference_coset_decompose and
    reference_coset_decompose_gl, so it shares no solver with the
    package, with k conjugated back by g_chi^i here, read through psi_U
    and the affine generic character affine_chi; and recompose, which
    forms u k g_chi^i from the SO factors.
  * Scaled rows, the integer form of the package's row builders and row
    tests (scaled, unscaled), and the Fraction factorization into
    U g_chi^i I+ (the reference_* elimination, row maps and solvers), the
    one general solver: the package values each integrand by a row test.
  * The section f_s (section_eval) and the intertwining operator at
    n = 1 (intertwine_M).
  * The class a one-class support-aware window stands for, unfolded
    from the brute-force window (unfold_class).
  * The named group elements whose product the integrand row
    builders of integrals.py are checked against: c_hat, delta_o,
    omega_prime, w_element, w_long, embed_j, xbar and torus_so2, the
    SO integrands they make (generic_matrix), the JPSS dual integrand
    (jpss_dual_integrand), and b_element, whose n = 1 case gives the
    dual section's b_1^* = -1.
  * Samplers of U_SO and of I+ in SO_(2l+1) and GL_n, the root elements
    they multiply, and the torus element normalizing the affine
    character (orbit_conjugator).
  * The field E = Q_p(pi_E), pi_E^(2l) = p, of the predicted parameter
    (EisensteinElement, pi_e) and its embedding iota_embed into
    2l x 2l matrices, which sends pi_E to g_chi_gl.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

from ssgamma.characters import CharacterError, TameCharacter, psi_eval, tame_eval
from ssgamma.cyclotomic import CyclotomicNumber
from ssgamma.integrals import IntegralError, Unsupported
from ssgamma.matrices import F0, F1, MatrixError
from ssgamma.padic import rational_valuation
from ssgamma.parameter import ParameterError
from ssgamma.scalars import ExactScalar


# ---------------------------------------------------------------------------
# the dense matrix engine


class BadDimension(MatrixError):
    pass


class NotInGroup(MatrixError):
    pass


def mat_identity(n):
    rows = [[F0] * n for _ in range(n)]
    for i, row in enumerate(rows):
        row[i] = F1
    return rows


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


def mat_det(a):
    """Exact determinant by forward elimination to upper triangular form:
    the product of the pivots, negated once per row swap; 0 when a column
    has no pivot."""
    a = [list(row) for row in a]
    n = len(a)
    det = F1
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c]), None)
        if piv is None:
            return F0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


def cramer_inv(a):
    """a^(-1) as the adjugate over the determinant, from mat_det alone."""
    n = len(a)
    det = mat_det(a)
    if det == 0:
        raise NotInGroup("matrix is singular")

    def minor(r, c):
        return [row[:c] + row[c + 1 :] for i, row in enumerate(a) if i != r]

    return [[(-1) ** (r + c) * mat_det(minor(c, r)) / det for c in range(n)] for r in range(n)]


def solve_row(bmat, v):
    """The row c with c . B = v, by Gauss-Jordan elimination of the system
    B^T c^T = v^T; raises NotInGroup when B is singular."""
    n = len(bmat)
    m = [[bmat[r][c] for r in range(n)] + [v[c]] for c in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            raise NotInGroup("matrix is singular")
        m[col], m[piv] = m[piv], m[col]
        m[col] = [x / m[col][col] for x in m[col]]
        for r in range(n):
            f = m[r][col]
            if r != col and f:
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [row[n] for row in m]


def mat_star(a):
    """The outer form involution g -> g* = J tg^(-1) J."""
    return [row[::-1] for row in reversed(cramer_inv(mat_transpose(a)))]


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

    def __mul__(self, other: "GroupMatrix") -> "GroupMatrix":
        if self.size != other.size or self.prime != other.prime:
            raise BadDimension("size or prime mismatch")
        amb = self.ambient if self.ambient == other.ambient else "GL"
        return GroupMatrix(
            tuple(tuple(r) for r in mat_mul(self.lists(), other.lists())), self.prime, amb
        )

    def inv(self) -> "GroupMatrix":
        return GroupMatrix(tuple(map(tuple, cramer_inv(self.lists()))), self.prime, self.ambient)

    def star(self) -> "GroupMatrix":
        """g* = J tg^(-1) J."""
        return GroupMatrix(tuple(map(tuple, mat_star(self.lists()))), self.prime, self.ambient)

    def is_identity(self) -> bool:
        return self.rows == tuple(tuple(mat_identity(self.size)[i]) for i in range(self.size))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in r) for r in self.rows)
        return f"GroupMatrix[{self.ambient}]({body})"


def in_iplus(rows, p) -> bool:
    """The matrix with these rows lies in I+, the pro-unipotent radical of
    the standard Iwahori, read off the valuations of its entries: every
    entry integral, those below the diagonal in p and those on it in
    1 + p.  The same predicate serves SO_(2l+1) and GL_n."""
    return all(
        rational_valuation(x, p) >= (1 if r > c else 0) and (r != c or rational_valuation(x - 1, p) >= 1)
        for r, row in enumerate(rows)
        for c, x in enumerate(row)
    )


# ---------------------------------------------------------------------------
# scaled rows, and the Fraction factorization into U g_chi^i I+
#
# The package's row builders and row tests use scaled rows (nums, den),
# entries nums[c] / den.  scaled writes Fraction rows in the one reduced
# form (den the least common denominator of the row, so den > 0 and the
# gcd of nums and den is 1); unscaled reads rows back as Fractions.  The
# reference_* functions below factor any matrix, on Fraction rows: the
# general solver behind whittaker_eval, which the package no longer
# needs, since every integrand is lower triangular at its one coset.


def scaled(rows):
    """Fraction (or int) rows as reduced scaled rows."""
    out = []
    for row in rows:
        row = [Fraction(x) for x in row]
        den = lcm(*(x.denominator for x in row))
        out.append(([x.numerator * (den // x.denominator) for x in row], den))
    return out


def unscaled(rows):
    """Scaled rows as Fraction rows."""
    return [[Fraction(x, den) for x in nums] for nums, den in rows]


def reference_row_in_iplus(r, row, p) -> bool:
    """The Fraction row test: in p left of the diagonal, in 1 + p on it and
    integral right of it."""
    d = row[r]
    if d.denominator % p == 0 or (d.numerator - d.denominator) % p:
        return False
    if any(x.denominator % p == 0 or x.numerator % p for x in row[:r]):
        return False
    return all(x.denominator % p for x in row[r + 1 :])


def reference_row_times_g_chi_so(row, p):
    """A row of m g_chi_so: entry 1 <- p * entry N, entry N <- entry 1 / p,
    the middle entries negated."""
    a, b = row[0], row[-1]
    return [p * b if b else b, *[-x if x else x for x in row[1:-1]], a / p if a else a]


def reference_row_times_g_chi_gl_inv(row, j, z, pz):
    """A row of m g_chi_gl^(-j) / z: the entries rotated j places left,
    the j that wrap round divided by pz = p z and the others by z."""
    return [*[x / z if x else x for x in row[j:]], *[x / pz if x else x for x in row[:j]]]


def reference_eliminate_u_iplus(rows, n, p):
    """m = u k by back-substitution on Fraction rows, read bottom-up:
    u unit upper triangular, k lower triangular with its rows in I+, or
    None.  Row r of k is m[r] less u[r][c] times row c of k, for c > r,
    u[r][c] the multiple that clears column c."""
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
        if not reference_row_in_iplus(r, row, p):
            return None
        k[r] = row
    u = mat_identity(n)
    for r, c, f in cleared:
        u[r][c] = f
    return u, k


def reference_coset_decompose(rows, p):
    """(u, i, k) with g g_chi_so^(-i) = u k, or None, on Fraction rows."""
    n = len(rows)
    for i in (0, 1):
        bottom_up = (reference_row_times_g_chi_so(row, p) for row in reversed(rows)) if i else reversed(rows)
        res = reference_eliminate_u_iplus(bottom_up, n, p)
        if res is not None:
            return res[0], i, res[1]
    return None


def reference_coset_decompose_gl(rows, p):
    """(u, j, z, k) with g g_chi_gl^(-j) = z u k, or None, on Fraction rows:
    one elimination, at j = (i0 + 1) mod n, i0 the leftmost index of
    least valuation in the bottom row."""
    n = len(rows)
    last = rows[n - 1]
    vals = [rational_valuation(x, p) for x in last]
    least = min(vals)
    if least == float("inf"):
        return None
    j = (vals.index(least) + 1) % n
    pz = last[j - 1]
    z = pz / p if j else pz
    res = reference_eliminate_u_iplus((reference_row_times_g_chi_gl_inv(row, j, z, pz) for row in reversed(rows)), n, p)
    if res is None:
        return None
    return res[0], j, z, res[1]


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


# ---------------------------------------------------------------------------
# the generic Whittaker function


class NotInIPlus(CharacterError):
    pass


@dataclass(frozen=True)
class WhittakerSpec:
    """Data of a simple supercuspidal Whittaker function.

    flavor "SO": group SO_(2l+1), zeta a sign.  flavor "GL": group GL_n,
    zeta an n-th root of omega(pi) with the central character omega kept
    trivial (level 0, as the orthogonal comparison requires).
    """

    prime: int
    flavor: str  # "SO" | "GL"
    rank: int  # l for SO, n for GL
    zeta: CyclotomicNumber
    t: tuple = None  # affine parameters, units; SO only

    def __post_init__(self):
        if self.flavor not in ("SO", "GL"):
            raise CharacterError("flavor must be SO or GL")
        if self.t is None:
            count = self.rank + 1 if self.flavor == "SO" else self.rank
            object.__setattr__(self, "t", tuple(Fraction(1) for _ in range(count)))
        else:
            object.__setattr__(self, "t", tuple(Fraction(x) for x in self.t))
        n = 2 if self.flavor == "SO" else self.rank
        if self.zeta**n != CyclotomicNumber.one():
            raise CharacterError("zeta has the wrong order for this flavor")

    @property
    def size(self):
        return 2 * self.rank + 1 if self.flavor == "SO" else self.rank


def affine_chi(h: GroupMatrix, t=None, flavor: str = "SO") -> CyclotomicNumber:
    """The affine generic character on I+: psi of the weighted simple
    affine entries (superdiagonal run plus the corner over pi)."""
    p = h.prime
    n = h.size
    if not in_iplus(h.rows, p):
        raise NotInIPlus("affine_chi needs h in I+")
    # SO_(2l+1): l superdiagonal entries and the corner in row 2l;
    # GL_n: n - 1 superdiagonal entries and the corner in row n
    count, corner = ((n - 1) // 2, n - 2) if flavor == "SO" else (n - 1, n - 1)
    if t is None:
        t = (1,) * (count + 1)
    s = sum(Fraction(t[a]) * h.rows[a][a + 1] for a in range(count))
    s += Fraction(t[count]) * h.rows[corner][0] / p
    return psi_eval(s, p)


def _psi_u(spec: WhittakerSpec, u: GroupMatrix) -> CyclotomicNumber:
    """The generic character of the upper unipotent matching affine_chi."""
    p = spec.prime
    if spec.flavor == "SO":
        count = spec.rank  # first l superdiagonal entries
    else:
        count = spec.rank - 1
    s = sum(Fraction(spec.t[a]) * u.rows[a][a + 1] for a in range(count))
    return psi_eval(s, p)


def whittaker_eval(spec: WhittakerSpec, g: GroupMatrix) -> ExactScalar:
    """The normalized Whittaker function of the simple supercuspidal:
    psi(u) zeta^i chi(k') on the supporting double coset u g_chi^i k',
    0 elsewhere.  The Fraction solvers above factor g g_chi^(-i) =
    (z) u k, and k' = g_chi^(-i) k g_chi^i is formed here by products."""
    p = spec.prime
    if spec.flavor == "SO":
        res = reference_coset_decompose(g.rows, p)
        if res is None:
            return ExactScalar.zero(p)
        u, i, k = res
        k = GroupMatrix.make(k, p, "SO_odd", verify=False)
        if i:
            gchi = g_chi_so(spec.rank, p)  # an involution: g_chi^(-1) = g_chi
            k = gchi * k * gchi
        u = GroupMatrix.make(u, p, "SO_odd", verify=False)
        val = _psi_u(spec, u) * spec.zeta**i * affine_chi(k, t=spec.t, flavor="SO")
        return ExactScalar.from_coeff(p, val)
    res = reference_coset_decompose_gl(g.rows, p)
    if res is None:
        return ExactScalar.zero(p)
    # central character is trivial, so the scalar z contributes nothing
    u, j, _, k = res
    k = GroupMatrix.make(k, p, verify=False)
    gchi = g_chi_gl(spec.rank, p)
    gchi_inv = gchi.inv()
    for _ in range(j):
        k = gchi_inv * k * gchi
    u = GroupMatrix.make(u, p, verify=False)
    val = _psi_u(spec, u) * spec.zeta**j * affine_chi(k, t=spec.t, flavor="GL")
    return ExactScalar.from_coeff(p, val)


def recompose(factors, g_chi: GroupMatrix) -> GroupMatrix:
    """u k g_chi^i from the factors (u, i, k) of reference_coset_decompose,
    which satisfy g g_chi^(-i) = u k, with u and k as scaled rows."""
    u, i, k = factors
    out = GroupMatrix.make(mat_mul(unscaled(u), unscaled(k)), g_chi.prime, g_chi.ambient, verify=False)
    return out * g_chi if i else out


def orbit_conjugator(t, ell: int, prime: int) -> GroupMatrix:
    """Torus element conjugating the (t_1..t_l, t_(l+1)) affine character
    to the normal form (1, ..., 1, t_(l+1)/(t_1 t_2^2 ... t_l^2))."""
    t = [Fraction(x) for x in t]
    n = 2 * ell + 1
    rows = [[Fraction(0)] * n for _ in range(n)]
    rows[ell][ell] = Fraction(1)
    for i in range(ell):
        d = Fraction(1)
        for a in range(i, ell):
            d *= t[a]
        rows[i][i] = 1 / d
        rows[n - 1 - i][n - 1 - i] = d
    return GroupMatrix.make(rows, prime, "SO_odd")


def normalized_t(t) -> tuple:
    """(t_1..t_(l+1)) -> (1, ..., 1, t_(l+1) * t_1 t_2^2 ... t_l^2).

    The corner coefficient transforms inversely to a choice of
    uniformizer, so in the uniformizer parameterization the normal form
    reads 1/(t_1 t_2^2 ... t_l^2)."""
    t = [Fraction(x) for x in t]
    ell = len(t) - 1
    d = Fraction(1)
    for i, x in enumerate(t[:-1]):
        d *= x if i == 0 else x * x
    return tuple([Fraction(1)] * ell + [t[-1] * d])


# ---------------------------------------------------------------------------
# the support-aware classes, unfolded


def unfold_class(p, one_class, window, multiplicative):
    """The brute-force window restricted to the class that the one-class
    support-aware window one_class stands for: (the window's weight, its
    representatives off the padding shell in rep (1 + p) when
    multiplicative, or in rep + p otherwise), rep the class's one
    representative.  The lemma tests walk the class point by point."""
    (_, [(rep, _)]), (weight, reps) = one_class, window

    def inside(x):
        return rational_valuation(x / rep - 1 if multiplicative else x - rep, p) >= 1

    return weight, [(x, shell) for x, shell in reps if not shell and inside(x)]


# ---------------------------------------------------------------------------
# sections and the (trivial at n = 1) intertwining operator


@dataclass(frozen=True)
class SectionSpec:
    """f_s(h, a) = |det h|^(s-1/2) tau(a h) on SO_2, reading the scalar
    slot z = h[0][0]."""

    tau: TameCharacter

    def __call__(self, h, a) -> ExactScalar:
        return section_eval(self, h, a)


def section_eval(sec: SectionSpec, h, a) -> ExactScalar:
    p = sec.tau.prime
    z = h.rows[0][0] if isinstance(h, GroupMatrix) else Fraction(h)
    v = rational_valuation(z, p)
    # |z|^(s-1/2) = q^(v/2) (q^-s)^v
    norm = ExactScalar.from_coeff(p, F1, q_half=v, s_power=v)
    return norm * tame_eval(sec.tau, Fraction(a) * z)


def intertwine_M(sec: SectionSpec, h, a, n: int = 1) -> ExactScalar:
    """M(tau, s) f_s at n = 1: the unipotent radical is trivial and the
    Weyl element w_1 multiplies out to the identity of SO_2, so the
    operator is f_s(w_1^(-1) h, a) = f_s(h, a)."""
    if n != 1:
        raise Unsupported("the intertwining operator is implemented at n = 1 only")
    p = sec.tau.prime
    w1 = w_element(1, p)
    if not w1.is_identity():  # the two displayed factors must cancel
        raise IntegralError("w_1 failed to reduce to the identity")
    hh = h if isinstance(h, GroupMatrix) else torus_so2(h, p)
    return section_eval(sec, w1.inv() * hh, a)


# ---------------------------------------------------------------------------
# named elements


def delta_o(ell: int, prime: int) -> GroupMatrix:
    """diag(I_l, -1, I_l); det = -1 so tagged GL."""
    n = 2 * ell + 1
    rows = mat_identity(n)
    rows[ell][ell] = Fraction(-1)
    return GroupMatrix.make(rows, prime, "GL")


def c_hat(n: int, ell: int, prime: int) -> GroupMatrix:
    """diag(I_n, -I_(l-n), 1, -I_(l-n), I_n) in SO_(2l+1)."""
    if n > ell:
        raise BadDimension("need n <= l")
    size = 2 * ell + 1
    rows = mat_identity(size)
    for i in list(range(n, ell)) + list(range(ell + 1, 2 * ell + 1 - n)):
        rows[i][i] = Fraction(-1)
    return GroupMatrix.make(rows, prime, "SO_odd")


def omega_prime(n: int, ell: int, prime: int) -> GroupMatrix:
    """The permutation swapping slots n and 2l+2-n (identity elsewhere)."""
    if n > ell:
        raise BadDimension("need n <= l")
    size = 2 * ell + 1
    rows = mat_identity(size)
    i, j = n - 1, size - n
    rows[i][i] = rows[j][j] = F0
    rows[i][j] = rows[j][i] = F1
    return GroupMatrix.make(rows, prime, "GL")


def b_element(n: int, prime: int) -> GroupMatrix:
    """diag(1, -1, ..., -1, 1) in GL_n; the n = 1 degenerate case is (-1),
    which is what the dual integral's section slot actually requires."""
    if n == 1:
        return GroupMatrix.make([[Fraction(-1)]], prime, "GL")
    rows = mat_identity(n)
    for i in range(1, n - 1):
        rows[i][i] = Fraction(-1)
    return GroupMatrix.make(rows, prime, "GL")


def w_element(n: int, prime: int) -> GroupMatrix:
    """Product of the two block antidiagonal involutions in SO_2n (n odd)."""
    if n % 2 == 0:
        raise BadDimension("defined for odd n")
    size = 2 * n
    a = [[F0] * size for _ in range(size)]
    for i in range(n):
        a[i][n + i] = F1
        a[n + i][i] = F1
    b = mat_identity(size)
    b[0][0] = b[size - 1][size - 1] = F0
    b[0][size - 1] = b[size - 1][0] = F1
    return GroupMatrix.make(mat_mul(a, b), prime, "SO_even")


def torus_so2(a, prime: int) -> GroupMatrix:
    a = Fraction(a)
    if a == 0:
        raise NotInGroup("torus parameter must be nonzero")
    return GroupMatrix.make([[a, F0], [F0, 1 / a]], prime, "SO_even")


def w_long(n: int, prime: int) -> GroupMatrix:
    rows = [[F1 if i + j == n - 1 else F0 for j in range(n)] for i in range(n)]
    return GroupMatrix.make(rows, prime, "GL")


def embed_j(h: GroupMatrix, ell: int) -> GroupMatrix:
    """Block embedding SO_2n -> SO_(2l+1): corners around a middle identity."""
    if h.size % 2:
        raise BadDimension("expected an even-size matrix")
    n = h.size // 2
    if n > ell:
        raise BadDimension("need n <= l")
    size = 2 * ell + 1
    mid = 2 * (ell - n) + 1
    rows = [[F0] * size for _ in range(size)]
    for i in range(n):
        for j in range(n):
            rows[i][j] = h.rows[i][j]
            rows[i][n + mid + j] = h.rows[i][n + j]
            rows[n + mid + i][j] = h.rows[n + i][j]
            rows[n + mid + i][n + mid + j] = h.rows[n + i][n + j]
    for i in range(n, n + mid):
        rows[i][i] = F1
    return GroupMatrix.make(rows, h.prime, "SO_odd", verify=False)


def xbar(y, ell: int, prime: int, verify: bool = False) -> GroupMatrix:
    """The unipotent of SO_(2l+1) with column y below the (1,1) entry:
    rows 2..l of column 1 carry y, and the bottom row carries the
    form-forced partner y'_k = -y_(l-k) in columns l+2..2l."""
    y = [Fraction(v) for v in y]
    if len(y) != ell - 1:
        raise BadDimension(f"need {ell - 1} coordinates")
    size = 2 * ell + 1
    rows = mat_identity(size)
    for i, c in enumerate(y):
        rows[1 + i][0] = c
    for k in range(1, ell):
        rows[size - 1][ell + 1 + k - 1] = -y[ell - k - 1]
    return GroupMatrix.make(rows, prime, "SO_odd", verify=verify)


def jpss_dual_integrand(a, x, n, p):
    """The JPSS dual integrand w_long (t m)^(-1) w_(n,1) by inversion and
    products, with m = 1 + (a - 1) E_00 + sum x_r E_(1+r,0) and
    w_(n,1) = diag(1, w_(n-1))."""
    m = mat_identity(n)
    m[0][0] = Fraction(a)
    for r, xv in enumerate(x):
        m[1 + r][0] = xv
    wn1 = [[Fraction(c == 0) for c in range(n)]]
    wn1 += [[Fraction(c == n - r) for c in range(n)] for r in range(1, n)]
    return mat_mul(mat_mul(w_long(n, p).lists(), cramer_inv(mat_transpose(m))), wn1)


def generic_matrix(p, ell, side, z, y):
    """The SO integrand at (z, y) as a product of named elements: x_bar(y)
    j(h(z)) for Phi; c_hat x_bar(y) j(h(z)) delta_o omega' for Phi*."""
    g = xbar(y, ell, p) * embed_j(torus_so2(z, p), ell)
    if side == "phi_star":
        g = c_hat(1, ell, p) * g * delta_o(ell, p) * omega_prime(1, ell, p)
    return g


# ---------------------------------------------------------------------------
# root-group elements for sampling


def so_root_element(ell: int, prime: int, a: int, b: int, c) -> GroupMatrix:
    """One-parameter unipotent of SO_(2l+1) supported at (a, b) (0-indexed,
    a != b, (a, b) not a form-dual fixed pair): I + c(E_ab - E_b'a') with
    the short-root quadratic correction when b is the middle index."""
    size = 2 * ell + 1
    c = Fraction(c)
    ad, bd = size - 1 - a, size - 1 - b
    if a == b or (a, b) == (bd, ad):
        raise BadDimension("unsupported root position")
    rows = mat_identity(size)
    rows[a][b] += c
    rows[bd][ad] -= c
    # short roots: X = E_ab - E_b'a' has X^2 = -E_aa' (b middle) or -E_b'b (a middle)
    if bd == b:
        rows[a][ad] -= c * c / 2
    elif ad == a:
        rows[bd][b] -= c * c / 2
    return GroupMatrix.make(rows, prime, "SO_odd")


def random_so_unipotent(rng, ell: int, prime: int, integral: bool = True) -> GroupMatrix:
    """Random element of U_SO (integral entries when integral=True)."""
    size = 2 * ell + 1
    out = GroupMatrix.make(mat_identity(size), prime, "SO_odd", verify=False)
    for a in range(size - 1):
        for b in range(a + 1, size):
            if (a, b) == (size - 1 - b, size - 1 - a):
                continue
            if size - 1 - b < a:
                continue  # dual partner already handled
            c = Fraction(rng.randint(-2 * prime, 2 * prime))
            if not integral:
                c = c / prime ** rng.randint(0, 1)
            out = out * so_root_element(ell, prime, a, b, c)
    return out


def random_so_iplus(rng, ell: int, prime: int) -> GroupMatrix:
    """Random element of I+ in SO_(2l+1): a 1+p torus element times upper
    root elements with integral parameters and lower ones with parameters
    in p (corner positions get an extra power to stay in the predicate)."""
    size = 2 * ell + 1
    p = prime
    diag = mat_identity(size)
    for i in range(ell):
        d = 1 + p * Fraction(rng.randint(0, p - 1))
        diag[i][i] = d
        diag[size - 1 - i][size - 1 - i] = 1 / d
    out = GroupMatrix.make(diag, p, "SO_odd")
    for a in range(size):
        for b in range(size):
            if a == b or (a, b) == (size - 1 - b, size - 1 - a):
                continue
            if a < b and size - 1 - b < a:
                continue
            if a > b and not (size - 1 - b > a):
                continue
            c = Fraction(rng.randint(-p, p))
            if a > b:
                c *= p
            try:
                out = out * so_root_element(ell, p, a, b, c)
            except BadDimension:
                continue
    if not in_iplus(out.rows, p):
        raise MatrixError("sampler left I+; adjust parameters")
    return out


def random_gl_iplus(rng, n: int, prime: int) -> GroupMatrix:
    rows = mat_identity(n)
    p = prime
    for i in range(n):
        rows[i][i] = 1 + p * Fraction(rng.randint(0, p - 1))
        for j in range(n):
            if i < j:
                rows[i][j] = Fraction(rng.randint(-p, p))
            elif i > j:
                rows[i][j] = p * Fraction(rng.randint(-p, p))
    g = GroupMatrix.make(rows, prime, "GL")
    if not in_iplus(g.rows, p):
        raise MatrixError("GL I+ sampler failed")
    return g


# ---------------------------------------------------------------------------
# the field E of the predicted parameter


class ZeroElement(ParameterError):
    pass


@dataclass(frozen=True)
class EisensteinElement:
    """sum c_i pi_E^i, 0 <= i < 2l, with pi_E^(2l) = p."""

    coeffs: tuple
    prime: int

    @staticmethod
    def make(coeffs, prime) -> "EisensteinElement":
        return EisensteinElement(tuple(Fraction(c) for c in coeffs), prime)

    @property
    def degree(self):
        return len(self.coeffs)

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def __mul__(self, other: "EisensteinElement") -> "EisensteinElement":
        n, p = self.degree, self.prime
        out = [Fraction(0)] * n
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if not b:
                    continue
                k = i + j
                if k < n:
                    out[k] += a * b
                else:
                    out[k - n] += p * a * b
        return EisensteinElement(tuple(out), p)


def iota_embed(e: EisensteinElement, ell: int) -> GroupMatrix:
    """Multiplication by e in the basis pi_E^(2l-1), ..., pi_E, 1."""
    n = 2 * ell
    if e.degree != n:
        raise ParameterError(f"need {n} coefficients")
    if e.is_zero():
        raise ZeroElement("iota needs a nonzero element")
    p = e.prime
    rows = [[Fraction(0)] * n for _ in range(n)]
    # basis vector j (1-indexed) is pi_E^(2l-j); e * pi_E^(2l-j) collects
    # pi_E^(2l-j+i), reduced by pi_E^(2l) = p into row 2l+j-i.
    for j in range(1, n + 1):
        for i, c in enumerate(e.coeffs):
            if not c:
                continue
            if i < j:
                rows[j - i - 1][j - 1] += c
            else:
                rows[n + j - i - 1][j - 1] += p * c
    return GroupMatrix.make(rows, p, "GL", verify=False)


def pi_e(ell: int, prime: int) -> EisensteinElement:
    coeffs = [Fraction(0)] * (2 * ell)
    coeffs[1] = Fraction(1)
    return EisensteinElement(tuple(coeffs), prime)
