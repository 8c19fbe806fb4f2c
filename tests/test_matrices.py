import itertools
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import (
    BadDimension,
    GroupMatrix,
    NotInGroup,
    b_element,
    c_hat,
    cramer_inv,
    delta_o,
    embed_j,
    g_chi_gl,
    g_chi_so,
    generic_matrix,
    in_iplus,
    jpss_dual_integrand,
    mat_det,
    mat_identity,
    mat_mul,
    omega_prime,
    random_gl_iplus,
    random_so_iplus,
    random_so_unipotent,
    recompose,
    reference_coset_decompose,
    reference_coset_decompose_gl,
    reference_eliminate_u_iplus,
    reference_row_times_g_chi_gl_inv,
    reference_row_times_g_chi_so,
    scaled,
    so_check,
    so_root_element,
    torus_so2,
    unscaled,
    w_element,
    xbar,
)
import oracles
from ssgamma import integrals
from ssgamma.integrals import _SIDES, _side_buckets, _y_windows, _z_windows
from ssgamma.matrices import (
    F1,
    SingularMatrix,
    coset_decompose,
    coset_decompose_gl,
    mat_inv,
    row_in_iplus,
    so_torus,
)


def eliminate(m, p):
    """The U * I+ factorization of the Fraction matrix m by the oracle's
    elimination: (u, k), or None when m is outside U * I+."""
    return reference_eliminate_u_iplus(reversed(m), len(m), p)


def test_g_chi_so_is_involution():
    for ell, p in [(1, 3), (2, 5), (3, 7)]:
        g = g_chi_so(ell, p)
        assert so_check(g)
        assert (g * g).is_identity()


def test_g_chi_gl_power():
    for n, p in [(2, 3), (3, 5), (4, 3)]:
        g = g_chi_gl(n, p)
        acc = g
        for _ in range(n - 1):
            acc = acc * g
        # n-th power is the scalar p
        assert acc.rows == tuple(
            tuple(Fraction(p) if i == j else Fraction(0) for j in range(n)) for i in range(n)
        )


def test_named_auxiliary_elements():
    for ell, p in [(1, 3), (2, 5), (3, 3)]:
        assert (delta_o(ell, p) * delta_o(ell, p)).is_identity()
        assert so_check(c_hat(1, ell, p))
        assert (omega_prime(1, ell, p) * omega_prime(1, ell, p)).is_identity()


def test_w_and_b_degenerate_at_rank_one():
    assert w_element(1, 3).is_identity()
    assert b_element(1, 3).rows == ((Fraction(-1),),)


def test_torus_so2_and_embed():
    p = 5
    h = torus_so2(Fraction(2, 5), p)
    assert so_check(h) is False or h.size == 2  # SO(2) uses the split form check below
    g = embed_j(h, 2)
    assert g.size == 5
    assert so_check(g)
    assert g.rows[0][0] == Fraction(2, 5)
    assert g.rows[4][4] == Fraction(5, 2)


def test_xbar_is_so():
    p = 3
    for ell in (1, 2, 3):
        y = [Fraction(k + 1, 1) for k in range(ell - 1)]
        g = xbar(y, ell, p, verify=True)
        assert so_check(g)
    # unipotent with ones on the diagonal; column y below the corner
    g = xbar([Fraction(1, 3), Fraction(2)], 3, p)
    assert all(g.rows[i][i] == 1 for i in range(7))
    assert g.rows[1][0] == Fraction(1, 3) and g.rows[2][0] == Fraction(2)


def test_iwahori_membership():
    p = 3
    ell = 2
    eye = GroupMatrix.make([[1 if i == j else 0 for j in range(5)] for i in range(5)], p, "SO_odd")
    assert in_iplus(eye.rows, p)
    u = so_root_element(ell, p, 0, 1, Fraction(p))
    assert in_iplus(u.rows, p)
    v = so_root_element(ell, p, 0, 1, Fraction(1))
    assert in_iplus(v.rows, p)
    lower = so_root_element(ell, p, 1, 0, Fraction(1))
    assert not in_iplus(lower.rows, p)
    assert in_iplus(so_root_element(ell, p, 1, 0, Fraction(p)).rows, p)


def test_iwahori_gl():
    p = 3
    g = GroupMatrix.make([[1, 2], [p, 1]], p)
    assert in_iplus(g.rows, p)
    assert not in_iplus(GroupMatrix.make([[1, 2], [1, 1]], p).rows, p)


def test_eliminate_u_iplus_direct():
    p = 3
    ell = 2
    rng = random.Random(11)
    u = random_so_unipotent(rng, ell, p, integral=False)
    k = random_so_iplus(rng, ell, p)
    m = u * k
    res = eliminate(m.rows, p)
    assert res is not None
    u2, k2 = res
    assert in_iplus(k2, p)
    assert mat_mul(u2, k2) == m.lists()


@pytest.mark.parametrize("ell,p", [(1, 3), (2, 5), (3, 3)])
def test_coset_roundtrip_random(ell, p):
    rng = random.Random(100 * ell + p)
    gchi = g_chi_so(ell, p)
    for _ in range(20):
        u = random_so_unipotent(rng, ell, p, integral=False)
        i = rng.randrange(2)
        k = random_so_iplus(rng, ell, p)
        g = u * (gchi if i else GroupMatrix.make([[1 if a == b else 0 for b in range(2 * ell + 1)] for a in range(2 * ell + 1)], p, "SO_odd")) * k
        u2, i2, k2 = reference_coset_decompose(g.rows, p)
        assert i2 == i
        # at the other index the elimination finds no factors
        assert eliminate(g.lists() if i else (g * gchi).lists(), p) is None
        assert recompose((scaled(u2), i, scaled(k2)), gchi).rows == g.rows
        u2, k2 = (GroupMatrix.make(x, p, "SO_odd", verify=False) for x in (u2, k2))
        assert in_iplus(k2.rows, p)
        # the unique factors of an SO element are fixed by g -> g*
        assert so_check(u2) and so_check(k2)


def test_coset_decompose_rejects_outside():
    """A torus element h(d) with nonunit d lies in no U g_chi^i I+ coset,
    and the SO row test rejects it as the identity times h(d); at d in
    1 + p it passes, with the rows of h(d)."""
    p = 3
    h = embed_j(torus_so2(Fraction(p * p), p), 1)
    assert reference_coset_decompose(h.rows, p) is None
    eye = scaled(mat_identity(3))
    assert coset_decompose(eye, so_torus(Fraction(p * p), 3), p) is None
    assert coset_decompose(eye, so_torus(Fraction(1, p), 3), p) is None
    d = Fraction(1 + p)
    assert unscaled(coset_decompose(eye, so_torus(d, 3), p)) == embed_j(torus_so2(d, p), 1).lists()


@pytest.mark.parametrize("n,p", [(2, 3), (3, 5), (4, 3), (3, 7)])
def test_gl_coset_roundtrip(n, p):
    rng = random.Random(n * 10 + p)
    gchi = g_chi_gl(n, p)
    for _ in range(20):
        j = rng.randrange(n)
        zval = Fraction(rng.choice([1, 2, p, Fraction(1, p)]))
        u = GroupMatrix.make(
            [[1 if a == b else (rng.randrange(-3, 4) if a < b else 0) for b in range(n)] for a in range(n)],
            p,
        )
        z = GroupMatrix.make(
            [[zval if a == b else 0 for b in range(n)] for a in range(n)], p
        )
        gj = GroupMatrix.make([[1 if a == b else 0 for b in range(n)] for a in range(n)], p)
        for _ in range(j):
            gj = gj * gchi
        k = random_gl_iplus(rng, n, p)
        g = u * gj * z * k
        res = reference_coset_decompose_gl(g.rows, p)
        assert res is not None
        u2, j2, z2, k2 = res
        assert j2 == j
        # g g_chi^(-j) = z u k, so g = z u k g_chi^j
        zmat = GroupMatrix.make([[z2 if a == b else 0 for b in range(n)] for a in range(n)], p)
        k2 = GroupMatrix.make(k2, p)
        assert in_iplus(k2.rows, p)
        rec = zmat * GroupMatrix.make(u2, p) * k2
        for _ in range(j2):
            rec = rec * gchi
        assert rec.rows == g.rows


def test_so_root_element_group_law():
    p = 3
    ell = 3
    # long roots add linearly
    a = so_root_element(ell, p, 0, 1, Fraction(2))
    b = so_root_element(ell, p, 0, 1, Fraction(5))
    assert (a * b).rows == so_root_element(ell, p, 0, 1, Fraction(7)).rows
    # short roots satisfy the quadratic correction and still land in SO
    s = so_root_element(ell, p, 1, ell, Fraction(1, 3))
    assert so_check(s)


def test_star_on_gl():
    p = 3
    g = GroupMatrix.make([[1, 2], [0, 1]], p)
    gs = g.star()
    assert gs.rows == ((Fraction(1), Fraction(-2)), (Fraction(0), Fraction(1)))
    # trace-form compatible: (gh)* = g* h* and g** = g
    h = GroupMatrix.make([[2, 1], [1, 1]], p)
    assert ((g * h).star()).rows == (g.star() * h.star()).rows
    assert g.star().star().rows == g.rows


def test_make_validates():
    with pytest.raises(NotInGroup):
        GroupMatrix.make([[1, 0], [0, 2]], 3, "SO_even")
    with pytest.raises(BadDimension):
        GroupMatrix.make([[1, 0], [0, 1]], 3, "SO_odd")


# --- the merged primitives: the I+ test and the one exact elimination ---------


@st.composite
def padic_matrices(draw, sizes=st.integers(1, 4)):
    """(p, rows): a small matrix of Fractions a * p^e, e in {-1, 0, 1},
    added to the identity, so that I+ members and non-members both occur."""
    p = draw(st.sampled_from((3, 5, 7)))
    n = draw(sizes)
    entry = st.builds(lambda a, e: Fraction(a) * Fraction(p) ** e, st.integers(-2 * p, 2 * p), st.sampled_from((-1, 0, 1)))
    rows = [[(i == j) + draw(entry) for j in range(n)] for i in range(n)]
    return p, rows


def leibniz_det(a):
    n = len(a)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        term = Fraction((-1) ** inversions)
        for i in range(n):
            term *= a[i][perm[i]]
        total += term
    return total


def product(a, b):
    return [[sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0]))] for i in range(len(a))]


def rescaled(rows, factors):
    """The same rows written over other denominators: each scaled row's
    numerators and denominator times its own nonzero factor."""
    return [([f * x for x in nums], f * den) for (nums, den), f in zip(rows, factors)]


# nonzero factors that change a scaled row's form but not its entries:
# negative denominators, powers of p (which shift every valuation alike)
# and units
row_factors = st.sampled_from((1, -1, 2, -5, 3, -9, 7, 25, -49))


@settings(max_examples=200, deadline=None)
@given(padic_matrices(), st.lists(row_factors, min_size=4, max_size=4))
def test_in_iplus_is_the_valuation_definition(case, factors):
    """The package's row test, one row at a time as the U * I+ elimination
    reads it, against the oracle's in_iplus, read off valuations: row i
    of a passes iff the identity with its row i replaced by it lies in I+
    (every other row of the identity does).  The row test reads a scaled
    row, and gives the same verdict whatever denominator (of either sign)
    the row is written over."""
    p, a = case
    n = len(a)
    by_row = []
    for i in range(n):
        m = mat_identity(n)
        m[i] = list(a[i])
        by_row.append(in_iplus(m, p))
    for rows in (scaled(a), rescaled(scaled(a), factors)):
        assert [row_in_iplus(i, rows[i], p) for i in range(n)] == by_row
    assert in_iplus(a, p) == all(by_row)


@settings(max_examples=200, deadline=None)
@given(padic_matrices(), st.data())
def test_elimination_inverse_solve_and_det(case, data):
    p, a = case
    n = len(a)
    det = leibniz_det(a)
    assert mat_det(a) == det
    if det == 0:
        with pytest.raises(SingularMatrix):
            mat_inv(a)
        return
    identity = [[Fraction(i == j) for j in range(n)] for i in range(n)]
    assert product(mat_inv(a), a) == identity
    assert product(cramer_inv(a), a) == identity
    v = [Fraction(data.draw(st.integers(-9, 9)), p ** data.draw(st.integers(0, 2))) for _ in range(n)]
    c = oracles.solve_row(a, v)
    assert product([c], a) == [v]


@settings(max_examples=100, deadline=None)
@given(padic_matrices(), st.integers(-3, 3))
def test_singular_input_raises(case, scale):
    p, a = case
    n = len(a)
    # the last row a multiple of the first (the zero row when n = 1)
    a[-1] = [scale * x for x in a[0]] if n > 1 else [Fraction(0)]
    assert mat_det(a) == 0 == leibniz_det(a)
    with pytest.raises(SingularMatrix):
        mat_inv(a)
    with pytest.raises(NotInGroup):
        cramer_inv(a)
    with pytest.raises(NotInGroup):
        oracles.solve_row(a, [Fraction(1)] * n)


# --- the U * I+ factorization of the oracle ---------------------------------
#
# The package factors nothing: whittaker_eval's Fraction solvers in
# tests/oracles.py are the one general factorization, checked here.


def assert_u_iplus_factors(m, res, p):
    """u unit upper triangular, k lower triangular with every row in I+,
    and u k = m."""
    u, k = res
    n = len(m)
    assert all(u[i][j] == (i == j) for i in range(n) for j in range(i + 1))
    assert all(k[i][j] == 0 for i in range(n) for j in range(i + 1, n))
    assert in_iplus(k, p)
    assert mat_mul(u, k) == m


@given(padic_matrices())
def test_u_iplus_factors_of_any_matrix(case):
    p, m = case
    res = eliminate(m, p)
    if res is not None:
        assert_u_iplus_factors(m, res, p)


@given(st.sampled_from((3, 5, 7)), st.integers(1, 5), st.randoms(use_true_random=False), st.data())
def test_u_times_iplus_always_factors(p, n, rng, data):
    # u0 unit upper triangular with p-power denominators, k0 in I+ (not triangular)
    entry = st.builds(lambda a, e: Fraction(a, p**e), st.integers(-2 * p, 2 * p), st.integers(0, 2))
    u0 = [[Fraction(i == j) if i >= j else data.draw(entry) for j in range(n)] for i in range(n)]
    m = mat_mul(u0, random_gl_iplus(rng, n, p).lists())
    res = eliminate(m, p)
    assert res is not None
    assert_u_iplus_factors(m, res, p)


# --- right multiplication by g_chi^(+-1), one row at a time (on any matrix) ---


@settings(max_examples=150, deadline=None)
@given(padic_matrices(sizes=st.integers(2, 4)), st.sampled_from((1, 2, -3, Fraction(1, 3), Fraction(5, 7))))
def test_gl_rotation_is_the_product_with_the_inverse(case, z):
    p, m = case
    inv = g_chi_gl(len(m), p).inv().lists()
    pz = Fraction(p * z)
    product = m
    for j in range(len(m)):
        # row by row, m g_chi_gl^(-j) / z
        want = [[x / z for x in row] for row in product]
        assert [reference_row_times_g_chi_gl_inv(row, j, z, pz) for row in m] == want
        product = mat_mul(product, inv)


@settings(max_examples=150, deadline=None)
@given(padic_matrices(sizes=st.sampled_from((3, 5, 7))))
def test_so_column_map_is_the_product_with_g_chi(case):
    p, g = case
    want = mat_mul(g, g_chi_so(len(g) // 2, p).lists())
    assert [reference_row_times_g_chi_so(row, p) for row in g] == want


# --- the oracle's solvers, which map one row at a time, against the ----------
# --- elimination on the fully formed product ----------------------------------


def eager_coset_decompose(g, p):
    """reference_coset_decompose with every g g_chi^(-i) formed by the
    oracle's matrix product before it is factored."""
    n = len(g)
    gchi = g_chi_so(n // 2, p).lists()
    for i in (0, 1):
        res = eliminate(mat_mul(g, gchi) if i else g, p)
        if res is not None:
            return res[0], i, res[1]
    return None


def eager_coset_decompose_gl(g, p):
    """reference_coset_decompose_gl with every g g_chi^(-j) / z formed in
    full by oracle products before it is factored."""
    n = len(g)
    inv = g_chi_gl(n, p).inv().lists()
    m = g
    for j in range(n):
        z = m[n - 1][n - 1]
        if z:
            res = eliminate([[x / z for x in row] for row in m], p)
            if res is not None:
                return res[0], j, z, res[1]
        m = mat_mul(m, inv)
    return None


def identity(n, p, *ambient):
    return GroupMatrix.make([[int(a == b) for b in range(n)] for a in range(n)], p, *ambient)


@st.composite
def so_cases(draw):
    """(p, rows, inside): a random p-adic matrix of odd size, nearly
    always outside both cosets, or a random u g_chi^i k in SO_(2l+1)."""
    if draw(st.booleans()):
        return *draw(padic_matrices(sizes=st.sampled_from((3, 5)))), False
    p, ell, i = draw(st.sampled_from((3, 5, 7))), draw(st.integers(1, 2)), draw(st.integers(0, 1))
    rng = draw(st.randoms(use_true_random=False))
    u = random_so_unipotent(rng, ell, p, integral=False)
    gi = g_chi_so(ell, p) if i else identity(2 * ell + 1, p, "SO_odd")
    return p, (u * gi * random_so_iplus(rng, ell, p)).lists(), True


@st.composite
def gl_cases(draw):
    """(p, rows, inside): a random p-adic matrix, nearly always outside
    every coset, or a random u g_chi^j z k in GL_n."""
    if draw(st.booleans()):
        return *draw(padic_matrices()), False
    p, n = draw(st.sampled_from((3, 5, 7))), draw(st.integers(1, 4))
    j = draw(st.integers(0, n - 1))
    rng = draw(st.randoms(use_true_random=False))
    zval = draw(st.sampled_from((1, 2, p, Fraction(1, p))))
    u = GroupMatrix.make([[int(a == b) or (rng.randrange(-3, 4) if a < b else 0) for b in range(n)] for a in range(n)], p)
    gj = identity(n, p)
    for _ in range(j):
        gj = gj * g_chi_gl(n, p)
    z = GroupMatrix.make([[zval if a == b else 0 for b in range(n)] for a in range(n)], p)
    return p, (u * gj * z * random_gl_iplus(rng, n, p)).lists(), True


@settings(max_examples=200, deadline=None)
@given(so_cases())
def test_lazy_so_solver_matches_the_eager_elimination(case):
    p, g, inside = case
    res = reference_coset_decompose(g, p)
    assert res == eager_coset_decompose(g, p)
    assert res is not None or not inside


@settings(max_examples=200, deadline=None)
@given(gl_cases())
def test_lazy_gl_solver_matches_the_eager_elimination(case):
    p, g, inside = case
    res = reference_coset_decompose_gl(g, p)
    assert res == eager_coset_decompose_gl(g, p)
    assert res is not None or not inside


# --- the one j whose bottom row can lie in I+ --------------------------------


@st.composite
def gl_bottom_row_cases(draw):
    """(p, rows): a random nonsingular n x n matrix, n in 1..5, whose
    bottom row mixes zeros with entries a * p^e of few valuations, so that
    the least valuation is often tied; or the same with an all-zero bottom
    row (singular)."""
    p, n = draw(st.sampled_from((3, 5, 7))), draw(st.integers(1, 5))
    unit = st.integers(1 - p, p - 1).filter(bool)
    entry = st.one_of(st.just(0), st.builds(lambda a, e: Fraction(a) * Fraction(p) ** e, unit, st.sampled_from((-1, 0, 1))))
    rows = [[Fraction(draw(entry)) for _ in range(n)] for _ in range(n)]
    if any(rows[n - 1]):
        assume(mat_det(rows) != 0)
    return p, rows


@settings(max_examples=300, deadline=None)
@given(gl_bottom_row_cases())
def test_one_j_passes_the_bottom_row_and_the_solver_runs_at_it(case):
    """The j whose g g_chi_gl^(-j), scaled by its bottom-right entry z,
    has its bottom row in I+, found by oracle products over every j, are
    exactly the j at which the oracle's GL solver maps rows: one j for a
    nonzero bottom row, none for a zero one."""
    p, g = case
    n = len(g)
    inv = g_chi_gl(n, p).inv().lists()
    passing = set()
    m = g
    for j in range(n):
        z = m[n - 1][n - 1]
        if z and row_in_iplus(n - 1, scaled([[x / z for x in m[n - 1]]])[0], p):
            passing.add(j)
        m = mat_mul(m, inv)
    mapped = set()
    row_map = oracles.reference_row_times_g_chi_gl_inv

    def recording(row, j, *scale):
        mapped.add(j)
        return row_map(row, j, *scale)

    with mock.patch.object(oracles, "reference_row_times_g_chi_gl_inv", recording):
        res = reference_coset_decompose_gl(g, p)
    assert passing == mapped
    assert len(passing) == (1 if any(g[n - 1]) else 0)
    assert res is None or {res[1]} == passing


# --- the package's row tests against the oracle's in_iplus --------------------


@st.composite
def near_products(draw, cases):
    """(p, rows): a case of cases, with one entry moved by a p-power
    multiple of a unit when the draw says so, so that products u g_chi^i k
    land just inside or just outside their coset."""
    p, rows, _ = draw(cases)
    if draw(st.booleans()):
        n = len(rows)
        r, c = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rows[r][c] += draw(st.integers(1 - p, p - 1)) * Fraction(p) ** draw(st.integers(-1, 2))
    return p, rows


@st.composite
def lower_triangular(draw, cases):
    """(p, rows): a case of cases with every entry above the diagonal
    zeroed, the shape of every integrand at its one coset."""
    p, rows = draw(cases)
    return p, [[x if c <= r else Fraction(0) for c, x in enumerate(row)] for r, row in enumerate(rows)]


def torus_entries(p, near_one):
    """Nonzero entries 1 + p c, which keep a product in its coset and move
    every off-diagonal entry of D u D^(-1), or a p^e, a a small int prime
    to p or not, e in -2..2."""
    if near_one:
        return st.builds(lambda c: Fraction(1 + p * c), st.integers(-p, p))
    return st.builds(lambda a, e: Fraction(a) * Fraction(p) ** e, st.integers(1, 3 * p), st.integers(-2, 2))


def diagonal(entries):
    """The diagonal matrix with those Fraction entries."""
    return [[x if r == c else Fraction(0) for c in range(len(entries))] for r, x in enumerate(entries)]


def odd_cases():
    """Matrices of odd size, any and lower triangular, near the SO
    products and near I+."""
    near = near_products(so_cases())
    return st.one_of(near, lower_triangular(near), lower_triangular(padic_matrices(sizes=st.sampled_from((3, 5)))))


@settings(max_examples=300, deadline=None)
@given(odd_cases(), st.lists(row_factors, min_size=7, max_size=7), st.data())
def test_so_kernel_matches_the_fraction_reference(case, factors, data):
    """The SO row test coset_decompose(rows of m, so_torus(d, n), p)
    against the oracle on m h(d), formed by oracle products: the rows of
    m h(d) when in_iplus holds, None otherwise.  On random matrices, near
    products u g_chi^i k and lower-triangular matrices, each row written
    over a denominator of either sign, with d near 1 or arbitrary."""
    p, m = case
    n = len(m)
    d = data.draw(torus_entries(p, data.draw(st.booleans())))
    g = mat_mul(m, diagonal([d] + [F1] * (n - 2) + [1 / d]))
    res = coset_decompose(rescaled(scaled(m), factors), so_torus(d, n), p)
    assert (None if res is None else unscaled(res)) == (g if in_iplus(g, p) else None)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(near_products(gl_cases()), lower_triangular(padic_matrices())),
    st.lists(row_factors, min_size=4, max_size=4),
    st.data(),
)
def test_gl_kernel_matches_the_fraction_reference(case, factors, data):
    """The GL row test coset_decompose_gl(rows of k, d, p, first) against
    the oracle: the rows first.. of d k when each is in I+ (the oracle's
    in_iplus of the identity with those rows put in), None otherwise."""
    p, k = case
    n = len(k)
    d = data.draw(torus_entries(p, data.draw(st.booleans())))
    first = data.draw(st.integers(0, n - 1))
    want = [[d * x for x in row] for row in k]
    inside = in_iplus(mat_identity(n)[:first] + want[first:], p)
    res = coset_decompose_gl(rescaled(scaled(k), factors), d, p, first)
    assert (None if res is None else unscaled(res)) == (want[first:] if inside else None)


@settings(max_examples=300, deadline=None)
@given(
    lower_triangular(st.one_of(near_products(so_cases()), near_products(gl_cases()), gl_bottom_row_cases(), padic_matrices())),
    st.data(),
)
def test_the_factors_of_m_scaled_by_a_torus_are_those_of_m_d_and_d_m(case, data):
    """The lemma's linear algebra: a lower-triangular g is its own
    U * I+ factorization, u = 1 and k = g, when g is in I+, and lies
    outside U * I+ otherwise.  So for m lower triangular and D diagonal,
    the oracle's elimination of m D and of D m, formed by oracle products,
    gives (1, m D) and (1, D m) exactly when in_iplus holds.  The
    package's row tests agree, as the enumeration runs them: on m h(d)
    for odd sizes (coset_decompose), and on D m for D = diag(d, ..., d,
    1, ..., 1), testing the rows D leaves alone at d = 1 first
    (coset_decompose_gl), as _side_buckets does."""
    p, m = case
    n = len(m)
    entries = torus_entries(p, data.draw(st.booleans()))
    d = [data.draw(entries) for _ in range(n)]
    for g in (mat_mul(m, diagonal(d)), mat_mul(diagonal(d), m)):
        assert eliminate(g, p) == ((mat_identity(n), g) if in_iplus(g, p) else None)
    rows = scaled(m)
    if n % 2 and n > 1:
        g = mat_mul(m, diagonal([d[0]] + [F1] * (n - 2) + [1 / d[0]]))
        res = coset_decompose(rows, so_torus(d[0], n), p)
        assert (None if res is None else unscaled(res)) == (g if eliminate(g, p) else None)
    count = data.draw(st.integers(1, n))
    g = mat_mul(diagonal([d[0]] * count + [F1] * (n - count)), m)
    res = None if coset_decompose_gl(rows, F1, p, count) is None else coset_decompose_gl(rows[:count], d[0], p)
    assert (None if res is None else unscaled(res)) == (g[:count] if eliminate(g, p) else None)


def recorded(monkeypatch, name):
    """(args, result) of every call of the row test integrals binds as
    name, in call order, while the enumeration runs."""
    calls = []
    test = getattr(integrals, name)

    def recording(*args):
        calls.append((args, test(*args)))
        return calls[-1][1]

    monkeypatch.setattr(integrals, name, recording)
    return calls


def test_kernels_match_the_fraction_reference_on_the_brute_force_windows(monkeypatch):
    """The enumeration's own row tests at every point of the brute-force
    windows at SO (p, l, N, V) = (3, 2, 2, 1), both sides, and of both
    JPSS sides at (n, p) = (3, 3), N = 2, V = 1, recorded in loop order
    as the enumeration runs them, against the Fraction reference on the
    point's integrand, formed by oracle products: the product of named
    elements on SO, where the reference finds i = 0 at every Phi point
    and i = 1 at every Phi* point; a times the dual integrand, and
    diag(a, 1, 1) on the plain side.  Wherever the reference finds
    factors, u = 1 and the rows the row test returns are its k (on the
    JPSS sides the rows of k that a scales), so nothing but a row test is
    needed; wherever it finds none, the row test fails.  A dual x that
    the enumeration rejects before any a (its bottom row of k fails, at
    d = 1) has no point in any coset."""
    p, ell, level = 3, 2, 2
    ys = [c for c, _ in _y_windows(p, level, 1, "brute-force")[1]]
    found = 0
    for side in ("phi", "phi_star"):
        calls = recorded(monkeypatch, "coset_decompose")
        _side_buckets(side, p, 2 * ell + 1, level, 1, "brute-force")
        zs = _z_windows(p, level, 1, "brute-force", _SIDES[side][0])[1]
        points = [(z, y) for z, _ in zs for y in itertools.product(ys, repeat=ell - 1)]
        assert len(calls) == len(points) == 30 * 81
        for (z, y), (_, res) in zip(points, calls):
            want = reference_coset_decompose(generic_matrix(p, ell, side, z, y).rows, p)
            assert (res is None) == (want is None), (side, z, y)
            if want is not None:
                u, i, k = want
                assert (u, i, unscaled(res)) == (mat_identity(2 * ell + 1), int(side == "phi_star"), k), (side, z, y)
                found += 1
    assert found == 18
    n = 3
    xs = [c for c, _ in _y_windows(p, level, 0, "brute-force")[1]]
    found = 0
    for side in ("plain", "dual"):
        calls = recorded(monkeypatch, "coset_decompose_gl")
        _side_buckets(side, p, n, level, 1, "brute-force")
        inner = list(itertools.product(xs, repeat=n - 2)) if side == "dual" else [()]
        count = n - 1 if side == "dual" else 1
        prepared = calls[: len(inner)]
        assert all(args[1:] == (F1, p, count) for args, _ in prepared)
        accepted = {x for x, (_, res) in zip(inner, prepared) if res is not None}
        points = iter(calls[len(inner) :])
        for a, _ in _z_windows(p, level, 1, "brute-force", 0)[1]:
            for x in inner:
                if side == "dual":
                    g = [[a * v for v in row] for row in jpss_dual_integrand(a, x, n, p)]
                else:
                    g = diagonal([a] + [F1] * (n - 1))
                want = reference_coset_decompose_gl(g, p)
                if x not in accepted:
                    assert want is None, (side, a, x)
                    continue
                (rows, d, *_), res = next(points)
                assert d == a and (res is None) == (want is None), (side, a, x)
                if want is not None:
                    u, j, _, k = want
                    assert (u, j, unscaled(res)) == (mat_identity(n), int(side == "dual"), k[:count]), (side, a, x)
                    found += 1
        assert next(points, None) is None
    assert found == 3 + 3 * 9
