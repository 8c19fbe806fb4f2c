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
from ssgamma import integrals, matrices
from ssgamma.integrals import _gl_buckets, _gl_dual_rows, _so_buckets, _y_windows, _z_windows
from ssgamma.matrices import (
    F1,
    SingularMatrix,
    _solve_row,
    _torus_k,
    coset_decompose,
    coset_decompose_gl,
    factor_u_k,
    gl_coset,
    mat_inv,
    row_in_iplus,
    row_times_g_chi_gl_inv,
    so_torus,
)


def ones(n):
    """The diagonal of the identity, as a scaled row."""
    return [1] * n, 1


def eliminate(rows, p):
    """The U * I+ factorization of the matrix m of the scaled rows: the
    factors of m (factor_u_k) with every row of k tested, (u, k), or None
    when m is outside U * I+."""
    factors = factor_u_k(rows)
    k = None if factors is None else _torus_k(factors[1], ones(len(rows)), p, False)
    return None if k is None else (factors[0], k)


def coset_solve(g, i, p, factors=None):
    """coset_decompose of g g_chi^(-i) = g g_chi^i, g given by its Fraction
    rows, as that times h(1): the product formed by the oracle's row map,
    written over the denominators factors when given; (u, k) or None."""
    rows = scaled([reference_row_times_g_chi_so(row, p) for row in g] if i else g)
    if factors:
        rows = rescaled(rows, factors)
    return coset_decompose(factor_u_k(rows), so_torus(F1, len(g)), p)


def so_solve(g, p, factors=None):
    """(u, i, k) with g g_chi^(-i) = u k, or None: the one-coset solver
    at i = 0, then at i = 1 (coset_solve)."""
    for i in (0, 1):
        res = coset_solve(g, i, p, factors)
        if res is not None:
            return res[0], i, res[1]
    return None


def gl_solve(rows, p):
    """coset_decompose_gl of g, given by its scaled rows, as g = 1 g."""
    return coset_decompose_gl(gl_coset(rows, p), ones(len(rows)), p)


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
    res = eliminate(scaled(m.rows), p)
    assert res is not None
    u2, k2 = res
    assert in_iplus(unscaled(k2), p)


@pytest.mark.parametrize("ell,p", [(1, 3), (2, 5), (3, 3)])
def test_coset_roundtrip_random(ell, p):
    rng = random.Random(100 * ell + p)
    gchi = g_chi_so(ell, p)
    for _ in range(20):
        u = random_so_unipotent(rng, ell, p, integral=False)
        i = rng.randrange(2)
        k = random_so_iplus(rng, ell, p)
        g = u * (gchi if i else GroupMatrix.make([[1 if a == b else 0 for b in range(2 * ell + 1)] for a in range(2 * ell + 1)], p, "SO_odd")) * k
        res = coset_solve(g.lists(), i, p)
        assert res is not None
        assert coset_solve(g.lists(), 1 - i, p) is None
        assert reference_coset_decompose(g.rows, p)[1] == i
        assert recompose((res[0], i, res[1]), gchi).rows == g.rows
        u2, k2 = (GroupMatrix.make(unscaled(x), p, "SO_odd", verify=False) for x in res)
        assert in_iplus(k2.rows, p)
        # the unique factors of an SO element are fixed by g -> g*
        assert so_check(u2) and so_check(k2)


def test_coset_decompose_rejects_outside():
    # a torus element with nonunit diagonal lies in no U g_chi^i I+ coset
    p = 3
    h = embed_j(torus_so2(Fraction(p * p), p), 1)
    assert so_solve(h.lists(), p) is None


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
        res = gl_solve(scaled(g.rows), p)
        assert res is not None
        u2, j2, z2, k2 = res
        assert j2 == j
        # g g_chi^(-j) = z u k, so g = z u k g_chi^j
        zmat = GroupMatrix.make([[z2 if a == b else 0 for b in range(n)] for a in range(n)], p)
        k2 = GroupMatrix.make(unscaled(k2), p)
        assert in_iplus(k2.rows, p)
        rec = zmat * GroupMatrix.make(unscaled(u2), p) * k2
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
    c = _solve_row(a, v)
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
    with pytest.raises(SingularMatrix):
        _solve_row(a, [Fraction(1)] * n)


# --- the U * I+ factorization -------------------------------------------------


def assert_u_iplus_factors(m, res, p):
    """u unit upper triangular, k lower triangular with every row in I+,
    and u k = m, each returned in the one reduced scaled form."""
    assert [scaled(unscaled(f)) for f in res] == list(res)
    u, k = map(unscaled, res)
    n = len(m)
    assert all(u[i][j] == (i == j) for i in range(n) for j in range(i + 1))
    assert all(k[i][j] == 0 for i in range(n) for j in range(i + 1, n))
    assert in_iplus(k, p)
    assert mat_mul(u, k) == m


@given(padic_matrices(), st.lists(row_factors, min_size=4, max_size=4))
def test_u_iplus_factors_of_any_matrix(case, factors):
    """Whatever denominators, of either sign, the rows are written over."""
    p, m = case
    res = eliminate(rescaled(scaled(m), factors), p)
    if res is not None:
        assert_u_iplus_factors(m, res, p)


@given(st.sampled_from((3, 5, 7)), st.integers(1, 5), st.randoms(use_true_random=False), st.data())
def test_u_times_iplus_always_factors(p, n, rng, data):
    # u0 unit upper triangular with p-power denominators, k0 in I+ (not triangular)
    entry = st.builds(lambda a, e: Fraction(a, p**e), st.integers(-2 * p, 2 * p), st.integers(0, 2))
    u0 = [[Fraction(i == j) if i >= j else data.draw(entry) for j in range(n)] for i in range(n)]
    m = mat_mul(u0, random_gl_iplus(rng, n, p).lists())
    res = eliminate(scaled(m), p)
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
        mapped = [row_times_g_chi_gl_inv(row, j, pz.numerator, pz.denominator, p) for row in scaled(m)]
        assert unscaled(mapped) == want
        product = mat_mul(product, inv)


@settings(max_examples=150, deadline=None)
@given(padic_matrices(sizes=st.sampled_from((3, 5, 7))))
def test_so_column_map_is_the_product_with_g_chi(case):
    p, g = case
    want = mat_mul(g, g_chi_so(len(g) // 2, p).lists())
    assert [reference_row_times_g_chi_so(row, p) for row in g] == want


# --- the solvers, which map one row at a time, against the elimination on ------
# --- the fully formed product ------------------------------------------------


def eager_coset_decompose(g, p):
    """so_solve with every g g_chi^(-i) formed by the oracle's matrix
    product, factored and tested by the elimination (eliminate)."""
    n = len(g)
    gchi = g_chi_so(n // 2, p).lists()
    for i in (0, 1):
        res = eliminate(scaled(mat_mul(g, gchi) if i else g), p)
        if res is not None:
            return res[0], i, res[1]
    return None


def eager_coset_decompose_gl(g, p):
    """coset_decompose_gl with every g g_chi^(-j) / z formed in full by
    oracle products before it is factored."""
    n = len(g)
    inv = g_chi_gl(n, p).inv().lists()
    m = g
    for j in range(n):
        z = m[n - 1][n - 1]
        if z:
            res = eliminate(scaled([[x / z for x in row] for row in m]), p)
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
    res = so_solve(g, p)
    assert res == eager_coset_decompose(g, p)
    assert res is not None or not inside


@settings(max_examples=200, deadline=None)
@given(gl_cases())
def test_lazy_gl_solver_matches_the_eager_elimination(case):
    p, g, inside = case
    res = gl_solve(scaled(g), p)
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
    exactly the j at which gl_coset maps rows: one j for a nonzero bottom
    row, none for a zero one."""
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

    def recording(row, j, *scale):
        mapped.add(j)
        return row_times_g_chi_gl_inv(row, j, *scale)

    with mock.patch.object(matrices, "row_times_g_chi_gl_inv", recording):
        res = gl_solve(scaled(g), p)
    assert passing == mapped
    assert len(passing) == (1 if any(g[n - 1]) else 0)
    assert res is None or {res[1]} == passing


# --- the integer kernel against the Fraction elimination it replaced ----------


def reference_factors(res):
    """The Fraction reference's factors in the reduced scaled form the
    integer kernel returns them in; i, j and z as they are."""
    return None if res is None else tuple(scaled(x) if isinstance(x, list) else x for x in res)


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


@settings(max_examples=300, deadline=None)
@given(near_products(so_cases()), st.lists(row_factors, min_size=7, max_size=7))
def test_so_kernel_matches_the_fraction_reference(case, factors):
    """The same verdict and == factors as the Fraction elimination, on
    random matrices, random and nearly random u g_chi^i k in SO, each
    row written over a denominator of either sign."""
    p, g = case
    rows = rescaled(scaled(g), factors)
    assert so_solve(g, p, factors) == reference_factors(reference_coset_decompose(g, p))
    n = len(g)
    assert eliminate(rows, p) == reference_factors(reference_eliminate_u_iplus(reversed(g), n, p))


@settings(max_examples=300, deadline=None)
@given(near_products(gl_cases()), st.lists(row_factors, min_size=4, max_size=4))
def test_gl_kernel_matches_the_fraction_reference(case, factors):
    p, g = case
    rows = rescaled(scaled(g), factors)
    assert gl_solve(rows, p) == reference_factors(reference_coset_decompose_gl(g, p))


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


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(near_products(so_cases()), near_products(gl_cases()), gl_bottom_row_cases()),
    st.lists(row_factors, min_size=7, max_size=7),
    st.data(),
)
def test_the_factors_of_m_scaled_by_a_torus_are_those_of_m_d_and_d_m(case, factors, data):
    """m is factored once, and the factors of m D and D m, D diagonal, are
    those of m with k scaled by D: m D = u (k D) and D m = (D u D^(-1))
    (D k).  Each against the Fraction reference on the product formed
    by oracle products: the elimination (factor_u_k, then _torus_k) of
    m D for any D; the SO solver on g = m h(d), h(d) = diag(d, 1, ..., 1,
    1/d), at both coset indices: factor_u_k of m with so_torus of d, and
    of m g_chi with so_torus of 1/d, since g g_chi = m g_chi h(1/d); and
    the GL solver on D m for D with last entry 1 (gl_coset of m).  On tied
    and zero bottom rows, near products just inside or outside their
    coset, and rows over denominators of either sign."""
    p, m = case
    n = len(m)
    rows = rescaled(scaled(m), factors)
    entries = torus_entries(p, data.draw(st.booleans()))
    d = [data.draw(entries) for _ in range(n)]
    res = factor_u_k(rows)
    k = None if res is None else _torus_k(res[1], scaled([d])[0], p, False)
    want = reference_eliminate_u_iplus(reversed(mat_mul(m, diagonal(d))), n, p)
    assert (None if k is None else (res[0], k)) == reference_factors(want)
    if n % 2 and n > 1:
        h = [d[0]] + [F1] * (n - 2) + [1 / d[0]]
        m_chi = [reference_row_times_g_chi_so(row, p) for row in m]
        got = [coset_decompose(factor_u_k(rescaled(scaled(x), factors)), so_torus(e, n), p) for x, e in ((m, d[0]), (m_chi, 1 / d[0]))]
        want = reference_factors(reference_coset_decompose(mat_mul(m, diagonal(h)), p))
        assert got == [None if want is None or want[1] != i else (want[0], want[2]) for i in (0, 1)]
    d[-1] = F1
    got = coset_decompose_gl(gl_coset(rows, p), scaled([d])[0], p)
    assert got == reference_factors(reference_coset_decompose_gl(mat_mul(diagonal(d), m), p))


def recorded(monkeypatch, name):
    """The results of every call of the solver integrals binds as name,
    in call order, while the enumeration runs."""
    results = []
    solver = getattr(integrals, name)

    def recording(*args):
        results.append(solver(*args))
        return results[-1]

    monkeypatch.setattr(integrals, name, recording)
    return results


def test_kernels_match_the_fraction_reference_on_the_brute_force_windows(monkeypatch):
    """The enumeration's own verdict and factors at every point of the
    brute-force windows at SO (p, l, N, V) = (3, 2, 2, 1), both sides, and
    of both JPSS sides at (n, p) = (3, 3), N = 2, V = 1, recorded in loop
    order as the enumeration values them (each inner point factored once,
    each point its factors scaled by its torus), against the Fraction
    reference on the point's integrand, formed by oracle products: the
    product of named elements on SO, where the reference finds i = 0 at
    every Phi point and i = 1 at every Phi* point; the rows at a = 1
    times diag(a, ..., a, 1) on the JPSS dual side and diag(a, 1, 1) on
    the plain side."""
    p, ell, level = 3, 2, 2
    ys = [c for c, _ in _y_windows(p, level, 1, "brute-force")[1]]
    found = 0
    for side in ("phi", "phi_star"):
        results = recorded(monkeypatch, "coset_decompose")
        _so_buckets(p, ell, level, 1, "brute-force", side, (F1,) * (ell + 1))
        zs = _z_windows(p, level, 1, "brute-force", side)[1]
        points = [(z, y) for z, _ in zs for y in itertools.product(ys, repeat=ell - 1)]
        assert len(results) == len(points) == 30 * 81
        for (z, y), res in zip(points, results):
            want = reference_factors(reference_coset_decompose(generic_matrix(p, ell, side, z, y).rows, p))
            assert res == (None if want is None else (want[0], want[2])), (side, z, y)
            assert want is None or want[1] == (side == "phi_star"), (side, z, y)
            found += res is not None
    assert found == 18
    n = 3
    xs = [c for c, _ in _y_windows(p, level, 0, "brute-force")[1]]
    found = 0
    for side in ("plain", "dual"):
        results = recorded(monkeypatch, "coset_decompose_gl")
        _gl_buckets(n, p, level, 1, side)
        inner = list(itertools.product(xs, repeat=n - 2)) if side == "dual" else [()]
        points = [(a, x) for a, _ in _z_windows(p, level, 1, "brute-force", "phi")[1] for x in inner]
        assert len(results) == len(points)
        for (a, x), res in zip(points, results):
            if side == "dual":
                g = mat_mul(diagonal([a] * (n - 1) + [F1]), unscaled(_gl_dual_rows(x)))
            else:
                g = diagonal([a] + [F1] * (n - 1))
            assert res == reference_factors(reference_coset_decompose_gl(g, p)), (side, a, x)
            found += res is not None
    assert found == 3 + 3 * 9
