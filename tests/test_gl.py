"""The JPSS GL(n) x GL(1) enumeration, integrals._gl_buckets.

The enumeration is the SO one: each side is one call of _enumerate, the
single point loop and tame-class merge of integrals.py, and one
(buckets, record) entry of the one bucket store, as each SO side is.  a
runs over the brute-force multiplicative window _z_windows and each x
coordinate over _y_windows at V = 0 (o mod p^N plus the p^(-1) shell).
The plain side runs at rank 0 and the dual side at rank n - 2.  By the
lemma of integrals.py a point is D k at its one coset index j, with k
lower triangular, and W there is zeta^j when every row of D k lies in
I+, and 0 otherwise.  The enumeration counts the points that pass, and
jpss_gl_gamma applies the side's zeta^j to its bucket sum.
D = diag(a, 1, ..., 1) and k = 1 at j = 0 on the plain side, and
on the dual side D = diag(a, ..., a, 1) and k the rows _gl_dual_rows
writes in closed form at j = 1, since a times the integrand is
D k g_chi / p.  The rows of k that D leaves alone are tested once per x.

The first test checks the closed form against a times the generic
product with the oracle's inverse, which shares none of its path.  The
next ones check the engine against the generic Whittaker function of
tests/oracles.py, which factors with its own Fraction solvers: on
random window points (the dual side's value on a times the integrand
against the oracle's on the integrand itself, so the trivial central
character is checked too, and W(g g_chi^r) = zeta^r W(g) for every r),
and at every window point at (n, p) = (3, 3) and (4, 3).  There the lemma
is checked with oracle products alone: W is zeta^j times the oracle's
in_iplus of the integrand at its index; and its j != 1 half: a dual
point whose bottom row names another j lies in no double coset, since
a bottom-right minor vanishes.  whittaker_eval itself is checked on
sampled u g_chi^j k against the value read off the sampled factors.
The buckets of both sides, keyed (side, j, a0) as one dict with j the
side's zeta power, are pinned by sha256 digests of their records, taken from the implementation that
built every argument and every rotation by generic inversion and
products, and summed every point's value as an ExactScalar.  The
support lemma of both sides is read off their records of nonzero
points, and the enumeration, which tests the rows D leaves alone once
per x, is checked against a point loop that tests every row of every
point.  The last test counts calls, so that a per-point inversion, or a
per-point test of a row that a leaves alone, cannot come back unseen.
"""

import hashlib
import itertools
import json
import random
from fractions import Fraction
from functools import lru_cache
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (
    GroupMatrix,
    WhittakerSpec,
    _psi_u,
    affine_chi,
    g_chi_gl,
    in_iplus,
    jpss_dual_integrand,
    mat_det,
    mat_identity,
    mat_mul,
    random_gl_iplus,
    reference_coset_decompose_gl,
    unscaled,
    whittaker_eval,
)
from ssgamma.characters import tame_class
from ssgamma.cyclotomic import CyclotomicNumber as C
from ssgamma.integrals import (
    _entry,
    _gl_buckets,
    _gl_dual_rows,
    _unit_rows,
    _y_windows,
    _z_windows,
)
from ssgamma.matrices import F1, coset_decompose_gl
from ssgamma.padic import rational_valuation
from ssgamma.scalars import ExactScalar

LEVEL, CUTOFF = 2, 1


def a_window(p):
    """The a of _gl_buckets: p^v u, |v| <= V + 1 (the padding shell
    included), u a unit mod p^N."""
    units = st.integers(1, p**LEVEL - 1).filter(lambda u: u % p)
    return st.builds(lambda v, u: Fraction(p) ** v * u, st.integers(-CUTOFF - 1, CUTOFF + 1), units)


def x_window(p):
    """The x coordinates of _gl_buckets: o mod p^N, and the p^(-1) shell."""
    shell = st.integers(1, p ** (LEVEL + 1) - 1).filter(lambda u: u % p)
    return st.one_of(st.integers(0, p**LEVEL - 1).map(Fraction), shell.map(lambda u: Fraction(u, p)))


def dual_rows(a, x, p):
    """The rows of D k at the dual point (a, x): the rows _gl_dual_rows
    writes, times diag(a, ..., a, 1)."""
    rows = _gl_dual_rows(x, p)
    return [([v * a.numerator for v in nums], d * a.denominator) for nums, d in rows[:-1]] + rows[-1:]


def at_index(a, x, n, p, dual):
    """The integrand at the point (a, x), times a on the dual side, times
    g_chi^(-j) / z at its index j, by oracle products: diag(a, 1, ..., 1)
    on the plain side (j = 0, z = 1), a times the dual integrand times
    g_chi^(-1) p on the dual side (j = 1, z = 1/p)."""
    if not dual:
        g = mat_identity(n)
        g[0][0] = a
        return g
    g = mat_mul([[a * v for v in row] for row in jpss_dual_integrand(a, x, n, p)], g_chi_gl(n, p).inv().lists())
    return [[p * v for v in row] for row in g]


def passes_at(a, x, n, p, dual):
    """Whether _gl_buckets finds the point (a, x): whether the rows of k
    that D leaves alone pass the row test at d = 1, made once per x, and
    those it scales pass at d = a."""
    rows = _gl_dual_rows(x, p) if dual else _unit_rows(n, range(n))
    count = n - 1 if dual else 1
    return coset_decompose_gl(rows, F1, p, count) is not None and coset_decompose_gl(rows[:count], a, p) is not None


def recorded(a, x, n, p, side):
    """Whether the enumeration records the point (a, x) of its window."""
    return (a, x) in _entry(_gl_buckets, n, p, LEVEL, CUTOFF, side)[1]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from((2, 3, 4)), st.sampled_from((3, 5, 7)), st.data())
def test_dual_rows_equal_the_generic_product(n, p, data):
    """D k is a times the integrand times g_chi^(-1) p: the rows at j = 1
    in closed form, against the generic product with the oracle's
    inverse.  The central character is trivial, so a times the integrand
    has its value."""
    a = data.draw(a_window(p))
    x = tuple(data.draw(x_window(p)) for _ in range(n - 2))
    assert unscaled(dual_rows(a, x, p)) == at_index(a, x, n, p, True)


def primitive_root_of_unity(n, data):
    return C.root_of_unity(n, data.draw(st.sampled_from([k for k in range(1, n) if gcd(k, n) == 1])))


def kernel_value(p, zeta, j, found):
    """The engine's value of a point of a side at zeta power j: zeta^j
    when the point passes its row test (found), 0 otherwise."""
    return ExactScalar.from_coeff(p, zeta**j) if found else ExactScalar.zero(p)


@st.composite
def window_points(draw):
    """(n, p, dual, a, x, e): a point _gl_buckets evaluates, x = () on the
    plain side, and the primitive n-th root of unity zeta_n^e."""
    n, p, dual = draw(st.sampled_from((2, 3, 4))), draw(st.sampled_from((3, 5, 7))), draw(st.booleans())
    a = draw(a_window(p))
    x = tuple(draw(x_window(p)) for _ in range(n - 2)) if dual else ()
    e = draw(st.sampled_from([e for e in range(1, n) if gcd(e, n) == 1]))
    return n, p, dual, a, x, e


# dual points of the support, a in p^(-1)(1 + p) and x in o, where the
# one row of k that a leaves alone is the bottom row, whose 1 sits on the
# diagonal only at j = 1
@example((2, 3, True, Fraction(4, 3), (), 1))
@example((3, 5, True, Fraction(11, 5), (Fraction(7),), 2))
@example((4, 3, True, Fraction(7, 3), (Fraction(0), Fraction(8)), 3))
@example((4, 7, True, Fraction(8, 7), (Fraction(6), Fraction(1)), 1))
@settings(max_examples=200, deadline=None)
@given(window_points())
def test_evaluator_matches_whittaker_eval_on_the_windows(point):
    """The points _gl_buckets evaluates, valued as it values them (zeta^j
    where its row test passes, 0 elsewhere), against the oracle's W at the integrand
    itself: diag(a, I_(n-1)) on the plain side, and on the dual side the
    integrand whose a-multiple the engine values.  And the oracle's own
    W(g g_chi^r) = zeta^r W(g) for every r: its solver runs at another j
    at each r."""
    n, p, dual, a, x, e = point
    if dual:
        integrand = jpss_dual_integrand(a, x, n, p)
    else:
        integrand = mat_identity(n)
        integrand[0][0] = a
    zeta = C.root_of_unity(n, e)
    spec = WhittakerSpec(p, "GL", n, zeta)
    g = GroupMatrix.make(integrand, p)
    got = kernel_value(p, zeta, int(dual), passes_at(a, x, n, p, dual))
    assert got == whittaker_eval(spec, g)
    for r in range(1, n):
        g = g * g_chi_gl(n, p)
        assert whittaker_eval(spec, g) == ExactScalar.from_coeff(p, zeta**r) * got


WINDOWS = [(3, 3), (4, 3)]


@lru_cache(maxsize=None)
def window_values(n, p, side):
    """(a, x, g, W) at every point of side's window at (n, p), in loop
    order: g the point's integrand at its index (at_index) and W the
    oracle's whittaker_eval of a times the integrand on the dual side, of
    diag(a, 1, ..., 1) on the plain side, at a primitive n-th root of
    unity.  The dual integrand, and it times g_chi^(-1) p, are formed once
    per x at a = 1, and a times the integrand is diag(a, ..., a, 1) times
    it at a = 1: the identity test_dual_rows_equal_the_generic_product
    checks."""
    dual = side == "dual"
    spec = WhittakerSpec(p, "GL", n, C.root_of_unity(n, 1))
    gchi_inv = g_chi_gl(n, p).inv().lists()
    xs = [c for c, _ in _y_windows(p, LEVEL, 0, "brute-force")[1]]
    inner = list(itertools.product(xs, repeat=n - 2)) if dual else [()]
    base = {}
    for x in inner if dual else ():
        m = jpss_dual_integrand(F1, x, n, p)
        base[x] = m, [[p * v for v in row] for row in mat_mul(m, gchi_inv)]

    def times_d(a, rows):
        return [[a * v for v in row] for row in rows[:-1]] + rows[-1:]

    out = []
    for a, _ in _z_windows(p, LEVEL, CUTOFF, "brute-force", "phi")[1]:
        for x in inner:
            if dual:
                w, g = (times_d(a, rows) for rows in base[x])
            else:
                w = g = at_index(a, x, n, p, False)
            out.append((a, x, g, whittaker_eval(spec, GroupMatrix(tuple(map(tuple, w)), p, "GL"))))
    return out


def test_evaluator_matches_whittaker_eval_on_the_support():
    """The engine against the oracle at every point of both sides'
    windows at (n, p) = (3, 3) and (4, 3), N = 2, V = 1: zeta^j where the
    enumeration records the point, and 0 where it records nothing, is
    whittaker_eval of the point.  This test sampled u g_chi^j k with
    general u while the engine had a general solver;
    test_whittaker_eval_reads_the_sampled_factors keeps that sampling on
    the oracle."""
    for n, p in WINDOWS:
        zeta = C.root_of_unity(n, 1)
        for side in SIDES:
            j = int(side == "dual")
            points = window_values(n, p, side)
            for a, x, _, want in points:
                assert kernel_value(p, zeta, j, recorded(a, x, n, p, side)) == want, (n, side, a, x)
            # a in one class of p^(N-1) units, each x_i in o mod p^N on the dual side
            found = p ** (LEVEL - 1) * (p ** (LEVEL * (n - 2)) if side == "dual" else 1)
            assert sum(not want.is_zero() for *_, want in points) == found
            assert len(_entry(_gl_buckets, n, p, LEVEL, CUTOFF, side)[1]) == found


@pytest.mark.parametrize("n,p", WINDOWS)
def test_w_is_zeta_j_times_the_row_test_of_the_integrand(n, p):
    """The lemma behind the engine's row test, with oracle products alone,
    at every point of both sides' windows: W is zeta^j times whether the
    integrand at its index j (at_index) lies in I+, j = 0 on the plain
    side and 1 on the dual side."""
    zeta = C.root_of_unity(n, 1)
    for side in SIDES:
        j = int(side == "dual")
        for a, x, g, want in window_values(n, p, side):
            assert want == kernel_value(p, zeta, j, in_iplus(g, p)), (side, a, x)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from((2, 3, 4)), st.sampled_from((3, 5, 7)), st.data())
def test_the_dual_integrand_meets_no_coset_off_j_1(n, p, data):
    """The j != 1 half of the lemma, with oracle products alone.  For
    g = a times the dual integrand and every j != 1, the bottom-right
    block (rows and columns 1..n-1) of g g_chi^(-j) has determinant 0:
    column 1 of g is nonzero in row 0 alone, and g_chi^(-j) moves it into
    the block.  A point of U g_chi^j Z I+ has g g_chi^(-j) = z u k, whose
    block has the unit determinant z^(n-1) det k[1:, 1:].  So only j = 1
    is left, which the bottom row of k at j = 1 decides: a point whose x
    has an x_i outside o lies in no coset.  As a negative control, at
    j = 1, with a in p^(-1) (1 + p) and every x_i in o, the block of
    g g_chi^(-1) / z, z = 1/p, has a unit determinant."""
    a = data.draw(a_window(p))
    x = tuple(data.draw(x_window(p)) for _ in range(n - 2))
    inv = g_chi_gl(n, p).inv().lists()
    m = [[a * v for v in row] for row in jpss_dual_integrand(a, x, n, p)]
    for j in range(n):
        if j != 1:
            assert mat_det([row[1:] for row in m[1:]]) == 0, j
        m = mat_mul(m, inv)
    a = Fraction(1 + p * data.draw(st.integers(-p, p)), p)
    x = tuple(Fraction(data.draw(st.integers(-p * p, p * p))) for _ in range(n - 2))
    det = mat_det([row[1:] for row in at_index(a, x, n, p, True)[1:]])
    assert det and rational_valuation(det, p) == 0


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from((2, 3, 4)),
    st.sampled_from((3, 5, 7)),
    st.booleans(),
    st.integers(0, 2**32),
    st.data(),
)
def test_whittaker_eval_reads_the_sampled_factors(n, p, integral, seed, data):
    """The oracle on points u g_chi^j k with u upper unipotent (with
    entries in p^(-1) unless integral) and k in I+, so W takes general
    values there, which no integrand reaches: whittaker_eval is
    zeta^j psi_U(u) chi(k) read off the sampled factors, and its solver
    picks the index j."""
    rng = random.Random(seed)
    j = data.draw(st.integers(0, n - 1))
    u = mat_identity(n)
    for r in range(n):
        for c in range(r + 1, n):
            u[r][c] = Fraction(rng.randint(-2 * p, 2 * p), p ** (0 if integral else rng.randint(0, 1)))
    u = GroupMatrix.make(u, p)
    g = u
    for _ in range(j):
        g = g * g_chi_gl(n, p)
    k = random_gl_iplus(rng, n, p)
    g = g * k
    assert reference_coset_decompose_gl(g.rows, p)[1] == j
    zeta = primitive_root_of_unity(n, data)
    spec = WhittakerSpec(p, "GL", n, zeta)
    direct = zeta**j * _psi_u(spec, u) * affine_chi(k, t=spec.t, flavor="GL")
    assert whittaker_eval(spec, g) == ExactScalar.from_coeff(p, direct)


SIDES = ("plain", "dual")


def bucket_digest(buckets):
    """The digest of the buckets of both sides, one dict keyed (side, a0),
    each keyed by (side, j, a0) with j the side's zeta power, as they were
    keyed when the digests were taken."""
    records = [
        [side, int(side == "dual"), str(a), part.to_records()]
        for (side, a), part in sorted(buckets.items(), key=lambda kv: kv[0])
    ]
    return hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize(
    "n,p,digest",
    [
        (2, 3, "4f0644d426efc16ece1e30404b49106da43530af59e3922307364137ac9dc1cd"),
        (2, 5, "cbb8ef071bcd5402f2dc435890cfa4592b76f59513a28f305a3be421022db913"),
        (3, 3, "5a8ad50a242875bc440109ebcb06ee82543aebe43c15e04857448e278ce9b61c"),
        (3, 5, "240ec5d98bb77f8f93ed17dd3e5c43cad6e1009e48d73ae2ee335ddc721c013c"),
    ],
)
def test_gl_buckets_are_pinned(n, p, digest):
    # _gl_buckets is the enumeration itself, one side a call; the store
    # sits in front of it.  The digests were taken of both sides in one
    # dict keyed (side, j, a0).
    both = {(side, a0): part for side in SIDES for a0, part in _gl_buckets(n, p, LEVEL, CUTOFF, side)[0].items()}
    assert bucket_digest(both) == digest


def pointwise_side(n, p, side):
    """(buckets, record) of one JPSS side by a point loop of its own: every
    row of D k at every point (a, x), in the enumeration's loop order,
    tested at once (coset_decompose_gl at d = 1); the points where they
    all pass counted per tame class of a point by point, keyed by the
    least a of the class, and recorded with whether they lie on the
    padding shell."""
    a_weight, as_ = _z_windows(p, LEVEL, CUTOFF, "brute-force", "phi")
    x_weight, xs = _y_windows(p, LEVEL, 0, "brute-force")
    rank = 0 if side == "plain" else n - 2
    record, sums = {}, {}
    for a, a_shell in as_:
        for combo in itertools.product(xs, repeat=rank):
            x = tuple(c for c, _ in combo)
            if side == "plain":
                rows = [([a.numerator if r == c == 0 else a.denominator * (r == c) for c in range(n)], a.denominator) for r in range(n)]
            else:
                rows = dual_rows(a, x, p)
            if coset_decompose_gl(rows, F1, p) is None:
                continue
            record[(a, x)] = a_shell or any(s for _, s in combo)
            least, total = sums.get(tame_class(a, p), (a, 0))
            sums[tame_class(a, p)] = min(least, a), total + 1
    weight = a_weight * x_weight**rank
    return {a0: weight * ExactScalar.from_coeff(p, c) for a0, c in sums.values()}, record


@pytest.mark.parametrize("n,p", [(2, 3), (3, 3), (4, 3), (3, 5)])
def test_the_bottom_step_made_once_per_x_changes_no_point(n, p):
    """_gl_buckets tests the rows of k that D leaves alone once per x (once
    per side on the plain side, whose k is the identity for every a): the
    bottom row on the dual side, rows 1..n-1 on the plain side.  Each
    point tests the rows D scales by its a.  Each side's buckets and
    record, the record's order included, are those of pointwise_side,
    which tests every row of every point."""
    for side in SIDES:
        buckets, record = _gl_buckets(n, p, LEVEL, CUTOFF, side)
        want_buckets, want_record = pointwise_side(n, p, side)
        assert list(record.items()) == list(want_record.items()), side
        assert buckets == want_buckets, side
        assert {key: part.to_records() for key, part in buckets.items()} == {
            key: part.to_records() for key, part in want_buckets.items()
        }, side


@pytest.mark.parametrize("n,p", [(2, 3), (3, 3), (2, 5), (3, 5), (4, 3)])
def test_jpss_support_lemma(n, p):
    """The JPSS support at N = 2, V = 1, read off the record of nonzero
    points of each side's store entry: W(diag(a, I)) != 0 exactly at
    a in 1 + p, and on the dual side exactly at a in p^(-1)(1 + p) with
    every x_i in o, each off the shell.  The windows run over the whole brute-force
    domain, padding shells included."""
    as_ = [a for a, _ in _z_windows(p, LEVEL, CUTOFF, "brute-force", "phi")[1]]
    xs = [x for x, shell in _y_windows(p, LEVEL, 0, "brute-force")[1] if not shell]
    assert all(rational_valuation(x, p) >= 0 for x in xs)
    _, plain = _entry(_gl_buckets, n, p, LEVEL, CUTOFF, "plain")
    assert plain == {(a, ()): False for a in as_ if rational_valuation(a - 1, p) >= 1}
    _, dual = _entry(_gl_buckets, n, p, LEVEL, CUTOFF, "dual")
    assert dual == {
        (a, x): False
        for a in as_
        if rational_valuation(p * a - 1, p) >= 1
        for x in itertools.product(xs, repeat=n - 2)
    }


def test_gl_enumeration_inverts_nothing(count_calls):
    """mat_inv, coset_decompose_gl and the row test counted at every name
    the package binds them to, over the enumeration of both sides at
    (n, p) = (3, 5).  Each x is prepared once, 125 on the dual side and 1
    on the plain side, by one coset_decompose_gl call at d = 1 on the rows
    of k that D leaves alone: the dual bottom row (125 row tests), which
    passes for the 25 x in o and fails for the 100 x on the shell, and
    the plain rows 1 and 2 (2 row tests).  Each point of an accepted x is
    one more call: 25 * 100 dual points and 100 plain points, 2,600, of
    which 130 pass; a rejected x leaves the walk, so its 100 points make
    none.  So 126 + 2,600
    = 2,726 calls, 26 + 130 = 156 passing.  The dual points test the rows
    a scales bottom-up, a p e_1 and then a p e_0, the second only at the
    125 passing points (2,625 tests), and the plain points test a e_0
    (100 tests): 125 + 2 + 2,625 + 100 = 2,852 row tests.

    The count was re-pinned when the factorization went.  It then read
    12,600 calls (one per point, a rejected x's included), 130 found;
    126 factorizations, 26 found, at the one j each x's bottom row named;
    378 rows mapped by g_chi^(-j); and 5,425 row tests, 2,700 of them of
    a bottom row that a leaves alone.  Before that, each solver call ran
    its own elimination, 12,600 of them, and mapped 12,951 rows; mapping
    each point's bottom row made 25,425, trying j = 0, 1, ... in turn
    25,000 eliminations and 37,825 row maps, and forming each
    g g_chi^(-j) / z in full 75,000."""
    calls = count_calls("mat_inv", "coset_decompose_gl", "row_in_iplus")
    for side in SIDES:
        _gl_buckets(3, 5, LEVEL, CUTOFF, side)
    assert calls["coset_decompose_gl"] == 126 + 25 * 100 + 100 == 2_726
    assert calls["coset_decompose_gl.found"] == 26 + 130 == 156
    assert calls["row_in_iplus"] == 125 + 2 + 2 * 125 + 2_375 + 100 == 2_852
    # nothing is inverted or factored
    assert calls["mat_inv"] == 0
