"""The JPSS GL(n) x GL(1) enumeration, integrals._gl_buckets.

The enumeration is the SO one: each side is one call of _enumerate, the
single point loop and tame-class merge of integrals.py, and one
(buckets, record) entry of the one bucket store, as each SO side is.  a
runs over the brute-force multiplicative window _z_windows and each x
coordinate over _y_windows at V = 0 (o mod p^N plus the p^(-1) shell).
The plain side runs at rank 0 and the dual side at rank n - 2; both
read W(g) through _gl_whittaker_parts as the plain ints
(j, m, a) = zeta^j zeta_(p^m)^a.  The dual side's
argument w_long (t m)^(-1) w_(n,1), times the central element a, is
diag(a, ..., a, 1) times its rows at a = 1, written down in closed form
(_gl_dual_rows); the plain side's is diag(a, 1, ..., 1).  Each x is
factored once (gl_coset, which rotates columns instead of multiplying by
g_chi^(-1)), and coset_decompose_gl scales k by the torus of each a.

The first test checks the closed form against a times the generic
product with the oracle's inverse, which shares none of its path.  The
next two check the evaluator against the generic Whittaker function of
tests/oracles.py, on window points (the dual side's value on a times
the integrand against the oracle's on the integrand itself, so the
trivial central character is checked too) and on points u g_chi^j k of
the support.  The oracle runs the package's solver, so each also checks
what that solver cannot share: on window points W(g g_chi^r) =
zeta^r W(g) for every r, and on the support zeta^j psi_U(u) chi(k) read
off the sampled factors, which calls no solver.  The buckets of both sides,
keyed (side, j, a0) as one dict, are pinned by sha256 digests of their
records, taken from the implementation that built every argument and
every rotation by generic inversion and products, and summed every
point's value as an ExactScalar.  The support lemma of both sides is
read off their records of nonzero points, and the enumeration, which
factors each x once and scales k by the torus of each a, is checked
against a point loop that solves the full rows of every point.  The last
test counts calls, so that a per-point inversion, or a factorization per
point, cannot come back unseen: the solver hands back the factors it
computes, and the enumeration inverts nothing.
"""

import hashlib
import itertools
import json
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (
    GroupMatrix,
    WhittakerSpec,
    _psi_u,
    affine_chi,
    cramer_inv,
    g_chi_gl,
    mat_identity,
    mat_mul,
    mat_transpose,
    random_gl_iplus,
    scaled,
    unscaled,
    w_long,
    whittaker_eval,
)
from ssgamma.characters import tame_class
from ssgamma.cyclotomic import CyclotomicNumber as C
from ssgamma.integrals import (
    _entry,
    _gl_buckets,
    _gl_dual_rows,
    _gl_whittaker_parts,
    _unit_rows,
    _y_windows,
    _z_windows,
)
from ssgamma.matrices import gl_coset
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


def generic_dual(a, x, n, p):
    """w_long (t m)^(-1) w_(n,1) by inversion and products, with
    m = 1 + (a - 1) E_00 + sum x_r E_(1+r,0) and w_(n,1) = diag(1, w_(n-1))."""
    m = mat_identity(n)
    m[0][0] = a
    for r, xv in enumerate(x):
        m[1 + r][0] = xv
    wn1 = [[Fraction(c == 0) for c in range(n)]]
    wn1 += [[Fraction(c == n - r) for c in range(n)] for r in range(1, n)]
    return mat_mul(mat_mul(w_long(n, p).lists(), cramer_inv(mat_transpose(m))), wn1)


def torus(a, n, dual):
    """The diagonal _gl_buckets scales by at a, as a scaled row:
    diag(a, ..., a, 1) on the dual side and diag(a, 1, ..., 1) on the
    plain side."""
    count = n - 1 if dual else 1
    return [a.numerator] * count + [a.denominator] * (n - count), a.denominator


def dual_rows(a, x, n):
    """The rows of the dual point (a, x), a times the integrand: the rows
    _gl_dual_rows writes at a = 1 times the dual torus of a."""
    diag, den = torus(a, n, True)
    return [([v * e for v in nums], d * den) for (nums, d), e in zip(_gl_dual_rows(x), diag)]


def parts_at(a, x, n, p, dual):
    """The value _gl_buckets gives the point (a, x): the factors of the
    rows at a = 1, made once per x (gl_coset), scaled by the torus of a."""
    rows = _gl_dual_rows(x) if dual else _unit_rows(n, range(n))
    return _gl_whittaker_parts(gl_coset(rows, p), torus(a, n, dual), p, n)


def parts_of_rows(rows, p, n):
    """The value of g, given by its scaled rows, as 1 g."""
    return _gl_whittaker_parts(gl_coset(rows, p), ([1] * n, 1), p, n)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from((2, 3, 4)), st.sampled_from((3, 5, 7)), st.data())
def test_dual_rows_equal_the_generic_product(n, p, data):
    a = data.draw(a_window(p))
    x = tuple(data.draw(x_window(p)) for _ in range(n - 2))
    # a times the integrand: the central character is trivial
    assert unscaled(dual_rows(a, x, n)) == [[a * v for v in row] for row in generic_dual(a, x, n, p)]


def primitive_root_of_unity(n, data):
    return C.root_of_unity(n, data.draw(st.sampled_from([k for k in range(1, n) if gcd(k, n) == 1])))


def kernel_value(p, zeta, parts):
    """The evaluator's (j, m, a) read as zeta^j zeta_(p^m)^a."""
    if parts is None:
        return ExactScalar.zero(p)
    j, m, a = parts
    return ExactScalar.from_coeff(p, zeta**j * C(p**m, {a: 1}))


@st.composite
def window_points(draw):
    """(n, p, dual, a, x, e): a point _gl_buckets evaluates, x = () on the
    plain side, and the primitive n-th root of unity zeta_n^e."""
    n, p, dual = draw(st.sampled_from((2, 3, 4))), draw(st.sampled_from((3, 5, 7))), draw(st.booleans())
    a = draw(a_window(p))
    x = tuple(draw(x_window(p)) for _ in range(n - 2)) if dual else ()
    e = draw(st.sampled_from([e for e in range(1, n) if gcd(e, n) == 1]))
    return n, p, dual, a, x, e


# dual points of the support, a in p^(-1)(1 + p) and x in o: the solver
# runs at j = 1 with p z = 1, and the bottom row's 1 wraps round onto the
# diagonal, so that one wrapped entry decides the verdict; at g g_chi^(n-1)
# the solver runs at j = 0, where no entry wraps
@example((2, 3, True, Fraction(4, 3), (), 1))
@example((3, 5, True, Fraction(11, 5), (Fraction(7),), 2))
@example((4, 3, True, Fraction(7, 3), (Fraction(0), Fraction(8)), 3))
@example((4, 7, True, Fraction(8, 7), (Fraction(6), Fraction(1)), 1))
@settings(max_examples=200, deadline=None)
@given(window_points())
def test_evaluator_matches_whittaker_eval_on_the_windows(point):
    """The points _gl_buckets evaluates, valued as it values them (the
    factors at a = 1 scaled by the torus of a), and as the full rows:
    diag(a, I_(n-1)) on the plain side, and on the dual side
    dual_rows(a, x, n), a times the integrand, whose kernel value must be
    the oracle's W at the integrand itself.  The oracle runs the package's solver, so the kernel is also
    checked against W(g g_chi^r) = zeta^r W(g) for every r: the solver
    runs at another j at each r, so a wrong wrapped entry cannot agree
    with every translate."""
    n, p, dual, a, x, e = point
    if dual:
        rows, integrand = dual_rows(a, x, n), generic_dual(a, x, n, p)
    else:
        integrand = mat_identity(n)
        integrand[0][0] = a
        rows = scaled(integrand)
    zeta = C.root_of_unity(n, e)
    g = GroupMatrix.make(integrand, p)
    parts = parts_at(a, x, n, p, dual)
    assert parts == parts_of_rows(rows, p, n)
    got = kernel_value(p, zeta, parts)
    assert got == whittaker_eval(WhittakerSpec(p, "GL", n, zeta), g)
    for r in range(1, n):
        g = g * g_chi_gl(n, p)
        assert kernel_value(p, zeta, parts_of_rows(scaled(g.rows), p, n)) == ExactScalar.from_coeff(p, zeta**r) * got


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from((2, 3, 4)),
    st.sampled_from((3, 5, 7)),
    st.booleans(),
    st.integers(0, 2**32),
    st.data(),
)
def test_evaluator_matches_whittaker_eval_on_the_support(n, p, integral, seed, data):
    """Points u g_chi^j k with u upper unipotent (with entries in p^(-1)
    unless integral) and k in I+, so W takes general values there.
    W(g) = zeta^j psi_U(u) chi(k) is also read off the sampled factors
    directly, so a solver that returned wrong factors would fail."""
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
    parts = parts_of_rows(scaled(g.rows), p, n)
    assert parts is not None and parts[0] == j
    zeta = primitive_root_of_unity(n, data)
    spec = WhittakerSpec(p, "GL", n, zeta)
    assert kernel_value(p, zeta, parts) == whittaker_eval(spec, g)
    direct = zeta**j * _psi_u(spec, u) * affine_chi(k, t=spec.t, flavor="GL")
    assert kernel_value(p, zeta, parts) == ExactScalar.from_coeff(p, direct)


SIDES = ("plain", "dual")


def bucket_digest(buckets):
    records = [
        [side, j, str(a), part.to_records()]
        for (side, j, a), part in sorted(buckets.items(), key=lambda kv: kv[0])
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
    both = {(side,) + key: part for side in SIDES for key, part in _gl_buckets(n, p, LEVEL, CUTOFF, side)[0].items()}
    assert bucket_digest(both) == digest


def pointwise_side(n, p, side):
    """(buckets, record) of one JPSS side by a point loop of its own: the
    full rows of every point (a, x), in the enumeration's loop order, each
    factored on its own and valued with no torus (parts_of_rows); the
    values summed per (j, tame class of a) point by point, keyed by the
    least a of the class."""
    a_weight, as_ = _z_windows(p, LEVEL, CUTOFF, "brute-force", "phi")
    x_weight, xs = _y_windows(p, LEVEL, 0, "brute-force")
    rank = 0 if side == "plain" else n - 2
    record, sums = {}, {}
    for a, a_shell in as_:
        for combo in itertools.product(xs, repeat=rank):
            x = tuple(c for c, _ in combo)
            if side == "plain":
                rows = scaled([[a if r == c == 0 else Fraction(r == c) for c in range(n)] for r in range(n)])
            else:
                rows = dual_rows(a, x, n)
            parts = parts_of_rows(rows, p, n)
            if parts is None:
                continue
            record[(a, x)] = parts, a_shell or any(s for _, s in combo)
            j, m, e = parts
            least, total = sums.get((j,) + tame_class(a, p), (a, C.zero()))
            sums[(j,) + tame_class(a, p)] = min(least, a), total + C(p**m, {e: 1})
    weight = a_weight * x_weight**rank
    return {(key[0], a0): weight * ExactScalar.from_coeff(p, c) for key, (a0, c) in sums.items()}, record


@pytest.mark.parametrize("n,p", [(2, 3), (3, 3), (4, 3), (3, 5)])
def test_the_bottom_step_made_once_per_x_changes_no_point(n, p):
    """_gl_buckets makes the solver's bottom step once per x (once per side
    on the plain side, whose bottom row is the unit row for every a): the
    one j and z that the bottom row names, which a leaves alone, and the
    factors at that j of the rows at a = 1 (gl_coset).  Each point scales
    them by the torus of its a.  Each side's buckets and record, the
    record's order included, are those of pointwise_side, which factors
    the full rows of every point."""
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
    a in 1 + p, with value (j, m, a) = (0, 0, 0), and on the dual side
    exactly at a in p^(-1)(1 + p) with every x_i in o, off the shell,
    with value (1, 0, 0).  The windows run over the whole brute-force
    domain, padding shells included."""
    as_ = [a for a, _ in _z_windows(p, LEVEL, CUTOFF, "brute-force", "phi")[1]]
    xs = [x for x, shell in _y_windows(p, LEVEL, 0, "brute-force")[1] if not shell]
    assert all(rational_valuation(x, p) >= 0 for x in xs)
    _, plain = _entry(_gl_buckets, n, p, LEVEL, CUTOFF, "plain")
    assert plain == {(a, ()): ((0, 0, 0), False) for a in as_ if rational_valuation(a - 1, p) >= 1}
    _, dual = _entry(_gl_buckets, n, p, LEVEL, CUTOFF, "dual")
    assert dual == {
        (a, x): ((1, 0, 0), False)
        for a in as_
        if rational_valuation(p * a - 1, p) >= 1
        for x in itertools.product(xs, repeat=n - 2)
    }


def test_gl_enumeration_inverts_nothing(count_calls):
    """mat_inv, coset_decompose_gl, the factorization, the row map of the
    factorization and the row test counted at every name the package
    binds them to, over the enumeration of both sides at (n, p) = (3, 5).
    Each of the 12,600 points is one solver call, and 130 find factors.
    The integrand at (a, x) is a torus element of a times the rows at
    a = 1, so each x is factored once, at the one j whose bottom row can
    lie in I+: 125 x on the dual side and 1 on the plain side, 126
    factorizations and 3 * 126 = 378 rows mapped, with no row test.  The
    100 x on the shell, whose -x_0 has the least valuation in the bottom
    row (1, 0, -x_0), leave a zero pivot, which rejects all 100 a of each
    without a test.  The other 2,600 points test rows of k scaled by the
    torus of a, bottom-up: 2,500 dual points test 2 rows and their 125
    found points 1 more, and the 100 plain points test all 3, 5,425 in
    all.  The count was re-pinned when the factorization moved out of the
    point loop: each solver call ran its own elimination, 12,600 of them,
    and mapped 12,951 rows (12,825 above the bottom rows, and one bottom
    row per x with its j made ahead); before that, mapping each point's
    bottom row made 25,425, trying j = 0, 1, ... in turn 25,000
    eliminations and 37,825 row maps, and forming each g g_chi^(-j) / z
    in full 75,000."""
    calls = count_calls("mat_inv", "coset_decompose_gl", "factor_u_k", "row_times_g_chi_gl_inv", "row_in_iplus")
    for side in SIDES:
        _gl_buckets(3, 5, LEVEL, CUTOFF, side)
    assert calls["coset_decompose_gl"] == 12_600
    assert calls["coset_decompose_gl.found"] == 130
    assert calls["factor_u_k"] == 125 + 1 == 126
    assert calls["factor_u_k.found"] == 25 + 1
    assert calls["row_times_g_chi_gl_inv"] == 3 * 126 == 378
    assert calls["row_in_iplus"] == 2 * 2_500 + 125 + 3 * 100 == 5_425
    # the factorization inverts nothing, and the factors are returned as
    # computed, with no g_chi^(-1) pulled through them
    assert calls["mat_inv"] == 0
