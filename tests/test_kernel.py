"""Oracle property tests for the SO enumeration kernel.

The kernel builds each integrand matrix as a sparse entry map and reads
its Whittaker value off cheap I+ box tests.  These tests check both
against the generic code in matrices.py and characters.py, which shares
none of that path: the sparse builders against the group-element
product, and the evaluator against whittaker_eval (the generic double
coset decomposition).
"""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from ssgamma.characters import PSI_MAX_POWER, WhittakerSpec, whittaker_eval
from ssgamma.cyclotomic import CyclotomicNumber as C
from ssgamma.integrals import (
    _dense,
    _in_iplus,
    _phi_entries,
    _phi_star_entries,
    _so_whittaker_parts,
    _times_gchi,
)
from ssgamma.matrices import (
    GroupMatrix,
    c_hat,
    delta_o,
    embed_j,
    g_chi_so,
    omega_prime,
    random_so_iplus,
    random_so_unipotent,
    torus_so2,
    xbar,
)
from ssgamma.scalars import ExactScalar

SIDES = ("phi", "phi_star")


@st.composite
def units(draw, p):
    """A p-adic unit a/b with small a and b."""
    a = draw(st.integers(1, p**3).filter(lambda x: x % p))
    b = draw(st.integers(1, p**2).filter(lambda x: x % p))
    return Fraction(draw(st.sampled_from((1, -1))) * a, b)


def affine_t(draw, p, ell):
    """Weights (t_1, ..., t_(l+1)) of the affine character with
    t_(l+1) = t_1 mod p: only then does the fixed g_chi normalize chi and
    agree with psi_U on U, so that W is well defined."""
    t = [draw(units(p)) for _ in range(ell)]
    return tuple(t + [t[0] + p * draw(st.integers(-p, p))])


@st.composite
def points(draw):
    """(p, l, side, z, y, inside): a point of the support of the side, or
    one with a coordinate moved off it (where the box tests must say no),
    or any point."""
    p = draw(st.sampled_from((3, 5, 7)))
    ell = draw(st.sampled_from((1, 2, 3)))
    side = draw(st.sampled_from(SIDES))
    kind = draw(st.sampled_from(("inside", "edge", "anywhere")))
    # the support: z in pi^(-i) (1 + p) with i = 0 for Phi and 1 for Phi*, y in p
    z = Fraction(p) ** (-1 if side == "phi_star" else 0) * (1 + p * draw(st.integers(-p * p, p * p)))
    y = [p * Fraction(draw(st.integers(-p * p, p * p))) for _ in range(ell - 1)]
    if kind == "edge":
        k = draw(st.integers(0, ell - 1))
        if k == 0:
            z = Fraction(p) ** draw(st.integers(-2, 2)) * draw(units(p))
        else:
            y[k - 1] = Fraction(p) ** draw(st.integers(-1, 0)) * draw(units(p))
    elif kind == "anywhere":
        z = Fraction(p) ** draw(st.integers(-2, 2)) * draw(units(p))
        y = [
            Fraction(p) ** draw(st.integers(-1, 2)) * draw(st.integers(-p * p, p * p))
            for _ in range(ell - 1)
        ]
    return p, ell, side, z, tuple(y), kind == "inside"


def generic_matrix(p, ell, side, z, y):
    """x_bar(y) j(h(z)) for Phi; c_hat x_bar(y) j(h(z)) delta_o omega' for Phi*."""
    g = xbar(y, ell, p) * embed_j(torus_so2(z, p), ell)
    if side == "phi_star":
        g = c_hat(1, ell, p) * g * delta_o(ell, p) * omega_prime(1, ell, p)
    return g


def entries(side, z, y, ell):
    build = _phi_entries if side == "phi" else _phi_star_entries
    return build(z, y, ell)


def kernel_value(p, zeta, parts):
    """The evaluator's (i, m, a) read as zeta^i zeta_(p^m)^a."""
    if parts is None:
        return ExactScalar.zero(p)
    i, m, a = parts
    assert 0 <= m <= PSI_MAX_POWER and 0 <= a < p**m
    return ExactScalar.from_coeff(p, zeta**i * C(p**m, {a: 1}))


@settings(max_examples=150, deadline=None)
@given(points())
def test_sparse_builders_equal_generic_product(point):
    p, ell, side, z, y, _ = point
    g = entries(side, z, y, ell)
    assert _dense(g, 2 * ell + 1) == generic_matrix(p, ell, side, z, y).rows


@settings(max_examples=120, deadline=None)
@given(points(), st.sampled_from((1, -1)), st.data())
def test_evaluator_matches_whittaker_eval(point, zsign, data):
    p, ell, side, z, y, inside = point
    zeta = C.one() if zsign == 1 else -C.one()
    t = affine_t(data.draw, p, ell)
    g = entries(side, z, y, ell)
    if inside:  # the support is decided by a box test, not the coset solver
        assert _in_iplus(g, p) or _in_iplus(_times_gchi(g, p, 2 * ell + 1), p)
    parts = _so_whittaker_parts(g, p, ell, t)
    spec = WhittakerSpec(p, "SO", ell, zeta, t)
    assert kernel_value(p, zeta, parts) == whittaker_eval(spec, generic_matrix(p, ell, side, z, y))


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([(1, 3), (1, 5), (2, 3), (2, 5), (3, 3)]),
    st.integers(0, 1),
    st.booleans(),
    st.sampled_from((1, -1)),
    st.integers(0, 2**32),
    st.data(),
)
def test_evaluator_matches_whittaker_eval_on_the_double_coset(case, i, integral, zsign, seed, data):
    """Points u g_chi^i k with general values of chi.  An integral u keeps
    g (i = 0) or g g_chi (i = 1) in I+, so a box test decides the point;
    a non-integral u misses both boxes and the coset solver decides it."""
    ell, p = case
    rng = random.Random(seed)
    zeta = C.one() if zsign == 1 else -C.one()
    t = affine_t(data.draw, p, ell)
    g = random_so_unipotent(rng, ell, p, integral=integral)
    if i:
        g = g * g_chi_so(ell, p)
    g = g * random_so_iplus(rng, ell, p)
    sparse = {(r, c): x for r, row in enumerate(g.rows) for c, x in enumerate(row)}
    parts = _so_whittaker_parts(sparse, p, ell, t)
    assert parts is not None and parts[0] == i
    spec = WhittakerSpec(p, "SO", ell, zeta, t)
    assert kernel_value(p, zeta, parts) == whittaker_eval(spec, GroupMatrix(g.rows, p, "SO_odd"))
