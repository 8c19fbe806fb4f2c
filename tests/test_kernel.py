"""Oracle property tests for the SO enumeration kernel.

The kernel builds each integrand matrix as a sparse entry map and reads
its Whittaker value off cheap I+ box tests.  These tests check both
against the generic code in tests/oracles.py, which shares none of that
path: the sparse builders against the named-element product, and the
evaluator against whittaker_eval (the generic double coset
decomposition).  The last tests check the bucket assembly: Phi
and Phi* rebuilt point by point, with no buckets and no merge over tame
classes, and the merge itself on buckets that span many tame classes
(on the real domains only one class per side is nonzero).
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    SectionSpec,
    WhittakerSpec,
    c_hat,
    delta_o,
    embed_j,
    omega_prime,
    random_so_iplus,
    random_so_unipotent,
    section_eval,
    torus_so2,
    whittaker_eval,
    xbar,
)
from ssgamma.characters import PSI_MAX_POWER, TameCharacter, tame_class
from ssgamma.cyclotomic import CyclotomicNumber as C
from ssgamma.integrals import (
    IntegralConfig,
    _dense,
    _merge_tame_classes,
    _phi_entries,
    _phi_star_entries,
    _so_whittaker_parts,
    _times_gchi,
    _y_windows,
    _z_windows,
    phi_eval,
    phi_star_eval,
)
from ssgamma.matrices import GroupMatrix, b_element, g_chi_so, in_iplus
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
        assert in_iplus(g.items(), p) or in_iplus(_times_gchi(g, p, 2 * ell + 1).items(), p)
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


# --- an oracle for the bucket assembly ------------------------------------------


def nonzero_points(p, ell, level, mode, side):
    """(z, weight, parts) for every point of the domain with W != 0; the
    weight is the product of the point's own window weights."""
    ys = _y_windows(ell, p, level, 1, mode)
    out = []
    for z, wz, _ in _z_windows(p, level, 1, mode, side):
        for combo in itertools.product(ys, repeat=ell - 1):
            y = tuple(c[0] for c in combo)
            parts = _so_whittaker_parts(entries(side, z, y, ell), p, ell, (1,) * (ell + 1))
            if parts is not None:
                w = wz
                for c in combo:
                    w = w * c[1]
                out.append((z, w, parts))
    return out


def pointwise_integral(cfg, side, points):
    """Phi or Phi* summed point by point: each nonzero point contributes
    its own window weights times zeta^i zeta_(p^m)^a times f_s(z), with
    f_s from section_eval.  No buckets and no merge over tame classes."""
    p = cfg.prime
    sec = SectionSpec(cfg.tau)
    b = Fraction(-1)  # b_1^* at n = 1
    assert b_element(1, p).star().rows == ((b,),)
    total = ExactScalar.zero(p)
    for z, w, parts in points:
        # f_s(h, 1) for Phi, M(tau, s) f_s(h^(-1), b_1^*) for Phi*
        fs = section_eval(sec, z, 1) if side == "phi" else section_eval(sec, 1 / z, b)
        total = total + w * kernel_value(p, cfg.zeta, parts) * fs
    return total


@pytest.mark.parametrize(
    "p,ell,mode",
    [
        (3, 1, "support-aware"),
        (3, 1, "brute-force"),
        (3, 2, "support-aware"),
        (3, 2, "brute-force"),
        (5, 2, "support-aware"),
    ],
)
def test_bucket_assembly_matches_pointwise_sum(p, ell, mode):
    level = 3 if mode == "support-aware" else 2
    for side, fast in (("phi", phi_eval), ("phi_star", phi_star_eval)):
        points = nonzero_points(p, ell, level, mode, side)
        for j, tau_pi, zsign in ((1, Fraction(2, 3), -1), (p - 2, Fraction(-5), 1)):
            tau = TameCharacter(p, j, ExactScalar.from_coeff(p, tau_pi))
            zeta = C.from_rational(zsign)
            cfg = IntegralConfig(p, ell, zeta, tau, level=level, cutoff=1, mode=mode)
            want = pointwise_integral(cfg, side, points)
            got = fast(cfg)
            assert not want.is_zero()
            assert got == want
            assert got.to_records() == want.to_records()


@settings(max_examples=80, deadline=None)
@given(st.sampled_from((3, 5, 7)), st.data())
def test_tame_class_merge_keeps_every_tame_sum(p, data):
    """sum part(z) zeta^i tau(z) is the same before and after the merge,
    for every tame tau, on buckets spread over many classes."""
    zs = data.draw(
        st.lists(
            st.builds(lambda v, u: Fraction(p) ** v * u, st.integers(-2, 2), units(p)),
            min_size=1,
            max_size=12,
            unique=True,
        )
    )
    sums = {
        (data.draw(st.integers(0, 1)), z): C(p ** data.draw(st.integers(0, 2)), {data.draw(st.integers(0, 8)): 1})
        for z in zs
    }
    merged = _merge_tame_classes(sums, p)
    assert set(merged) <= set(sums)
    assert len(merged) == len({(i,) + tame_class(z, p) for i, z in sums})
    zeta = -C.one()
    tau = TameCharacter(p, data.draw(st.integers(0, p - 2)), ExactScalar.from_coeff(p, data.draw(units(p))))

    def total(buckets):
        out = ExactScalar.zero(p)
        for (i, z), c in buckets.items():
            out = out + ExactScalar.from_coeff(p, c * zeta**i) * tau(z)
        return out

    assert total(merged) == total(sums)
