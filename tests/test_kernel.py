"""Oracle property tests for the SO enumeration kernel.

The kernel writes the rows of the Phi integrand in closed form and
values a point by a row test: W is zeta^i when every row of m(y') h(d)
lies in I+, and 0 otherwise, with (d, y', i) = (z, y, 0) on Phi and
(p z, -y, 1) on Phi*, since Phi*(z, y) g_chi = Phi(p z, -y).  The
enumeration counts the points that pass, and the side applies its
zeta^i to its bucket sum.  That identity, and that a
Phi point lies only in the coset U I+ and a Phi* point only in
U g_chi I+, are checked with oracle products alone, beside negative
controls (z for p z, +y for -y).  So is the lemma the row test rests on:
the oracle's whittaker_eval of the named-element product is zeta^i times
the oracle's in_iplus of the integrand at its index, at every point of
the brute-force windows at (3, 2, 2, 1) and at random points and t.  The
other tests check the kernel against the generic code in
tests/oracles.py: the row builder against the named-element product,
and the engine's values against whittaker_eval, which factors with the
oracle's own Fraction solvers and forms k' and chi(k') by products, at
random points and at every window point; on the support also against a
box reader made of oracle products alone (in_iplus, the g_chi_so
product and affine_chi).  whittaker_eval itself is checked on sampled
u g_chi^i k, with general psi_U(u) and chi(k), against the value read
off the sampled factors, and the g_chi invariance of chi that makes
W(Phi*(z, y)) = zeta W(Phi(p z, -y)) hold is checked on the oracle's
chi.  The next tests check the bucket assembly: Phi and Phi* rebuilt
point by point from the (weight, [(rep, on_shell)]) windows, each
support-aware class unfolded from the brute-force window
(unfold_class), with the oracle's section_eval, with no buckets, no
shared loop, no bucket sum and no merge over tame classes; and the merge
itself, which _enumerate makes as each outer point's count arrives, on a
synthetic outer window that spans several tame classes and is walked in
any order (on the real domains only one class per side is nonzero).  A
synthetic inner window checks that an inner point whose preparation is
None leaves the walk: the predicate never sees it.

The last tests check that each support-aware window is one class,
valued at one point, (z0, 0) (_side_buckets).  Its lemma, g(z, y) =
g(z0, 0) k with k in I+ and chi(k) = 1, is checked with oracle products
alone at every point of both unfolded classes of five small (p, l) at
random t, beside negative controls: a y_k of valuation 0, or a unit w
outside 1 + p in z = z0 w, leaves I+.  The one point loop of
integrals.py, _enumerate, which the SO and the JPSS buckets alike run,
walked over the unfolded z and y classes with the SO row test, finds
every point, as the one point (z0, 0) is found, and counts them all in
one bucket: on the grid's domains, at (7, 3) on sampled z and at random
t.  The SO buckets are pinned by sha256 digests of their records.  A
count guard fails if the support-aware enumeration values more than one
point a side, at any N, or if the brute-force point loop tests a box
ahead of the row test.
"""

import hashlib
import itertools
import json
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from oracles import (
    GroupMatrix,
    SectionSpec,
    WhittakerSpec,
    _psi_u,
    affine_chi,
    b_element,
    g_chi_so,
    generic_matrix,
    in_iplus,
    random_so_iplus,
    random_so_unipotent,
    reference_coset_decompose,
    reference_row_times_g_chi_so,
    section_eval,
    unfold_class,
    unscaled,
    whittaker_eval,
)
from ssgamma import integrals
from ssgamma.characters import TameCharacter, tame_class, tame_eval
from ssgamma.cyclotomic import CyclotomicNumber as C
from ssgamma.integrals import (
    IntegralConfig,
    _entry,
    _enumerate,
    _SIDES,
    _side_buckets,
    _so_rows,
    _y_windows,
    _z_windows,
    gamma_so,
    phi_eval,
    phi_star_eval,
    scan_support,
)
from ssgamma.matrices import F0, F1, coset_decompose, so_torus
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


def phi_point(side, z, y, p):
    """(d, y', i): the side's point (z, y) is valued as Phi at (d, y')
    times zeta^i, since Phi*(z, y) g_chi = Phi(p z, -y)."""
    if side == "phi_star":
        return p * z, tuple(-c for c in y), 1
    return z, tuple(y), 0


def integrand(side, z, y, ell, p):
    """The side's integrand at (z, y) as Fraction rows: the rows _so_rows
    writes at (1, y') times h(d), with (d, y', i) = phi_point(side, z,
    y, p), then times g_chi^i by the oracle's row map (g_chi^(-1) =
    g_chi)."""
    d, y, i = phi_point(side, z, y, p)
    diag, dd = so_torus(d, 2 * ell + 1)
    rows = unscaled([([x * e for x, e in zip(nums, diag)], den * dd) for nums, den in _so_rows(y)])
    return [reference_row_times_g_chi_so(row, p) for row in rows] if i else rows


def passes_at(side, z, y, p):
    """Whether _side_buckets finds the point (z, y): whether the rows at
    (1, y'), made once per y, times h(d) pass the row test."""
    d, y, _ = phi_point(side, z, y, p)
    return coset_decompose(_so_rows(y), so_torus(d, 2 * len(y) + 3), p) is not None


def box_parts(g, p, ell, t):
    """(box, chi(k')) for the first I+ box the rows g pass, by oracle
    products alone, so that W(g) = zeta^box chi(k'); None when they miss
    both.  Box 0 is g in I+ (k' = g).  Box 1 is g g_chi^(-1) in I+, which
    holds iff k' = g_chi^(-1) g = g_chi g is in I+, since g_chi normalizes
    I+; then g = g_chi k'."""
    k = GroupMatrix.make(g, p, verify=False)
    for box in (0, 1):
        if box:
            k = g_chi_so(ell, p) * k
        if in_iplus(k.rows, p):
            return box, affine_chi(k, t=t, flavor="SO")
    return None


def kernel_value(p, zeta, i, found):
    """The engine's value of a point of a side at zeta power i: zeta^i
    when the point passes its row test (found), 0 otherwise."""
    return ExactScalar.from_coeff(p, zeta**i) if found else ExactScalar.zero(p)


@settings(max_examples=150, deadline=None)
@given(points())
def test_sparse_builders_equal_generic_product(point):
    """The row builder, which writes the few entries off the identity in
    closed form at (1, y), times h(z), against the named-element product
    at (z, y): Phi(z, y) is the rows at (1, y) times h(z), the identity
    behind the enumeration's one factorization per y; and Phi*(z, y) is
    Phi(p z, -y) times g_chi."""
    p, ell, side, z, y, _ = point
    assert tuple(map(tuple, integrand(side, z, y, ell, p))) == generic_matrix(p, ell, side, z, y).rows


@settings(max_examples=150, deadline=None)
@given(points())
def test_phi_star_is_phi_at_p_z_and_minus_y(point):
    """The lemma behind the one SO integrand, with oracle products alone:
    Phi*(z, y) g_chi = Phi(p z, -y).  And each side lies in one coset:
    the bottom row of u k is that of k, whose corner is in 1 + p for k in
    I+, while Phi(z, y) g_chi and Phi*(z, y) have 0 there, so a Phi point
    is never in U g_chi I+ and a Phi* point never in U I+.  The negative
    controls, z in place of p z and +y in place of -y (at y != 0), give
    other matrices."""
    p, ell, _, z, y, _ = point
    n = 2 * ell + 1
    gchi = g_chi_so(ell, p)
    star = generic_matrix(p, ell, "phi_star", z, y)
    minus = tuple(-c for c in y)
    assert (star * gchi).rows == generic_matrix(p, ell, "phi", p * z, minus).rows
    assert (generic_matrix(p, ell, "phi", z, y) * gchi).rows[n - 1][n - 1] == 0
    assert star.rows[n - 1][n - 1] == 0
    assert (star * gchi).rows != generic_matrix(p, ell, "phi", z, minus).rows
    if any(y):
        assert (star * gchi).rows != generic_matrix(p, ell, "phi", p * z, y).rows


@st.composite
def points_at_t(draw):
    """(point, t): a point of points() and affine weights t drawn from the
    family at its (p, l)."""
    point = draw(points())
    return point, affine_t(draw, point[0], point[1])


# a unit z outside 1 + p with every y_k in p, on Phi, and its Phi* twin
# (p z = 2): only the diagonal's 1 + p condition puts these off the
# support
@example(((3, 2, "phi", Fraction(2), (Fraction(3),), False), (F1,) * 3), 1)
@example(((3, 2, "phi_star", Fraction(2, 3), (Fraction(-3),), False), (F1,) * 3), -1)
@settings(max_examples=120, deadline=None)
@given(points_at_t(), st.sampled_from((1, -1)))
def test_evaluator_matches_whittaker_eval(case, zsign):
    """The engine's value of a point, read as zeta^i, against the
    oracle's whittaker_eval of the named-element product, at t drawn
    from the family.  On the support a box test of oracle products
    decides the point too, and agrees."""
    (p, ell, side, z, y, inside), t = case
    zeta = C.one() if zsign == 1 else -C.one()
    g = generic_matrix(p, ell, side, z, y).lists()
    i = phi_point(side, z, y, p)[2]
    found = passes_at(side, z, y, p)
    if inside:  # a box test decides the support, and the row test agrees with it
        assert found and box_parts(g, p, ell, t) == (i, C.one())
    spec = WhittakerSpec(p, "SO", ell, zeta, t)
    assert kernel_value(p, zeta, i, found) == whittaker_eval(spec, GroupMatrix.make(g, p, verify=False))


# the brute-force windows the engine and the lemma are checked on point
# by point, and t in the family at that (p, l)
WINDOW = (3, 2, 2, 1)
T_WINDOW = (Fraction(2), Fraction(4), Fraction(5))


@lru_cache(maxsize=None)
def window_values(side):
    """(z, y, g, W) at every point of the brute-force window WINDOW of
    side, in loop order: g the named-element product and W the oracle's
    whittaker_eval of it at zeta = -1 and t = T_WINDOW."""
    p, ell, level, cutoff = WINDOW
    spec = WhittakerSpec(p, "SO", ell, -C.one(), T_WINDOW)
    ys = [c for c, _ in _y_windows(p, level, cutoff, "brute-force")[1]]
    out = []
    for z, _ in _z_windows(p, level, cutoff, "brute-force", _SIDES[side][0])[1]:
        for y in itertools.product(ys, repeat=ell - 1):
            g = generic_matrix(p, ell, side, z, y)
            out.append((z, y, g, whittaker_eval(spec, g)))
    return out


def test_evaluator_matches_whittaker_eval_on_the_double_coset():
    """The engine against the oracle at every point of the brute-force
    windows at (p, l, N, V) = (3, 2, 2, 1), both sides: zeta^i at
    zeta = -1 where the enumeration records the point, and 0 where it
    records nothing, is whittaker_eval of the named-element product, at t
    in the family.  This test sampled u g_chi^i k with general u while the
    engine had a general solver; test_whittaker_eval_reads_the_sampled_factors
    keeps that sampling on the oracle."""
    p, ell, level, cutoff = WINDOW
    for side in SIDES:
        i = int(side == "phi_star")
        record = _entry(_side_buckets, side, p, 2 * ell + 1, level, cutoff, "brute-force")[1]
        points = window_values(side)
        assert len(points) == 30 * 81
        for z, y, _, want in points:
            assert kernel_value(p, -C.one(), i, (z, y) in record) == want, (side, z, y)
        assert sum(not want.is_zero() for *_, want in points) == len(record) == 9


def test_w_is_zeta_i_times_the_row_test_of_the_integrand():
    """The lemma behind the engine's row test, with oracle products alone,
    at every point of the brute-force windows at (3, 2, 2, 1): W of the
    named-element product is zeta^i times whether the integrand at its
    index lies in I+, Phi(z, y) at i = 0 and Phi*(z, y) g_chi at i = 1.
    Off the support both are 0; on it W is zeta^i, psi_U(u) and chi(k)
    both 1."""
    p, ell, _, _ = WINDOW
    zeta = -C.one()
    for side in SIDES:
        i = int(side == "phi_star")
        for z, y, g, want in window_values(side):
            g = g * g_chi_so(ell, p) if i else g
            assert want == kernel_value(p, zeta, i, in_iplus(g.rows, p)), (side, z, y)


@settings(max_examples=120, deadline=None)
@given(points_at_t(), st.sampled_from((1, -1)))
def test_w_is_zeta_i_times_the_row_test_at_random_points(case, zsign):
    """The lemma at the points of points(), at t drawn from the family."""
    (p, ell, side, z, y, inside), t = case
    zeta = C.one() if zsign == 1 else -C.one()
    i = int(side == "phi_star")
    g = generic_matrix(p, ell, side, z, y)
    g = g * g_chi_so(ell, p) if i else g
    want = kernel_value(p, zeta, i, in_iplus(g.rows, p))
    spec = WhittakerSpec(p, "SO", ell, zeta, t)
    assert whittaker_eval(spec, generic_matrix(p, ell, side, z, y)) == want
    assert not inside or not want.is_zero()


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([(1, 3), (1, 5), (2, 3), (2, 5), (3, 3)]),
    st.integers(0, 1),
    st.booleans(),
    st.sampled_from((1, -1)),
    st.integers(0, 2**32),
    st.data(),
)
def test_whittaker_eval_reads_the_sampled_factors(case, i, integral, zsign, seed, data):
    """The oracle on points u g_chi^i k with general values of psi_U and
    chi, which no integrand reaches: whittaker_eval is zeta^i psi_U(u)
    chi(k) read off the sampled factors, and its solver picks the index
    i.  An integral u keeps g (i = 0) or g g_chi (i = 1) in I+; a
    non-integral u misses both boxes."""
    ell, p = case
    rng = random.Random(seed)
    zeta = C.one() if zsign == 1 else -C.one()
    t = affine_t(data.draw, p, ell)
    u = random_so_unipotent(rng, ell, p, integral=integral)
    g = u * g_chi_so(ell, p) if i else u
    k = random_so_iplus(rng, ell, p)
    g = g * k
    assert reference_coset_decompose(g.rows, p)[1] == i
    spec = WhittakerSpec(p, "SO", ell, zeta, t)
    direct = zeta**i * _psi_u(spec, u) * affine_chi(k, t=t, flavor="SO")
    assert whittaker_eval(spec, GroupMatrix(g.rows, p, "SO_odd")) == ExactScalar.from_coeff(p, direct)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(1, 3), (2, 5), (3, 3), (3, 7)]), st.integers(0, 2**32), st.data())
def test_chi_readers_read_the_affine_character(case, seed, data):
    """The oracle's chi, read off k in I+ and off g_chi k g_chi, agrees
    for t in the family t_(l+1) = t_1 mod p: that is what makes
    W(Phi*(z, y)) = zeta W(Phi(p z, -y)), and the chi that whittaker_eval
    reads at either coset index well defined.  k is a random element of
    I+, not triangular, so it fills the entries chi reads, which are 0
    on every integrand.  Off the family the two reads differ at some k,
    which is why _check_t rejects such a t."""
    ell, p = case
    t = affine_t(data.draw, p, ell)
    rng = random.Random(seed)
    k = random_so_iplus(rng, ell, p)
    gchi = g_chi_so(ell, p)
    assert affine_chi(gchi * k * gchi, t=t, flavor="SO") == affine_chi(k, t=t, flavor="SO")
    off = t[:ell] + (2 * t[0],)  # a unit, and 2 t_1 != t_1 mod p

    def reads(g):
        return affine_chi(g, t=off, flavor="SO")

    samples = (random_so_iplus(rng, ell, p) for _ in range(40))
    assert any(reads(k) != reads(gchi * k * gchi) for k in samples)


# --- an oracle for the bucket assembly ------------------------------------------


def unfolded(p, level, side=None):
    """The one class of the support-aware z window of side, or of the y
    window when side is None, at V = 1, unfolded from the brute-force
    window (unfold_class): (its weight, its representatives)."""
    modes = ("support-aware", "brute-force")
    if side is None:
        windows = (_y_windows(p, level, 1, mode) for mode in modes)
    else:
        windows = (_z_windows(p, level, 1, mode, _SIDES[side][0]) for mode in modes)
    return unfold_class(p, *windows, side is not None)


def nonzero_points(p, ell, level, mode, side):
    """(z, weight) for every point of the domain with W != 0; the
    weight is the product of the point's own window weights, the z
    window's and one y window's per coordinate.  A support-aware domain
    is walked point by point over its classes unfolded.  In both modes
    the nonzero points are the support in the window, p^((N-1) l) of
    them."""
    if mode == "support-aware":
        (zw, zs), (yw, ys) = unfolded(p, level, side), unfolded(p, level)
    else:
        (zw, zs), (yw, ys) = _z_windows(p, level, 1, mode, _SIDES[side][0]), _y_windows(p, level, 1, mode)
    out = []
    for z, _ in zs:
        for y in itertools.product([c for c, _ in ys], repeat=ell - 1):
            if passes_at(side, z, y, p):
                w = zw
                for _ in y:
                    w = w * yw
                out.append((z, w))
    assert len(out) == p ** ((level - 1) * ell)
    return out


def pointwise_integral(cfg, side, points):
    """Phi or Phi* summed point by point: each nonzero point contributes
    its own window weights times zeta^i times f_s(z), i = 0 on Phi and 1
    on Phi*, with f_s from section_eval.  No buckets and no merge over
    tame classes."""
    p = cfg.prime
    i = int(side == "phi_star")
    sec = SectionSpec(cfg.tau)
    b = Fraction(-1)  # b_1^* at n = 1
    assert b_element(1, p).star().rows == ((b,),)
    total = ExactScalar.zero(p)
    for z, w in points:
        # f_s(h, 1) for Phi, M(tau, s) f_s(h^(-1), b_1^*) for Phi*
        fs = section_eval(sec, z, 1) if side == "phi" else section_eval(sec, 1 / z, b)
        total = total + w * kernel_value(p, cfg.zeta, i, True) * fs
    return total


@pytest.mark.parametrize(
    "p,ell,mode",
    [
        (3, 1, "support-aware"),
        (3, 1, "brute-force"),
        (3, 2, "support-aware"),
        (3, 2, "brute-force"),
        (5, 2, "support-aware"),
        (3, 3, "support-aware"),
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
    """_enumerate merges the x of a tame class as their counts arrive: on
    a synthetic outer window spread over several classes, with several x
    in a class, and walked in any order, at rank 0, with the x that pass
    drawn, each bucket is keyed by the least x of its class that passes,
    and sum part(x0) tau(x0) over the buckets is the sum of tau(x) over
    the x that pass, for every tame tau."""
    # six tame classes (v, r), v in -1..1 and r in 1..2, so that classes repeat
    member = st.builds(
        lambda v, r, c, e: Fraction(p) ** v * Fraction(r + p * c, 1 + p * e),
        st.integers(-1, 1),
        st.integers(1, 2),
        st.integers(-3, 3),
        st.integers(0, 3),
    )
    xs = data.draw(st.permutations(data.draw(st.lists(member, min_size=1, max_size=12, unique=True))))
    found = {x: data.draw(st.booleans()) for x in xs}
    one = ExactScalar.one(p)
    outer, inner = (one, [(x, False) for x in xs]), (one, [(F0, False)])
    buckets, _ = _enumerate(p, outer, inner, 0, tuple, lambda x: lambda y: found[x], "no shell here: x={}, y={}")
    classes: dict = {}  # (v, r) -> the x of that tame class that pass
    for x in xs:
        if found[x]:
            classes.setdefault(tame_class(x, p), []).append(x)
    assert sorted(buckets) == sorted(min(members) for members in classes.values())
    tau = TameCharacter(p, data.draw(st.integers(0, p - 2)), ExactScalar.from_coeff(p, data.draw(units(p))))
    merged = ExactScalar.zero(p)
    for x0, part in buckets.items():
        merged = merged + part * tame_eval(tau, x0)
    points = ExactScalar.zero(p)
    for x in xs:
        if found[x]:
            points = points + tame_eval(tau, x)
    assert merged == points


def test_the_walk_skips_rejected_inner_points():
    """An inner point whose preparation is None leaves the walk.  On a
    synthetic window at rank 2, inner reps 0..3 with 3 on the padding
    shell, the y with a coordinate 3 are rejected, 7 of the 16.  The
    predicate raises on None; it is made once per outer point and called
    once per accepted inner point at each.  A point (x, y) passes when
    y_0 < x.  The record and the buckets are those of the accepted points
    alone, and a rejected y on the shell raises nothing."""
    p = 3
    xs = [Fraction(1), Fraction(2), Fraction(4), Fraction(1, 3)]  # 1 and 4 share a tame class
    half = ExactScalar.from_coeff(p, Fraction(1, 2))
    inner = (half, [(Fraction(c), c == 3) for c in range(4)])
    calls = {"test": 0, "predicate": 0}

    def test(x):
        calls["test"] += 1

        def passes(y):
            if y is None:
                raise AssertionError("a rejected inner point reached the predicate")
            calls["predicate"] += 1
            return y[0] < x

        return passes

    outer = (ExactScalar.one(p), [(x, False) for x in xs])
    buckets, record = _enumerate(p, outer, inner, 2, lambda y: None if 3 in y else y, test, "x={}, y={}")
    accepted = [tuple(map(Fraction, y)) for y in itertools.product(range(3), repeat=2)]
    assert calls == {"test": len(xs), "predicate": len(xs) * len(accepted)} == {"test": 4, "predicate": 36}
    assert list(record.items()) == [((x, y), False) for x in xs for y in accepted if y[0] < x]
    # 3 + 9 points at 1 and 4, 6 at 2 and 3 at 1/3, each of weight (1/2)^2
    assert buckets == {xs[0]: half * half * 12, xs[1]: half * half * 6, xs[3]: half * half * 3}


# --- each support-aware window is one class, valued at one point ---------------

FOLD_CASES = [(3, 2), (3, 3), (5, 2), (5, 3), (7, 2)]


@pytest.mark.parametrize("p,ell", FOLD_CASES)
@settings(max_examples=3, deadline=None)
@given(st.data())
def test_w_is_constant_in_y_on_the_support_aware_windows(p, ell, data):
    """The lemma behind the one-point support-aware windows in
    _side_buckets, in z as well as y, with oracle products alone: at every
    point (z, y) of the z and y classes unfolded from the brute-force
    windows at N = 2, on both sides, k = g(z0, 0)^(-1) g(z, y) lies in I+
    and chi(k) = 1 at t drawn from the family, so W(g(z, y)) =
    W(g(z0, 0)).  There are 470 such points over the five (p, l).  The
    negative controls: z = z0 w with y = 0 and w a unit outside 1 + p
    puts w on the diagonal of k; and at each z, a y_k of valuation 0 (the
    others 0) puts a unit below the diagonal of k on Phi, and an entry of
    valuation -1 above it on Phi*.  Either way k leaves I+ and the class
    would not be one value there."""
    level = 2
    t = affine_t(data.draw, p, ell)
    ys = [c for c, _ in unfolded(p, level)[1]]
    zero = (F0,) * (ell - 1)
    seen = 0
    for side in SIDES:
        z0 = _z_windows(p, level, 1, "support-aware", _SIDES[side][0])[1][0][0]
        base_inv = generic_matrix(p, ell, side, z0, zero).inv()
        for w in range(2, p):
            assert not in_iplus((base_inv * generic_matrix(p, ell, side, z0 * w, zero)).rows, p), (side, w)
        for z, _ in unfolded(p, level, side)[1]:
            for y in itertools.product(ys, repeat=ell - 1):
                k = base_inv * generic_matrix(p, ell, side, z, y)
                assert in_iplus(k.rows, p), (side, z, y)
                assert affine_chi(k, t=t, flavor="SO") == C.one(), (side, z, y)
                seen += 1
            for j in range(ell - 1):
                y = zero[:j] + (F1,) + zero[j + 1 :]
                assert not in_iplus((base_inv * generic_matrix(p, ell, side, z, y)).rows, p), (side, z, y)
    assert seen == len(SIDES) * p ** ((level - 1) * ell)


def so_walk(p, ell, side, zs, ys):
    """_enumerate over the outer window zs and the inner window ys, with
    the SO row test _side_buckets gives it: the rows at (1, y'), y' = y on
    Phi and -y on Phi*, made once per y, times h(z) or h(p z)."""
    one = ExactScalar.one(p)

    def test(z):
        diag = so_torus(phi_point(side, z, (), p)[0], 2 * ell + 1)
        return lambda rows: coset_decompose(rows, diag, p) is not None

    def prepare(y):
        return _so_rows(phi_point(side, F1, y, p)[1])

    return _enumerate(p, (one, zs), (one, ys), ell - 1, prepare, test, "shell: z={}, y={}")


def loop_points(p, ell, side, t, level, sample=None):
    """The number of points valued.  The walk (so_walk) over the
    support-aware z class unfolded from the brute-force window (or a
    seeded sample of its z, sample = (seed, count)) and the unfolded
    (l-1)-fold y class finds every point, as the one point _side_buckets
    values, (z0, 0), is found: its record is every point, in loop order,
    and its one bucket, at the least z, counts them all.  W at (z0, 0),
    the oracle's at the affine weights t, is zeta^i at zeta = -1."""
    zs, ys = unfolded(p, level, side)[1], unfolded(p, level)[1]
    assert len(zs) == len(ys) == p ** (level - 1)
    z0 = _z_windows(p, level, 1, "support-aware", _SIDES[side][0])[1][0][0]
    zero = (F0,) * (ell - 1)
    assert passes_at(side, z0, zero, p), (p, ell, side)
    spec = WhittakerSpec(p, "SO", ell, -C.one(), t)
    want = kernel_value(p, -C.one(), phi_point(side, z0, zero, p)[2], True)
    assert want == whittaker_eval(spec, generic_matrix(p, ell, side, z0, zero))
    if sample:
        zs = random.Random(sample[0]).sample(zs, sample[1])
    buckets, record = so_walk(p, ell, side, zs, ys)
    points = [(z, y) for z, _ in zs for y in itertools.product([c for c, _ in ys], repeat=ell - 1)]
    assert list(record.items()) == [(point, False) for point in points], (p, ell, side)
    assert buckets == {min(z for z, _ in zs): ExactScalar.from_coeff(p, len(points))}, (p, ell, side)
    return len(points)


GRID_SUPPORT = [(p, ell) for p in (3, 5, 7) for ell in (1, 2, 3) if (p, ell) != (7, 3)] + [(3, 4)]


@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("p,ell", GRID_SUPPORT)
def test_convolution_matches_point_loop_on_the_grid(p, ell, side):
    assert loop_points(p, ell, side, (F1,) * (ell + 1), 3) == p ** (2 * ell)


@pytest.mark.parametrize("side", SIDES)
def test_convolution_matches_point_loop_at_7_3_on_sampled_z(side):
    """(7, 3) has 117,649 points per side; three seeded z keep it short."""
    assert loop_points(7, 3, side, (F1,) * 4, 3, (7003, 3)) == 3 * 49**2


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([(3, 2), (5, 2), (3, 3), (5, 3)]),
    st.sampled_from(SIDES),
    st.sampled_from((2, 3)),
    st.integers(0, 2**32),
    st.data(),
)
def test_convolution_matches_point_loop_at_random_t(case, side, level, seed, data):
    p, ell = case
    t = affine_t(data.draw, p, ell)
    assume(len(set(t)) > 1)
    assert loop_points(p, ell, side, t, level, (seed, 2)) == 2 * p ** ((level - 1) * (ell - 1))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from((3, 5, 7)), st.sampled_from((1, 2, 3)), st.integers(0, 2**32))
def test_no_matrix_passes_both_boxes(p, ell, seed):
    """g in I+ never has g_chi g in I+ too (I+ is a group and g_chi is not
    in it), for any matrix g, in SO or not.  So the first box box_parts
    finds is the only one, and its value is the value of W."""
    rng = random.Random(seed)
    n = 2 * ell + 1
    g = [[F0] * n for _ in range(n)]
    for r in range(n):
        for c in range(n):
            x = Fraction(rng.randint(-p * p, p * p))
            g[r][c] = 1 + p * x if r == c else (p * x if r > c else x)
    k = GroupMatrix.make(g, p, verify=False)
    gchi = g_chi_so(ell, p)
    assert in_iplus(k.rows, p) and not in_iplus((gchi * k).rows, p)


def so_bucket_digest(buckets, side):
    """The digest of the buckets of side, each keyed by the side's zeta
    power and its z, as they were keyed when the digests were taken."""
    i = int(side == "phi_star")
    records = [[i, str(z), part.to_records()] for z, part in sorted(buckets.items(), key=lambda kv: kv[0])]
    return hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()


T_3_3 = (Fraction(2), Fraction(-1), Fraction(4, 5), Fraction(5))


@pytest.mark.parametrize(
    "p,ell,t,side,digest",
    [
        (5, 3, None, "phi", "f00332dc76a5207c63573cb4d485ea4e01dab7b8d5a71b2a0aba19f9e96a4c29"),
        (5, 3, None, "phi_star", "726f88a12d53fd7450175b7cc79ca714b0a9ac39fb6c2ad08559b284bcb3e326"),
        (7, 2, None, "phi", "b7688904503458b3b5e41eeab85a9929bf1495747a507a48bf617f706412ead1"),
        (7, 2, None, "phi_star", "7987a53092daa7c2a79401250d08f1705242399c7f566736daba8711c3ef6b79"),
        (3, 3, T_3_3, "phi", "c22d4e68da138a50f32eb0b078ed20ded8cbfbcfa4f2f5a14eb9f004f9996ecd"),
        (3, 3, T_3_3, "phi_star", "9ab6db3945e1ef8855c7b1b596d08c74f88437aba6e352667eda74b99d7435d3"),
        (11, 3, None, "phi", "33838e534f51002cb4e77d58e221e101401ac6e3dd903e701495d5f9a920afe8"),
        (11, 3, None, "phi_star", "4d6755c191063906b59e8438bb4a8301bd2be67c8bd5a3d1e36d152639bb0f3a"),
        (13, 3, None, "phi", "0cc78b9bfb6e09af92d984d2feec2010938895fe7f67793906212c162a6f1ec9"),
        (13, 3, None, "phi_star", "9aacba600450ca82bd83063a0ff410114aaeccc38a4db7a11dc2fcfe73279003"),
        (7, 4, None, "phi", "ffcaa78ea47e0cef1a32c4ff66d30b0304b1c7d6f5b1caa6eb83fef1e454904e"),
        (7, 4, None, "phi_star", "5d44c0ce401a2d969893518fb396639e7bc8c1848614e0539918e504ef93cf80"),
        (5, 4, None, "phi", "0d8fa3a08c87871b29194d217e749274c6862b1a0c550f5a1dda651415b11a3c"),
        (5, 4, None, "phi_star", "47a144460a651cfd353f04784e68940f2de6a61a1d359cace9983e7b065b2b12"),
        (3, 5, None, "phi", "df8ac71a3aea3796c121b9e1e497aed06df4a863e823acc0dc9cf16f74919d14"),
        (3, 5, None, "phi_star", "3abf33cd85feb182d6a36976f748aa297f132a0232bd95e3e01789cb5c5ed842"),
    ],
)
def test_so_buckets_are_pinned(p, ell, t, side, digest):
    """Digests taken from the point-by-point enumeration, at N = 3, V = 1,
    before the y window was folded; those of the stress sizes (11,3),
    (13,3), (7,4), (5,4) and (3,5) while every coordinate value was still
    tested.  Valuing each support-aware window as one class, at one
    point, leaves every one of them as it was."""
    IntegralConfig(p, ell, C.one(), TameCharacter(p, 0), level=3, cutoff=1, t=t)  # t is checked; no bucket reads it
    assert so_bucket_digest(_side_buckets(side, p, 2 * ell + 1, 3, 1, "support-aware")[0], side) == digest


@pytest.mark.parametrize("p,ell", [(11, 3), (13, 3), (7, 4), (5, 4), (3, 5)])
def test_stress_sizes_meet_the_closed_forms(p, ell):
    """At N = 3, V = 1: Phi = vol(p)^(l-1) vol(1+p), with vol(p) = q^(-1/2)
    and vol(1+p) = 1/(q-1), and gamma_so equals zeta tau(-pi) q^(1/2-s)."""
    tau = TameCharacter(p, 1, ExactScalar.from_coeff(p, -2))
    cfg = IntegralConfig(p, ell, -C.one(), tau, level=3, cutoff=1)
    assert phi_eval(cfg) == ExactScalar.from_coeff(p, Fraction(1, p - 1), q_half=-(ell - 1))
    res = gamma_so(cfg)
    assert res.matches and res.computed == res.predicted


@pytest.mark.parametrize("case", ["phi", "phi_star", "any-N", "brute-force"])
def test_support_aware_enumeration_values_one_point_per_side(case, count_calls):
    """coset_decompose and the row test counted at every name the package
    binds them to.  This guard was
    test_support_aware_enumeration_tests_coordinates_not_points while it
    counted the box tests of a factored count, and
    test_support_aware_enumeration_values_one_point_per_z while only the
    y window was one class and the solver valued each z at y = 0.  Each
    support-aware window is now one class, so one point a side is
    valued, (z0, 0).

    Both sides value Phi: Phi(z, y) is the rows m(y) at (1, y) times
    h(z), and Phi*(z, y) g_chi = Phi(p z, -y).  So each y is written once
    per side, as m(y) on Phi and m(-y) on Phi*, and each point tests
    those rows times h(z) or h(p z), bottom-up (coset_decompose).  The
    counts were re-pinned when the factorization went: m(y) is lower
    unitriangular, so each y's factorization (2 * 81 = 162 at (3, 2, 2,
    1), one a side support-aware) was m(y) itself, and is no longer made;
    the calls and row tests below did not move.  Before that, when Phi*
    became Phi at (p z, -y), each y was factored at both coset indices,
    with all of m's rows mapped by g_chi for i = 1.

    Support-aware, over one _side_buckets at (p, l, N, V) = (5, 3, 3, 1):
    one coset_decompose call, which passes, where valuing each z made 25
    and every point 25 * 25**2 = 15,625; it tests the point's 7 rows, on
    either side.  At any N: at (3, 2, N, 1), N = 3 and N = 6 each make
    one call a side, and give equal buckets.

    Brute-force, over _side_buckets on both sides at (3, 2, 2, 1): the point
    loop makes one coset_decompose call per point, 2 * 30 * 81 = 4,860,
    and 18 of them pass, the points of the support.  A box test ahead of
    the row test would take those 18 points from it, leaving 4,842 calls
    with none passing.  All but those 18 points fail at the bottom row:
    4,860 + 18 * 4 = 4,932 row tests.  Before the factorization moved out
    of the point loop, each point built its rows and ran an elimination
    per coset index, mapping 4,887 rows."""
    calls = count_calls("coset_decompose", "row_in_iplus")
    if case == "brute-force":
        p, ell, level = 3, 2, 2
        for side in SIDES:
            _side_buckets(side, p, 2 * ell + 1, level, 1, "brute-force")
        z_count = 5 * (p - 1) * p ** (level - 1)  # valuations -2..2, unit classes mod p^N
        y_count = p * p ** (level + 1)  # p^(N+V) classes and (p-1) p^(N+V) on the shell
        assert len(SIDES) * z_count * y_count ** (ell - 1) == 4_860
        assert calls["coset_decompose"] == 4_860
        assert calls["coset_decompose.found"] == 18
        assert calls["row_in_iplus"] == 4_860 + 18 * 4 == 4_932
        return
    if case == "any-N":
        p, ell = 3, 2
        for side in SIDES:
            buckets = []
            for level in (3, 6):
                before = calls["coset_decompose"]
                buckets.append(_side_buckets(side, p, 2 * ell + 1, level, 1, "support-aware")[0])
                assert calls["coset_decompose"] - before == 1, (side, level)
            assert buckets[0] == buckets[1], side
        return
    p, ell, level = 5, 3, 3
    _side_buckets(case, p, 2 * ell + 1, level, 1, "support-aware")
    n = 2 * ell + 1
    assert calls["coset_decompose"] == calls["coset_decompose.found"] == 1
    assert calls["row_in_iplus"] == n == 7


def test_support_scan_reads_the_brute_force_record(count_calls, monkeypatch):
    """scan_support values no point itself: it reads the nonzero points
    off the record that the brute-force enumeration of the same
    (p, l, N, V, side) keeps beside its buckets, and builds that entry on
    a miss.  At (3, 2, 2, 1) a lone scan makes the enumeration's 2,430
    coset_decompose calls a side, a scan after the brute-force build
    makes none, and so does a build after a scan.  In every order each
    point's verdict is the row test's, taken point by point here."""
    p, ell, level = 3, 2, 2
    want = {}
    for side in SIDES:
        zs = _z_windows(p, level, 1, "brute-force", _SIDES[side][0])[1]
        ys = [c for c, _ in _y_windows(p, level, 1, "brute-force")[1]]
        want[side] = [
            passes_at(side, z, y, p)
            for z, _ in zs
            for y in itertools.product(ys, repeat=ell - 1)
        ]
    cfg = IntegralConfig(p, ell, C.one(), TameCharacter(p, 0), level=level, cutoff=1, mode="brute-force")
    calls = count_calls("coset_decompose")
    scans = {}
    for order in ("scan", "build, scan", "scan, build"):
        monkeypatch.setattr(integrals, "_BUCKETS", {})
        for side in SIDES:
            seen = {}
            for step in order.split(", "):
                before = calls["coset_decompose"]
                if step == "scan":
                    scans[order, side] = scan_support(p, ell, side, level=level, cutoff=1)
                else:
                    (phi_eval if side == "phi" else phi_star_eval)(cfg)
                seen[step] = calls["coset_decompose"] - before
            first, *rest = order.split(", ")
            assert seen[first] == 2_430 and all(seen[step] == 0 for step in rest), (order, side, seen)
            points, verdict = scans[order, side]
            assert verdict is True
            assert [pt.nonzero for pt in points] == want[side]
            assert sum(want[side]) == 9
    for side in SIDES:
        assert scans["scan", side] == scans["build, scan", side] == scans["scan, build", side]
