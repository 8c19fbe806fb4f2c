"""End-to-end acceptance checks, all at exact equality.

The grid below (odd primes 3/5/7, ranks 1-3, both signs, all tame unit
exponents, both uniformizer signs) is the full comparison table; the
other tests pin the individual closed values, the brute-force oracle,
the GL cross-check, structural invariants, truncation stability and the
depth bookkeeping.
"""

import random
import time
from fractions import Fraction

import pytest

from oracles import (
    EisensteinElement,
    GroupMatrix,
    affine_chi,
    g_chi_so,
    in_iplus,
    iota_embed,
    pi_e,
    random_so_iplus,
    random_so_unipotent,
    recompose,
    reference_coset_decompose,
    reference_eliminate_u_iplus,
    scaled,
    so_check,
    unscaled,
)
from ssgamma import integrals
from ssgamma.characters import TameCharacter, tame_eval
from ssgamma.cyclotomic import CyclotomicNumber as C
from ssgamma.integrals import (
    IntegralConfig,
    gamma_gl_closed,
    gamma_so,
    jpss_gl_gamma,
    match_so_gl,
    phi_eval,
    phi_star_eval,
    scan_support,
)
from ssgamma.parameter import param_summary
from ssgamma.scalars import ExactScalar


def ES(p, c, h=0, k=0):
    return ExactScalar.from_coeff(p, c, q_half=h, s_power=k)


def grid_cells():
    for p in (3, 5, 7):
        for ell in (1, 2, 3):
            for zsign in (1, -1):
                for j in range(p - 1):
                    for tau_pi in (1, -1):
                        yield p, ell, zsign, j, tau_pi


def make_cfg(p, ell, zsign, j, tau_pi, level, cutoff, mode="support-aware"):
    zeta = C.one() if zsign == 1 else -C.one()
    tau = TameCharacter(p, j, ES(p, tau_pi))
    return IntegralConfig(p, ell, zeta, tau, level=level, cutoff=cutoff, mode=mode)


def test_gamma_grid_matches_closed_form_and_phi_value():
    start = time.monotonic()
    for p, ell, zsign, j, tau_pi in grid_cells():
        cfg = make_cfg(p, ell, zsign, j, tau_pi, level=3, cutoff=1)
        res = gamma_so(cfg)
        zeta = C.one() if zsign == 1 else -C.one()
        expected = (
            ES(p, zeta) * tame_eval(cfg.tau, -p) * ES(p, 1, 1, 1)
        )  # zeta tau(-pi) q^(1/2-s)
        assert res.computed == expected, (p, ell, zsign, j, tau_pi)
        assert res.matches
        # Phi itself is the product of the truncated measures
        assert phi_eval(cfg) == ES(p, Fraction(1, p - 1), -(ell - 1), 0)
    assert time.monotonic() - start < 120


def test_brute_force_oracle_and_support_scans():
    """Support-aware == brute-force Phi and Phi* at p = 3, l = 1, 2 and 3,
    N = 2, V = 1, and both support scans at l = 1 and 2.  The brute-force
    build at (3, 3) values 30 * 81**2 = 196,830 points a side."""
    start = time.monotonic()
    p = 3
    for ell in (1, 2, 3):
        for zsign in (1, -1):
            fast = make_cfg(p, ell, zsign, 1, -1, level=2, cutoff=1)
            slow = make_cfg(p, ell, zsign, 1, -1, level=2, cutoff=1, mode="brute-force")
            assert phi_eval(fast) == phi_eval(slow)
            assert phi_star_eval(fast) == phi_star_eval(slow)
        if ell == 3:
            continue
        for side in ("phi", "phi_star"):
            points, verdict = scan_support(p, ell, side, level=2, cutoff=1)
            assert verdict
            assert all(pt.nonzero == pt.predicted for pt in points)
            assert any(pt.nonzero for pt in points)
    assert time.monotonic() - start < 300


def test_brute_force_oracle_and_support_scans_at_5_2(monkeypatch):
    """At (p, l, N, V) = (5, 2, 2, 1), 62,500 points a side: the
    support-aware and brute-force Phi and Phi* agree, and both support
    scans hold.  The scans run after the brute-force enumeration of the
    same domain, so they read its record of nonzero points and value no
    point again (the cache starts empty, so nothing else fills it)."""
    monkeypatch.setattr(integrals, "_BUCKETS", {})
    p, ell = 5, 2
    fast = make_cfg(p, ell, -1, 1, -1, level=2, cutoff=1)
    slow = make_cfg(p, ell, -1, 1, -1, level=2, cutoff=1, mode="brute-force")
    assert phi_eval(fast) == phi_eval(slow)
    assert phi_star_eval(fast) == phi_star_eval(slow)
    for side in ("phi", "phi_star"):
        points, verdict = scan_support(p, ell, side, level=2, cutoff=1)
        assert verdict is True
        assert len(points) == 100 * 625  # 5 valuations of 4 * 5 units, times 5^4 y reps
        assert any(pt.nonzero for pt in points)


def test_gl_zeta_integral_cross_check():
    for n in (2, 3):
        for p in (3, 5):
            for j in range(p - 1):
                for tau_pi in (1, -1):
                    tau = TameCharacter(p, j, ES(p, tau_pi))
                    for k in range(n):
                        zeta = C.root_of_unity(n, k)
                        res = jpss_gl_gamma(n, tau, zeta, level=2, cutoff=1)
                        assert res.matches, (n, p, j, tau_pi, k)


def test_so_gl_gamma_identification():
    # symbolic identity over the whole grid
    for p, ell, zsign, j, tau_pi in grid_cells():
        zeta = C.one() if zsign == 1 else -C.one()
        tau = TameCharacter(p, j, ES(p, tau_pi))
        assert match_so_gl(ell, tau, zeta)
    # computed pipelines at the smallest case
    p, ell = 3, 1
    for zsign in (1, -1):
        for j in range(p - 1):
            for tau_pi in (1, -1):
                zeta = C.one() if zsign == 1 else -C.one()
                tau = TameCharacter(p, j, ES(p, tau_pi))
                cfg = IntegralConfig(p, ell, zeta, tau, level=2, cutoff=1)
                assert match_so_gl(ell, tau, zeta, cfg=cfg)


def test_so_gl_identification_computed_at_l_2():
    """The computed SO(5) gamma equals the computed JPSS GL(4) gamma on
    every cell at p in {3, 5}, N = 2, V = 1: zeta = +-1, every j and
    tau(pi) in {1, -2/3}, 24 cells."""
    for p in (3, 5):
        for zeta in (C.one(), -C.one()):
            for j in range(p - 1):
                for tau_pi in (1, Fraction(-2, 3)):
                    tau = TameCharacter(p, j, ES(p, tau_pi))
                    cfg = IntegralConfig(p, 2, zeta, tau, level=2, cutoff=1)
                    assert match_so_gl(2, tau, zeta, cfg=cfg), (p, zeta, j, tau_pi)


@pytest.mark.parametrize("ell,p", [(1, 3), (1, 5), (1, 7), (2, 3), (2, 5), (2, 7), (3, 5), (3, 7)])
def test_affine_character_conjugation_invariance(ell, p):
    rng = random.Random(1000 * ell + p)
    gchi = g_chi_so(ell, p)
    assert (gchi * gchi).is_identity()
    for _ in range(50):
        k = random_so_iplus(rng, ell, p)
        assert affine_chi(gchi * k * gchi) == affine_chi(k)


def test_coset_roundtrip_hundred_products():
    """The oracle's U * I+ elimination on g g_chi^(-i) = g g_chi^i, formed
    by an oracle product, for g = u g_chi^i k; at the other index it
    finds no factors, and the oracle's SO solver chooses i."""

    def solve(g):
        res = reference_eliminate_u_iplus(reversed(g.rows), g.size, p)
        return None if res is None else tuple(map(scaled, res))

    rng = random.Random(2024)
    cases = [(1, 3), (2, 5), (3, 3), (2, 7)]
    done = 0
    while done < 100:
        ell, p = cases[done % len(cases)]
        gchi = g_chi_so(ell, p)
        u = random_so_unipotent(rng, ell, p, integral=False)
        i = rng.randrange(2)
        k = random_so_iplus(rng, ell, p)
        g = u * gchi * k if i else u * k
        res = solve(g * gchi if i else g)
        assert res is not None and solve(g if i else g * gchi) is None
        assert reference_coset_decompose(g.rows, p)[1] == i
        assert recompose((res[0], i, res[1]), gchi).rows == g.rows
        u2, k2 = (GroupMatrix.make(unscaled(x), p, "SO_odd", verify=False) for x in res)
        assert so_check(u2) and in_iplus(k2.rows, p)
        assert so_check(k2)
        done += 1


def test_field_embedding_invariants():
    for ell, p in [(1, 3), (2, 5), (3, 7)]:
        n = 2 * ell
        m = iota_embed(pi_e(ell, p), ell)
        acc = m
        for _ in range(n - 1):
            acc = acc * m
        assert acc.rows == tuple(
            tuple(Fraction(p) if i == j else Fraction(0) for j in range(n)) for i in range(n)
        )
        rng = random.Random(ell * p)
        for _ in range(10):
            a = EisensteinElement.make([rng.randrange(-2, 3) or 1 for _ in range(n)], p)
            b = EisensteinElement.make([rng.randrange(-2, 3) or 1 for _ in range(n)], p)
            assert (iota_embed(a, ell) * iota_embed(b, ell)).rows == iota_embed(a * b, ell).rows


def test_truncation_stabilization():
    p_list = (3, 5, 7)
    for p in p_list:
        for zsign in (1, -1):
            for j in range(p - 1):
                for tau_pi in (1, -1):
                    a = make_cfg(p, 1, zsign, j, tau_pi, level=2, cutoff=1)
                    b = make_cfg(p, 1, zsign, j, tau_pi, level=3, cutoff=2)
                    assert phi_eval(a) == phi_eval(b)
                    assert phi_star_eval(a) == phi_star_eval(b)


def test_truncation_stabilization_brute_force_at_l_2():
    """Brute-force Phi and Phi* at p = 3, l = 2 do not move as the window
    grows: (N, V) = (2, 1), (2, 2) and (3, 1) enumerate 2,430, 10,206 and
    21,870 points a side, each valued by the coset solver, padding shells
    included, and give the same integrals in every cell."""
    p, ell = 3, 2
    for zsign in (1, -1):
        for j in range(p - 1):
            for tau_pi in (1, -1):
                a, b, c = (
                    make_cfg(p, ell, zsign, j, tau_pi, level=level, cutoff=cutoff, mode="brute-force")
                    for level, cutoff in ((2, 1), (2, 2), (3, 1))
                )
                assert phi_eval(a) == phi_eval(b) == phi_eval(c)
                assert phi_star_eval(a) == phi_star_eval(b) == phi_star_eval(c)


def test_jpss_truncation_stabilization():
    """The brute-force JPSS gamma does not move as the window grows: at
    (N, V) = (2, 1), (2, 2) and (3, 1), for (n, p) = (4, 3), (2, 5) and
    (2, 7), every cell equals gamma_gl_closed, at every zeta with
    zeta^n = 1, every j and tau(pi) in {1, -2/3}: 168 cells."""
    for n, p in ((4, 3), (2, 5), (2, 7)):
        for level, cutoff in ((2, 1), (2, 2), (3, 1)):
            for k in range(n):
                zeta = C.root_of_unity(n, k)
                for j in range(p - 1):
                    for tau_pi in (1, Fraction(-2, 3)):
                        tau = TameCharacter(p, j, ES(p, tau_pi))
                        res = jpss_gl_gamma(n, tau, zeta, level=level, cutoff=cutoff)
                        assert res.computed == gamma_gl_closed(n, tau, zeta), (n, p, level, cutoff, k, j, tau_pi)


def test_depth_bookkeeping():
    for ell in range(1, 7):
        p = next(q for q in (3, 5, 7, 11) if (2 * ell) % q)
        pd = param_summary(p, ell)
        assert pd.depth == Fraction(1, 2 * ell)
        assert pd.depth_check["attaining"] == [[2 * ell]]
        assert pd.depth_check["unique_single_block"]
