import random
from fractions import Fraction

import pytest

from oracles import EisensteinElement, ZeroElement, g_chi_gl, iota_embed, pi_e
from ssgamma.parameter import (
    BadResidueChar,
    ParameterError,
    UnsupportedElement,
    kappa_units,
    legendre,
    param_summary,
)


def rand_elem(rng, ell, p, nonzero=True):
    while True:
        c = [Fraction(rng.randrange(-3, 4)) for _ in range(2 * ell)]
        e = EisensteinElement.make(c, p)
        if not (nonzero and e.is_zero()):
            return e


def test_uniformizer_power_is_p():
    for ell, p in [(1, 3), (2, 5), (3, 7)]:
        e = pi_e(ell, p)
        acc = e
        for _ in range(2 * ell - 1):
            acc = acc * e
        assert acc.coeffs[0] == p
        assert all(c == 0 for c in acc.coeffs[1:])


@pytest.mark.parametrize("ell,p", [(1, 3), (2, 5), (3, 7)])
def test_iota_is_multiplicative(ell, p):
    rng = random.Random(ell * 10 + p)
    for _ in range(20):
        a = rand_elem(rng, ell, p)
        b = rand_elem(rng, ell, p)
        prod = a * b
        if prod.is_zero():
            continue
        lhs = iota_embed(a, ell) * iota_embed(b, ell)
        assert lhs.rows == iota_embed(prod, ell).rows


def test_iota_of_uniformizer_is_g_chi():
    for ell, p in [(1, 3), (2, 5), (3, 3)]:
        assert iota_embed(pi_e(ell, p), ell).rows == g_chi_gl(2 * ell, p).rows


def test_iota_uniformizer_power_is_scalar_p():
    for ell, p in [(1, 3), (2, 5), (3, 7)]:
        m = iota_embed(pi_e(ell, p), ell)
        acc = m
        for _ in range(2 * ell - 1):
            acc = acc * m
        n = 2 * ell
        assert acc.rows == tuple(
            tuple(Fraction(p) if i == j else Fraction(0) for j in range(n)) for i in range(n)
        )


def test_iota_rejects_zero():
    with pytest.raises(ZeroElement):
        iota_embed(EisensteinElement.make([0, 0], 3), 1)


def test_legendre_and_kappa():
    assert [legendre(x, 5) for x in range(1, 5)] == [1, -1, -1, 1]
    assert kappa_units(Fraction(2), 5) == -1
    assert kappa_units(Fraction(7, 3), 5) == legendre(7 * 2, 5)  # 1/3 = 2 mod 5
    with pytest.raises(UnsupportedElement):
        kappa_units(Fraction(5), 5)


def test_depth_bookkeeping():
    for ell in range(1, 7):
        p = 5 if (2 * ell) % 5 else 3
        if (2 * ell) % p == 0:
            p = 7
        pd = param_summary(p, ell)
        assert pd.depth == Fraction(1, 2 * ell)
        assert pd.depth_check["unique_single_block"]
        assert pd.depth_check["attaining"] == [[2 * ell]]


def test_bad_residue_characteristic():
    with pytest.raises(BadResidueChar):
        param_summary(3, 3)  # p = 3 divides 2l = 6


def test_kappa_table_matches_legendre():
    pd = param_summary(7, 1)
    assert pd.kappa_table == tuple(legendre(x, 7) for x in range(1, 7))


@pytest.mark.parametrize("p", [9, 15, 4, 2, 1, 0, -3])
def test_a_prime_that_is_not_an_odd_prime_is_rejected(p):
    """param_summary(9, 1) used to answer with Legendre symbols mod 9, and
    param_summary(-3, 1) with an empty kappa table."""
    with pytest.raises(ParameterError, match=rf"^p must be an odd prime, got {p}$"):
        param_summary(p, 1)


@pytest.mark.parametrize("ell", [1.5, True, 2.0, "1", None])
def test_a_rank_that_is_not_an_int_is_rejected(ell):
    """param_summary(5, 1.5) used to raise a bare TypeError from the
    partitions, and param_summary(5, True) to answer with ell=True."""
    with pytest.raises(ParameterError, match=rf"^l must be an int, got {ell!r}$"):
        param_summary(5, ell)


def test_rank_below_one_is_rejected_first():
    for p, ell in ((5, -1), (3, 0), (5, 0)):
        with pytest.raises(ParameterError, match="need l >= 1"):
            param_summary(p, ell)


# --- kappa_units against a computed Hilbert symbol ------------------------------


def euler_legendre(u, p):
    """(u/p) by Euler's criterion, for u prime to p."""
    r = pow(u % p, (p - 1) // 2, p)
    assert r in (1, p - 1)
    return 1 if r == 1 else -1


def split_p(a, p):
    """(alpha, u) with a = p^alpha u, u an integer prime to p."""
    alpha = 0
    while a % p == 0:
        a //= p
        alpha += 1
    return alpha, a


def hilbert_symbol(a, b, p):
    """(a, b)_p for odd p and nonzero integers a, b (Serre, A Course in
    Arithmetic, III.1, Thm 1): with a = p^alpha u and b = p^beta v,
    (a, b) = (-1)^(alpha beta eps(p)) (u/p)^beta (v/p)^alpha, where
    eps(p) = (p - 1)/2 mod 2."""
    alpha, u = split_p(a, p)
    beta, v = split_p(b, p)
    eps = (p - 1) // 2 % 2
    return (-1) ** (alpha * beta * eps) * euler_legendre(u, p) ** beta * euler_legendre(v, p) ** alpha


def disc_eisenstein(ell, p):
    """disc(x^(2l) - p) = (-1)^(l(2l-1)) (2l)^(2l) (-p)^(2l-1), from
    disc(x^n + a) = (-1)^(n(n-1)/2) n^n a^(n-1) at n = 2l, a = -p."""
    n = 2 * ell
    return (-1) ** (ell * (n - 1)) * n**n * (-p) ** (n - 1)


def test_disc_formula_matches_sympy():
    import sympy

    x = sympy.Symbol("x")
    for ell in (1, 2, 3):
        for p in (3, 5, 7):
            assert disc_eisenstein(ell, p) == sympy.discriminant(x ** (2 * ell) - p, x)


def test_partitions_match_sympy():
    # the same partitions in the same order, each as a descending list
    from sympy.utilities.iterables import partitions

    from ssgamma.parameter import _partitions

    for n in range(1, 13):
        # sympy yields one dict, mutated in place, so each is copied out at once
        expected = [sorted((k for k, m in d.items() for _ in range(m)), reverse=True) for d in partitions(n)]
        assert list(_partitions(n)) == expected, n


def test_kappa_units_is_the_hilbert_symbol_against_the_discriminant():
    checked = 0
    for p in (3, 5, 7, 11, 13):
        for ell in (1, 2, 3, 4):
            if (2 * ell) % p == 0:
                continue
            d = disc_eisenstein(ell, p)
            for u in range(1, p):
                assert kappa_units(u, p) == hilbert_symbol(u, d, p)
                checked += 1
    assert checked == 4 * (2 + 4 + 6 + 10 + 12) - 2  # (p, l) = (3, 3) is skipped
