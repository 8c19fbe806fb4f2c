from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from ssgamma.cyclotomic import CyclotomicNumber as C


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=50)


def test_roots_of_unity_basic():
    z3 = C.root_of_unity(3, 1)
    assert z3**3 == C.one()
    assert z3 != C.one()
    # 1 + z3 + z3^2 = 0
    assert C.one() + z3 + z3**2 == C.zero()


def test_minus_one_identification():
    assert C.root_of_unity(2, 1) == C.from_rational(Fraction(-1))
    assert C.root_of_unity(6, 3) == C.from_rational(Fraction(-1))


def test_non_primitive_order_reduced():
    # zeta_6^2 is a primitive cube root
    assert C.root_of_unity(6, 2) == C.root_of_unity(3, 1)
    assert C.root_of_unity(6, 2).order == 3


def test_mixed_order_arithmetic():
    z3, z4 = C.root_of_unity(3, 1), C.root_of_unity(4, 1)
    w = z3 * z4  # a primitive 12th root
    assert w**12 == C.one()
    assert w**6 != C.one()


def test_equality_is_decidable_across_orders():
    # the same number written at order 3 and at order 9
    a = C.root_of_unity(3, 1)
    b = C.root_of_unity(9, 3)
    assert a == b


def test_inverse():
    z5 = C.root_of_unity(5, 2)
    assert z5 * z5.inverse() == C.one()
    x = C.one() + z5  # a non-monomial unit of Z[zeta_5]
    assert x * x.inverse() == C.one()
    with pytest.raises(Exception):
        C.zero().inverse()


@st.composite
def sparse_elements(draw):
    """A nonzero element of Q(zeta_m), 1 <= m <= 30, with a few terms."""
    m = draw(st.integers(1, 30))
    coeffs = draw(st.dictionaries(st.integers(0, m - 1), rationals.filter(bool), min_size=1, max_size=4))
    x = C(m, coeffs)
    assume(not x.is_zero())
    return x


@settings(max_examples=100, deadline=None)
@given(sparse_elements())
def test_inverse_of_sparse_elements(x):
    inv = x.inverse()
    phi = sum(1 for k in range(1, x.order + 1) if gcd(k, x.order) == 1)
    assert x * inv == C.one()
    assert inv.order == x.order
    assert all(0 <= e < phi for e in inv.coeffs)


@given(st.integers(1, 30), rationals.filter(bool))
def test_inverse_of_a_rational_is_its_reciprocal(m, c):
    for x in (C.from_rational(c), C(m, {0: c})):
        assert x.inverse().coeffs == {0: 1 / c}


@given(rationals, rationals)
def test_rational_embedding_ring_ops(a, b):
    ca, cb = C.from_rational(a), C.from_rational(b)
    assert ca + cb == C.from_rational(a + b)
    assert ca * cb == C.from_rational(a * b)


@given(st.integers(min_value=1, max_value=10), st.integers(), st.integers())
def test_root_exponent_addition(m, i, j):
    zi, zj = C.root_of_unity(m, i), C.root_of_unity(m, j)
    assert zi * zj == C.root_of_unity(m, i + j)


def test_sum_of_all_pth_roots_vanishes():
    for p in (3, 5, 7):
        total = C.zero()
        for k in range(p):
            total = total + C.root_of_unity(p, k)
        assert total == C.zero()


def test_cyclotomic_coeffs_match_sympy():
    # sympy is the oracle for the integer long division
    import sympy

    from ssgamma.cyclotomic import _cyclotomic_coeffs

    x = sympy.Symbol("x")
    for m in range(1, 200):
        expected = tuple(int(c) for c in sympy.Poly(sympy.cyclotomic_poly(m, x), x).all_coeffs())
        assert _cyclotomic_coeffs(m) == expected, m
