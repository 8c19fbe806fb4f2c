from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ssgamma.cyclotomic import CyclotomicNumber as C
from ssgamma.scalars import ExactScalar, NonMonomialDivisor, ZeroDivisor


def ES(p, c, h=0, k=0):
    return ExactScalar.from_coeff(p, c, q_half=h, s_power=k)


def test_monomial_product_exponents_add():
    p = 3
    x = ES(p, 1, 1, 1)  # q^(1/2) q^-s
    assert (x * x).canonical_terms() == [(2, 2, C.one())]


def test_q_is_p_identification():
    # q^(1/2)/3 at p = 3 is the single term q^(-1/2)
    p = 3
    w = ES(p, Fraction(1, 3), 1, 0)
    assert w.canonical_terms() == [(-1, 0, C.one())]
    assert w == ES(p, 1, -1, 0)


def test_canonical_coeff_is_p_content_free():
    p = 5
    x = ES(p, Fraction(50, 3), 0, 1)
    terms = x.canonical_terms()
    assert len(terms) == 1
    h, k, c = terms[0]
    assert (h, k) == (4, 1)
    assert c == C.from_rational(Fraction(2, 3))


def test_addition_collects_terms():
    p = 3
    x = ES(p, 1, 1, 1) + ES(p, 2, 1, 1)
    assert x == ES(p, 3, 1, 1)
    assert (x - x).is_zero()


def test_terms_that_cancel_in_the_constructor_are_dropped():
    """q^(h/2) with h >= 2 folds p^(h//2) into the coefficient, so two
    input terms can meet and cancel inside the constructor."""
    p = 3
    assert ExactScalar(p, {(0, 0): 3, (2, 0): -1}).terms == {}
    # (3 + q^(1/2)) (1 - q^(1/2)) = 3 - q - 2 q^(1/2), and q = 3
    x = (ES(p, 3) + ES(p, 1, 1)) * (ES(p, 1) - ES(p, 1, 1))
    assert x.is_monomial()
    assert x == ES(p, -2, 1)


def test_monomial_division():
    p = 3
    num = ES(p, 6, 3, 2)
    den = ES(p, 2, 1, 1)
    assert num / den == ES(p, 3, 2, 1)


def test_division_by_sum_rejected():
    p = 3
    den = ES(p, 1, 0, 0) + ES(p, 1, 1, 1)
    with pytest.raises(NonMonomialDivisor):
        ES(p, 1) / den
    with pytest.raises(ZeroDivisor):
        ES(p, 1) / ES(p, 0)


def test_cyclotomic_coefficients():
    p = 3
    z = C.root_of_unity(3, 1)
    x = ExactScalar.from_coeff(p, z, q_half=1)
    y = ExactScalar.from_coeff(p, z * z, q_half=1)
    s = x + y  # coefficient z3 + z3^2 = -1
    assert s == ES(p, -1, 1, 0)


def test_negative_powers():
    p = 5
    x = ES(p, 1, -3, -2)
    assert x * ES(p, 1, 3, 2) == ExactScalar.one(p)


def test_serialization_roundtrip():
    p = 3
    z = C.root_of_unity(3, 1)
    x = ExactScalar.from_coeff(p, z, q_half=1, s_power=2) + ES(p, Fraction(-7, 3), 0, 0)
    recs = x.to_records()
    # record fields are strings/ints only (serialization stays exact)
    for r in recs:
        assert isinstance(r["q_half"], int) and isinstance(r["s_power"], int)
        assert all(isinstance(c, str) for c in r["coeffs"])


@given(
    st.integers(min_value=-4, max_value=4),
    st.integers(min_value=-4, max_value=4),
    st.integers(min_value=-4, max_value=4),
    st.integers(min_value=-4, max_value=4),
)
def test_monomial_arithmetic_is_group_like(h1, k1, h2, k2):
    p = 3
    a, b = ES(p, 1, h1, k1), ES(p, 1, h2, k2)
    prod = a * b
    assert prod.canonical_terms() == [(h1 + h2, k1 + k2, C.one())]
    assert prod / b == a


def test_is_monomial():
    p = 3
    assert ES(p, 2, 1, 1).is_monomial()
    assert not (ES(p, 1) + ES(p, 1, 1, 1)).is_monomial()
    assert not ES(p, 0).is_monomial()
