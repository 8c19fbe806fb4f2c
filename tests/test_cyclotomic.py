from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import solve_row
from ssgamma.cyclotomic import CyclotomicNumber as C


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=50)


def totient(m):
    return sum(1 for k in range(1, m + 1) if gcd(k, m) == 1)


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
    """The inverse, by the norm for several terms, stores what the
    elimination stores: the solution of sum_j c_j reduced(x zeta^j) = 1
    by the oracle's solve_row, with the same coefficients in the same key
    order."""
    inv = x.inverse()
    m = x.order
    phi = totient(m)
    assert x * inv == C.one()
    assert inv.order == m
    assert all(0 <= e < phi for e in inv.coeffs)
    rows = [C(m, {e + j: c for e, c in x.coeffs.items()}).reduced() for j in range(phi)]
    solved = solve_row(rows, [Fraction(1)] + [Fraction(0)] * (phi - 1))
    assert list(inv.coeffs.items()) == list(C(m, dict(enumerate(solved))).coeffs.items())


@given(st.integers(1, 30), rationals.filter(bool))
def test_inverse_of_a_rational_is_its_reciprocal(m, c):
    for x in (C.from_rational(c), C(m, {0: c})):
        assert x.inverse().coeffs == {0: 1 / c}


# The monomial fast paths of the ring must return exactly what the general
# path stores, .order and .coeffs included: the CLI prints the stored
# coefficients of an irrational value.


@st.composite
def elements_with_hidden_zeros(draw):
    """An element of Q(zeta_m), 1 <= m <= 30, with 0 to 4 stored terms at
    any exponent, to which half the time c times the sum of all d-th roots
    of unity (d | m, d > 1) is added: zero, but stored as d terms."""
    m = draw(st.integers(1, 30))
    x = C(m, draw(st.dictionaries(st.integers(0, 3 * m), rationals, max_size=4)))
    divisors = [d for d in range(2, m + 1) if m % d == 0]
    if divisors and draw(st.booleans()):
        d = draw(st.sampled_from(divisors))
        x = x + C(m, {k * (m // d): draw(rationals) for k in range(d)})
    return x


@settings(max_examples=100, deadline=None)
@given(elements_with_hidden_zeros())
def test_is_zero_agrees_with_the_canonical_form(x):
    assert x.is_zero() == (not any(x.reduced()))


def double_loop_product(x, y):
    """The general product: both operands at the lcm order, every pair of
    stored terms multiplied and summed by exponent."""
    m = x.order * y.order // gcd(x.order, y.order)
    x, y = x.embed(m), y.embed(m)
    out = {}
    for e1, c1 in x.coeffs.items():
        for e2, c2 in y.coeffs.items():
            e = (e1 + e2) % m
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return C(m, out)


@settings(max_examples=100, deadline=None)
@given(elements_with_hidden_zeros(), rationals)
def test_a_rational_times_x_stores_the_double_loop(x, r):
    want = double_loop_product(C.from_rational(r), x)
    for got in (C.from_rational(r) * x, x * C.from_rational(r), x * r, r * x):
        assert (got.order, got.coeffs) == (want.order, want.coeffs)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_a_one_term_inverse_stores_the_elimination(data):
    """The canonical form of c^(-1) zeta^(-e) against the solution of
    sum_j c_j reduced(x zeta^j) = 1, at exponents e >= phi(m), where
    zeta^(-e) is not itself canonical."""
    m = data.draw(st.integers(1, 30))
    phi = totient(m)
    e = data.draw(st.integers(phi, phi + 2 * m))
    c = data.draw(rationals.filter(bool))
    rows = [C(m, {e + j: c}).reduced() for j in range(phi)]
    solved = solve_row(rows, [Fraction(1)] + [Fraction(0)] * (phi - 1))
    want = C(m, dict(enumerate(solved)))
    got = C(m, {e: c}).inverse()
    assert (got.order, got.coeffs) == (want.order, want.coeffs)


def square_and_multiply(x, n):
    """x ** n for n >= 2 as the earlier loop computed it: from one(),
    squaring once more after the top bit (a square it never read)."""
    out, base = C.one(), x
    while n:
        if n & 1:
            out = out * base
        base = base * base
        n >>= 1
    return out


@settings(max_examples=100, deadline=None)
@given(elements_with_hidden_zeros(), st.sampled_from([0] + list(range(2, 13))))
def test_power_stores_what_the_square_and_multiply_loop_stored(x, n):
    want = square_and_multiply(x, n)
    got = x**n
    assert (got.order, got.coeffs) == (want.order, want.coeffs)


@pytest.mark.parametrize("n,most", [(2, 2), (3, 3), (6, 4)])
def test_power_squares_no_further_than_the_top_bit(monkeypatch, n, most):
    """zeta_3 ** n with __mul__ counted: one square per bit below the top
    and one product per set bit, the first of them by one()."""
    calls = []
    mul = C.__mul__

    def counted(self, other):
        calls.append(None)
        return mul(self, other)

    monkeypatch.setattr(C, "__mul__", counted)
    got = C.root_of_unity(3, 1) ** n
    assert len(calls) <= most
    monkeypatch.undo()
    want = square_and_multiply(C.root_of_unity(3, 1), n)
    assert (got.order, got.coeffs) == (want.order, want.coeffs)


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
