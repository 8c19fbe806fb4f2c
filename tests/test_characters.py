import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import (
    GroupMatrix,
    WhittakerSpec,
    _psi_u,
    affine_chi,
    embed_j,
    g_chi_gl,
    g_chi_so,
    mat_identity,
    normalized_t,
    orbit_conjugator,
    random_so_iplus,
    random_so_unipotent,
    so_root_element,
    torus_so2,
    whittaker_eval,
)
from ssgamma.characters import (
    PSI_MAX_POWER,
    CharacterError,
    OrderOverflow,
    TameCharacter,
    primitive_root,
    psi_eval,
    psi_exponent,
    tame_class,
    tame_eval,
)
from ssgamma.cyclotomic import CyclotomicNumber as C
from ssgamma.scalars import ExactScalar


def identity_so(ell, p):
    n = 2 * ell + 1
    return GroupMatrix.make(mat_identity(n), p, "SO_odd")


# --- psi -------------------------------------------------------------------


def test_psi_basic_values():
    # conductor p: psi(x) = e^(2 pi i frac(x/p)), nontrivial on units
    p = 5
    assert psi_eval(0, p) == C.one()
    assert psi_eval(Fraction(5), p) == C.one()  # trivial on p o
    assert psi_eval(Fraction(1), p) == C.root_of_unity(5, 1)
    assert psi_eval(Fraction(3), p) == C.root_of_unity(5, 3)
    assert psi_eval(Fraction(1, 5), p) == C.root_of_unity(25, 1)


def test_psi_additive():
    p = 7
    for a, b in [(Fraction(1), Fraction(2)), (Fraction(3, 7), Fraction(5))]:
        assert psi_eval(a + b, p) == psi_eval(a, p) * psi_eval(b, p)


def test_psi_prime_to_p_denominator():
    p = 5
    # 1/2: invert the unit denominator mod 5 (1/2 = 3 mod 5)
    assert psi_eval(Fraction(1, 2), p) == C.root_of_unity(5, 3)


def test_psi_order_overflow():
    with pytest.raises(OrderOverflow):
        psi_eval(Fraction(1, 9), 3)


NOT_AN_ELEMENT = ["a", 0.5, True, None, C.one()]


@pytest.mark.parametrize("x", NOT_AN_ELEMENT)
def test_psi_eval_rejects_an_x_that_is_not_an_int_or_a_fraction(x):
    """psi_eval(0.5, 5) used to answer, psi_eval("a", 5) raised a bare
    ValueError, and a bool was read as an int."""
    with pytest.raises(CharacterError, match=r"^x must be an int or a Fraction, got "):
        psi_eval(x, 5)


@pytest.mark.parametrize("p", [4, 9, 2, 1, 0, -3, True, "3"])
def test_psi_eval_rejects_a_prime_that_is_not_an_odd_prime(p):
    """psi_eval(1/4, 4) used to answer zeta_16, p = -3 raised a bare
    ValueError, and p = 1 (or True) never returned: v_1 divides forever."""
    with pytest.raises(CharacterError, match=r"^p must be an odd prime, got "):
        psi_eval(Fraction(1, 4), p)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from((3, 5, 7)),
    st.integers(-10**6, 10**6),
    st.integers(1, 10**4),
    st.integers(0, PSI_MAX_POWER - 1),
)
def test_psi_exponent_agrees_with_psi_eval(p, num, den, extra):
    x = Fraction(num, den * p**extra)
    assume(x.denominator % p**PSI_MAX_POWER)  # else psi(x) overflows
    m, a = psi_exponent(x, p)
    assert psi_eval(x, p) == C.root_of_unity(p**m, a)
    # a / p^m is the p-adic fractional part of x / p, a unit unless m = 0
    assert 0 <= m <= PSI_MAX_POWER and 0 <= a < p**m
    assert (x / p - Fraction(a, p**m)).denominator % p
    assert m == 0 or a % p


def test_psi_exponent_order_overflow():
    for p in (3, 5, 7):
        top = Fraction(1, p ** (PSI_MAX_POWER - 1))  # x / p has valuation -PSI_MAX_POWER
        assert psi_exponent(top, p) == (PSI_MAX_POWER, 1)
        for f in (psi_exponent, psi_eval):
            with pytest.raises(OrderOverflow):
                f(top / p, p)


def test_psi_all_pth_roots_sum_to_zero():
    p = 5
    total = sum((psi_eval(Fraction(a), p) for a in range(p)), C.zero())
    assert total == C.zero()


# --- tame characters --------------------------------------------------------


def test_primitive_root_values():
    assert primitive_root(3) == 2
    assert primitive_root(5) == 2
    assert primitive_root(7) == 3


def test_tame_character_multiplicative():
    p = 7
    pi_val = ExactScalar.from_coeff(p, -1)
    tau = TameCharacter(p, 2, pi_val)
    rng = random.Random(3)
    for _ in range(25):
        x = Fraction(rng.choice([1, 2, 3, 4, 5, 6]), 1) * Fraction(p) ** rng.randrange(-2, 3)
        y = Fraction(rng.choice([1, 2, 3, 4, 5, 6]), 1) * Fraction(p) ** rng.randrange(-2, 3)
        assert tame_eval(tau, x * y) == tame_eval(tau, x) * tame_eval(tau, y)


def test_tame_character_order_on_units():
    p = 5
    tau = TameCharacter(p, 1)
    g = primitive_root(p)
    assert tame_eval(tau, g).canonical_terms() == [(0, 0, C.root_of_unity(p - 1, 1))]
    assert tame_eval(tau, 1) == ExactScalar.one(p)


def test_tame_inverse():
    p = 5
    tau = TameCharacter(p, 3, ExactScalar.from_coeff(p, -1))
    inv = tau.inverse()
    for x in [2, 3, Fraction(1, 5), Fraction(7, 25)]:
        assert tame_eval(tau, x) * tame_eval(inv, x) == ExactScalar.one(p)


@pytest.mark.parametrize("p,j", [(3, 7), (3, 2), (3, -1), (5, 4), (7, 6), (7, -6)])
def test_tame_rejects_a_unit_exponent_outside_0_to_p_minus_2(p, j):
    with pytest.raises(CharacterError, match=rf"^unit exponent must lie in 0\.\.{p - 2}, got {j}$"):
        TameCharacter(p, j)
    assert TameCharacter(p, p - 2).inverse().unit_exponent == 1


@pytest.mark.parametrize("p", [9, 2, 4, 15, 1, 0, -3])
def test_tame_rejects_a_prime_that_is_not_an_odd_prime(p):
    """Before the check, TameCharacter(9, 0) was built, and the closed
    forms and tau(3) then failed inside primitive_root with a bare
    ValueError ("2 is not prime" for p = 2)."""
    with pytest.raises(CharacterError, match=rf"^p must be an odd prime, got {p}$"):
        TameCharacter(p, 0)


@pytest.mark.parametrize("j", [0.5, 1.0, Fraction(1), True, "1", None])
def test_tame_rejects_a_unit_exponent_that_is_not_an_int(j):
    """TameCharacter(3, 0.5) used to be built, and gamma_so then raised a
    bare TypeError."""
    with pytest.raises(CharacterError, match=r"^unit exponent must lie in 0\.\.1, got "):
        TameCharacter(3, j)


@pytest.mark.parametrize("value", [ExactScalar.one(5), "x", 1, Fraction(-1), C.one()])
def test_tame_rejects_a_value_at_the_uniformizer_over_another_prime_or_type(value):
    """TameCharacter(3, 0, ExactScalar.one(5)) used to be built, and
    gamma_so then raised ScalarError inside the enumeration;
    TameCharacter(3, 0, "x") raised a bare AttributeError."""
    with pytest.raises(CharacterError, match=r"^value at the uniformizer must be an ExactScalar over 3$"):
        TameCharacter(3, 0, value)


@pytest.mark.parametrize("tau", [3, None, "tau", C.one()])
def test_tame_eval_rejects_a_tau_that_is_not_a_tame_character(tau):
    """tame_eval(3, 1) used to raise a bare AttributeError on tau.prime."""
    with pytest.raises(CharacterError, match=r"^tau must be a TameCharacter, got "):
        tame_eval(tau, 1)


@pytest.mark.parametrize("x", NOT_AN_ELEMENT)
def test_tame_eval_rejects_an_x_that_is_not_an_int_or_a_fraction(x):
    """tame_eval(tau, 0.5) used to answer, tame_eval(tau, "a") raised a
    bare ValueError, and a bool was read as an int."""
    with pytest.raises(CharacterError, match=r"^x must be an int or a Fraction, got "):
        tame_eval(TameCharacter(3, 1), x)


def test_tame_rejects_zero_and_nonmonomial():
    p = 3
    tau = TameCharacter(p, 0)
    with pytest.raises(CharacterError):
        tame_eval(tau, 0)
    with pytest.raises(CharacterError):
        TameCharacter(p, 0, ExactScalar.one(p) + ExactScalar.one(p) * ExactScalar.from_coeff(p, 1, 1, 1))


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from((3, 5, 7, 11)),
    st.integers(-3, 3),
    st.integers(1, 10**4),
    st.integers(-(10**3), 10**3),
    st.integers(1, 10**3),
    st.data(),
)
def test_tame_eval_reads_only_the_tame_class(p, v, num, k_num, k_den, data):
    """tau(x) = tau(x (1 + p k)) for p-integral k, and tame_class(p^v u)
    = (v, u mod p) for a unit u."""
    assume(num % p and k_den % p)
    u = Fraction(num * data.draw(st.sampled_from((1, -1))), data.draw(st.integers(1, 50).filter(lambda d: d % p)))
    x = Fraction(p) ** v * u
    k = Fraction(k_num, k_den)
    j = data.draw(st.integers(0, p - 2))
    pi_val = Fraction(data.draw(st.integers(-9, 9).filter(bool)), data.draw(st.integers(1, 9)))
    tau = TameCharacter(p, j, ExactScalar.from_coeff(p, pi_val, q_half=data.draw(st.integers(-2, 2))))
    assert tame_eval(tau, x) == tame_eval(tau, x * (1 + p * k))
    assert tame_class(x, p) == (v, u.numerator * pow(u.denominator, -1, p) % p)


# --- affine generic character ----------------------------------------------


def test_affine_chi_reads_simple_affine_slots():
    p = 3
    ell = 2
    u = so_root_element(ell, p, 0, 1, Fraction(1))
    assert affine_chi(u) == C.root_of_unity(p, 1)
    # corner slot divides by pi, so an entry p there contributes psi(1)
    k = so_root_element(ell, p, 2 * ell - 1, 0, Fraction(p))
    assert affine_chi(k) == C.root_of_unity(p, 1)


@pytest.mark.parametrize("ell,p", [(1, 3), (2, 5), (3, 7)])
def test_affine_chi_g_chi_conjugation_invariance(ell, p):
    rng = random.Random(17 * ell + p)
    gchi = g_chi_so(ell, p)
    for _ in range(25):
        k = random_so_iplus(rng, ell, p)
        conj = gchi * k * gchi
        assert affine_chi(conj) == affine_chi(k)


@pytest.mark.parametrize("ell,p", [(1, 3), (2, 5)])
def test_affine_chi_multiplicative_on_iplus(ell, p):
    rng = random.Random(5 * ell + p)
    for _ in range(20):
        a = random_so_iplus(rng, ell, p)
        b = random_so_iplus(rng, ell, p)
        assert affine_chi(a * b) == affine_chi(a) * affine_chi(b)


def test_orbit_conjugator_normalizes():
    p = 7
    ell = 3
    t = (Fraction(2), Fraction(3), Fraction(5), Fraction(4))
    d = orbit_conjugator(t, ell, p)
    tn = normalized_t(t)
    rng = random.Random(9)
    for _ in range(15):
        k = random_so_iplus(rng, ell, p)
        assert affine_chi(d.inv() * k * d, t=tn) == affine_chi(k, t=t)


def test_normalized_t_formula():
    t = (Fraction(2), Fraction(3), Fraction(5))
    assert normalized_t(t) == (Fraction(1), Fraction(1), Fraction(5) * 2 * 9)


# --- Whittaker functions -----------------------------------------------------


def test_whittaker_identity_and_g_chi():
    p = 3
    ell = 1
    for zeta in (C.one(), -C.one()):
        spec = WhittakerSpec(p, "SO", ell, zeta)
        assert whittaker_eval(spec, identity_so(ell, p)) == ExactScalar.one(p)
        got = whittaker_eval(spec, g_chi_so(ell, p))
        assert got == ExactScalar.from_coeff(p, zeta)


def test_whittaker_vanishes_off_support():
    p = 3
    spec = WhittakerSpec(p, "SO", 1, C.one())
    g = embed_j(torus_so2(Fraction(p * p), p), 1)
    assert whittaker_eval(spec, g).is_zero()


@pytest.mark.parametrize("ell,p", [(1, 3), (2, 5)])
def test_whittaker_left_equivariance(ell, p):
    rng = random.Random(ell + p)
    spec = WhittakerSpec(p, "SO", ell, -C.one())
    for _ in range(10):
        u = random_so_unipotent(rng, ell, p, integral=False)
        g = g_chi_so(ell, p) * random_so_iplus(rng, ell, p)
        lhs = whittaker_eval(spec, u * g)
        rhs = ExactScalar.from_coeff(p, _psi_u(spec, u)) * whittaker_eval(spec, g)
        assert lhs == rhs


def test_whittaker_gl_flavor():
    p = 5
    n = 3
    zeta = C.root_of_unity(3, 1)
    spec = WhittakerSpec(p, "GL", n, zeta)
    eye = GroupMatrix.make(mat_identity(n), p)
    assert whittaker_eval(spec, eye) == ExactScalar.one(p)
    assert whittaker_eval(spec, g_chi_gl(n, p)) == ExactScalar.from_coeff(p, zeta)


def test_whittaker_spec_validates_zeta():
    p = 3
    with pytest.raises(CharacterError):
        WhittakerSpec(p, "SO", 1, C.root_of_unity(4, 1))
    with pytest.raises(CharacterError):
        WhittakerSpec(p, "GL", 2, C.root_of_unity(3, 1))
