import re
from collections import Counter
from fractions import Fraction

import pytest

from oracles import SectionSpec, b_element, intertwine_M, section_eval
from ssgamma import cyclotomic, integrals
from ssgamma.characters import CharacterError, TameCharacter, tame_eval
from ssgamma.cli import scalar_str
from ssgamma.cyclotomic import CyclotomicNumber as C
from ssgamma.integrals import (
    BadRoot,
    BoundaryNonvanishing,
    IntegralConfig,
    IntegralError,
    Unsupported,
    ZeroDenominator,
    gamma_gl_closed,
    gamma_so,
    jpss_gl_gamma,
    match_so_gl,
    phi_eval,
    phi_star_eval,
    predicted_gamma_so,
    scan_support,
)
from ssgamma.matrices import F1
from ssgamma.padic import rational_valuation
from ssgamma.scalars import ExactScalar


def ES(p, c, h=0, k=0):
    return ExactScalar.from_coeff(p, c, q_half=h, s_power=k)


def trivial_tau(p):
    return TameCharacter(p, 0)


def tau_pi(p, j, sign):
    return TameCharacter(p, j, ES(p, sign))


def vol_phi(p, ell):
    # vol(p)^(l-1) vol(1+p) with vol(p) = q^(-1/2), vol(1+p) = 1/(q-1)
    return ES(p, Fraction(1, p - 1), -(ell - 1), 0)


# --- sections ----------------------------------------------------------------


def test_section_values():
    p = 3
    sec = SectionSpec(trivial_tau(p))
    assert section_eval(sec, Fraction(1), 1) == ExactScalar.one(p)
    # z = pi: |z|^(s - 1/2) = q^(1/2) q^(-s)
    assert section_eval(sec, Fraction(p), 1) == ES(p, 1, 1, 1)
    assert section_eval(sec, Fraction(1, p), 1) == ES(p, 1, -1, -1)


def test_section_tau_slot():
    p = 5
    tau = tau_pi(p, 1, -1)
    sec = SectionSpec(tau)
    assert section_eval(sec, Fraction(1), 2) == tame_eval(tau, 2)
    assert section_eval(sec, Fraction(p), 1) == ES(p, -1, 1, 1)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_b1_star_is_minus_one(p):
    # Phi* reads b_1^* as the constant -1; tau(-1) = -1 at odd j tells the signs apart
    b = b_element(1, p).star().rows[0][0]
    assert b == -1
    tau = tau_pi(p, 1, -1)
    cfg = IntegralConfig(p, 1, -C.one(), tau)
    for z in (Fraction(1), Fraction(p), Fraction(2, p)):
        v = rational_valuation(1 / z, p)
        assert integrals._section(tau, -1 / z, 1) == ES(p, 1, v, v) * tame_eval(tau, b / z)
    # and phi_star_eval takes the section there, at each bucket's z, times Phi*'s zeta^1
    want = ExactScalar.zero(p)
    buckets, _ = integrals._side_buckets("phi_star", p, 3, cfg.level, cfg.cutoff, cfg.mode)
    for z, part in buckets.items():
        v = rational_valuation(1 / z, p)
        want = want + part * ES(p, 1, v, v) * tame_eval(tau, b / z)
    assert phi_star_eval(cfg) == -want


def test_intertwine_identity_at_rank_one():
    p = 3
    sec = SectionSpec(trivial_tau(p))
    assert intertwine_M(sec, Fraction(p), 1) == section_eval(sec, Fraction(p), 1)
    with pytest.raises(Unsupported):
        intertwine_M(sec, Fraction(1), 1, n=2)


# --- Phi and Phi* closed values ----------------------------------------------


@pytest.mark.parametrize("p,ell", [(3, 1), (3, 2), (5, 1)])
@pytest.mark.parametrize("sign", [1, -1])
def test_phi_value(p, ell, sign):
    zeta = C.one() if sign == 1 else -C.one()
    cfg = IntegralConfig(p, ell, zeta, trivial_tau(p), level=2, cutoff=1)
    assert phi_eval(cfg) == vol_phi(p, ell)


def test_phi_star_value():
    p = 3
    ell = 1
    zeta = -C.one()
    cfg = IntegralConfig(p, ell, zeta, trivial_tau(p), level=2, cutoff=1)
    # Phi* = Phi * zeta tau(-pi) q^(1/2 - s)
    assert phi_star_eval(cfg) == vol_phi(p, ell) * ES(p, -1, 1, 1)


def test_gamma_trivial_tau():
    p = 3
    cfg = IntegralConfig(p, 1, -C.one(), trivial_tau(p), level=2, cutoff=1)
    res = gamma_so(cfg)
    assert res.matches
    assert res.computed == ES(p, -1, 1, 1)  # -q^(1/2 - s)


def test_gamma_quadratic_tau():
    p = 5
    tau = TameCharacter(p, 2)  # quadratic on units
    cfg = IntegralConfig(p, 1, C.one(), tau, level=2, cutoff=1)
    res = gamma_so(cfg)
    assert res.matches
    # tau(-1) = (-1)^2-index parity; computed stays a single monomial
    assert res.computed.is_monomial()
    terms = res.computed.canonical_terms()
    assert [(h, k) for h, k, _ in terms] == [(1, 1)]


def test_gamma_is_monomial_q_half_minus_s():
    p = 3
    for j in range(p - 1):
        for sign in (1, -1):
            cfg = IntegralConfig(p, 1, C.one(), tau_pi(p, j, sign), level=2, cutoff=1)
            res = gamma_so(cfg)
            assert res.matches
            h, k, _ = res.computed.canonical_terms()[0]
            assert (h, k) == (1, 1)


@pytest.mark.parametrize("p,ell", [(13, 1), (5, 3)])
@pytest.mark.parametrize("coeff", [Fraction(3, 7), C.root_of_unity(4, 1)], ids=["rational", "zeta_4"])
def test_a_warm_cell_makes_almost_no_reductions_and_no_elimination(monkeypatch, p, ell, coeff):
    """A warm cell multiplies and adds values that are almost all one term
    c * zeta^e, and divides by the rational Phi.  Before the monomial fast
    paths of the ring, each of these cells made 26 to 28 polynomial
    remainders and one Gauss-Jordan elimination, the inverse of a value
    of several terms, which the norm now gives.  Counts, not timings:
    they repeat exactly."""
    cfg = IntegralConfig(p, ell, -C.one(), TameCharacter(p, 1, ES(p, coeff, 1)))
    gamma_so(cfg)  # the cold call builds the buckets
    calls = {"_poly_rem": 0, "inverse of several terms": 0}
    poly_rem, inverse = cyclotomic._poly_rem, C.inverse

    def counted_rem(*args):
        calls["_poly_rem"] += 1
        return poly_rem(*args)

    def counted_inverse(x):
        calls["inverse of several terms"] += len(x.coeffs) > 1
        return inverse(x)

    monkeypatch.setattr(cyclotomic, "_poly_rem", counted_rem)
    monkeypatch.setattr(C, "inverse", counted_inverse)
    assert gamma_so(cfg).matches
    assert calls["_poly_rem"] <= 2
    assert calls["inverse of several terms"] == 0


def test_a_warm_jpss_cell_reads_tau_itself(monkeypatch):
    """A warm jpss_gl_gamma(3, tau, zeta_3, 2, 1) reads each section at tau
    itself, the dual one at 1/a, and makes tau(-1)^(n-1) once for both
    gammas: 1 ExactScalar division (dual over plain) with its 1
    CyclotomicNumber inverse, no TameCharacter, 3 tame_eval calls (the
    sign and one section a side) and 11 ExactScalar products.  When the
    dual side read the inverse character at a and each gamma made its own
    sign, the cell made 3, 3, 1, 4 and 13: tau(pi)^(-1) and the dual
    section's tau^(-1)(pi)^(-1) were one division each.  Counts, not
    timings: they repeat exactly."""
    p = 5
    tau = TameCharacter(p, 1, ES(p, Fraction(-2, 3)))
    zeta = C.root_of_unity(3, 1)
    jpss_gl_gamma(3, tau, zeta, level=2, cutoff=1)  # the cold call builds the buckets
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    targets = [
        (ExactScalar, "__truediv__"),
        (C, "inverse"),
        (TameCharacter, "__init__"),
        (integrals, "tame_eval"),
        (ExactScalar, "__mul__"),
        (ExactScalar, "__rmul__"),
    ]
    for owner, name in targets:
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    assert jpss_gl_gamma(3, tau, zeta, level=2, cutoff=1).matches
    assert [calls[name] for _, name in targets] == [1, 1, 0, 3, 11, 0]


def test_brute_force_agrees():
    p = 3
    for ell in (1, 2):
        zeta = -C.one()
        tau = tau_pi(p, 1, -1)
        fast = IntegralConfig(p, ell, zeta, tau, level=2, cutoff=1)
        slow = IntegralConfig(p, ell, zeta, tau, level=2, cutoff=1, mode="brute-force")
        assert phi_eval(fast) == phi_eval(slow)
        assert phi_star_eval(fast) == phi_star_eval(slow)


@pytest.mark.parametrize(
    "mode,cells",
    [
        ("support-aware", [(3, 1), (3, 2), (5, 1), (5, 2), (7, 1), (7, 2)]),
        ("brute-force", [(3, 1), (3, 2)]),
    ],
)
def test_serialized_records_match_closed_forms(mode, cells):
    """Equal values can still serialize differently: the records carry the
    cyclotomic order of a coefficient, which depends on how a sum was
    built.  So the output bytes are pinned, not just ==."""
    for p, ell in cells:
        for zeta in (C.one(), -C.one()):
            for j in range(p - 1):
                for tp in (1, -1, Fraction(3, 7), Fraction(-25, 9)):
                    tau = TameCharacter(p, j, ES(p, tp))
                    cfg = IntegralConfig(p, ell, zeta, tau, level=2, cutoff=1, mode=mode)
                    got, want = gamma_so(cfg).computed, predicted_gamma_so(cfg.tau, cfg.zeta)
                    assert got.to_records() == want.to_records()
                    assert scalar_str(got) == scalar_str(want)
                    assert phi_eval(cfg).to_records() == vol_phi(p, ell).to_records()


def test_stabilization_in_cutoffs():
    p = 3
    cfg21 = IntegralConfig(p, 1, C.one(), trivial_tau(p), level=2, cutoff=1)
    cfg32 = IntegralConfig(p, 1, C.one(), trivial_tau(p), level=3, cutoff=2)
    assert phi_eval(cfg21) == phi_eval(cfg32)
    assert phi_star_eval(cfg21) == phi_star_eval(cfg32)


def test_config_validation():
    p = 3
    with pytest.raises(IntegralError):
        IntegralConfig(p, 1, C.one(), trivial_tau(p), level=1, cutoff=1)
    with pytest.raises(IntegralError):
        IntegralConfig(p, 1, C.one(), trivial_tau(p), level=2, cutoff=0)
    with pytest.raises(IntegralError):
        IntegralConfig(p, 1, C.one(), trivial_tau(p), mode="monte-carlo")
    for ell in (0, -1):
        with pytest.raises(IntegralError):
            IntegralConfig(p, ell, C.one(), trivial_tau(p))


@pytest.mark.parametrize("p", [9, 4, 15, 2, 1, 0, -3])
def test_a_prime_that_is_not_an_odd_prime_is_rejected(p):
    """The library checks p itself, before any enumeration reaches the
    primitive root mod p.  jpss_gl_gamma and match_so_gl read p off tau,
    and a tame character over such a p cannot be built."""
    message = rf"^p must be an odd prime, got {p}$"
    with pytest.raises(IntegralError, match=message):
        IntegralConfig(p, 1, C.one(), TameCharacter(3, 0), level=2, cutoff=1)
    with pytest.raises(IntegralError, match=message):
        scan_support(p, 1, "phi", level=2, cutoff=1)
    with pytest.raises(CharacterError, match=message):
        TameCharacter(p, 0)


def test_tau_over_another_prime_is_rejected():
    with pytest.raises(IntegralError, match=r"^tau is a character of Q_3, not of Q_5$"):
        IntegralConfig(5, 1, C.one(), TameCharacter(3, 1), level=2, cutoff=1)


@pytest.mark.parametrize("t", [(1, 1), (1, 1, 1, 1), ()])
def test_t_of_the_wrong_length_is_rejected(t):
    p, ell = 3, 2
    with pytest.raises(IntegralError, match=r"^need 3 affine parameters t, got \d$"):
        IntegralConfig(p, ell, C.one(), trivial_tau(p), level=2, cutoff=1, t=t)
    with pytest.raises(IntegralError, match=r"^need 3 affine parameters t, got \d$"):
        scan_support(p, ell, "phi", level=2, cutoff=1, t=t)


@pytest.mark.parametrize("t", [(0, 1, 1), (1, 3, 1), (1, 1, Fraction(2, 3)), (6, 1, 1)])
def test_t_with_a_non_unit_entry_is_rejected(t):
    p, ell = 3, 2
    with pytest.raises(IntegralError, match="must be a p-adic unit"):
        IntegralConfig(p, ell, C.one(), trivial_tau(p), level=2, cutoff=1, t=t)
    with pytest.raises(IntegralError, match="must be a p-adic unit"):
        scan_support(p, ell, "phi_star", level=2, cutoff=1, t=t)



@pytest.mark.parametrize(
    "ell,t",
    [(2, ("a", "b", "c")), (1, ("x", "y")), (2, (None, 1, 1)), (2, (1, 1.0, 1)), (2, 5), (2, "abc"), (2, (True, 1, 1))],
)
def test_t_that_is_not_a_sequence_of_ints_or_fractions_is_rejected(ell, t):
    """Each used to raise a bare ValueError or TypeError; a bool t_i was
    read as 1."""
    p = 3
    with pytest.raises(IntegralError, match=r"^(t must be a tuple or list|each affine parameter t must be an int or a Fraction)"):
        IntegralConfig(p, ell, C.one(), trivial_tau(p), level=2, cutoff=1, t=t)
    with pytest.raises(IntegralError, match=r"^(t must be a tuple or list|each affine parameter t must be an int or a Fraction)"):
        scan_support(p, ell, "phi", level=2, cutoff=1, t=t)


OFF_THE_FAMILY = r"^need t_\(l\+1\) = t_1 mod p: only then does g_chi normalize chi$"


@pytest.mark.parametrize(
    "p,t",
    [(3, (1, 1, 2)), (5, (1, 2, 3)), (3, (1, 2)), (5, (2, Fraction(1, 3), 3)), (7, (3, 1, 1, Fraction(1, 3)))],
)
def test_t_off_the_family_is_rejected(p, t):
    """Each t here is a tuple of p-adic units with t_(l+1) != t_1 mod p.
    The fixed g_chi does not normalize such a chi, so the Whittaker
    function is not defined; both used to return an answer."""
    ell = len(t) - 1
    with pytest.raises(IntegralError, match=OFF_THE_FAMILY):
        IntegralConfig(p, ell, C.one(), trivial_tau(p), level=2, cutoff=1, t=t)
    with pytest.raises(IntegralError, match=OFF_THE_FAMILY):
        scan_support(p, ell, "phi", level=2, cutoff=1, t=t)


@pytest.mark.parametrize(
    "p,t",
    [
        (3, (Fraction(2), Fraction(-1), Fraction(4, 5), Fraction(5))),  # T_3_3 of tests/test_kernel.py
        (3, (2, -1)),
        (5, (Fraction(2, 3), Fraction(-13, 3))),
    ],
)
def test_t_in_the_family_is_accepted(p, t):
    """t_(l+1) = t_1 mod p with t_(l+1) != t_1; [1, 2/3, -4] at p = 5 is
    the next test's."""
    ell = len(t) - 1
    assert IntegralConfig(p, ell, C.one(), trivial_tau(p), level=2, cutoff=1, t=t).t == tuple(t)
    if ell == 1:  # a scan at l = 1 is cheap
        assert scan_support(p, ell, "phi", level=2, cutoff=1, t=t)[1]


def test_t_may_be_a_list_of_ints_and_fractions():
    p = 5
    cfg = IntegralConfig(p, 2, C.one(), trivial_tau(p), level=2, cutoff=1, t=[1, Fraction(2, 3), -4])
    assert cfg.t == (1, Fraction(2, 3), -4)


@pytest.mark.parametrize("tau", ["tau", None, 0, C.one()])
def test_a_tau_that_is_not_a_tame_character_is_rejected(tau):
    """Each entry point used to raise a bare AttributeError on tau.prime."""
    message = r"^tau must be a TameCharacter, got "
    with pytest.raises(IntegralError, match=message):
        IntegralConfig(3, 1, C.one(), tau)
    with pytest.raises(IntegralError, match=message):
        jpss_gl_gamma(2, tau, C.one())
    with pytest.raises(IntegralError, match=message):
        gamma_gl_closed(2, tau, C.one())
    with pytest.raises(IntegralError, match=message):
        predicted_gamma_so(tau, C.one())
    with pytest.raises(IntegralError, match=message):
        match_so_gl(1, tau, C.one())


@pytest.mark.parametrize("zeta", ["x", None, 1.0, True, [1]])
def test_a_zeta_that_is_not_a_number_is_rejected(zeta):
    """Each entry point used to raise a bare TypeError or ValueError, or
    to read a bool as an int."""
    tau = trivial_tau(3)
    message = r"^zeta must be a CyclotomicNumber, an int or a Fraction, got "
    with pytest.raises(BadRoot, match=message):
        IntegralConfig(3, 1, zeta, tau)
    with pytest.raises(BadRoot, match=message):
        gamma_gl_closed(2, tau, zeta)
    with pytest.raises(BadRoot, match=message):
        jpss_gl_gamma(2, tau, zeta)
    with pytest.raises(BadRoot, match=message):
        predicted_gamma_so(tau, zeta)
    with pytest.raises(BadRoot, match=message):
        match_so_gl(1, tau, zeta)


@pytest.mark.parametrize("cfg", ["cfg", 3, (3, 1)])
def test_match_so_gl_rejects_a_cfg_that_is_not_a_config(cfg):
    """It used to raise a bare AttributeError on cfg.ell."""
    with pytest.raises(IntegralError, match=r"^cfg must be an IntegralConfig or None, got "):
        match_so_gl(1, trivial_tau(3), C.one(), cfg=cfg)


@pytest.mark.parametrize(
    "zeta",
    [
        1,
        -1,
        pytest.param(C(3, {1: -1, 2: -1}), id="one_at_order_3"),  # -zeta_3 - zeta_3^2 = 1
        pytest.param(C(4, {2: 1}), id="minus_one_at_order_4"),  # zeta_4^2 = -1
        pytest.param(C(6, {1: 1, 5: 1}), id="one_at_order_6"),  # zeta_6 + zeta_6^(-1) = 1
    ],
)
def test_an_int_zeta_is_the_sign_it_names(zeta):
    """An int, or a cyclotomic number stored above order 1, is accepted
    wherever a sign is, and acts as the sign it equals."""
    p = 3
    tau = tau_pi(p, 1, -1)
    as_cyc = C.one() if zeta == 1 else -C.one()
    for ell in (1, 2):
        got = gamma_so(IntegralConfig(p, ell, zeta, tau, level=2, cutoff=1))
        want = gamma_so(IntegralConfig(p, ell, as_cyc, tau, level=2, cutoff=1))
        assert got == want and got.matches
    assert predicted_gamma_so(tau, zeta) == predicted_gamma_so(tau, as_cyc)
    assert gamma_gl_closed(2, tau, zeta) == gamma_gl_closed(2, tau, as_cyc)
    assert match_so_gl(1, tau, zeta)
    assert match_so_gl(1, tau, zeta, IntegralConfig(p, 1, zeta, tau, level=2, cutoff=1))


# --- GL cross-check -----------------------------------------------------------


def test_gamma_gl_closed_form():
    p = 3
    tau = tau_pi(p, 1, -1)
    # tau(-1) = zeta_2^(index of p-1)= tau at -1; n = 2 gives one factor
    got = gamma_gl_closed(2, tau, C.one())
    assert got == tame_eval(tau, -1) * ES(p, -1, 1, 1)


def test_jpss_matches_closed_form():
    p = 3
    n = 2
    for j in range(p - 1):
        for sign in (1, -1):
            for zsign in (1, -1):
                zeta = C.one() if zsign == 1 else -C.one()
                res = jpss_gl_gamma(n, tau_pi(p, j, sign), zeta, level=2, cutoff=1)
                assert res.matches


def test_jpss_n3():
    p = 3
    zeta = C.root_of_unity(3, 2)
    res = jpss_gl_gamma(3, trivial_tau(p), zeta, level=2, cutoff=1)
    assert res.matches


@pytest.mark.parametrize("n,p", [(4, 3), (3, 5)])
def test_jpss_matches_closed_form_at_n_4_and_p_5(n, p):
    """The brute-force JPSS gamma at (n, p) = (4, 3) and (3, 5), N = 2,
    V = 1, equals tau(-1)^(n-1) tau(pi) zeta q^(1/2-s) at every n-th root
    of unity zeta, every tame exponent j, and tau(pi) in {1, -2/3}.  Both
    sides are built once; each cell is a bucket sum."""
    for k in range(n):
        zeta = C.root_of_unity(n, k)
        for j in range(p - 1):
            for value in (1, Fraction(-2, 3)):
                res = jpss_gl_gamma(n, tau_pi(p, j, value), zeta, level=2, cutoff=1)
                assert res.matches and res.computed == res.predicted, (k, j, value)


def test_jpss_reads_each_side_from_its_own_entry(monkeypatch):
    """jpss_gl_gamma reads the plain integral off the plain entry of the
    store and the dual one off the dual entry, and applies zeta to the
    dual side.  On the real domains a swap of the two entries changes no
    gamma: each side is one tame class, and the dual weight over the
    plain one is q^((n-2)/2), which the two sections' q-powers undo.  So
    the entries here are synthetic, with counts 2 (plain, at a0 = 1) and
    5 (dual, at a0 = 1/p).  At n = 3 the plain section is 1 at a = 1 and
    the dual one tau^(-1)(1/p) q^-s = tau(pi) q^-s at a = 1/p, so
    gamma = tau(-1)^2 zeta (5 tau(pi) q^-s) / 2."""
    n, p = 3, 5
    monkeypatch.setattr(integrals, "_BUCKETS", {})
    for side, a0, count in (("plain", F1, 2), ("dual", Fraction(1, p), 5)):
        key = (integrals._side_buckets, side, p, n, 2, 1, "brute-force")
        integrals._BUCKETS[key] = {a0: ExactScalar.from_coeff(p, count)}, {}
    tau = tau_pi(p, 1, Fraction(-2, 3))
    zeta = C.root_of_unity(3, 1)
    got = jpss_gl_gamma(n, tau, zeta, level=2, cutoff=1).computed
    assert got == ExactScalar.from_coeff(p, Fraction(5, 2) * Fraction(-2, 3) * zeta, s_power=1)


def test_match_so_gl_symbolic_and_computed():
    p = 3
    tau = tau_pi(p, 1, -1)
    assert match_so_gl(1, tau, -C.one())
    assert match_so_gl(2, tau, C.one())
    cfg = IntegralConfig(p, 1, -C.one(), tau, level=2, cutoff=1)
    assert match_so_gl(1, tau, -C.one(), cfg=cfg)


def test_match_so_gl_is_false_when_the_closed_forms_differ(monkeypatch):
    """The closed forms agree at every input, so a GL closed form that
    differs is put in here; match_so_gl then says False before it computes
    anything."""
    closed = integrals.gamma_gl_closed
    monkeypatch.setattr(integrals, "gamma_gl_closed", lambda n, tau, zeta: -closed(n, tau, zeta))
    monkeypatch.setattr(integrals, "gamma_so", None)  # not reached
    tau = tau_pi(3, 1, -1)
    assert match_so_gl(1, tau, -C.one(), cfg=IntegralConfig(3, 1, -C.one(), tau, level=2, cutoff=1)) is False


def test_match_so_gl_rejects_a_config_that_contradicts_its_arguments():
    p = 3
    tau = tau_pi(p, 1, -1)
    # each config differs from the arguments (1, tau, -1) in one of l, tau, zeta
    for cfg in (
        IntegralConfig(p, 2, -C.one(), tau, level=2, cutoff=1),
        IntegralConfig(p, 1, -C.one(), tau_pi(p, 0, -1), level=2, cutoff=1),
        IntegralConfig(p, 1, -C.one(), tau_pi(p, 1, 1), level=2, cutoff=1),
        IntegralConfig(p, 1, C.one(), tau, level=2, cutoff=1),
    ):
        with pytest.raises(IntegralError, match="cfg disagrees"):
            match_so_gl(1, tau, -C.one(), cfg=cfg)


@pytest.mark.parametrize("ell", [0, -1])
def test_match_so_gl_rejects_a_rank_below_one(ell):
    with pytest.raises(IntegralError, match="need l >= 1"):
        match_so_gl(ell, tau_pi(3, 1, -1), C.one())


@pytest.mark.parametrize("ell", [True, 1.5, 1.0, "1"])
def test_match_so_gl_rejects_a_rank_that_is_not_an_int(ell):
    """match_so_gl(True, ...) used to answer True as if l = 1, and
    match_so_gl(1.5, ...) to complain that n = 3.0 is not an int."""
    with pytest.raises(IntegralError, match=rf"^l must be an int, got {ell!r}$"):
        match_so_gl(ell, tau_pi(3, 1, -1), C.one())


@pytest.mark.parametrize("n", [0, -2])
def test_gamma_gl_closed_rejects_a_size_below_one(n):
    with pytest.raises(Unsupported, match="need n >= 1"):
        gamma_gl_closed(n, tau_pi(3, 1, -1), C.one())


@pytest.mark.parametrize("bad", [2.5, 2.0, True, Fraction(2), "2"])
def test_sizes_that_are_not_ints_are_rejected(bad):
    """Each used to raise a bare TypeError, or, for a bool, to run as 0 or 1."""
    tau = trivial_tau(3)
    for kwargs in ({"level": bad}, {"cutoff": bad}):
        with pytest.raises(IntegralError, match=r"^l, N and V must be ints, got "):
            IntegralConfig(3, 1, C.one(), tau, **kwargs)
    with pytest.raises(IntegralError, match=r"^l, N and V must be ints, got "):
        IntegralConfig(3, bad, C.one(), tau)
    with pytest.raises(IntegralError, match=r"^l, N and V must be ints, got "):
        scan_support(3, bad, "phi")
    with pytest.raises(Unsupported, match=f"^n must be an int, got {re.escape(repr(bad))}$"):
        gamma_gl_closed(bad, tau, C.one())
    with pytest.raises(Unsupported, match=f"^n must be an int, got {re.escape(repr(bad))}$"):
        jpss_gl_gamma(bad, tau, C.one())


def test_config_rejects_a_zeta_that_is_not_a_sign():
    # zeta^2 = 1 on SO(2l+1): a cube root gives no representation
    with pytest.raises(BadRoot, match="zeta\\^2 = 1"):
        IntegralConfig(3, 1, C.root_of_unity(3, 1), trivial_tau(3))


@pytest.mark.parametrize(
    "zeta",
    [2, Fraction(1, 2), C.root_of_unity(3, 1), C.root_of_unity(4, 1), C(3, {0: 1, 1: 1}), C(4, {1: 1, 3: 1})],
)
def test_predicted_gamma_so_rejects_a_zeta_that_is_not_a_sign(zeta):
    """predicted_gamma_so(tau, 2) used to answer 2*q^(1/2)*(q^-s)^1.
    1 + zeta_3 = -zeta_3^2 is a root of unity that is no sign, and
    zeta_4 + zeta_4^3 = 0 is rational and no sign."""
    with pytest.raises(BadRoot, match="zeta\\^2 = 1"):
        predicted_gamma_so(trivial_tau(3), zeta)
    with pytest.raises(BadRoot, match="zeta\\^2 = 1"):
        IntegralConfig(3, 1, zeta, trivial_tau(3))


@pytest.mark.parametrize("cfg", ["x", None, 3, (3, 1)])
def test_the_so_evaluators_reject_a_cfg_that_is_not_a_config(cfg):
    """Each used to raise a bare AttributeError on cfg.prime."""
    for evaluate in (gamma_so, phi_eval, phi_star_eval):
        with pytest.raises(IntegralError, match=r"^cfg must be an IntegralConfig, got "):
            evaluate(cfg)


# --- support scans -------------------------------------------------------------


@pytest.mark.parametrize("side", ["phi", "phi_star"])
def test_scan_support_matches_predicate(side):
    p = 3
    for ell in (1, 2):
        points, verdict = scan_support(p, ell, side, level=2, cutoff=1)
        assert verdict
        assert any(pt.nonzero for pt in points)
        for pt in points:
            assert pt.nonzero == pt.predicted


def test_scan_support_detects_wrong_predicate(monkeypatch):
    """The support lemma is the support-aware windows: giving the Phi
    side the Phi* window must fail the scan."""
    p = 3
    real = integrals._z_windows
    monkeypatch.setattr(
        integrals, "_z_windows", lambda prime, level, cutoff, mode, i: real(prime, level, cutoff, mode, 1)
    )
    _, verdict = scan_support(p, 1, "phi", level=2, cutoff=1)
    assert not verdict


# --- the padding-shell guard ---------------------------------------------------


def entry(rows, r, c):
    """Entry (r, c) of the row builders' scaled rows, as a Fraction."""
    nums, den = rows[r]
    return Fraction(nums[c], den)


def phi_point(rows, diag):
    """(z, y) of a Phi point, read off the SO row test's arguments: z is
    the d of the torus h(d), and the rows at (1, y) have -y_k in their
    bottom row, left of the corner."""
    (entries, den) = diag
    n = len(entries)
    return Fraction(entries[0], den), tuple(-entry(rows, n - 1, n - 2 - i) for i in range((n - 3) // 2))


def shell_nonzero_evaluator(monkeypatch, cutoff):
    """Replace the SO row test (with a fresh bucket cache) by one that
    also passes at the Phi points with v_p(z) > V; returns the z of its
    calls."""
    real = integrals.coset_decompose
    calls = []

    def fake(rows, diag, p):
        z = phi_point(rows, diag)[0]
        calls.append(z)
        if rational_valuation(z, p) > cutoff:
            return rows
        return real(rows, diag, p)

    monkeypatch.setattr(integrals, "coset_decompose", fake)
    monkeypatch.setattr(integrals, "_BUCKETS", {})
    return calls


def traceback_depth(error):
    tb, depth = error.__traceback__, 0
    while tb is not None:
        tb, depth = tb.tb_next, depth + 1
    return depth


def test_brute_force_raises_on_a_nonzero_shell_point(monkeypatch):
    p, level, cutoff = 3, 2, 1
    calls = shell_nonzero_evaluator(monkeypatch, cutoff)
    cfg = IntegralConfig(p, 1, C.one(), trivial_tau(p), level=level, cutoff=cutoff, mode="brute-force")
    _, zs = integrals._z_windows(p, level, cutoff, "brute-force", 0)
    first = next(z for z, shell in zs if shell and rational_valuation(z, p) > 0)
    message = f"nonzero phi integrand at the padding shell: z={first}, y=()"
    with pytest.raises(BoundaryNonvanishing) as err:
        phi_eval(cfg)
    assert str(err.value) == message
    depth = traceback_depth(err.value)
    # the loop goes on past the shell point and values each z once, so
    # the record scan_support reads is complete
    assert calls == [z for z, _ in zs]
    # the error is memoized: the second call does not enumerate again
    enumerated = len(calls)
    with pytest.raises(BoundaryNonvanishing) as again:
        phi_eval(cfg)
    assert str(again.value) == message
    assert len(calls) == enumerated
    # the stored error is raised with a fresh traceback each time, so it
    # does not keep the frames of every earlier raise
    assert traceback_depth(again.value) == depth


@pytest.mark.parametrize("level,cutoff", [(0, 1), (1, 1), (2, 0), (2, -1)])
def test_jpss_rejects_a_truncation_outside_the_domain(level, cutoff):
    p = 3
    with pytest.raises(IntegralError, match=r"^need N >= 2 and V >= 1$"):
        jpss_gl_gamma(2, trivial_tau(p), C.one(), level=level, cutoff=cutoff)


@pytest.mark.parametrize("side", ["bogus", "phi-star", "Phi"])
def test_scan_support_rejects_an_unknown_side(side):
    with pytest.raises(IntegralError, match="side must be phi or phi_star"):
        scan_support(3, 1, side)


def test_jpss_raises_on_a_nonzero_shell_point(monkeypatch):
    p, cutoff = 3, 1
    monkeypatch.setattr(integrals, "coset_decompose_gl", lambda rows, d, prime, first=0: rows)
    monkeypatch.setattr(integrals, "_BUCKETS", {})
    first = Fraction(p) ** (-cutoff - 1)  # the first a of the plain side
    message = f"nonzero JPSS plain integrand at the padding shell: a={first}, x=()"
    with pytest.raises(BoundaryNonvanishing) as err:
        jpss_gl_gamma(2, trivial_tau(p), C.one(), level=2, cutoff=cutoff)
    assert str(err.value) == message


def test_brute_force_raises_on_a_nonzero_point_with_only_y_on_the_shell(monkeypatch):
    """At l = 2, a Phi point whose z is inside the window and whose y is on
    the p^-(V+1) shell: the loop must check the inner coordinate too."""
    p, level, cutoff = 3, 2, 1
    real = integrals.coset_decompose

    def fake(rows, diag, prime):
        z, (y,) = phi_point(rows, diag)
        if abs(rational_valuation(z, p)) <= cutoff and rational_valuation(y, p) < -cutoff:
            return rows
        return real(rows, diag, prime)

    monkeypatch.setattr(integrals, "coset_decompose", fake)
    monkeypatch.setattr(integrals, "_BUCKETS", {})
    z = next(z for z, shell in integrals._z_windows(p, level, cutoff, "brute-force", 0)[1] if not shell)
    y = next(y for y, shell in integrals._y_windows(p, level, cutoff, "brute-force", 1)[1] if shell)
    cfg = IntegralConfig(p, 2, C.one(), trivial_tau(p), level=level, cutoff=cutoff, mode="brute-force")
    with pytest.raises(BoundaryNonvanishing) as err:
        phi_eval(cfg)
    assert str(err.value) == f"nonzero phi integrand at the padding shell: z={z}, y={(y,)}"
    # the scan reads the record the failed evaluation left, which holds
    # every such point, several at each z
    zs = integrals._z_windows(p, level, cutoff, "brute-force", 0)[1]
    ys = integrals._y_windows(p, level, cutoff, "brute-force", 1)[1]
    points, verdict = scan_support(p, 2, "phi", level=level, cutoff=cutoff)
    assert verdict is False
    assert [(pt.z, pt.y) for pt in points if pt.nonzero != pt.predicted] == [
        (z, (y,)) for z, z_shell in zs if not z_shell for y, y_shell in ys if y_shell
    ]


def test_a_nonzero_shell_point_reaches_both_the_evaluator_and_the_scan(monkeypatch):
    """One Phi point on the padding shell made nonzero, at (3, 2, 2, 1).
    The brute-force phi_eval raises the BoundaryNonvanishing that names
    it, and scan_support reports it as nonzero off the predicate, in
    either order: the point loop finishes the window before the error is
    raised, so the record the scan reads is complete.  The real record,
    built first, is not read once the cache is replaced."""
    p, ell, level, cutoff = 3, 2, 2, 1
    assert scan_support(p, ell, "phi", level=level, cutoff=cutoff)[1] is True  # the real record, cached
    z0 = next(z for z, shell in integrals._z_windows(p, level, cutoff, "brute-force", 0)[1] if shell)
    y0 = integrals._y_windows(p, level, cutoff, "brute-force", 1)[1][0][0]
    real = integrals.coset_decompose

    def fake(rows, diag, prime):
        if phi_point(rows, diag) == (z0, (y0,)):
            return rows
        return real(rows, diag, prime)

    monkeypatch.setattr(integrals, "coset_decompose", fake)
    cfg = IntegralConfig(p, ell, C.one(), trivial_tau(p), level=level, cutoff=cutoff, mode="brute-force")
    message = f"nonzero phi integrand at the padding shell: z={z0}, y={(y0,)}"
    for scan_first in (True, False):
        monkeypatch.setattr(integrals, "_BUCKETS", {})
        for step in ("scan", "eval") if scan_first else ("eval", "scan"):
            if step == "scan":
                points, verdict = scan_support(p, ell, "phi", level=level, cutoff=cutoff)
                assert verdict is False
                assert [(pt.z, pt.y, pt.nonzero, pt.predicted) for pt in points if pt.nonzero != pt.predicted] == [
                    (z0, (y0,), True, False)
                ]
            else:
                with pytest.raises(BoundaryNonvanishing) as err:
                    phi_eval(cfg)
                assert str(err.value) == message


def test_jpss_raises_on_a_nonzero_dual_point_with_only_x_on_the_shell(monkeypatch):
    """At n = 3, a dual point whose a is inside the window and whose x is
    on the p^-1 shell; every other point, plain side included, vanishes.
    A dual x is on the shell exactly when the bottom row (0, -p x_0, 1) of
    its rows at j = 1 leaves I+, so the row test made once per x, at
    d = 1, fails there and nowhere else, the plain side's identity
    included.  The fake accepts exactly the x the real test rejects, and
    then passes every point whose a is inside the window."""
    p, level, cutoff = 3, 2, 1
    xs = integrals._y_windows(p, level, 0, "brute-force", 0)[1]
    real = integrals.coset_decompose_gl
    assert [real(integrals._gl_dual_rows((x,), p), F1, p, 2) is None for x, _ in xs] == [shell for _, shell in xs]
    assert real(integrals._unit_rows(3, range(3)), F1, p, 1) is not None

    def fake(rows, d, prime, first=0):
        if first:  # the test made once per x
            return rows if real(rows, d, prime, first) is None else None
        return rows if abs(rational_valuation(d, p)) <= cutoff else None

    monkeypatch.setattr(integrals, "coset_decompose_gl", fake)
    monkeypatch.setattr(integrals, "_BUCKETS", {})
    a = next(a for a, shell in integrals._z_windows(p, level, cutoff, "brute-force", 0)[1] if not shell)
    x = next(x for x, shell in integrals._y_windows(p, level, 0, "brute-force", 0)[1] if shell)
    with pytest.raises(BoundaryNonvanishing) as err:
        jpss_gl_gamma(3, trivial_tau(p), C.one(), level=level, cutoff=cutoff)
    assert str(err.value) == f"nonzero JPSS dual integrand at the padding shell: a={a}, x={(x,)}"
