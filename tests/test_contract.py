"""The library fuzz test: every public entry point of the README "Library
contract" either returns or raises one of the package's error classes,
never a bare builtin one, on arguments half drawn from valid values and
half from junk.

Sizes stay small (p <= 5, l <= 2, N = 2, V = 1, n <= 3), since nothing
bounds the brute-force work yet.  Three cases are kept smaller still:
a brute-force SO domain at (p, l) = (5, 2) has 62,500 points a side,
and scan_support at l = 2 takes 0.3 s at p = 3 and 9 s at p = 5, so
both run at l = 1; match_so_gl with a config computes the JPSS gamma
at n = 2l, so its config has l = 1.
The bucket caches keep the enumerations that do run to one per key.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from ssgamma.characters import CharacterError, TameCharacter, psi_eval, tame_eval
from ssgamma.cyclotomic import CyclotomicNumber as C
from ssgamma.integrals import (
    IntegralConfig,
    IntegralError,
    gamma_gl_closed,
    gamma_so,
    jpss_gl_gamma,
    match_so_gl,
    phi_eval,
    phi_star_eval,
    predicted_gamma_so,
    scan_support,
)
from ssgamma.matrices import MatrixError
from ssgamma.parameter import ParameterError, param_summary
from ssgamma.scalars import ExactScalar, ScalarError

PACKAGE_ERRORS = (CharacterError, IntegralError, MatrixError, ParameterError, ScalarError)

# junk for every argument: wrong types, a bool, and small ints and
# Fractions that are out of range for most of them
JUNK = ("x", None, 1.5, True, [1], (3, 1), Fraction(1, 2), -1, 0, C.root_of_unity(3, 1))

ENTRY_POINTS = (
    "IntegralConfig",
    "gamma_so",
    "phi_eval",
    "phi_star_eval",
    "scan_support",
    "jpss_gl_gamma",
    "gamma_gl_closed",
    "match_so_gl",
    "predicted_gamma_so",
    "param_summary",
    "TameCharacter",
    "tame_eval",
    "psi_eval",
)


def mostly(data, valid, junk=()):
    """One argument: half the draws from the valid values, half from junk."""
    return data.draw(st.one_of(st.sampled_from(valid), st.sampled_from(JUNK + junk)))


def config_or_none(*args):
    try:
        return IntegralConfig(*args)
    except PACKAGE_ERRORS:
        return None


@settings(max_examples=250, deadline=None)
@given(st.sampled_from(ENTRY_POINTS), st.data())
def test_every_entry_point_returns_or_raises_a_package_error(entry, data):
    p = mostly(data, (3, 5), (2, 4, 9, -3))
    q = p if p in (3, 5) else 3  # the prime of the valid values
    ell = mostly(data, (1, 2))
    n = mostly(data, (2, 3))
    level = mostly(data, (2,))
    cutoff = mostly(data, (1,))
    zeta = mostly(data, (1, -1, C.one(), -C.one()), (2,))
    tau = mostly(data, (TameCharacter(q, 0), TameCharacter(q, 1, ExactScalar.from_coeff(q, -1))))
    mode = mostly(data, ("support-aware", "brute-force"))
    side = mostly(data, ("phi", "phi_star"))
    t = mostly(data, (None, (1,) * (ell + 1) if ell in (1, 2) else None))
    x = mostly(data, (Fraction(2, q), q, -1, 7))
    if ell == 2 and (entry == "scan_support" or (mode == "brute-force" and p == 5)):
        ell, t = 1, None
    built = config_or_none(p, ell, zeta, tau, level, cutoff, mode, t)
    cfg = mostly(data, (built or IntegralConfig(3, 1, 1, TameCharacter(3, 0), 2, 1),))
    small = built if built is not None and built.ell == 1 else None
    j, pi_value = mostly(data, (0, 1), (4,)), mostly(data, (None, ExactScalar.one(q)))
    calls = {
        "IntegralConfig": lambda: IntegralConfig(p, ell, zeta, tau, level, cutoff, mode, t),
        "gamma_so": lambda: gamma_so(cfg),
        "phi_eval": lambda: phi_eval(cfg),
        "phi_star_eval": lambda: phi_star_eval(cfg),
        "scan_support": lambda: scan_support(p, ell, side, level, cutoff, t),
        "jpss_gl_gamma": lambda: jpss_gl_gamma(n, tau, zeta, level, cutoff),
        "gamma_gl_closed": lambda: gamma_gl_closed(n, tau, zeta),
        "match_so_gl": lambda: match_so_gl(ell, tau, zeta, mostly(data, (None, small))),
        "predicted_gamma_so": lambda: predicted_gamma_so(tau, zeta),
        "param_summary": lambda: param_summary(p, ell),
        "TameCharacter": lambda: TameCharacter(p, j, pi_value),
        "tame_eval": lambda: tame_eval(tau, x),
        "psi_eval": lambda: psi_eval(x, p),
    }
    assert set(calls) == set(ENTRY_POINTS)
    try:
        calls[entry]()
    except PACKAGE_ERRORS:
        pass
