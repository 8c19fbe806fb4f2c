"""Characters of Q_p: the additive character psi and the tame characters.

On every integrand of integrals.py psi and the affine character read
only zeros, so no value there reads psi; psi_eval serves the generic
Whittaker function of tests/oracles.py.

Conventions recorded here (and echoed in CLI output metadata):
  * psi(x) = e^(2 pi i frac(x/p)) -- trivial on p, nontrivial on o,
    so the conductor is p.
  * tame characters read units through the smallest positive primitive
    root mod p; the value at the uniformizer is a free monomial.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .cyclotomic import CyclotomicNumber
from .scalars import ExactScalar
from .padic import Record, is_int, is_odd_prime, rational_valuation


class CharacterError(Exception):
    pass


class OrderOverflow(CharacterError):
    """psi was asked for a root of unity beyond the configured order."""


#: largest power m with roots of unity of order p^m allowed in psi_eval
PSI_MAX_POWER = 2


def _check_element(x) -> None:
    """An element of Q_p is an int (not a bool) or a Fraction."""
    if not (isinstance(x, Fraction) or is_int(x)):
        raise CharacterError(f"x must be an int or a Fraction, got {x!r}")


def psi_exponent(x, p: int) -> tuple:
    """(m, a) with psi(x) = zeta_(p^m)^a, where m = max(0, -v_p(x/p)) and a
    is a unit mod p^m; (0, 0) when psi(x) = 1.  Exact, and depends only on
    x mod p.  Raises OrderOverflow past PSI_MAX_POWER; its callers check x and p."""
    if not x:
        return 0, 0
    y = Fraction(x) / p
    v = rational_valuation(y, p)
    if v >= 0:
        return 0, 0
    if -v > PSI_MAX_POWER:
        raise OrderOverflow(f"psi needs a root of unity of order {p}^{-v}")
    mod = p**-v
    d = y.denominator // mod  # prime-to-p part of the denominator
    return -v, y.numerator * pow(d, -1, mod) % mod


def psi_eval(x, prime: int) -> CyclotomicNumber:
    """psi(x) = e^(2 pi i frac(x/p)), exact; depends only on x mod p."""
    _check_element(x)
    if not is_odd_prime(prime):
        raise CharacterError(f"p must be an odd prime, got {prime}")
    m, a = psi_exponent(x, prime)
    return CyclotomicNumber.root_of_unity(prime**m, a)


@lru_cache(maxsize=None)
def primitive_root(p: int) -> int:
    """Smallest positive primitive root mod p."""
    for g in range(2, p):
        seen = set()
        x = 1
        for _ in range(p - 1):
            x = x * g % p
            seen.add(x)
        if len(seen) == p - 1:
            return g
    raise ValueError(f"{p} is not prime")


@lru_cache(maxsize=None)
def _index_table(p: int) -> dict:
    g = primitive_root(p)
    tab, x = {}, 1
    for e in range(p - 1):
        tab[x] = e
        x = x * g % p
    return tab


class TameCharacter(Record):
    """Tame character of Q_p^x: units via zeta_(p-1)^(j * ind_g), plus a
    free monomial value at the uniformizer."""

    __slots__ = ("prime", "unit_exponent", "value_at_uniformizer")  # unit_exponent is j in 0..p-2

    def __init__(self, prime: int, unit_exponent: int, value_at_uniformizer: ExactScalar = None):
        if not is_odd_prime(prime):
            raise CharacterError(f"p must be an odd prime, got {prime}")
        if not is_int(unit_exponent) or not 0 <= unit_exponent <= prime - 2:
            raise CharacterError(f"unit exponent must lie in 0..{prime - 2}, got {unit_exponent!r}")
        if value_at_uniformizer is None:
            value_at_uniformizer = ExactScalar.one(prime)
        if not isinstance(value_at_uniformizer, ExactScalar) or value_at_uniformizer.prime != prime:
            raise CharacterError(f"value at the uniformizer must be an ExactScalar over {prime}")
        if not value_at_uniformizer.is_monomial():
            raise CharacterError("value at the uniformizer must be a monomial")
        object.__setattr__(self, "prime", prime)
        object.__setattr__(self, "unit_exponent", unit_exponent)
        object.__setattr__(self, "value_at_uniformizer", value_at_uniformizer)

    def unit_value(self, residue: int) -> CyclotomicNumber:
        p, j = self.prime, self.unit_exponent
        e = _index_table(p)[residue % p]
        return CyclotomicNumber.root_of_unity(p - 1, j * e)

    def inverse(self) -> "TameCharacter":
        p = self.prime
        inv_pi = ExactScalar.one(p) / self.value_at_uniformizer
        return TameCharacter(p, (-self.unit_exponent) % (p - 1), inv_pi)


def tame_class(x, p: int) -> tuple:
    """(v, r) with v = v_p(x) and r the residue mod p of the unit x / p^v.
    A tame character reads x only through this pair."""
    x = Fraction(x)
    if x == 0:
        raise CharacterError("tame character at 0")
    v = rational_valuation(x, p)
    unit = x / Fraction(p) ** v
    return v, unit.numerator * pow(unit.denominator, -1, p) % p


def tame_eval(tau: TameCharacter, x) -> ExactScalar:
    """tau(x) = unit_value(r) * tau(pi)^v for (v, r) = tame_class(x)."""
    if not isinstance(tau, TameCharacter):
        raise CharacterError(f"tau must be a TameCharacter, got {tau!r}")
    _check_element(x)
    p = tau.prime
    v, r = tame_class(x, p)
    unit = ExactScalar.from_coeff(p, tau.unit_value(r))
    return unit * tau.value_at_uniformizer**v if v else unit
