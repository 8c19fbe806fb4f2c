"""Exact arithmetic in Q_p via rational representatives.

Elements are plain rationals tagged with the residue characteristic;
valuation, residue classes and subset membership are all computed
exactly from the fraction, so no truncation or rounding ever happens.
The uniformizer is p itself and the residue field has q = p elements.

Measures follow vol(o) = q^(1/2) (additive) and vol(o^x) = 1
(multiplicative).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

INF = math.inf


class PAdicError(Exception):
    pass


class NegativeValuation(PAdicError):
    pass


def rational_valuation(x: Fraction, p: int):
    """v_p(x) for a rational x; v(0) = +inf."""
    if x == 0:
        return INF
    v = 0
    n, d = x.numerator, x.denominator
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v


@dataclass(frozen=True)
class PAdicNumber:
    """An element of F = Q_p, stored as an exact rational."""

    value: Fraction
    prime: int

    def __post_init__(self):
        object.__setattr__(self, "value", Fraction(self.value))

    # -- field operations ----------------------------------------------

    def _check(self, other):
        if isinstance(other, PAdicNumber):
            if other.prime != self.prime:
                raise PAdicError("mixing different primes")
            return other.value
        return Fraction(other)

    def __add__(self, other):
        return PAdicNumber(self.value + self._check(other), self.prime)

    __radd__ = __add__

    def __neg__(self):
        return PAdicNumber(-self.value, self.prime)

    def __sub__(self, other):
        return PAdicNumber(self.value - self._check(other), self.prime)

    def __rsub__(self, other):
        return PAdicNumber(self._check(other) - self.value, self.prime)

    def __mul__(self, other):
        return PAdicNumber(self.value * self._check(other), self.prime)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return PAdicNumber(self.value / self._check(other), self.prime)

    def __rtruediv__(self, other):
        return PAdicNumber(self._check(other) / self.value, self.prime)

    def __eq__(self, other):
        if isinstance(other, PAdicNumber):
            return self.prime == other.prime and self.value == other.value
        return self.value == other

    def __hash__(self):
        return hash((self.value, self.prime))

    # -- p-adic structure ----------------------------------------------

    def valuation(self):
        return rational_valuation(self.value, self.prime)

    def residue(self, k: int = 1) -> int:
        """The class of x in o/p^k as an integer in [0, p^k)."""
        if k < 1:
            raise ValueError("k must be >= 1")
        v = self.valuation()
        if v is not INF and v < 0:
            raise NegativeValuation(f"residue of {self.value} with v = {v}")
        mod = self.prime**k
        n, d = self.value.numerator, self.value.denominator
        return n * pow(d, -1, mod) % mod

    def in_subset(self, subset: str) -> bool:
        """Membership in one of o, p, p2, units, 1+p, pi(1+p)."""
        v = self.valuation()
        if subset == "o":
            return v >= 0
        if subset == "p":
            return v >= 1
        if subset == "p2":
            return v >= 2
        if subset == "units":
            return v == 0
        if subset == "1+p":
            return v == 0 and (self - 1).valuation() >= 1
        if subset == "pi(1+p)":
            return v == 1 and (self / self.prime - 1).valuation() >= 1
        raise ValueError(f"unknown subset {subset!r}")

    def __repr__(self):
        return f"PAdic({self.value}, p={self.prime})"
