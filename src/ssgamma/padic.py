"""The p-adic valuation of a rational number.

Elements of Q_p are plain Fractions throughout the package; the prime
travels beside them.  The uniformizer is p itself and the residue field
has q = p elements.  Measures follow vol(o) = q^(1/2) (additive) and
vol(o^x) = 1 (multiplicative).
"""

from __future__ import annotations

import math
from fractions import Fraction

INF = math.inf


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
