"""The p-adic valuation of a rational number, and the base of the records.

Elements of Q_p are plain Fractions throughout the package; the prime
travels beside them.  The uniformizer is p itself and the residue field
has q = p elements.  Measures follow vol(o) = q^(1/2) (additive) and
vol(o^x) = 1 (multiplicative).
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import attrgetter

INF = math.inf


def is_int(x) -> bool:
    """x is an int and not a bool: the type of every size and exponent."""
    return isinstance(x, int) and not isinstance(x, bool)


def is_odd_prime(p) -> bool:
    """p is an odd prime, by trial division: every computation over Q_p
    already costs O(p) or more."""
    return isinstance(p, int) and p >= 3 and p % 2 == 1 and all(p % d for d in range(3, math.isqrt(p) + 1, 2))


def rational_valuation(x: Fraction, p: int):
    """v_p(x) for a rational x; v(0) = +inf.  Raises ValueError for p < 2
    (1, True, -1, ...), where dividing out p would never end."""
    if p < 2:
        raise ValueError(f"the valuation needs p >= 2, got {p!r}")
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


class Record:
    """A frozen record over __slots__; == and hash read the `compared` fields, all by default."""

    __slots__ = ()

    def __init_subclass__(cls, compared=None):
        cls._key = attrgetter(*(compared or cls.__slots__))

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot {'assign to' if value else 'delete'} field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        # a record equals itself, as it did compared field by field; the shortcut keeps tau == tau fast
        return other is self or self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)
