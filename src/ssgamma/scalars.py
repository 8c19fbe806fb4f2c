"""The exact value ring for characters, measures, integrals and gamma factors.

An ExactScalar over the prime p is a finite sum

    sum_{h,k}  c_{h,k} * q^(h/2) * (q^(-s))^k ,   c_{h,k} in Q(zeta_m),

with q = p identified numerically: integer powers of q are ordinary
rational numbers, so q^(1/2)/p and q^(-1/2) are the *same* element.
Internally terms are keyed by (h mod 2, k) and the even part of the
q-power is folded into the coefficient; serialization re-extracts the
canonical h by stripping the p-content of the coefficient.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .cyclotomic import CyclotomicNumber
from .padic import rational_valuation


class ScalarError(Exception):
    pass


class NonMonomialDivisor(ScalarError):
    pass


class ZeroDivisor(ScalarError):
    pass


def _content(c: CyclotomicNumber) -> Fraction:
    """gcd of the canonical coefficients: positive rational, 0 for zero."""
    red = [x for x in c.reduced() if x]
    num = 0
    den = 1
    for x in red:
        num = gcd(num, abs(x.numerator))
        den = den * x.denominator // gcd(den, x.denominator)
    return Fraction(num, den)


class ExactScalar:
    """Element of Q(zeta)[q^(1/2), q^(-1/2), q^(-s), q^s] with q = p."""

    __slots__ = ("prime", "terms")

    def __init__(self, prime: int, terms=None):
        self.prime = prime
        cleaned = {}
        merged = []  # each coefficient is tested once: only a sum of two can vanish
        if terms:
            for (par, k), c in terms.items():
                if not isinstance(c, CyclotomicNumber):
                    c = CyclotomicNumber.from_rational(c)
                if not c.is_zero():
                    key = (par & 1, k)
                    extra = (par - (par & 1)) // 2
                    if extra:
                        c = c * Fraction(prime) ** extra
                    prev = cleaned.get(key)
                    if prev is not None:
                        c = prev + c
                        merged.append(key)
                    cleaned[key] = c
        for key in merged:
            if key in cleaned and cleaned[key].is_zero():
                del cleaned[key]
        self.terms = cleaned

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(prime: int) -> "ExactScalar":
        return ExactScalar(prime)

    @staticmethod
    def one(prime: int) -> "ExactScalar":
        return ExactScalar(prime, {(0, 0): Fraction(1)})

    @staticmethod
    def from_coeff(prime: int, c, q_half: int = 0, s_power: int = 0) -> "ExactScalar":
        """c * q^(q_half/2) * (q^(-s))^s_power."""
        return ExactScalar(prime, {(q_half, s_power): c})

    # -- ring structure ------------------------------------------------

    def _check(self, other: "ExactScalar"):
        if self.prime != other.prime:
            raise ScalarError("mixing scalars over different primes")

    def __add__(self, other):
        other = self._coerce(other)
        self._check(other)
        out = {key: c for key, c in self.terms.items()}
        for key, c in other.terms.items():
            out[key] = out[key] + c if key in out else c
        return ExactScalar(self.prime, out)

    __radd__ = __add__

    def __neg__(self):
        return ExactScalar(self.prime, {key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        other = self._coerce(other)
        self._check(other)
        out = {}
        for (p1, k1), c1 in self.terms.items():
            for (p2, k2), c2 in other.terms.items():
                key = (p1 + p2, k1 + k2)
                c = c1 * c2
                prev = out.get(key)
                out[key] = c if prev is None else prev + c
        return ExactScalar(self.prime, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        self._check(other)
        if not other.terms:
            raise ZeroDivisor("division by zero scalar")
        if len(other.terms) > 1:
            raise NonMonomialDivisor("divisor must be a monomial")
        ((par, k), c), = other.terms.items()
        inv = c.inverse()
        out = {}
        for (p1, k1), c1 in self.terms.items():
            out[(p1 - par, k1 - k)] = c1 * inv
        return ExactScalar(self.prime, out)

    def __pow__(self, n: int):
        if n < 0:
            return (ExactScalar.one(self.prime) / self) ** (-n)
        if n == 1:
            return self
        out = ExactScalar.one(self.prime)
        for _ in range(n):
            out = out * self
        return out

    def _coerce(self, x) -> "ExactScalar":
        if isinstance(x, ExactScalar):
            return x
        if isinstance(x, (int, Fraction, CyclotomicNumber)):
            return ExactScalar.from_coeff(self.prime, x)
        raise TypeError(f"cannot coerce {type(x).__name__} to ExactScalar")

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, CyclotomicNumber)):
            other = self._coerce(other)
        if not isinstance(other, ExactScalar):
            return NotImplemented
        if self.prime != other.prime:
            return False
        if set(self.terms) != set(other.terms):
            return False
        return all(self.terms[k] == other.terms[k] for k in self.terms)

    __hash__ = None

    # -- canonical presentation -----------------------------------------

    def canonical_terms(self):
        """List of (q_half, s_power, coefficient) with p-free coefficient content."""
        out = []
        for (par, k), c in sorted(self.terms.items()):
            v = rational_valuation(_content(c), self.prime)
            coeff = c * Fraction(self.prime) ** (-v)
            out.append((par + 2 * v, k, coeff))
        return out

    def to_records(self):
        recs = []
        for h, k, c in self.canonical_terms():
            red = c.reduced()
            coeffs = [str(x) for x in red] + ["0"] * (c.order - len(red))
            recs.append({"coeffs": coeffs, "order": c.order, "q_half": h, "s_power": k})
        return recs

    def __repr__(self):
        if not self.terms:
            return "ExactScalar(0)"
        bits = []
        for h, k, c in self.canonical_terms():
            part = f"({c!r})"
            if h:
                part += f"*q^({h}/2)"
            if k:
                part += f"*(q^-s)^{k}"
            bits.append(part)
        return " + ".join(bits)
