"""Exact arithmetic in cyclotomic fields Q(zeta_m).

Elements are stored as sparse Laurent "group algebra" combinations
sum_e c_e * zeta_m^e with Fraction coefficients, and reduced to the
canonical basis 1, zeta, ..., zeta^(phi(m)-1) modulo the m-th cyclotomic
polynomial only when equality, serialization or inversion is needed.
This keeps the hot path (multiplying by roots of unity, summing many
character values) cheap while equality stays exactly decidable.

Inversion divides the product of the other Galois conjugates by the
norm, a rational.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd


@lru_cache(maxsize=None)
def _cyclotomic_coeffs(m: int) -> tuple:
    """Coefficients of the m-th cyclotomic polynomial, highest degree first.

    Phi_m = (x^m - 1) / prod_(d | m, d < m) Phi_d, by long division in
    Z[x]: every Phi_d is monic, so each quotient stays integral and each
    remainder is zero."""
    q = [1] + [0] * (m - 1) + [-1]
    for d in range(1, m):
        if m % d == 0:
            div = _cyclotomic_coeffs(d)
            for i in range(len(q) - len(div) + 1):
                if q[i]:
                    for j in range(1, len(div)):
                        q[i + j] -= q[i] * div[j]
            del q[len(q) - len(div) + 1:]
    return tuple(q)


def _poly_rem(coeffs: list, mod: tuple) -> list:
    """Remainder of coeffs (index = degree, Fractions) modulo mod (monic, int)."""
    r = list(coeffs)
    dm = len(mod) - 1
    while len(r) > dm:
        lead = r[-1]
        if lead:
            d = len(r) - 1 - dm
            # mod is monic so no division is needed
            for i, c in enumerate(reversed(mod)):
                if c:
                    r[d + i] -= lead * c
        r.pop()
    while r and not r[-1]:
        r.pop()
    return r


class CyclotomicNumber:
    """An element of Q(zeta_m), exact.

    Coefficients are Fractions; equality is decided via the canonical
    reduced form modulo the m-th cyclotomic polynomial, after embedding
    both operands into the lcm order.
    """

    __slots__ = ("order", "coeffs", "_canon")

    def __init__(self, order: int, coeffs=None):
        if order < 1:
            raise ValueError("order must be >= 1")
        self.order = order
        terms = {}
        if coeffs:
            items = coeffs.items() if isinstance(coeffs, dict) else enumerate(coeffs)
            for e, c in items:
                c = c if isinstance(c, Fraction) else Fraction(c)
                if c:
                    e %= order
                    prev = terms.get(e)
                    terms[e] = c if prev is None else prev + c
        self.coeffs = {e: c for e, c in terms.items() if c}
        self._canon = None

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(order: int = 1) -> "CyclotomicNumber":
        return CyclotomicNumber(order, {})

    @staticmethod
    def one(order: int = 1) -> "CyclotomicNumber":
        return CyclotomicNumber(order, {0: Fraction(1)})

    @staticmethod
    def from_rational(c) -> "CyclotomicNumber":
        return CyclotomicNumber(1, {0: Fraction(c)})

    @staticmethod
    def root_of_unity(m: int, k: int) -> "CyclotomicNumber":
        """Canonical form of zeta_m^k."""
        if m < 1:
            raise ValueError("order must be >= 1")
        k %= m
        g = gcd(k, m) if k else m
        # store at the primitive order so trivial roots collapse to order 1
        return CyclotomicNumber(m // g, {k // g: Fraction(1)})

    # -- canonical form -----------------------------------------------

    def reduced(self) -> tuple:
        """Coefficient tuple of the canonical representative, degree-indexed,
        length phi(order), reduced modulo the cyclotomic polynomial."""
        if self._canon is None:
            mod = _cyclotomic_coeffs(self.order)
            deg = len(mod) - 1
            dense = [Fraction(0)] * self.order
            for e, c in self.coeffs.items():
                dense[e] += c
            # below degree phi(m) a representative is already canonical
            rem = _poly_rem(dense, mod) if max(self.coeffs, default=0) >= deg else dense[:deg]
            rem += [Fraction(0)] * (deg - len(rem))
            self._canon = tuple(rem)
        return self._canon

    def is_zero(self) -> bool:
        # stored coefficients are nonzero, and c * zeta^e != 0 for c != 0
        if len(self.coeffs) < 2:
            return not self.coeffs
        return not any(self.reduced())

    def is_rational(self):
        r = self.reduced()
        if any(r[1:]):
            return None
        return r[0] if r else Fraction(0)

    def embed(self, order: int) -> "CyclotomicNumber":
        """Rewrite in Q(zeta_order); order must be a multiple of self.order."""
        if order == self.order:
            return self
        if order % self.order:
            raise ValueError("can only embed into a multiple of the order")
        step = order // self.order
        return CyclotomicNumber(order, {e * step: c for e, c in self.coeffs.items()})

    def _pair(self, other: "CyclotomicNumber"):
        if self.order == other.order:
            return self, other, self.order
        m = self.order * other.order // gcd(self.order, other.order)
        return self.embed(m), other.embed(m), m

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        a, b, m = self._pair(other)
        out = dict(a.coeffs)
        for e, c in b.coeffs.items():
            prev = out.get(e)
            out[e] = c if prev is None else prev + c
        return CyclotomicNumber(m, out)

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicNumber(self.order, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        # by a rational r: the double loop below would store exactly c * r at e
        x, r = (other, self) if self.order == 1 and len(self.coeffs) == 1 else (self, other)
        if r.order == 1 and len(r.coeffs) == 1:
            return CyclotomicNumber(x.order, {e: c * r.coeffs[0] for e, c in x.coeffs.items()})
        a, b, m = self._pair(other)
        out = {}
        for e1, c1 in a.coeffs.items():
            for e2, c2 in b.coeffs.items():
                e = (e1 + e2) % m
                c = c1 * c2
                prev = out.get(e)
                out[e] = c if prev is None else prev + c
        return CyclotomicNumber(m, out)

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicNumber":
        """The c = sum_j c_j zeta^j (j < phi(m)) with self * c = 1, stored
        canonical.  One term c * zeta^e gives c^(-1) * zeta^(-e).  Otherwise
        c^(-1) = P / N(c): P the product of the conjugates sigma_k(c)
        (zeta -> zeta^k) over the k prime to m other than 1, and the norm
        N(c) = c P, a nonzero rational."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        m = self.order
        if len(self.coeffs) == 1:
            ((e, c),) = self.coeffs.items()
            return CyclotomicNumber(m, dict(enumerate(CyclotomicNumber(m, {-e: 1 / c}).reduced())))
        conj = CyclotomicNumber.one(m)
        for k in range(2, m):
            if gcd(k, m) == 1:
                conj = conj * CyclotomicNumber(m, {e * k: c for e, c in self.coeffs.items()})
        norm = (self * conj).reduced()[0]
        return CyclotomicNumber(m, {j: c / norm for j, c in enumerate(conj.reduced())})

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        if n == 1:
            return self
        out = CyclotomicNumber.one()
        base = self
        while True:
            if n & 1:
                out = out * base
            n >>= 1
            if not n:
                return out
            base = base * base

    # -- comparison & misc ----------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CyclotomicNumber.from_rational(other)
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        a, b, _ = self._pair(other)
        return a.reduced() == b.reduced()

    __hash__ = None

    def __repr__(self):
        if not self.coeffs:
            return "Cyc(0)"
        parts = [f"{c}*z{self.order}^{e}" for e, c in sorted(self.coeffs.items())]
        return "Cyc(" + " + ".join(parts) + ")"


def _coerce(x) -> CyclotomicNumber:
    if isinstance(x, CyclotomicNumber):
        return x
    if isinstance(x, (int, Fraction)):
        return CyclotomicNumber.from_rational(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to CyclotomicNumber")
