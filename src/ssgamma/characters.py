"""Characters of Q_p and the Whittaker functions they induce.

Conventions recorded here (and echoed in CLI output metadata):
  * psi(x) = e^(2 pi i frac(x/p)) -- trivial on p, nontrivial on o,
    so the conductor is p.
  * tame characters read units through the smallest positive primitive
    root mod p; the value at the uniformizer is a free monomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .cyclotomic import CyclotomicNumber
from .scalars import ExactScalar
from .padic import PAdicNumber, rational_valuation
from .matrices import (
    GroupMatrix,
    CosetWitness,
    coset_decompose,
    coset_decompose_gl,
    in_iplus,
)


class CharacterError(Exception):
    pass


class OrderOverflow(CharacterError):
    """psi was asked for a root of unity beyond the configured order."""


class NotInIPlus(CharacterError):
    pass


#: largest power m with roots of unity of order p^m allowed in psi_eval
PSI_MAX_POWER = 2


def psi_exponent(x, p: int) -> tuple:
    """(m, a) with psi(x) = zeta_(p^m)^a, where m = max(0, -v_p(x/p)) and a
    is a unit mod p^m; (0, 0) when psi(x) = 1.  Exact, and depends only on
    x mod p."""
    y = Fraction(x) / p
    if y == 0:
        return 0, 0
    v = rational_valuation(y, p)
    if v >= 0:
        return 0, 0
    m = -v
    if m > PSI_MAX_POWER:
        raise OrderOverflow(f"psi needs a root of unity of order {p}^{m}")
    mod = p**m
    d = y.denominator // mod  # prime-to-p part of the denominator
    return m, y.numerator * pow(d, -1, mod) % mod


def psi_eval(x, prime: int = None) -> CyclotomicNumber:
    """psi(x) = e^(2 pi i frac(x/p)), exact; depends only on x mod p."""
    if isinstance(x, PAdicNumber):
        prime = x.prime
        x = x.value
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


@dataclass(frozen=True)
class TameCharacter:
    """Tame character of Q_p^x: units via zeta_(p-1)^(j * ind_g), plus a
    free monomial value at the uniformizer."""

    prime: int
    unit_exponent: int  # j in 0..p-2
    value_at_uniformizer: ExactScalar = None

    def __post_init__(self):
        if self.value_at_uniformizer is None:
            object.__setattr__(self, "value_at_uniformizer", ExactScalar.one(self.prime))
        if not self.value_at_uniformizer.is_monomial():
            raise CharacterError("value at the uniformizer must be a monomial")

    def unit_value(self, residue: int) -> CyclotomicNumber:
        p, j = self.prime, self.unit_exponent
        e = _index_table(p)[residue % p]
        return CyclotomicNumber.root_of_unity(p - 1, j * e)

    def __call__(self, x) -> ExactScalar:
        return tame_eval(self, x)

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
    if isinstance(x, PAdicNumber):
        x = x.value
    p = tau.prime
    v, r = tame_class(x, p)
    return ExactScalar.from_coeff(p, tau.unit_value(r)) * tau.value_at_uniformizer**v


@dataclass(frozen=True)
class WhittakerSpec:
    """Data of a simple supercuspidal Whittaker function.

    flavor "SO": group SO_(2l+1), zeta a sign.  flavor "GL": group GL_n,
    zeta an n-th root of omega(pi) with the central character omega kept
    trivial (level 0, as the orthogonal comparison requires).
    """

    prime: int
    flavor: str  # "SO" | "GL"
    rank: int  # l for SO, n for GL
    zeta: CyclotomicNumber
    t: tuple = None  # affine parameters, units; SO only

    def __post_init__(self):
        if self.flavor not in ("SO", "GL"):
            raise CharacterError("flavor must be SO or GL")
        if self.t is None:
            count = self.rank + 1 if self.flavor == "SO" else self.rank
            object.__setattr__(self, "t", tuple(Fraction(1) for _ in range(count)))
        else:
            object.__setattr__(self, "t", tuple(Fraction(x) for x in self.t))
        n = 2 if self.flavor == "SO" else self.rank
        if self.zeta**n != CyclotomicNumber.one():
            raise CharacterError("zeta has the wrong order for this flavor")

    @property
    def size(self):
        return 2 * self.rank + 1 if self.flavor == "SO" else self.rank


def affine_chi(h: GroupMatrix, t=None, flavor: str = "SO") -> CyclotomicNumber:
    """The affine generic character on I+: psi of the weighted simple
    affine entries (superdiagonal run plus the corner over pi)."""
    p = h.prime
    n = h.size
    if not in_iplus(h.items(), p):
        raise NotInIPlus("affine_chi needs h in I+")
    # SO_(2l+1): l superdiagonal entries and the corner in row 2l;
    # GL_n: n - 1 superdiagonal entries and the corner in row n
    count, corner = ((n - 1) // 2, n - 2) if flavor == "SO" else (n - 1, n - 1)
    if t is None:
        t = (1,) * (count + 1)
    s = sum(Fraction(t[a]) * h.rows[a][a + 1] for a in range(count))
    s += Fraction(t[count]) * h.rows[corner][0] / p
    return psi_eval(s, p)


def chi_zeta(w, zeta: CyclotomicNumber, t=None, flavor: str = "SO") -> CyclotomicNumber:
    """zeta^i * chi(k) for a coset witness or an (i, k) pair."""
    if isinstance(w, CosetWitness):
        i, k = w.i, w.k
    else:
        i, k = w
    return zeta**i * affine_chi(k, t=t, flavor=flavor)


def _psi_u(spec: WhittakerSpec, u: GroupMatrix) -> CyclotomicNumber:
    """The generic character of the upper unipotent matching affine_chi."""
    p = spec.prime
    if spec.flavor == "SO":
        count = spec.rank  # first l superdiagonal entries
    else:
        count = spec.rank - 1
    s = sum(Fraction(spec.t[a]) * u.rows[a][a + 1] for a in range(count))
    return psi_eval(s, p)


def whittaker_eval(spec: WhittakerSpec, g: GroupMatrix) -> ExactScalar:
    """The normalized Whittaker function of the simple supercuspidal:
    psi(u) zeta^i chi(k) on the supporting double coset, 0 elsewhere."""
    p = spec.prime
    if spec.flavor == "SO":
        wit = coset_decompose(g, spec.rank)
        if wit is None:
            return ExactScalar.zero(p)
        val = _psi_u(spec, wit.u) * chi_zeta(wit, spec.zeta, t=spec.t, flavor="SO")
        return ExactScalar.from_coeff(p, val)
    wit = coset_decompose_gl(g)
    if wit is None:
        return ExactScalar.zero(p)
    # central character is trivial, so the z slot contributes nothing
    val = _psi_u(spec, wit.u) * spec.zeta**wit.j * affine_chi(wit.k, t=spec.t, flavor="GL")
    return ExactScalar.from_coeff(p, val)


def orbit_conjugator(t, ell: int, prime: int) -> GroupMatrix:
    """Torus element conjugating the (t_1..t_l, t_(l+1)) affine character
    to the normal form (1, ..., 1, t_(l+1)/(t_1 t_2^2 ... t_l^2))."""
    t = [Fraction(x) for x in t]
    n = 2 * ell + 1
    rows = [[Fraction(0)] * n for _ in range(n)]
    rows[ell][ell] = Fraction(1)
    for i in range(ell):
        d = Fraction(1)
        for a in range(i, ell):
            d *= t[a]
        rows[i][i] = 1 / d
        rows[n - 1 - i][n - 1 - i] = d
    return GroupMatrix.make(rows, prime, "SO_odd")


def normalized_t(t) -> tuple:
    """(t_1..t_(l+1)) -> (1, ..., 1, t_(l+1) * t_1 t_2^2 ... t_l^2).

    The corner coefficient transforms inversely to a choice of
    uniformizer, so in the uniformizer parameterization the normal form
    reads 1/(t_1 t_2^2 ... t_l^2)."""
    t = [Fraction(x) for x in t]
    ell = len(t) - 1
    d = Fraction(1)
    for i, x in enumerate(t[:-1]):
        d *= x if i == 0 else x * x
    return tuple([Fraction(1)] * ell + [t[-1] * d])
