"""Predicted parameter data for the simple supercuspidal of SO_(2l+1).

The inducing datum lives on E = F(pi_E) with pi_E^(2l) = p, totally
tamely ramified of degree 2l.  We realize multiplication by elements of
E as matrices in the basis pi_E^(2l-1), ..., pi_E, 1 (iota), evaluate
the character xi on the pieces where it is pinned down, and run the
depth bookkeeping.  The Langlands constant lambda_(E/F)(psi) stays an
opaque token; gauss_sum is the building block a future assembly would
use to replace it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .cyclotomic import CyclotomicNumber
from .padic import rational_valuation
from .matrices import GroupMatrix
from .characters import psi_eval, primitive_root, _index_table


class ParameterError(Exception):
    pass


class ZeroElement(ParameterError):
    pass


class UnsupportedElement(ParameterError):
    pass


class BadResidueChar(ParameterError):
    pass


@dataclass(frozen=True)
class EisensteinElement:
    """sum c_i pi_E^i, 0 <= i < 2l, with pi_E^(2l) = p."""

    coeffs: tuple
    prime: int

    @staticmethod
    def make(coeffs, prime) -> "EisensteinElement":
        return EisensteinElement(tuple(Fraction(c) for c in coeffs), prime)

    @property
    def degree(self):
        return len(self.coeffs)

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def __mul__(self, other: "EisensteinElement") -> "EisensteinElement":
        n, p = self.degree, self.prime
        out = [Fraction(0)] * n
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if not b:
                    continue
                k = i + j
                if k < n:
                    out[k] += a * b
                else:
                    out[k - n] += p * a * b
        return EisensteinElement(tuple(out), p)


def iota_embed(e: EisensteinElement, ell: int) -> GroupMatrix:
    """Multiplication by e in the basis pi_E^(2l-1), ..., pi_E, 1."""
    n = 2 * ell
    if e.degree != n:
        raise ParameterError(f"need {n} coefficients")
    if e.is_zero():
        raise ZeroElement("iota needs a nonzero element")
    p = e.prime
    rows = [[Fraction(0)] * n for _ in range(n)]
    # basis vector j (1-indexed) is pi_E^(2l-j); e * pi_E^(2l-j) collects
    # pi_E^(2l-j+i), reduced by pi_E^(2l) = p into row 2l+j-i.
    for j in range(1, n + 1):
        for i, c in enumerate(e.coeffs):
            if not c:
                continue
            if i < j:
                rows[j - i - 1][j - 1] += c
            else:
                rows[n + j - i - 1][j - 1] += p * c
    return GroupMatrix.make(rows, p, "GL", verify=False)


def pi_e(ell: int, prime: int) -> EisensteinElement:
    coeffs = [Fraction(0)] * (2 * ell)
    coeffs[1] = Fraction(1)
    return EisensteinElement(tuple(coeffs), prime)


def legendre(x: int, p: int) -> int:
    r = pow(x % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def kappa_units(x, p: int) -> int:
    """kappa_(E/F) on unit residues, via the tame Hilbert symbol against
    the discriminant class of E/F.

    disc(x^(2l) - p) has odd p-valuation 2l - 1, so (x, disc)_p reduces
    to the Legendre symbol of x; the unit part of the discriminant drops
    out because v(x) = 0.  This is the standard tame evaluation of the
    determinant character of an induced representation; the abstract
    definition offers no number to check it against, so the rule is
    flagged for audit in the README.
    """
    x = Fraction(x)
    if rational_valuation(x, p) != 0:
        raise UnsupportedElement("kappa rule implemented on units only")
    res = x.numerator * pow(x.denominator, -1, p) % p
    return legendre(res, p)


def gauss_sum(j: int, p: int) -> CyclotomicNumber:
    """sum over x in F_p^x of zeta_(p-1)^(j ind(x)) zeta_p^x, exact."""
    if not 0 <= j <= p - 2:
        raise ParameterError("need 0 <= j <= p-2")
    tab = _index_table(p)
    total = CyclotomicNumber.zero()
    for x in range(1, p):
        total = total + CyclotomicNumber.root_of_unity(p - 1, j * tab[x]) * CyclotomicNumber.root_of_unity(p, x)
    return total


@dataclass(frozen=True)
class ParamData:
    ell: int
    prime: int
    zeta: CyclotomicNumber
    depth: Fraction
    kappa_table: tuple  # kappa on 1..p-1
    xi_unit_table: tuple  # xi on unit residues = kappa^(-1)
    xi_at_uniformizer: dict = field(compare=False)
    depth_check: dict = field(compare=False)

    @property
    def degree(self):
        return 2 * self.ell


def xi_eval(pd: ParamData, e: EisensteinElement):
    """xi on the pieces the construction pins down.

    1 + p_E: psi of the superdiagonal-plus-corner functional of iota(e).
    Units of F: the inverse of kappa_(E/F) on the residue.
    pi_E: the symbolic product zeta * lambda_token^(-1).
    """
    p, ell = pd.prime, pd.ell
    n = 2 * ell
    if e.degree != n:
        raise ParameterError(f"need {n} coefficients")
    c = e.coeffs
    if e == pi_e(ell, p):
        return dict(pd.xi_at_uniformizer)
    # a unit of F outside 1 + p; those in 1 + p are the 1 + p_E case below
    in_f = all(x == 0 for x in c[1:])
    if in_f and rational_valuation(c[0], p) == 0 and rational_valuation(c[0] - 1, p) < 1:
        # kappa has order <= 2, so kappa^(-1) = kappa
        return CyclotomicNumber.from_rational(Fraction(kappa_units(c[0], p)))
    in_1_plus_pe = (
        rational_valuation(c[0] - 1, p) >= 1
        and all(rational_valuation(x, p) >= 0 for x in c[1:] if x != 0)
    )
    if not in_1_plus_pe:
        raise UnsupportedElement("xi is only evaluated on 1+p_E, o_F^x and pi_E")
    a = iota_embed(e, ell)
    s = sum(a.rows[i][i + 1] for i in range(n - 1)) + a.rows[n - 1][0] / p
    return psi_eval(s, p)


def _partitions(n: int, largest: int | None = None):
    """The partitions of n into parts of at most `largest`, each a
    descending list, in reverse lexicographic order: [n] first, then
    [n-1, 1], down to [1, ..., 1]."""
    if n == 0:
        yield []
        return
    for k in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - k, k):
            yield [k] + rest


def _partition_attains(parts: list, two_ell: int) -> bool:
    """Can a decomposition with these part sizes have overall depth
    exactly 1/(2l)?  Each part contributes a depth in {a/n_i} or 0 and
    the total is the maximum, so some part must hit 1/(2l) on the nose."""
    return any(n % two_ell == 0 for n in parts)


def param_summary(p: int, ell: int, zeta: CyclotomicNumber) -> ParamData:
    if ell < 1:
        raise ParameterError(f"need l >= 1, got {ell}")
    two_ell = 2 * ell
    if two_ell % p == 0:
        raise BadResidueChar(f"p = {p} divides 2l = {two_ell}")
    kappa = tuple(kappa_units(x, p) for x in range(1, p))
    xi_units = kappa  # kappa is its own inverse (values +-1)
    attaining = []
    total = 0
    if two_ell <= 12:
        for parts in _partitions(two_ell):
            total += 1
            if _partition_attains(parts, two_ell):
                attaining.append(parts)
    check = {
        "two_ell": two_ell,
        "partitions_checked": total,
        "attaining": attaining,
        # None past 2l = 12: no partition was checked, so there is no verdict
        "unique_single_block": attaining == [[two_ell]] if total else None,
    }
    return ParamData(
        ell=ell,
        prime=p,
        zeta=zeta,
        depth=Fraction(1, two_ell),
        kappa_table=kappa,
        xi_unit_table=xi_units,
        xi_at_uniformizer={"zeta": zeta.reduced(), "zeta_order": zeta.order, "lambda_token_inverse": True},
        depth_check=check,
    )
