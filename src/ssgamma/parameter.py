"""Predicted parameter data for the simple supercuspidal of SO_(2l+1).

The predicted parameter is a character induced from E = F(pi_E) with
pi_E^(2l) = p, totally tamely ramified of degree 2l.  This module holds
the part of that prediction the code pins down, which is what
`ssgamma param` prints: the depth 1/(2l), the quadratic character
kappa_(E/F) on unit residues, and the check that depth 1/(2l) forces a
single block of size 2l.  The Langlands constant lambda_(E/F)(psi)
stays an opaque token.
"""

from __future__ import annotations

from fractions import Fraction

from .padic import Record, is_int, is_odd_prime, rational_valuation


class ParameterError(Exception):
    pass


class UnsupportedElement(ParameterError):
    pass


class BadResidueChar(ParameterError):
    pass


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


class ParamData(Record, compared=("ell", "prime", "depth", "kappa_table")):
    __slots__ = ("ell", "prime", "depth", "kappa_table", "depth_check")  # kappa_table: kappa on 1..p-1

    def __init__(self, ell: int, prime: int, depth: Fraction, kappa_table: tuple, depth_check: dict):
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "prime", prime)
        object.__setattr__(self, "depth", depth)
        object.__setattr__(self, "kappa_table", kappa_table)
        object.__setattr__(self, "depth_check", depth_check)

    @property
    def degree(self):
        return 2 * self.ell


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


def param_summary(p: int, ell: int) -> ParamData:
    if not is_odd_prime(p):
        raise ParameterError(f"p must be an odd prime, got {p}")
    if not is_int(ell):
        raise ParameterError(f"l must be an int, got {ell!r}")
    if ell < 1:
        raise ParameterError(f"need l >= 1, got {ell}")
    two_ell = 2 * ell
    if two_ell % p == 0:
        raise BadResidueChar(f"p = {p} divides 2l = {two_ell}")
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
        depth=Fraction(1, two_ell),
        kappa_table=tuple(kappa_units(x, p) for x in range(1, p)),
        depth_check=check,
    )
