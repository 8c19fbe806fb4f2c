"""Exact twisted gamma factors of simple supercuspidal representations.

Everything is computed in exact arithmetic: p-adic rationals, cyclotomic
numbers, and Laurent polynomials in q^(1/2) and q^(-s).  The headline
computation is the local Rankin-Selberg quotient Phi*/Phi for the
simple supercuspidals of split SO_(2l+1) twisted by a tame character,
verified against the closed form and against an independent GL_(2l)
computation.
"""

from .padic import rational_valuation
from .cyclotomic import CyclotomicNumber
from .scalars import ExactScalar, NonMonomialDivisor, ZeroDivisor
from .matrices import coset_decompose, coset_decompose_gl
from .characters import (
    TameCharacter,
    psi_eval,
    tame_eval,
)
from .integrals import (
    IntegralConfig,
    GammaResult,
    phi_eval,
    phi_star_eval,
    gamma_so,
    gamma_gl_closed,
    jpss_gl_gamma,
    match_so_gl,
    scan_support,
    BoundaryNonvanishing,
)
from .parameter import (
    ParamData,
    param_summary,
    BadResidueChar,
)

__version__ = "0.1.0"
