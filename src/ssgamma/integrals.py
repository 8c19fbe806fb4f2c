"""Exact local zeta integrals and gamma factors.

Both sides of the functional equation are finite sums once the Whittaker
support is accounted for, so every value here is an ExactScalar: a
Laurent polynomial in q^(1/2) and q^(-s) with cyclotomic coefficients.

Two evaluation modes:
  * support-aware: sum only over the known support (fast path);
  * brute-force: enumerate a truncated window of the full domain with a
    padding shell; any nonzero term on the padding shell raises
    BoundaryNonvanishing instead of silently truncating.

A window (_z_windows, _y_windows) is one measure weight, that of every
class off the padding shell, and the class representatives, each marked
on or off the shell.  A support-aware window is one class with its own
measure, z0 (1 + p) or p, and states the SO support lemma: off those
classes the integrand vanishes on the brute-force window, which
scan_support checks against the brute-force enumeration.

Every side (Phi, Phi*, and the JPSS plain and dual sides) is one entry
of one store, _BUCKETS: the (buckets, record) pair of one enumeration,
_enumerate.  It walks an outer window and, at each outer point, counts
the values over the rank-fold product of an inner window, whose points
it makes once per side with their share of the work, adding the
counts straight into the bucket (i, x0) of the point's tame class, x0
the least point of the class (the comment above _BUCKETS has why that
merge is exact).  Each integrand is a matrix of the inner point times a
torus element of the outer point, so an inner point's share is the
coset solver's factors of that matrix, and a value is those factors
scaled by the point's torus element and read as plain ints (i, m, a),
meaning zeta^i * zeta_(p^m)^a.  The record holds every nonzero point
the point loop valued.  An SO side is one enumeration, z outer and y
inner at rank l - 1 (_so_buckets), valued by the coset solver in both
modes.  Both SO sides value one integrand, Phi: Phi*(z, y) g_chi =
Phi(p z, -y), so W(Phi*(z, y)) = zeta W(Phi(p z, -y)) (_so_buckets).
The modes differ only in their windows: W(g k) = W(g) chi(k) for k in
I+ makes W constant on each support-aware class, so that mode values
one point a side, (z0, 0), at any N (_so_buckets has the argument).  A
JPSS side (_gl_buckets) has a over the brute-force multiplicative
window and x over the brute-force y window at V = 0: the plain side at
rank 0, the dual side at rank n - 2.

Every zeta integral is then one bucket sum (_bucket_sum) of
part * zeta^i * f_s(x0) over the buckets of one side, with one section
f_s = tau(x) q^(h v/2) (q^-s)^(k v), v = v_p(x) (_section): Phi at
(tau, z, 1, 1), Phi* at (tau, -1/z, 1, 1), the JPSS plain side at
(tau, a, n - 1, 1) and the JPSS dual side at (tau^-1, a, n - 3, -1).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .cyclotomic import CyclotomicNumber
from .scalars import ExactScalar
from .padic import is_int, is_odd_prime, rational_valuation
from .matrices import coset_decompose, coset_decompose_gl, factor_u_k, gl_coset, so_torus
from .characters import (
    TameCharacter,
    psi_exponent,
    tame_class,
    tame_eval,
)

F0 = Fraction(0)
F1 = Fraction(1)
FM1 = Fraction(-1)


class IntegralError(Exception):
    pass


class BoundaryNonvanishing(IntegralError):
    """A nonzero integrand term appeared on the truncation padding shell."""


class ZeroDenominator(IntegralError):
    pass


class BadRoot(IntegralError):
    pass


class Unsupported(IntegralError):
    pass


# ---------------------------------------------------------------------------
# configuration


def check_prime(p) -> None:
    """Q_p needs an odd prime p: the tame characters read units through a
    primitive root mod p."""
    if not is_odd_prime(p):
        raise IntegralError(f"p must be an odd prime, got {p}")


def check_domain(ell: int, level: int, cutoff: int) -> None:
    """The truncation every SO domain needs: ints l >= 1, N >= 2 and V >= 1."""
    if not all(map(is_int, (ell, level, cutoff))):
        raise IntegralError(f"l, N and V must be ints, got {ell!r}, {level!r}, {cutoff!r}")
    if ell < 1:
        raise IntegralError(f"need l >= 1, got {ell}")
    if level < 2 or cutoff < 1:
        raise IntegralError("need N >= 2 and V >= 1")


def _check_tau(tau) -> None:
    if not isinstance(tau, TameCharacter):
        raise IntegralError(f"tau must be a TameCharacter, got {tau!r}")


def _check_zeta(zeta) -> None:
    """zeta is a CyclotomicNumber, or an int or Fraction read as one."""
    if not (isinstance(zeta, (CyclotomicNumber, Fraction)) or is_int(zeta)):
        raise BadRoot(f"zeta must be a CyclotomicNumber, an int or a Fraction, got {zeta!r}")


def check_sign(zeta: CyclotomicNumber) -> None:
    """The orthogonal side's zeta is a sign: zeta^2 = 1.  The only square
    roots of 1 in a field are 1 and -1, so this reads zeta as a rational,
    whatever form it is stored in."""
    _check_zeta(zeta)
    if (zeta.is_rational() if isinstance(zeta, CyclotomicNumber) else zeta) not in (1, -1):
        raise BadRoot("the orthogonal side needs zeta^2 = 1")


def _check_gl_root(zeta: CyclotomicNumber, n: int) -> None:
    """The GL_n side's zeta is an n-th root of unity."""
    _check_zeta(zeta)
    if zeta**n != CyclotomicNumber.one():
        raise BadRoot("zeta must satisfy zeta^n = 1")


def _check_t(t, ell: int, p: int) -> tuple:
    """The affine parameters (t_1, ..., t_(l+1)), all 1 when t is None;
    otherwise a tuple or list of l + 1 ints or Fractions.  Each must be a
    p-adic unit: that is what makes the affine character generic.  And
    t_(l+1) = t_1 mod p: only then does the fixed g_chi normalize chi, so
    that W is defined (see _chi_arg)."""
    if t is None:
        return (F1,) * (ell + 1)
    if not isinstance(t, (tuple, list)):
        raise IntegralError(f"t must be a tuple or list of {ell + 1} affine parameters, got {t!r}")
    if len(t) != ell + 1:
        raise IntegralError(f"need {ell + 1} affine parameters t, got {len(t)}")
    if not all(is_int(x) or isinstance(x, Fraction) for x in t):
        raise IntegralError(f"each affine parameter t must be an int or a Fraction, got {t!r}")
    t = tuple(map(Fraction, t))
    if any(rational_valuation(x, p) != 0 for x in t):
        raise IntegralError("each affine parameter t must be a p-adic unit")
    if rational_valuation(t[ell] - t[0], p) < 1:
        raise IntegralError("need t_(l+1) = t_1 mod p: only then does g_chi normalize chi")
    return t


@dataclass(frozen=True)
class IntegralConfig:
    prime: int
    ell: int
    zeta: CyclotomicNumber
    tau: TameCharacter
    level: int = 3  # N
    cutoff: int = 1  # V
    mode: str = "support-aware"
    t: tuple = None

    def __post_init__(self):
        check_prime(self.prime)
        _check_tau(self.tau)
        if self.tau.prime != self.prime:
            raise IntegralError(f"tau is a character of Q_{self.tau.prime}, not of Q_{self.prime}")
        check_domain(self.ell, self.level, self.cutoff)
        check_sign(self.zeta)
        if self.mode not in ("support-aware", "brute-force"):
            raise IntegralError("mode must be support-aware or brute-force")
        object.__setattr__(self, "t", _check_t(self.t, self.ell, self.prime))


@dataclass(frozen=True)
class GammaResult:
    computed: ExactScalar
    predicted: ExactScalar
    matches: bool
    metadata: dict = field(default_factory=dict, compare=False)


# ---------------------------------------------------------------------------
# integrand rows and the per-point Whittaker evaluator
#
# Every integrand is a fixed matrix m of its inner point (y or x) times a
# diagonal torus element D of its outer point (z or a): m D on SO (Phi*
# times g_chi, see _so_buckets) and D m on the JPSS sides.  The builders
# write m in closed form as the solver's scaled rows (nums, den), entries
# nums[c] / den (matrices.py), and the solver factors m once per inner
# point (factor_u_k, gl_coset).  A point is those factors and the
# diagonal of D, made once per outer point, and the coset solver values
# it by testing the rows of k scaled by D, so a point makes no Fraction
# unless it factors.


def _unit_rows(n, rows):
    """The scaled rows of the identity at each index of rows, over 1."""
    return [([0] * r + [1] + [0] * (n - 1 - r), 1) for r in rows]


def _so_rows(y):
    """The rows of Phi's integrand x_bar(y) j(h(z)) at (1, y), y = (y_0,
    ..., y_(l-2)), in closed form: ones on the diagonal, y below the 1 in
    column 0 and -y reversed left of the corner.  The integrand at (z, y)
    is these rows times h(z) = diag(z, 1, ..., 1, 1/z)."""
    ell = len(y) + 1
    n = 2 * ell + 1
    lcd = lcm(*(c.denominator for c in y))
    rows = _unit_rows(n, [0])
    last = [0] * (n - 1) + [lcd]
    for i, c in enumerate(y):
        row = [0] * n
        row[0], row[1 + i] = c.numerator, c.denominator
        rows.append((row, c.denominator))
        last[n - 2 - i] = -c.numerator * (lcd // c.denominator)
    return rows + _unit_rows(n, range(ell, n - 1)) + [(last, lcd)]


def _gl_dual_rows(x):
    """The rows of the JPSS dual integrand w_long (t m)^(-1) w_(n,1) at
    a = 1, n = len(x) + 2, in closed form.

    m is the identity with column 1 replaced by (a, x_0, ..., x_(n-3), 0).
    (t m)^(-1) is the identity with row 1 replaced by
    (1/a, -x_0/a, ..., -x_(n-3)/a, 0); w_long reverses the rows and
    w_(n,1) = diag(1, w_(n-1)) reverses columns 2..n.  So rows 1..n-1
    of the integrand have a one on the superdiagonal, and its bottom row
    is (1/a, 0, -x_(n-3)/a, ..., -x_0/a).  The central character is
    trivial, so W takes the same value at a times the integrand, and
    that is diag(a, ..., a, 1) times these rows (_gl_buckets)."""
    n = len(x) + 2
    lcd = lcm(*(c.denominator for c in x))
    bottom = [lcd, 0] + [-c.numerator * (lcd // c.denominator) for c in reversed(x)]
    return [([0] * (r + 1) + [1] + [0] * (n - 2 - r), 1) for r in range(n - 1)] + [(bottom, lcd)]


def _chi_arg(k, t, ell, p):
    """x with chi(k) = psi(x) for k in I+, given by its scaled rows: the
    weighted simple affine entries.  Zero entries are skipped, and only
    the entries read become Fractions; on the integrands chi reads only
    zeros.

    It reads chi(g_chi k g_chi) off k too.  For k in I+ and SO, the
    argument of g_chi k g_chi is, up to p, that of k with the weights t_1
    and t_(l+1) swapped on the two integral entries chi reads at its
    ends, k[0][1] and k[2l-1][0] / p.  The t that _check_t accepts have
    t_(l+1) = t_1 mod p, so the two arguments differ by an element of p,
    and psi_exponent reads x only mod p: every (i, m, a) stored is the
    same whichever of k and g_chi k g_chi it is read off.  So with
    Phi*(z, y) g_chi = Phi(p z, -y) = u k, W(Phi*(z, y)) = zeta psi_U(u)
    chi(k) = zeta W(Phi(p z, -y)).  On a unit upper triangular u, whose
    corner entry is 0, it reads psi_U(u)."""
    s = 0
    for a in range(ell):
        nums, den = k[a]
        if nums[a + 1]:
            s += t[a] * Fraction(nums[a + 1], den)
    nums, den = k[2 * ell - 1]
    if nums[0]:
        s += t[ell] * Fraction(nums[0], den * p)
    return s


def _so_whittaker_parts(factors, diag, i, p, ell, t):
    """(i, m, a) with W(g) = zeta^i * zeta_(p^m)^a, or None off the support,
    for g with g g_chi^(-i) = m h(d), given as factor_u_k(m) and
    so_torus(d, 2l + 1).  The zeta power i is kept separate so one
    enumeration serves every central sign.

    coset_decompose factors g g_chi^(-i) = u k.  So g = u g_chi^i k' with
    k' = g_chi^(-i) k g_chi^i, and W(g) = psi_U(u) zeta^i chi(k').
    _chi_arg reads chi(k') off k, and psi_U(u) off u, so k' is never
    formed."""
    res = coset_decompose(factors, diag, p)
    if res is None:
        return None
    u, k = res
    return (i,) + psi_exponent(_chi_arg(u, t, ell, p) + _chi_arg(k, t, ell, p), p)


# ---------------------------------------------------------------------------
# domain enumeration and the bucket store
#
# Buckets collect, per zeta-power i and tame class of the outer point x,
# the full sum of measure-weighted values over the inner domain and over
# the x of that class.  They are independent of zeta and tau, so one
# enumeration serves the whole (zeta, tau) grid.  Merging the x of a
# class is exact because tau is tame: each section reads x only through
# tame_class(x) = (v_p(x), unit residue mod p), |x| through v and tau
# through (v, r) (Phi* reads -1/z, whose class the class of z fixes), so
# sum_x part(x) f_s(x) = f_s(x0) sum_x part(x) for any x0 of the class.
# A bucket is keyed by (i, x0), x0 the least x of its class, and each
# x's counts join their bucket as they arrive.  A bucket's .order and
# .coeffs do not depend on the order in which the (m, a) counts are
# added: the order is the lcm of the p^m of the nonzero counts, and each
# coefficient is a sum of positive counts.  Term order in .coeffs
# reaches no record, repr or equality, which all go through sorted or
# reduced forms.
#
# The point loop also records each nonzero point it values, with its
# value, and the record is stored beside the buckets: it is at most the
# support in the window, 9 points a side at (p, l, N, V) = (3, 2, 2, 1).
# scan_support reads it instead of valuing the points again.  A nonzero
# point on the padding shell does not stop the loop, so the record is
# complete whatever the loop meets; the buckets are then the
# BoundaryNonvanishing that names the first such point in loop order.
#
# _BUCKETS holds one (buckets, record) entry per side, keyed by its
# builder (_so_buckets or _gl_buckets) and the builder's arguments.
# scan_support reads the entry (_entry); every other reader reads the
# buckets, which raise when they are a BoundaryNonvanishing (_buckets).

_BUCKETS: dict = {}


def _entry(build, *args):
    """The (buckets, record) entry of build(*args), built on a miss."""
    key = (build, *args)
    hit = _BUCKETS.get(key)
    if hit is None:
        hit = _BUCKETS[key] = build(*args)
    return hit


def _buckets(build, *args):
    """The buckets of _entry(build, *args), raised instead when they are
    the BoundaryNonvanishing of a nonzero point on the padding shell,
    with a fresh traceback: the stored error would otherwise keep every
    earlier raise's frames."""
    buckets = _entry(build, *args)[0]
    if isinstance(buckets, BoundaryNonvanishing):
        raise buckets.with_traceback(None)
    return buckets


def _y_windows(p, level, cutoff, mode):
    """(weight, [(y rep, on_shell)]) for one y coordinate.  Support-aware
    it is one class, p, of measure vol(p) = q^(-1/2), valued at 0 (see
    _so_buckets).  Brute-force the classes are the cosets of p^N in
    p^-V o, plus the p^-(V+1) padding shell, each of measure vol(o) / p^N."""
    if mode == "support-aware":
        return ExactScalar.from_coeff(p, F1, q_half=-1), [(F0, False)]
    weight = ExactScalar.from_coeff(p, Fraction(1, p**level), q_half=1)
    den = p**cutoff
    count = p ** (level + cutoff)
    reps = [(Fraction(a, den), False) for a in range(count)]
    reps += [(Fraction(a, den * p), True) for a in range(p * count) if a % p]  # valuation -(V+1)
    return weight, reps


def _z_windows(p, level, cutoff, mode, side):
    """(weight, [(z rep, on_shell)]) for the multiplicative domain.
    Support-aware it is one class, z0 (1 + p), of measure vol(1 + p) =
    1/(q - 1), valued at z0 = 1 on Phi and 1/p on Phi* (z^(-1) in
    pi (1 + p); see _so_buckets).  Brute-force the classes are the cosets
    of 1 + p^N at valuations -V-1 .. V+1, the outer two the padding shell."""
    if mode == "support-aware":
        return ExactScalar.from_coeff(p, Fraction(1, p - 1)), [(Fraction(1, p) if side == "phi_star" else F1, False)]
    weight = ExactScalar.from_coeff(p, Fraction(1, (p - 1) * p ** (level - 1)))
    return weight, [
        (Fraction(p) ** v * a, abs(v) > cutoff)
        for v in range(-cutoff - 1, cutoff + 2)
        for a in range(p**level)
        if a % p
    ]


def _enumerate(p, outer, inner, rank, prepare, value, shell):
    """(buckets, record): the one enumeration behind every side.  The
    buckets map (i, x0) to the weighted sum of the point values over
    the rank-fold product of the inner window and the x of one tame
    class, x0 the least x of the class.

    outer and inner are (weight, [(rep, on_shell)]) windows.  The inner
    points are made once per side: each y of the rank-fold product of
    the inner representatives, whether it lies on the padding shell, and
    prepare(y), the work that depends on y alone.  value(x), entered once
    per outer point, is the function of prepare(y) that gives the value
    of the point (x, y) as (i, m, a), or None where it vanishes.  At
    each x of the outer window the point loop (_point_counts) takes the
    histogram of values over the inner points.  Each count c of
    (i, m, a) adds c * zeta_(p^m)^a, at order p^m (the exact order of the
    value), to the bucket (i, tame_class(x)) as it arrives.  The record maps
    each nonzero point of the point loop, (x, y), to its value and
    whether it lies on the padding shell, in loop order.  When one does,
    the buckets are the BoundaryNonvanishing with the text shell,
    formatted with the first such point; the record is complete either
    way."""
    (x_weight, xs), (y_weight, ys) = outer, inner
    points = []
    for combo in itertools.product(ys, repeat=rank):
        y = tuple(c for c, _ in combo)
        points.append((y, any(s for _, s in combo), prepare(y)))
    sums: dict = {}  # (i, v, r) -> [least x of the class, unweighted sum of the values]
    record: dict = {}
    for x, on_shell in xs:
        counts = _point_counts(x, on_shell, points, value(x), record)
        cls = tame_class(x, p)
        for (i, m, a), count in counts.items():
            key = (i, *cls)
            term = CyclotomicNumber(p**m, {a: count})
            hit = sums.get(key)
            if hit is None:
                sums[key] = [x, term]
            else:
                hit[0] = min(hit[0], x)
                hit[1] = hit[1] + term
    first = next((point for point, (_, on) in record.items() if on), None)
    if first is not None:
        return BoundaryNonvanishing(shell.format(*first)), record
    weight = x_weight * y_weight**rank
    buckets = {(key[0], x0): weight * ExactScalar.from_coeff(p, c) for key, (x0, c) in sums.items()}
    return buckets, record


def _point_counts(x, on_shell, points, value, record):
    """(i, m, a) -> the number of points (x, y) with that value, over the
    inner points (y, y on the padding shell, prepared y) of _enumerate,
    point by point, each valued by value(prepared y).  Each nonzero
    point goes into record as (x, y) -> ((i, m, a), whether it lies on
    the padding shell)."""
    counts: dict = {}
    for y, y_on_shell, point in points:
        parts = value(point)
        if parts is not None:
            record[(x, y)] = parts, on_shell or y_on_shell
            counts[parts] = counts.get(parts, 0) + 1
    return counts


def _so_buckets(p, ell, level, cutoff, mode, side, t):
    """(buckets, record) of one SO side, by _enumerate: (i, z0) -> the
    weighted sum of W over the y domain and the z of one tame class (see
    the comment above _BUCKETS), and the point loop's record of nonzero
    points.  Every point is valued by the coset solver
    (_so_whittaker_parts), in both modes.  Both sides value Phi.  With
    m(y) and m*(y) the rows of Phi and Phi* at (1, y) (_so_rows writes
    m), Phi(z, y) = m(y) h(z), Phi*(z, y) = m*(y) h(1/z) and m*(y) g_chi
    = m(-y) h(p), so, as g_chi h(d) g_chi = h(1/d), Phi*(z, y) g_chi =
    Phi(p z, -y).  The corner of u k is that of k, in 1 + p for k in I+,
    and Phi g_chi and Phi* have 0 there: a Phi point has i = 0 and a Phi*
    point i = 1, with W(Phi*(z, y)) = zeta W(Phi(p z, -y)) (_chi_arg).
    So each y is factored once, as m(y) or m(-y), and each point tests
    the rows of k scaled by h(z) or h(p z).

    Each support-aware window is one class, valued at one point, since W
    is constant on both classes.  On Phi, with z in 1 + p and each y_k in
    p, x_bar(y) j(h(z)) = j(h(z)) k_y with k_y = 1 + sum_k y_k z
    (E_(1+k,0) - E_(n-1,n-2-k)), both in I+.  chi reads no diagonal entry
    and none of k_y's (none is (a, a+1) with a < l, nor (2l-1, 0)), so
    W(g(z, y)) = W(g(1, 0)).  (p z, -y) maps the Phi* class, z in
    p^(-1) (1 + p) and y_k in p, onto the Phi class, so W is constant
    there too.  The brute-force windows reach z and y outside them."""

    star = side == "phi_star"
    i = 1 if star else 0

    def value(z):
        diag = so_torus(p * z if star else z, 2 * ell + 1)
        return lambda factors: _so_whittaker_parts(factors, diag, i, p, ell, t)

    return _enumerate(
        p,
        _z_windows(p, level, cutoff, mode, side),
        _y_windows(p, level, cutoff, mode),
        ell - 1,
        lambda y: factor_u_k(_so_rows(tuple(-c for c in y) if star else y)),
        value,
        f"nonzero {side} integrand at the padding shell: z={{}}, y={{}}",
    )


def _section(tau: TameCharacter, x, h: int, k: int) -> ExactScalar:
    """tau(x) q^(h v/2) (q^-s)^(k v) with v = v_p(x): the section f_s of
    every zeta integral here, a function of tame_class(x).  f_s(h, 1) =
    |z|^(s-1/2) tau(z) is (tau, z, 1, 1), and M(tau,s) f_s(h^(-1), b_1^*)
    = |z^(-1)|^(s-1/2) tau(b_1^* z^(-1)) is (tau, -1/z, 1, 1), since
    b_1^* = J t(b_1)^(-1) J = -1 for b_1 = (-1) is fixed.  The JPSS plain
    side tau(a) |a|^(s - (n-1)/2) is (tau, a, n - 1, 1), and the dual side
    tau^(-1)(a) |a|^((1-s) - (n-1)/2) is (tau^(-1), a, n - 3, -1)."""
    p = tau.prime
    v = rational_valuation(x, p)
    return ExactScalar.from_coeff(p, F1, q_half=h * v, s_power=k * v) * tame_eval(tau, x)


def _bucket_sum(buckets, p: int, zeta, section) -> ExactScalar:
    """sum part * zeta^i * section(x0) over the buckets (i, x0) of one
    side, in key order: a zeta integral from its buckets."""
    total = ExactScalar.zero(p)
    for (i, x0), part in sorted(buckets.items()):
        total = total + part * ExactScalar.from_coeff(p, zeta**i) * section(x0)
    return total


def _assemble(cfg: IntegralConfig, side: str) -> ExactScalar:
    if not isinstance(cfg, IntegralConfig):
        raise IntegralError(f"cfg must be an IntegralConfig, got {cfg!r}")
    buckets = _buckets(_so_buckets, cfg.prime, cfg.ell, cfg.level, cfg.cutoff, cfg.mode, side, cfg.t)
    star = side == "phi_star"  # Phi* reads b_1^* z^(-1) = -1/z
    return _bucket_sum(buckets, cfg.prime, cfg.zeta, lambda z: _section(cfg.tau, FM1 / z if star else z, 1, 1))


def phi_eval(cfg: IntegralConfig) -> ExactScalar:
    """Phi(W, f_s) as an exact finite sum."""
    return _assemble(cfg, "phi")


def phi_star_eval(cfg: IntegralConfig) -> ExactScalar:
    """Phi*(W, f_s); the second-exterior-power gamma prefactor is 1 here."""
    return _assemble(cfg, "phi_star")


def predicted_gamma_so(tau: TameCharacter, zeta: CyclotomicNumber) -> ExactScalar:
    """The closed form zeta * tau(-pi) * q^(1/2 - s)."""
    _check_tau(tau)
    check_sign(zeta)
    p = tau.prime
    return (
        ExactScalar.from_coeff(p, zeta)
        * tame_eval(tau, -p)
        * ExactScalar.from_coeff(p, F1, q_half=1, s_power=1)
    )


def gamma_so(cfg: IntegralConfig) -> GammaResult:
    num = phi_star_eval(cfg)
    den = phi_eval(cfg)
    if den.is_zero():
        raise ZeroDenominator("Phi vanished; support or measure bug")
    computed = num / den
    predicted = predicted_gamma_so(cfg.tau, cfg.zeta)
    meta = {
        "p": cfg.prime,
        "ell": cfg.ell,
        "level": cfg.level,
        "cutoff": cfg.cutoff,
        "mode": cfg.mode,
    }
    return GammaResult(computed, predicted, computed == predicted, meta)


# ---------------------------------------------------------------------------
# GL side


def gamma_gl_closed(n: int, tau: TameCharacter, zeta: CyclotomicNumber) -> ExactScalar:
    """tau(-1)^(n-1) tau(pi) zeta q^(1/2-s) (trivial central character)."""
    if not is_int(n):
        raise Unsupported(f"n must be an int, got {n!r}")
    if n < 1:
        raise Unsupported(f"need n >= 1, got {n}")
    _check_tau(tau)
    _check_gl_root(zeta, n)
    p = tau.prime
    return (
        tame_eval(tau, -1) ** (n - 1)
        * tau.value_at_uniformizer
        * ExactScalar.from_coeff(p, zeta, q_half=1, s_power=1)
    )


def _gl_whittaker_parts(coset, diag, p, n):
    """(j, m, a) with W(g) = zeta^j * zeta_(p^m)^a for GL_n, or None off
    the support.  g = D m is given as gl_coset(m) and the diagonal of D,
    whose last entry is 1.

    coset_decompose_gl factors g g_chi^(-j) = z u k, so g = z u g_chi^j k'
    with k' = g_chi^(-j) k g_chi^j, and W(g) = psi_U(u) zeta^j chi(k'):
    the central character is trivial, so z adds nothing.  chi reads the
    superdiagonal of k' and its corner over pi, all with weight t = 1, and
    chi(k') = chi(k), as on SO (see _chi_arg): k -> g_chi^(-1) k g_chi
    moves k[r][r+1] to (r+1, r+2), k[n-1][0] / p to (0, 1) and
    k[n-2][n-1] to the corner over pi, a cyclic permutation of the n
    entries chi sums.  So zeta_(p^m)^a is psi of the superdiagonals of u
    and k plus k[n-1][0] / p, read off the scaled rows as returned."""
    res = coset_decompose_gl(coset, diag, p)
    if res is None:
        return None
    u, j, _, k = res
    arg = sum(Fraction(m[a][0][a + 1], m[a][1]) for m in (u, k) for a in range(n - 1))
    return (j,) + psi_exponent(arg + Fraction(k[n - 1][0][0], k[n - 1][1] * p), p)


def _gl_buckets(n: int, p: int, level: int, cutoff: int, side: str):
    """(buckets, record) of one JPSS side, by _enumerate: (j, a0) -> the
    weighted values summed over x and over the a of tame_class(a0) (the
    sections read a only through that class), and the point loop's
    record of nonzero points.

    a runs over the brute-force z window.  The plain side, at rank 0,
    evaluates W(diag(a, I_(n-1))), and the dual side, at rank n - 2,
    W(w_long t(m)^(-1) w_(n,1)) with m = 1 + (a - 1) E_00 +
    sum x_r E_(1+r,0), which, times the central element a, is
    diag(a, ..., a, 1) times the rows _gl_dual_rows writes down at a = 1
    (no inversion).  Each coordinate of x runs over the brute-force y
    window at V = 0: o mod p^N (vol(o) = q^(1/2)) plus the p^(-1)
    padding shell.

    So on both sides the integrand (times a) is a torus element D of a,
    with last entry 1, times a matrix of x alone: diag(a, ..., a, 1)
    times those rows, and diag(a, 1, ..., 1) times the identity on the
    plain side.  Each x is factored once (gl_coset: the one j and z its
    bottom row names, and the factors at that j), and each point tests
    the rows of k scaled by the D of its a, in one coset_decompose_gl
    call."""
    dual = side == "dual"
    count = n - 1 if dual else 1  # the entries of D that are a

    def value(a):
        diag = [a.numerator] * count + [a.denominator] * (n - count), a.denominator
        return lambda coset: _gl_whittaker_parts(coset, diag, p, n)

    return _enumerate(
        p,
        _z_windows(p, level, cutoff, "brute-force", "phi"),
        _y_windows(p, level, 0, "brute-force"),
        n - 2 if dual else 0,
        lambda x: gl_coset(_gl_dual_rows(x) if dual else _unit_rows(n, range(n)), p),
        value,
        f"nonzero JPSS {side} integrand at the padding shell: a={{}}, x={{}}",
    )


def jpss_gl_gamma(
    n: int,
    tau: TameCharacter,
    zeta: CyclotomicNumber,
    level: int = 3,
    cutoff: int = 1,
) -> GammaResult:
    """Independent GL_n x GL_1 gamma: dual zeta integral over plain one,
    times tau(-1)^(n-1); compared against the closed form."""
    if not is_int(n):
        raise Unsupported(f"n must be an int, got {n!r}")
    if n < 2:
        raise Unsupported("need n >= 2")
    _check_tau(tau)
    p = tau.prime
    check_domain(n - 1, level, cutoff)  # the x window is the SO y window of rank n - 1
    predicted = gamma_gl_closed(n, tau, zeta)  # checks zeta^n = 1 before any enumeration
    # plain first, so that a plain shell error is raised ahead of a dual one
    plain, dual = (_buckets(_gl_buckets, n, p, level, cutoff, side) for side in ("plain", "dual"))
    tau_inv = tau.inverse()
    plain = _bucket_sum(plain, p, zeta, lambda a: _section(tau, a, n - 1, 1))
    dual = _bucket_sum(dual, p, zeta, lambda a: _section(tau_inv, a, n - 3, -1))
    if plain.is_zero():
        raise ZeroDenominator("JPSS plain integral vanished")
    computed = tame_eval(tau, -1) ** (n - 1) * dual / plain
    meta = {"p": p, "n": n, "level": level, "cutoff": cutoff}
    return GammaResult(computed, predicted, computed == predicted, meta)


def match_so_gl(ell: int, tau: TameCharacter, zeta: CyclotomicNumber, cfg: IntegralConfig = None) -> bool:
    """The SO_(2l+1) gamma equals the GL_(2l) gamma (closed forms always;
    computed pipelines when a config is supplied, which must carry the
    same l, tau and zeta)."""
    if not is_int(ell):
        raise IntegralError(f"l must be an int, got {ell!r}")
    if ell < 1:
        raise IntegralError(f"need l >= 1, got {ell}")
    _check_tau(tau)
    check_sign(zeta)
    if cfg is not None and not isinstance(cfg, IntegralConfig):
        raise IntegralError(f"cfg must be an IntegralConfig or None, got {cfg!r}")
    if cfg is not None and (cfg.ell != ell or cfg.tau != tau or cfg.zeta != zeta):
        raise IntegralError("cfg disagrees with the l, tau or zeta given to match_so_gl")
    if predicted_gamma_so(tau, zeta) != gamma_gl_closed(2 * ell, tau, zeta):
        return False
    if cfg is not None:
        so = gamma_so(cfg)
        gl = jpss_gl_gamma(2 * ell, tau, zeta, level=cfg.level, cutoff=cfg.cutoff)
        return so.computed == gl.computed
    return True


# ---------------------------------------------------------------------------
# support scans


@dataclass(frozen=True)
class SupportPoint:
    z: Fraction
    y: tuple
    nonzero: bool
    predicted: bool


def scan_support(
    p: int,
    ell: int,
    side: str,
    level: int = 2,
    cutoff: int = 1,
    t: tuple = None,
) -> tuple:
    """The integrand support on the brute-force window versus the support
    lemma.  Returns (points, verdict): a SupportPoint for every point of
    the window, in enumeration order, and True when the nonvanishing set
    is exactly the predicted one.

    The lemma is stated once, as the support-aware windows: a point is
    predicted nonzero when z is in the class z0 (1 + p) of the side's z
    window, tame_class(z) = tame_class(z0), and every y_k in the class
    y0 + p = p of the y window, so the scan checks the very classes the
    fast path values.  Each representative's membership is worked out
    once per window.

    The nonzero points are read off the record of the brute-force
    enumeration of the same (p, l, N, V, side, t), which values each
    point once: the record is stored with the buckets of the brute-force
    phi_eval or phi_star_eval, and built here on a miss.  A nonzero
    point on the padding shell is reported here, since the record is
    complete even where the buckets are a BoundaryNonvanishing."""
    check_prime(p)
    check_domain(ell, level, cutoff)
    if side not in ("phi", "phi_star"):
        raise IntegralError(f"side must be phi or phi_star, got {side!r}")
    t = _check_t(t, ell, p)
    nonzero_at: dict = {}  # z -> the y of its nonzero points
    for z, y in _entry(_so_buckets, p, ell, level, cutoff, "brute-force", side, t)[1]:
        nonzero_at.setdefault(z, set()).add(y)
    z_class = tame_class(_z_windows(p, level, cutoff, "support-aware", side)[1][0][0], p)
    y0 = _y_windows(p, level, cutoff, "support-aware")[1][0][0]
    ys = [y for y, _ in _y_windows(p, level, cutoff, "brute-force")[1]]
    ys_in = [all(c) for c in itertools.product([rational_valuation(y - y0, p) >= 1 for y in ys], repeat=ell - 1)]
    points = []
    verdict = True
    for z, _ in _z_windows(p, level, cutoff, "brute-force", side)[1]:
        here = nonzero_at.get(z, ())
        z_in = tame_class(z, p) == z_class
        for y, y_in in zip(itertools.product(ys, repeat=ell - 1), ys_in):
            nonzero = y in here
            pred = z_in and y_in
            if nonzero != pred:
                verdict = False
            points.append(SupportPoint(z, y, nonzero, pred))
    return points, verdict
