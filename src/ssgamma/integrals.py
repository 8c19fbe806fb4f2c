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
measure, p^(-i) (1 + p) or p, and states the SO support lemma: off those
classes the integrand vanishes on the brute-force window, which
scan_support checks against the brute-force enumeration.

Every side (Phi, Phi*, and the JPSS plain and dual sides) is one row of
one table, _SIDES: its coset index i, its integrand family and the text
of its BoundaryNonvanishing.  One builder, _side_buckets, makes the
(buckets, record) pair of any side by the one enumeration, _enumerate,
kept as one entry of one store, _BUCKETS.  _enumerate walks an outer
window and, at each outer point, counts the points of the rank-fold
product of an inner window that pass the side's row test, over the inner
points it makes once per side with their share of the work, and adds
the count straight into the bucket x0 of the point's tame class, x0 the
least point of the class (the comment above _BUCKETS has why that merge
is exact).  The record holds every point that passed.  The outer point
(z or a) runs over _z_windows and the inner point (y or x) over
_y_windows: at V on SO, at rank l - 1, and at V = 0 on JPSS, at rank 0
on the plain side and n - 2 on the dual side.  The modes differ only in
their windows; each side's support-aware inner class, p on SO and o on
JPSS, is named in _SIDES.

The lemma: W is zeta^i times "the rows lie in I+", i fixed by the side.
Each integrand, at its one coset index i, is a lower-triangular matrix of
its inner point times a diagonal torus element of its outer point:
  * Phi(z, y) = m(y) h(z), m(y) the lower unitriangular rows at (1, y)
    (_so_rows) and h(d) = diag(d, 1, ..., 1, 1/d), at i = 0; and
    Phi*(z, y) g_chi = m(-y) h(p z), at i = 1, since m*(y) g_chi =
    m(-y) h(p) and g_chi h(d) g_chi = h(1/d);
  * the JPSS plain side is diag(a, 1, ..., 1), at j = 0, and the dual
    side, a times its integrand, is D k g_chi / p with D =
    diag(a, ..., a, 1) and k the rows _gl_dual_rows writes, at j = 1.
A lower-triangular g = k is its own factorization u k with u = 1, so
psi_U(u) = 1, and chi reads only k's superdiagonal and its entry
k[2l-1][0] (k[n-1][0] on GL), all 0 here: W is zeta^i when every row
lies in I+ and 0 otherwise.  No point lies in another coset.  The
corner of u k is that of k, in 1 + p for k in I+, and Phi g_chi and
Phi* have 0 there.  A dual x with an x_i outside o names a j != 1,
where the bottom-right block of rows and columns 1..n-1 of the
integrand times g_chi^(-j) is singular, and a point of U g_chi^j Z I+
has a unit minor there; so _side_buckets rejects such an x before any a,
by the bottom row of k, the one row D leaves alone.  W(Phi*(z, y)) =
zeta W(Phi(p z, -y)) needs chi(g_chi k g_chi) = chi(k), which is what
_check_t's t_(l+1) = t_1 mod p gives; no value reads t otherwise.

Every zeta integral (_integral) is then zeta^i times one bucket sum
(_bucket_sum) of part * f_s(x0) over the buckets of one side, with one
section f_s = tau(x) q^(h v/2) (q^-s)^v, v = v_p(x) (_section), read at
a point of the outer class: Phi at (z, 1), Phi* at (-1/z, 1), the JPSS
plain side at (a, n - 1) and the JPSS dual side at (1/a, 3 - n), since
tau^(-1)(a) = tau(1/a).  Every section reads tau itself.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm

from .cyclotomic import CyclotomicNumber
from .scalars import ExactScalar
from .padic import Record, is_int, is_odd_prime, rational_valuation
from .matrices import coset_decompose, coset_decompose_gl, so_torus
from .characters import TameCharacter, tame_class, tame_eval

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
    that W is defined.  No value reads t otherwise (the module docstring
    has the lemma)."""
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


class IntegralConfig(Record):
    __slots__ = ("prime", "ell", "zeta", "tau", "level", "cutoff", "mode", "t")  # level is N, cutoff V

    def __init__(self, prime, ell, zeta, tau, level=3, cutoff=1, mode="support-aware", t=None):
        check_prime(prime)
        _check_tau(tau)
        if tau.prime != prime:
            raise IntegralError(f"tau is a character of Q_{tau.prime}, not of Q_{prime}")
        check_domain(ell, level, cutoff)
        check_sign(zeta)
        if mode not in ("support-aware", "brute-force"):
            raise IntegralError("mode must be support-aware or brute-force")
        object.__setattr__(self, "prime", prime)
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "zeta", zeta)
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "cutoff", cutoff)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "t", _check_t(t, ell, prime))


class GammaResult(Record, compared=("computed", "predicted", "matches")):
    __slots__ = ("computed", "predicted", "matches", "metadata")

    def __init__(self, computed: ExactScalar, predicted: ExactScalar, matches: bool, metadata: dict = None):
        object.__setattr__(self, "computed", computed)
        object.__setattr__(self, "predicted", predicted)
        object.__setattr__(self, "matches", matches)
        object.__setattr__(self, "metadata", {} if metadata is None else metadata)


# ---------------------------------------------------------------------------
# integrand rows
#
# Every integrand is a fixed lower-triangular matrix of its inner point
# (y or x) times a diagonal torus element D of its outer point (z or a):
# m D on SO and D k on the JPSS sides (the module docstring).  The
# builder writes those rows in closed form as scaled rows (nums, den),
# entries nums[c] / den (matrices.py), once per inner point, and each
# point tests them times its D, made once per outer point
# (coset_decompose, coset_decompose_gl).


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


def _gl_dual_rows(x, p):
    """The rows k of the JPSS dual integrand at j = 1, n = len(x) + 2, in
    closed form: p e_r for r < n - 1, then (0, -p x_(n-3), ..., -p x_0, 1).

    The integrand is w_long (t m)^(-1) w_(n,1), m the identity with column
    1 replaced by (a, x_0, ..., x_(n-3), 0).  At a = 1 its rows 0..n-2
    have a one on the superdiagonal and its bottom row is (1, 0, -x_(n-3),
    ..., -x_0).  g_chi_gl sends e_(c+1) to e_c and e_1 to p e_N, so times
    p g_chi^(-1) each entry moves one place left, the one that wraps round
    unscaled and the others times p: that is k.  The central character is
    trivial, so W takes the same value at a times the integrand, which is
    diag(a, ..., a, 1) k g_chi / p (_side_buckets)."""
    n = len(x) + 2
    lcd = lcm(*(c.denominator for c in x))
    bottom = [0] + [-p * c.numerator * (lcd // c.denominator) for c in reversed(x)] + [lcd]
    return [([0] * r + [p] + [0] * (n - 1 - r), 1) for r in range(n - 1)] + [(bottom, lcd)]


# ---------------------------------------------------------------------------
# domain enumeration and the bucket store
#
# Buckets collect, per tame class of the outer point x, the measure
# weight times the number of points that pass the side's row test, over
# the inner domain and over the x of that class; the side's zeta^i is
# applied to its bucket sum.  They are independent of zeta and tau, so
# one enumeration serves the whole (zeta, tau) grid.  Merging the x of a
# class is exact because tau is tame: each section reads x only through
# tame_class(x) = (v_p(x), unit residue mod p), |x| through v and tau
# through (v, r) (Phi* reads -1/z and the JPSS dual side 1/a, whose
# classes the class of z or a fixes), so sum_x part(x) f_s(x) = f_s(x0)
# sum_x part(x) for any x0 of the class.
# A bucket is keyed by x0, the least x of its class, and each x's count
# joins its bucket as it arrives; a sum of int counts does not depend on
# their order.
#
# The point loop also records each point that passes, and the record is
# stored beside the buckets: it is at most the support in the window, 9
# points a side at (p, l, N, V) = (3, 2, 2, 1).
# scan_support reads it instead of valuing the points again.  A nonzero
# point on the padding shell does not stop the loop, so the record is
# complete whatever the loop meets; the buckets are then the
# BoundaryNonvanishing that names the first such point in loop order.
#
# _BUCKETS holds one (buckets, record) entry per side, keyed by its
# builder, _side_buckets, and the builder's arguments.  scan_support
# reads the entry (_entry); every other reader reads the buckets, which
# raise when they are a BoundaryNonvanishing (_buckets).

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


def _y_windows(p, level, cutoff, mode, e):
    """(weight, [(y rep, on_shell)]) for one y coordinate.  Support-aware
    it is one class, p^e, of measure vol(p^e) = q^(1/2 - e), valued at 0
    (see _side_buckets): p on SO (e = 1) and o on JPSS (e = 0), the
    side's e in _SIDES.  Brute-force the classes are the cosets of p^N in
    p^-V o, plus the p^-(V+1) padding shell, each of measure vol(o) / p^N;
    they do not read e."""
    if mode == "support-aware":
        return ExactScalar.from_coeff(p, F1, q_half=1 - 2 * e), [(F0, False)]
    weight = ExactScalar.from_coeff(p, Fraction(1, p**level), q_half=1)
    den = p**cutoff
    count = p ** (level + cutoff)
    reps = [(Fraction(a, den), False) for a in range(count)]
    reps += [(Fraction(a, den * p), True) for a in range(p * count) if a % p]  # valuation -(V+1)
    return weight, reps


def _z_windows(p, level, cutoff, mode, i):
    """(weight, [(z rep, on_shell)]) for the multiplicative domain of a
    side at coset index i.  Support-aware it is one class, p^(-i) (1 + p),
    of measure vol(1 + p) = 1/(q - 1), valued at z0 = p^(-i) (see
    _side_buckets); it is also the JPSS support in a.  Brute-force the
    classes are the cosets of 1 + p^N at valuations -V-1 .. V+1, the
    outer two the padding shell."""
    if mode == "support-aware":
        return ExactScalar.from_coeff(p, Fraction(1, p - 1)), [(Fraction(1, p**i), False)]
    weight = ExactScalar.from_coeff(p, Fraction(1, (p - 1) * p ** (level - 1)))
    return weight, [
        (Fraction(p) ** v * a, abs(v) > cutoff)
        for v in range(-cutoff - 1, cutoff + 2)
        for a in range(p**level)
        if a % p
    ]


def _enumerate(p, outer, inner, rank, prepare, test, shell):
    """(buckets, record): the one enumeration behind every side.  The
    buckets map x0 to the weight times the number of points that pass,
    over the rank-fold product of the inner window and the x of one tame
    class, x0 the least x of the class; a class with no such point has
    no bucket.

    outer and inner are (weight, [(rep, on_shell)]) windows.  The inner
    points are made once per side: each y of the rank-fold product of
    the inner representatives, whether it lies on the padding shell, and
    prepare(y), the work that depends on y alone; a y whose prepare(y) is
    None has no point that passes, and leaves the walk.  test(x), entered
    once per outer point, is the predicate on prepare(y) that the point
    (x, y) passes.  At each x of the outer window the point loop counts
    the inner points that pass, and adds the count to the bucket of
    tame_class(x).  The record maps each point that passes, (x, y), to
    whether it lies on the padding shell, in loop order.  When one does,
    the buckets are the BoundaryNonvanishing with the text shell,
    formatted with the first such point; the record is complete either
    way."""
    (x_weight, xs), (y_weight, ys) = outer, inner
    points = []
    for combo in itertools.product(ys, repeat=rank):
        y = tuple(c for c, _ in combo)
        prepared = prepare(y)
        if prepared is not None:
            points.append((y, any(s for _, s in combo), prepared))
    sums: dict = {}  # tame class -> [least x of the class, points that pass]
    record: dict = {}
    for x, on_shell in xs:
        passes = test(x)
        count = 0
        for y, y_on_shell, prepared in points:
            if passes(prepared):
                record[(x, y)] = on_shell or y_on_shell
                count += 1
        if count:
            hit = sums.setdefault(tame_class(x, p), [x, 0])
            hit[0] = min(hit[0], x)
            hit[1] += count
    first = next((point for point, on in record.items() if on), None)
    if first is not None:
        return BoundaryNonvanishing(shell.format(*first)), record
    weight = x_weight * y_weight**rank
    return {x0: weight * ExactScalar.from_coeff(p, count) for x0, count in sums.values()}, record


# Every side is one row of _SIDES: side -> (i, family, e, shell), W =
# zeta^i on the side's points that pass.  The family is "SO", the
# integrand m((-1)^i y) h(p^i z) (_so_rows), or "JPSS", D k with k the
# identity at i = 0 and the dual rows (_gl_dual_rows) at i = 1; e names
# the support-aware class p^e of each inner coordinate (_y_windows), p
# for y on SO and o for x on JPSS; shell is the text of the
# BoundaryNonvanishing of a nonzero point on the padding shell.

_SIDES = {
    "phi": (0, "SO", 1, "nonzero phi integrand at the padding shell: z={}, y={}"),
    "phi_star": (1, "SO", 1, "nonzero phi_star integrand at the padding shell: z={}, y={}"),
    "plain": (0, "JPSS", 0, "nonzero JPSS plain integrand at the padding shell: a={}, x={}"),
    "dual": (1, "JPSS", 0, "nonzero JPSS dual integrand at the padding shell: a={}, x={}"),
}


def _side_buckets(side, p, n, level, cutoff, mode):
    """(buckets, record) of one side of _SIDES on n x n matrices (n =
    2l + 1 on SO), by _enumerate: x0 -> the weighted count of the points
    where W != 0, over the inner domain and the outer points of one tame
    class (see the comment above _BUCKETS), and the point loop's record
    of those points.  By the lemma (module docstring) W at a point is
    zeta^i when every row of its integrand lies in I+, and 0 otherwise;
    _integral applies the zeta^i.  No value reads t, so one entry serves
    every t.

    SO: z outer and y inner, at rank l - 1 over the y window at V.  Each
    y is written once, as m(y) on Phi and m(-y) on Phi* (_so_rows), and
    each point tests those rows times its torus h(p^i z)
    (coset_decompose), in both modes.  Each support-aware window is one
    class, valued at one point, since W is constant on both classes.  On
    Phi, with z in 1 + p and each y_k in p, every row of m(y) h(z) is in
    I+: row 0 is z e_0, row 1 + k has y_k z below the diagonal, and the
    bottom row -y left of 1/z.  The map (z, y) -> (p z, -y) takes the
    Phi* class, z in p^(-1) (1 + p) and y_k in p, onto the Phi class.
    The brute-force windows reach z and y outside them.

    JPSS: a outer and x inner, over the y window at V = 0: o mod p^N
    (vol(o) = q^(1/2)) plus the p^(-1) padding shell.  The plain side
    evaluates W(diag(a, I_(n-1))), and the dual side W(w_long t(m)^(-1)
    w_(n,1)) with m = 1 + (a - 1) E_00 + sum x_r E_(1+r,0).  A point is
    D k: D = diag(a, 1, ..., 1) and k = 1 on the plain side, D =
    diag(a, ..., a, 1) and k the rows _gl_dual_rows writes on the dual
    side.  The rank is the number of entries of D that are a, less one.
    The rows of k that D leaves alone are tested once per x
    (coset_decompose_gl at d = 1), so a dual x with an x_i outside o
    leaves the walk before any a, and each point tests the rows D scales
    by a.  Support-aware, the x window is the one class o, of weight
    vol(o) = q^(1/2) a coordinate, valued at 0: the support is the a
    class times o^(n-2) (test_gl.py::test_jpss_support_lemma), so one
    point values it.  jpss_gl_gamma builds these sides brute-force only."""
    i, family, e, shell = _SIDES[side]
    if family == "SO":
        rank, inner_cutoff = (n - 3) // 2, cutoff

        def prepare(y):
            return _so_rows(tuple(-c for c in y) if i else y)

        def test(z):
            diag = so_torus(p**i * z, n)
            return lambda rows: coset_decompose(rows, diag, p) is not None

    else:
        count = n - 1 if i else 1  # the entries of D that are a
        rank, inner_cutoff = count - 1, 0

        def prepare(x):
            rows = _gl_dual_rows(x, p) if i else _unit_rows(n, range(n))
            return None if coset_decompose_gl(rows, F1, p, count) is None else rows[:count]

        def test(a):
            return lambda rows: coset_decompose_gl(rows, a, p) is not None

    windows = _z_windows(p, level, cutoff, mode, i), _y_windows(p, level, inner_cutoff, mode, e)
    return _enumerate(p, *windows, rank, prepare, test, shell)


def _section(tau: TameCharacter, x, h: int) -> ExactScalar:
    """tau(x) q^(h v/2) (q^-s)^v with v = v_p(x): the section f_s of every
    zeta integral here, a function of tame_class(x).  f_s(h, 1) =
    |z|^(s-1/2) tau(z) is (tau, z, 1), and M(tau,s) f_s(h^(-1), b_1^*) =
    |z^(-1)|^(s-1/2) tau(b_1^* z^(-1)) is (tau, -1/z, 1), since b_1^* =
    J t(b_1)^(-1) J = -1 for b_1 = (-1) is fixed.  The JPSS plain side
    tau(a) |a|^(s - (n-1)/2) is (tau, a, n - 1).  The dual side
    tau^(-1)(a) |a|^((1-s) - (n-1)/2) is (tau, 1/a, 3 - n): tau^(-1)(a) =
    tau(1/a), and with v = v_p(1/a) = -v_p(a), |a|^((1-s) - (n-1)/2) =
    q^(v (3-n)/2) (q^-s)^v."""
    p = tau.prime
    v = rational_valuation(x, p)
    return ExactScalar.from_coeff(p, F1, q_half=h * v, s_power=v) * tame_eval(tau, x)


def _bucket_sum(buckets, p: int, section) -> ExactScalar:
    """sum part * section(x0) over the buckets x0 of one side, in key
    order: a zeta integral from its buckets, before the side's zeta^i."""
    total = ExactScalar.zero(p)
    for x0, part in sorted(buckets.items()):
        total = total + part * section(x0)
    return total


def _integral(side, tau, zeta, n, level, cutoff, mode) -> ExactScalar:
    """The zeta integral of one side of _SIDES: zeta^i times the sum of
    its buckets against its section (_section), all at tau itself: (tau,
    z or -1/z, 1) on SO, since Phi* reads b_1^* z^(-1) = -1/z, and (tau,
    a, n - 1) on the JPSS plain side and (tau, 1/a, 3 - n) on the dual
    side, since tau^(-1)(a) = tau(1/a)."""
    i, family, _, _ = _SIDES[side]
    p = tau.prime
    buckets = _buckets(_side_buckets, side, p, n, level, cutoff, mode)
    if family == "SO":
        total = _bucket_sum(buckets, p, lambda z: _section(tau, FM1 / z if i else z, 1))
    else:
        total = _bucket_sum(buckets, p, lambda a: _section(tau, F1 / a if i else a, 3 - n if i else n - 1))
    return total * zeta if i else total


def _check_cfg(cfg) -> None:
    if not isinstance(cfg, IntegralConfig):
        raise IntegralError(f"cfg must be an IntegralConfig, got {cfg!r}")


def phi_eval(cfg: IntegralConfig) -> ExactScalar:
    """Phi(W, f_s) as an exact finite sum."""
    _check_cfg(cfg)
    return _integral("phi", cfg.tau, cfg.zeta, 2 * cfg.ell + 1, cfg.level, cfg.cutoff, cfg.mode)


def phi_star_eval(cfg: IntegralConfig) -> ExactScalar:
    """Phi*(W, f_s); the second-exterior-power gamma prefactor is 1 here."""
    _check_cfg(cfg)
    return _integral("phi_star", cfg.tau, cfg.zeta, 2 * cfg.ell + 1, cfg.level, cfg.cutoff, cfg.mode)


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


def _gl_closed(n: int, tau: TameCharacter, zeta) -> tuple:
    """(sign, sign tau(pi) zeta q^(1/2-s)) with sign = tau(-1)^(n-1): the
    closed form, and the sign that the computed JPSS gamma takes too."""
    sign = tame_eval(tau, -1) ** (n - 1)
    return sign, sign * tau.value_at_uniformizer * ExactScalar.from_coeff(tau.prime, zeta, q_half=1, s_power=1)


def gamma_gl_closed(n: int, tau: TameCharacter, zeta: CyclotomicNumber) -> ExactScalar:
    """tau(-1)^(n-1) tau(pi) zeta q^(1/2-s) (trivial central character)."""
    if not is_int(n):
        raise Unsupported(f"n must be an int, got {n!r}")
    if n < 1:
        raise Unsupported(f"need n >= 1, got {n}")
    _check_tau(tau)
    _check_gl_root(zeta, n)
    return _gl_closed(n, tau, zeta)[1]


def jpss_gl_gamma(
    n: int,
    tau: TameCharacter,
    zeta: CyclotomicNumber,
    level: int = 3,
    cutoff: int = 1,
) -> GammaResult:
    """Independent GL_n x GL_1 gamma: dual zeta integral over plain one,
    times tau(-1)^(n-1); compared against the closed form, which takes
    the same sign, computed once."""
    if not is_int(n):
        raise Unsupported(f"n must be an int, got {n!r}")
    if n < 2:
        raise Unsupported("need n >= 2")
    _check_tau(tau)
    check_domain(n - 1, level, cutoff)  # the x window is the SO y window of rank n - 1
    _check_gl_root(zeta, n)  # before any enumeration
    sign, predicted = _gl_closed(n, tau, zeta)
    # plain first, so that a plain shell error is raised ahead of a dual one
    plain, dual = (_integral(side, tau, zeta, n, level, cutoff, "brute-force") for side in ("plain", "dual"))
    if plain.is_zero():
        raise ZeroDenominator("JPSS plain integral vanished")
    computed = sign * dual / plain
    meta = {"p": tau.prime, "n": n, "level": level, "cutoff": cutoff}
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


class SupportPoint(Record):
    __slots__ = ("z", "y", "nonzero", "predicted")

    def __init__(self, z: Fraction, y: tuple, nonzero: bool, predicted: bool):
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "nonzero", nonzero)
        object.__setattr__(self, "predicted", predicted)


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
    y0 + p^e = p of the y window, so the scan checks the very classes the
    fast path values.  Each representative's membership is worked out
    once per window.

    The nonzero points are read off the record of the brute-force
    enumeration of the same (p, l, N, V, side), which values each
    point once: the record is stored with the buckets of the brute-force
    phi_eval or phi_star_eval, and built here on a miss.  A nonzero
    point on the padding shell is reported here, since the record is
    complete even where the buckets are a BoundaryNonvanishing."""
    check_prime(p)
    check_domain(ell, level, cutoff)
    if side not in _SIDES or _SIDES[side][1] != "SO":
        raise IntegralError(f"side must be phi or phi_star, got {side!r}")
    _check_t(t, ell, p)  # a checked input, which no value reads
    i, _, e, _ = _SIDES[side]
    nonzero_at: dict = {}  # z -> the y of its nonzero points
    for z, y in _entry(_side_buckets, side, p, 2 * ell + 1, level, cutoff, "brute-force")[1]:
        nonzero_at.setdefault(z, set()).add(y)
    z_class = tame_class(_z_windows(p, level, cutoff, "support-aware", i)[1][0][0], p)
    y0 = _y_windows(p, level, cutoff, "support-aware", e)[1][0][0]
    ys = [y for y, _ in _y_windows(p, level, cutoff, "brute-force", e)[1]]
    ys_in = [all(c) for c in itertools.product([rational_valuation(y - y0, p) >= e for y in ys], repeat=ell - 1)]
    points = []
    verdict = True
    for z, _ in _z_windows(p, level, cutoff, "brute-force", i)[1]:
        here = nonzero_at.get(z, ())
        z_in = tame_class(z, p) == z_class
        for y, y_in in zip(itertools.product(ys, repeat=ell - 1), ys_in):
            nonzero = y in here
            pred = z_in and y_in
            if nonzero != pred:
                verdict = False
            points.append(SupportPoint(z, y, nonzero, pred))
    return points, verdict
