import itertools
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from oracles import unfold_class
from ssgamma.integrals import _y_windows, _z_windows
from ssgamma.padic import INF, rational_valuation
from ssgamma.scalars import ExactScalar


def ES(p, c, h=0):
    return ExactScalar.from_coeff(p, c, q_half=h)


rationals = st.fractions(
    min_value=-1000, max_value=1000, max_denominator=1000
)


def test_valuation_basics():
    assert rational_valuation(Fraction(9), 3) == 2
    assert rational_valuation(Fraction(1, 9), 3) == -2
    assert rational_valuation(Fraction(10, 7), 5) == 1
    assert rational_valuation(Fraction(0), 5) == INF


# Run in a child, so that a valuation that never returns fails the test
# at its timeout instead of hanging the run.
BAD_PRIME_RUN = """
import ast, sys
from fractions import Fraction
from ssgamma.characters import psi_exponent, tame_class
from ssgamma.padic import rational_valuation

p = ast.literal_eval(sys.argv[1])
for fn in (rational_valuation, tame_class, psi_exponent):
    try:
        fn(Fraction(6, 5), p)
    except ValueError as e:
        print(fn.__name__, e)
    else:
        sys.exit(f"{fn.__name__} answered at p = {p!r}")
"""


@pytest.mark.parametrize("p", [1, True, -1])
def test_valuation_rejects_p_below_two(p):
    """Dividing out p never ends at p = 1, True or -1: rational_valuation
    raises ValueError there, and so do tame_class and psi_exponent, which
    call it.  One child process per p."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    child = [sys.executable, "-c", BAD_PRIME_RUN, repr(p)]
    try:
        out = subprocess.run(child, env=env, capture_output=True, text=True, timeout=30)
    except subprocess.TimeoutExpired:
        pytest.fail(f"rational_valuation did not return at p = {p!r} within 30 s")
    assert out.returncode == 0, out.stderr
    assert out.stdout.count(f"the valuation needs p >= 2, got {p!r}") == 3


@given(rationals, rationals)
def test_valuation_ultrametric(a, b):
    p = 5
    va, vb = rational_valuation(a, p), rational_valuation(b, p)
    vs = rational_valuation(a + b, p)
    assert vs >= min(va, vb)
    if va != vb:
        assert vs == min(va, vb)


# The integration windows of integrals.py are (weight, [(rep, on_shell)]):
# one exact measure weight for every class off the padding shell, and the
# class representatives.  A volume is the weight times a count of reps.
# A support-aware window is one class; unfold_class walks it as the
# brute-force classes it covers.


def window_volume(window, keep=lambda x, shell: not shell):
    weight, reps = window
    return weight * sum(1 for x, shell in reps if keep(x, shell))


def test_repset_units_example():
    # the one class 1 + p at p = 3 covers the classes of 1 + p^2 with
    # representatives {1, 4, 7}
    sa = _z_windows(3, 2, 1, "support-aware", 0)
    assert sa[1] == [(1, False)]
    _, zs = unfold_class(3, sa, _z_windows(3, 2, 1, "brute-force", 0), True)
    assert sorted(z for z, _ in zs) == [1, 4, 7]


def test_repset_volumes():
    p = 3
    ys = _y_windows(p, 2, 1, "brute-force")
    zs = _z_windows(p, 2, 1, "brute-force", 0)
    # vol(o) = q^(1/2) and vol(p) = q^(-1/2), read off the reps of the y window
    assert window_volume(ys, lambda y, shell: rational_valuation(y, p) >= 0) == ES(p, 1, 1)
    assert window_volume(ys, lambda y, shell: rational_valuation(y, p) >= 1) == ES(p, 1, -1)
    assert window_volume(_y_windows(p, 2, 1, "support-aware")) == ES(p, 1, -1)
    # vol(o^x) = 1 and vol(1 + p) = 1/(q - 1)
    assert window_volume(zs, lambda z, shell: rational_valuation(z, p) == 0) == ExactScalar.one(p)
    assert window_volume(_z_windows(p, 2, 1, "support-aware", 0)) == ES(p, Fraction(1, p - 1))


def assert_one_class(p, level, one_class, brute_force, multiplicative):
    """A support-aware window is one class, whose rep is a brute-force rep
    off the shell: scan_support reads the support lemma off that class.
    Its weight is the brute-force class weight times the p^(N-1)
    brute-force classes it covers, and is stored alike."""
    [(rep, shell)] = one_class[1]
    assert not shell and (rep, False) in brute_force[1]
    weight, reps = unfold_class(p, one_class, brute_force, multiplicative)
    assert len(reps) == p ** (level - 1)
    covered = weight * len(reps)
    assert one_class[0] == covered and one_class[0].to_records() == covered.to_records()


def test_repset_weights_sum_to_volume():
    for p, level, cutoff in itertools.product((3, 5, 7), (2, 3), (1, 2)):
        ys = _y_windows(p, level, cutoff, "brute-force")
        # p^(-V) o, and the padding shell of valuation exactly -(V+1)
        assert window_volume(ys) == ES(p, 1, 1 + 2 * cutoff)
        for y, shell in ys[1]:
            assert (rational_valuation(y, p) == -cutoff - 1) if shell else (rational_valuation(y, p) >= -cutoff)
        sa_ys = _y_windows(p, level, cutoff, "support-aware")
        assert window_volume(sa_ys) == ES(p, 1, -1)
        assert_one_class(p, level, sa_ys, ys, False)
        for i in (0, 1):
            zs = _z_windows(p, level, cutoff, "brute-force", i)
            # one unit of volume per valuation -V-1 .. V+1
            assert window_volume(zs, lambda z, shell: True) == ES(p, 2 * cutoff + 3)
            for z, shell in zs[1]:
                assert shell == (abs(rational_valuation(z, p)) > cutoff)
            sa = _z_windows(p, level, cutoff, "support-aware", i)
            assert window_volume(sa) == ES(p, Fraction(1, p - 1))
            assert_one_class(p, level, sa, zs, True)


def test_repset_counts():
    p, level, cutoff = 5, 2, 1
    yw = _y_windows(p, level, cutoff, "brute-force")
    zw = _z_windows(p, level, cutoff, "brute-force", 0)
    ys, zs = yw[1], zw[1]
    assert sum(1 for y, _ in ys if rational_valuation(y, p) >= 0) == 25  # o mod p^2
    assert sum(1 for y, shell in ys if not shell) == p ** (level + cutoff)
    assert sum(1 for y, shell in ys if shell) == p ** (level + cutoff + 1) - p ** (level + cutoff)
    assert sum(1 for z, _ in zs if rational_valuation(z, p) == 0) == 20  # o^x mod 1 + p^2
    assert len(zs) == (2 * cutoff + 3) * 20
    # the one support-aware class of each covers p^(N-1) of them
    assert len(unfold_class(p, _y_windows(p, level, cutoff, "support-aware"), yw, False)[1]) == p ** (level - 1)
    assert len(unfold_class(p, _z_windows(p, level, cutoff, "support-aware", 0), zw, True)[1]) == p ** (level - 1)
