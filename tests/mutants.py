"""Named source mutants, each with the tests that must catch it.

Run from anywhere, with the test dependencies installed:

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # only the mutants named

A mutant is a patch to one file of the repository: its old text, which
must occur exactly once there, its new text, and the ids of the tests
that must fail once it is applied.  The script runs WORKERS mutants at a
time.  Each mutant gets its own copy of src/, tests/ and pyproject.toml
in a temporary directory, its patch applied there, and only its tests
run.  The report lists the mutants in their order here, each as

    caught   every named test failed;
    missed     some named test passed;
    stale      the old text no longer occurs exactly once;
    broken     pytest ran no test (an id that no longer names one);
    timed out  its tests ran past TIMEOUT seconds (a mutant that spins).

It exits 1 unless every mutant is caught.  The working tree is never
written.  pytest does not collect this file (its name has no test_
prefix); tests/test_layout.py checks, without starting a process, that
each old text still occurs exactly once.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
INTEGRALS = "src/ssgamma/integrals.py"
MATRICES = "src/ssgamma/matrices.py"
PADIC = "src/ssgamma/padic.py"
RECORDS = "tests/test_records.py::test_records_keep_the_frozen_dataclass_interface"
TIMEOUT = 600  # seconds for one mutant's tests
WORKERS = 2  # mutants run at once, each in its own copy


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    tests: tuple  # pytest ids, relative to the repository root


MUTANTS = (
    # the brute-force point loop and its record
    Mutant(
        "enumeration stops after the first outer point with a shell point",
        INTEGRALS,
        "        passes = test(x)\n",
        "        if any(record.values()):\n"
        "            break\n"
        "        passes = test(x)\n",
        ("tests/test_integrals.py::test_brute_force_raises_on_a_nonzero_shell_point",),
    ),
    Mutant(
        "shell points left out of the record",
        INTEGRALS,
        "                record[(x, y)] = on_shell or y_on_shell\n",
        "                if not (on_shell or y_on_shell):\n"
        "                    record[(x, y)] = False\n",
        (
            "tests/test_integrals.py::test_brute_force_raises_on_a_nonzero_shell_point",
            "tests/test_integrals.py::test_a_nonzero_shell_point_reaches_both_the_evaluator_and_the_scan",
        ),
    ),
    Mutant(
        "the error names the last shell point",
        INTEGRALS,
        "    first = next((point for point, on in record.items() if on), None)\n",
        "    first = next((point for point, on in reversed(record.items()) if on), None)\n",
        (
            "tests/test_integrals.py::test_brute_force_raises_on_a_nonzero_shell_point",
            "tests/test_integrals.py::test_jpss_raises_on_a_nonzero_shell_point",
        ),
    ),
    Mutant(
        "a rejected inner point kept in the walk",
        INTEGRALS,
        "        if prepared is not None:\n",
        "        if True:\n",
        (
            "tests/test_kernel.py::test_the_walk_skips_rejected_inner_points",
            "tests/test_gl.py::test_gl_enumeration_inverts_nothing",
            "tests/test_gl.py::test_jpss_support_lemma[3-3]",
        ),
    ),
    Mutant(
        "the buckets returned despite a shell point",
        INTEGRALS,
        "    if first is not None:\n        return BoundaryNonvanishing",
        "    if False:\n        return BoundaryNonvanishing",
        (
            "tests/test_integrals.py::test_brute_force_raises_on_a_nonzero_shell_point",
            "tests/test_integrals.py::test_jpss_raises_on_a_nonzero_dual_point_with_only_x_on_the_shell",
        ),
    ),
    Mutant(
        "the stored shell error re-raised with every earlier traceback",
        INTEGRALS,
        "        raise buckets.with_traceback(None)\n",
        "        raise buckets\n",
        ("tests/test_integrals.py::test_brute_force_raises_on_a_nonzero_shell_point",),
    ),
    # the support scan
    Mutant(
        "the scan reads only whether a z has a nonzero point",
        INTEGRALS,
        "            nonzero = y in here\n",
        "            nonzero = bool(here)\n",
        (
            "tests/test_integrals.py::test_scan_support_matches_predicate[phi]",
            "tests/test_integrals.py::test_brute_force_raises_on_a_nonzero_point_with_only_y_on_the_shell",
        ),
    ),
    Mutant(
        "the scan builds its own uncached entry",
        INTEGRALS,
        '    for z, y in _entry(_so_buckets, p, ell, level, cutoff, "brute-force", side)[1]:\n',
        '    for z, y in _so_buckets(p, ell, level, cutoff, "brute-force", side)[1]:\n',
        ("tests/test_kernel.py::test_support_scan_reads_the_brute_force_record",),
    ),
    Mutant(
        "y_k membership dropped from the prediction",
        INTEGRALS,
        "            pred = z_in and y_in\n",
        "            pred = z_in\n",
        (
            "tests/test_integrals.py::test_scan_support_matches_predicate[phi]",
            "tests/test_integrals.py::test_scan_support_matches_predicate[phi_star]",
        ),
    ),
    Mutant(
        "the scan's z membership tested by valuation alone",
        INTEGRALS,
        "        z_in = tame_class(z, p) == z_class\n",
        "        z_in = tame_class(z, p)[0] == z_class[0]\n",
        (
            "tests/test_integrals.py::test_scan_support_matches_predicate[phi]",
            "tests/test_integrals.py::test_scan_support_matches_predicate[phi_star]",
        ),
    ),
    # the one-class support-aware windows and their measure
    Mutant(
        "support-aware z window off by one class",
        INTEGRALS,
        'if side == "phi_star" else F1, False)]',
        'if side == "phi_star" else F1 + 1, False)]',
        (
            "tests/test_integrals.py::test_scan_support_matches_predicate[phi]",
            "tests/test_padic.py::test_repset_units_example",
            "tests/test_kernel.py::test_bucket_assembly_matches_pointwise_sum[3-2-support-aware]",
        ),
    ),
    Mutant(
        "Phi*'s base point 1 instead of 1/p",
        INTEGRALS,
        '[(Fraction(1, p) if side == "phi_star" else F1, False)]',
        '[(F1 if side == "phi_star" else F1, False)]',
        (
            "tests/test_integrals.py::test_scan_support_matches_predicate[phi_star]",
            "tests/test_integrals.py::test_phi_star_value",
            "tests/test_kernel.py::test_bucket_assembly_matches_pointwise_sum[3-2-support-aware]",
        ),
    ),
    Mutant(
        "the z class weighed as one brute-force class",
        INTEGRALS,
        "        return ExactScalar.from_coeff(p, Fraction(1, p - 1)), [(",
        "        return ExactScalar.from_coeff(p, Fraction(1, (p - 1) * p ** (level - 1))), [(",
        (
            "tests/test_padic.py::test_repset_weights_sum_to_volume",
            "tests/test_integrals.py::test_phi_value[1-3-1]",
            "tests/test_kernel.py::test_bucket_assembly_matches_pointwise_sum[3-1-support-aware]",
        ),
    ),
    Mutant(
        "the y weight's q_half off by one",
        INTEGRALS,
        "    weight = ExactScalar.from_coeff(p, Fraction(1, p**level), q_half=1)\n",
        "    weight = ExactScalar.from_coeff(p, Fraction(1, p**level), q_half=2)\n",
        (
            "tests/test_padic.py::test_repset_volumes",
            "tests/test_integrals.py::test_jpss_n3",
        ),
    ),
    Mutant(
        "the folded y class weighed as one window class",
        INTEGRALS,
        "        return ExactScalar.from_coeff(p, F1, q_half=-1), [(F0, False)]\n",
        "        return ExactScalar.from_coeff(p, Fraction(1, p**level), q_half=1), [(F0, False)]\n",
        (
            "tests/test_kernel.py::test_bucket_assembly_matches_pointwise_sum[3-2-support-aware]",
            "tests/test_kernel.py::test_stress_sizes_meet_the_closed_forms[7-4]",
            "tests/test_padic.py::test_repset_weights_sum_to_volume",
        ),
    ),
    Mutant(
        "the y window folded in brute-force mode as well",
        INTEGRALS,
        '    if mode == "support-aware":\n        return ExactScalar.from_coeff(p, F1, q_half=-1)',
        "    if True:\n        return ExactScalar.from_coeff(p, F1, q_half=-1)",
        (
            "tests/test_kernel.py::test_bucket_assembly_matches_pointwise_sum[3-2-brute-force]",
            "tests/test_kernel.py::test_support_aware_enumeration_values_one_point_per_side[brute-force]",
            "tests/test_padic.py::test_repset_weights_sum_to_volume",
        ),
    ),
    # the JPSS GL sides
    Mutant(
        "the plain and dual entries swapped in jpss_gl_gamma",
        INTEGRALS,
        'for side in ("plain", "dual"))\n',
        'for side in ("dual", "plain"))\n',
        # no real JPSS gamma shows it: each side is one tame class, and the
        # swapped sections' q-powers undo the swapped weights
        (
            "tests/test_integrals.py::test_jpss_reads_each_side_from_its_own_entry",
            "tests/test_integrals.py::test_jpss_raises_on_a_nonzero_shell_point",
        ),
    ),
    Mutant(
        "the dual torus with a in its first entry only",
        INTEGRALS,
        "    count = n - 1 if dual else 1  # the entries of D that are a\n",
        "    count = 1  # the entries of D that are a\n",
        (
            "tests/test_gl.py::test_jpss_support_lemma[3-3]",
            "tests/test_gl.py::test_the_bottom_step_made_once_per_x_changes_no_point[3-3]",
            "tests/test_matrices.py::test_kernels_match_the_fraction_reference_on_the_brute_force_windows",
        ),
    ),
    Mutant(
        "the dual side's rows made at the first x only",
        INTEGRALS,
        "        rows = _gl_dual_rows(x, p) if dual else _unit_rows(n, range(n))\n",
        '        rows = prepare.__dict__.setdefault("rows", _gl_dual_rows(x, p) if dual else _unit_rows(n, range(n)))\n',
        (
            "tests/test_gl.py::test_the_bottom_step_made_once_per_x_changes_no_point[3-5]",
            "tests/test_gl.py::test_gl_buckets_are_pinned[3-5-240ec5d98bb77f8f93ed17dd3e5c43cad6e1009e48d73ae2ee335ddc721c013c]",
        ),
    ),
    Mutant(
        "the plain side's rows used on the dual side",
        INTEGRALS,
        "_gl_dual_rows(x, p) if dual else _unit_rows(n, range(n))\n",
        "_unit_rows(n, range(n))\n",
        (
            "tests/test_gl.py::test_the_bottom_step_made_once_per_x_changes_no_point[3-5]",
            "tests/test_gl.py::test_gl_buckets_are_pinned[3-5-240ec5d98bb77f8f93ed17dd3e5c43cad6e1009e48d73ae2ee335ddc721c013c]",
        ),
    ),
    Mutant(
        "a dual x of valuation -1 accepted",
        INTEGRALS,
        "        return None if coset_decompose_gl(rows, F1, p, count) is None else rows[:count]\n",
        "        return rows[:count]\n",
        (
            "tests/test_gl.py::test_jpss_support_lemma[3-3]",
            "tests/test_gl.py::test_gl_buckets_are_pinned[3-5-240ec5d98bb77f8f93ed17dd3e5c43cad6e1009e48d73ae2ee335ddc721c013c]",
            "tests/test_matrices.py::test_kernels_match_the_fraction_reference_on_the_brute_force_windows",
        ),
    ),
    Mutant(
        "the dual rows written at j = 0",
        INTEGRALS,
        "    bottom = [0] + [-p * c.numerator * (lcd // c.denominator) for c in reversed(x)] + [lcd]\n"
        "    return [([0] * r + [p] + [0] * (n - 1 - r), 1) for r in range(n - 1)] + [(bottom, lcd)]\n",
        "    bottom = [lcd, 0] + [-c.numerator * (lcd // c.denominator) for c in reversed(x)]\n"
        "    return [([0] * (r + 1) + [1] + [0] * (n - 2 - r), 1) for r in range(n - 1)] + [(bottom, lcd)]\n",
        (
            "tests/test_gl.py::test_dual_rows_equal_the_generic_product",
            "tests/test_gl.py::test_jpss_support_lemma[3-3]",
            "tests/test_integrals.py::test_jpss_n3",
        ),
    ),
    # Phi* valued as Phi at (p z, -y), assembled times zeta^1, and the SO row test
    Mutant(
        "Phi* valued at z instead of p z",
        INTEGRALS,
        "so_torus(p * z if star else z,",
        "so_torus(z if star else z,",
        (
            "tests/test_integrals.py::test_phi_star_value",
            "tests/test_kernel.py::test_so_buckets_are_pinned[5-3-None-phi_star-726f88a12d53fd7450175b7cc79ca714b0a9ac39fb6c2ad08559b284bcb3e326]",
            "tests/test_matrices.py::test_kernels_match_the_fraction_reference_on_the_brute_force_windows",
        ),
    ),
    Mutant(
        "Phi* valued at +y",
        INTEGRALS,
        "        lambda y: _so_rows(tuple(-c for c in y) if star else y),\n",
        "        lambda y: _so_rows(y),\n",
        # no value changes: y_k z is in p exactly when -y_k z is, so only the
        # rows the row test returns show it
        ("tests/test_matrices.py::test_kernels_match_the_fraction_reference_on_the_brute_force_windows",),
    ),
    Mutant(
        "the SO rows tested without the torus",
        MATRICES,
        "        row = [x * e for x, e in zip(nums, dn)], den * dd\n",
        "        row = nums, den\n",
        # the support-aware pins pass: their one point has the torus h(1)
        (
            "tests/test_matrices.py::test_so_kernel_matches_the_fraction_reference",
            "tests/test_integrals.py::test_scan_support_matches_predicate[phi]",
            "tests/test_kernel.py::test_evaluator_matches_whittaker_eval",
        ),
    ),
    Mutant(
        "Phi* assembled without zeta",
        INTEGRALS,
        "    return total * cfg.zeta if star else total\n",
        "    return total\n",
        (
            "tests/test_integrals.py::test_phi_star_value",
            "tests/test_integrals.py::test_gamma_trivial_tau",
            "tests/test_integrals.py::test_b1_star_is_minus_one[3]",
            "tests/test_kernel.py::test_bucket_assembly_matches_pointwise_sum[3-1-support-aware]",
        ),
    ),
    Mutant(
        "zeta applied to the plain side, not the dual",
        INTEGRALS,
        "    plain = _bucket_sum(plain, p, lambda a: _section(tau, a, n - 1, 1))\n"
        "    dual = _bucket_sum(dual, p, lambda a: _section(tau_inv, a, n - 3, -1)) * zeta  # W is zeta^1 there\n",
        "    plain = _bucket_sum(plain, p, lambda a: _section(tau, a, n - 1, 1)) * zeta\n"
        "    dual = _bucket_sum(dual, p, lambda a: _section(tau_inv, a, n - 3, -1))\n",
        # zeta = 1 / zeta at n = 2, so only n >= 3 shows it
        (
            "tests/test_integrals.py::test_jpss_n3",
            "tests/test_integrals.py::test_jpss_reads_each_side_from_its_own_entry",
            "tests/test_integrals.py::test_jpss_matches_closed_form_at_n_4_and_p_5[4-3]",
        ),
    ),
    # the affine character's g_chi invariance
    Mutant(
        "t_(l+1) = t_1 mod p no longer checked",
        INTEGRALS,
        "    if rational_valuation(t[ell] - t[0], p) < 1:\n",
        "    if False:\n",
        (
            "tests/test_integrals.py::test_t_off_the_family_is_rejected[3-t0]",
            "tests/test_integrals.py::test_t_off_the_family_is_rejected[5-t1]",
        ),
    ),
    # the I+ test, and the row tests that run it
    Mutant(
        "the diagonal only integral, not in 1 + p",
        MATRICES,
        "    if (nums[r] - den) % qp:\n",
        "    if nums[r] % q:\n",
        (
            "tests/test_matrices.py::test_in_iplus_is_the_valuation_definition",
            "tests/test_matrices.py::test_kernels_match_the_fraction_reference_on_the_brute_force_windows",
            "tests/test_integrals.py::test_scan_support_matches_predicate[phi]",
            "tests/test_kernel.py::test_evaluator_matches_whittaker_eval",
        ),
    ),
    Mutant(
        "the entries left of the diagonal tested mod p^e, not p^(e+1): only integral, not in p",
        MATRICES,
        "        if x % qp:\n",
        "        if x % q:\n",
        (
            "tests/test_matrices.py::test_in_iplus_is_the_valuation_definition",
            "tests/test_integrals.py::test_scan_support_matches_predicate[phi]",
        ),
    ),
    Mutant(
        "the entries right of the diagonal not tested",
        MATRICES,
        "        for x in nums[r + 1 :]:\n",
        "        for x in nums[r + 1 : r + 1]:\n",
        ("tests/test_matrices.py::test_in_iplus_is_the_valuation_definition",),
    ),
    Mutant(
        "an SO row outside I+ kept",
        MATRICES,
        "        row = [x * e for x, e in zip(nums, dn)], den * dd\n        if not row_in_iplus(r, row, p):\n            return None\n",
        "        row = [x * e for x, e in zip(nums, dn)], den * dd\n",
        (
            "tests/test_matrices.py::test_coset_decompose_rejects_outside",
            "tests/test_matrices.py::test_so_kernel_matches_the_fraction_reference",
            "tests/test_integrals.py::test_scan_support_matches_predicate[phi]",
        ),
    ),
    Mutant(
        "a GL row outside I+ kept",
        MATRICES,
        "        row = [x * dn for x in nums], den * dd\n        if not row_in_iplus(r, row, p):\n            return None\n",
        "        row = [x * dn for x in nums], den * dd\n",
        (
            "tests/test_matrices.py::test_gl_kernel_matches_the_fraction_reference",
            "tests/test_gl.py::test_jpss_support_lemma[3-3]",
        ),
    ),
    # the tame-class merge, the sections and the sign
    Mutant(
        "a bucket keyed by the last x of its class",
        INTEGRALS,
        "            hit[0] = min(hit[0], x)\n",
        "            hit[0] = x\n",
        (
            "tests/test_kernel.py::test_tame_class_merge_keeps_every_tame_sum",
            "tests/test_gl.py::test_gl_buckets_are_pinned[3-5-240ec5d98bb77f8f93ed17dd3e5c43cad6e1009e48d73ae2ee335ddc721c013c]",
        ),
    ),
    Mutant(
        "the Phi* section taken at 1/z, as if b_1^* were 1",
        INTEGRALS,
        "FM1 / z if star else z",
        "F1 / z if star else z",
        (
            "tests/test_integrals.py::test_b1_star_is_minus_one[3]",
            "tests/test_kernel.py::test_bucket_assembly_matches_pointwise_sum[3-2-brute-force]",
        ),
    ),
    Mutant(
        "the JPSS dual section at q^((n-1) v/2)",
        INTEGRALS,
        "_section(tau_inv, a, n - 3, -1)",
        "_section(tau_inv, a, n - 1, -1)",
        (
            "tests/test_integrals.py::test_jpss_matches_closed_form",
            "tests/test_integrals.py::test_jpss_n3",
            "tests/test_integrals.py::test_match_so_gl_symbolic_and_computed",
        ),
    ),
    Mutant(
        "the sign test reads only a zeta stored at order 1",
        INTEGRALS,
        "(zeta.is_rational() if isinstance(zeta, CyclotomicNumber) else zeta)",
        "((zeta.coeffs.get(0) if zeta.order == 1 else None) if isinstance(zeta, CyclotomicNumber) else zeta)",
        (
            "tests/test_integrals.py::test_an_int_zeta_is_the_sign_it_names[one_at_order_3]",
            "tests/test_integrals.py::test_an_int_zeta_is_the_sign_it_names[minus_one_at_order_4]",
            "tests/test_integrals.py::test_an_int_zeta_is_the_sign_it_names[one_at_order_6]",
        ),
    ),
    # the records
    Mutant(
        "GammaResult equality reads metadata",
        INTEGRALS,
        'class GammaResult(Record, compared=("computed", "predicted", "matches")):\n',
        "class GammaResult(Record):\n",
        (RECORDS,),
    ),
    Mutant(
        "a record field can be assigned after construction",
        PADIC,
        "    def __setattr__(self, name, *value):\n",
        "    def __setattr__(self, name, *value):\n"
        "        if value and name in self.__slots__:\n"
        "            return object.__setattr__(self, name, *value)\n",
        (RECORDS,),
    ),
    Mutant(
        "IntegralConfig stores t as given, not through _check_t",
        INTEGRALS,
        '        object.__setattr__(self, "t", _check_t(t, ell, prime))\n',
        "        _check_t(t, ell, prime)\n"
        '        object.__setattr__(self, "t", t)\n',
        (RECORDS,),
    ),
)


def occurrences(mutant: Mutant, root: Path = ROOT) -> int:
    """How many times the mutant's old text occurs in its file."""
    return (root / mutant.path).read_text().count(mutant.old)


def failed_ids(output: str) -> set:
    """The test ids that pytest's -rfE summary reports as failed or errored."""
    return set(re.findall(r"^(?:FAILED|ERROR) (\S+)", output, flags=re.MULTILINE))


def run(mutant: Mutant) -> str:
    """Copy the tree, apply the mutant in the copy and run its tests there."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", copy)
        if occurrences(mutant, copy) != 1:
            return "stale"
        target = copy / mutant.path
        target.write_text(target.read_text().replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        command = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *mutant.tests]
        try:
            out = subprocess.run(command, cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return "timed out"
    if out.returncode not in (0, 1):
        return "broken"
    return "caught" if set(mutant.tests) <= failed_ids(out.stdout) else "missed"


def main(names) -> int:
    unknown = sorted(set(names) - {m.name for m in MUTANTS})
    if unknown:
        print(f"unknown mutants: {unknown}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m.name in names]
    with ThreadPoolExecutor(max_workers=WORKERS) as pool:
        verdicts = list(zip(chosen, pool.map(run, chosen)))
    for m, verdict in verdicts:
        print(f"{verdict:9}  {m.name}")
    caught = sum(verdict == "caught" for _, verdict in verdicts)
    print(f"{caught}/{len(verdicts)} caught")
    return 0 if caught == len(verdicts) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
