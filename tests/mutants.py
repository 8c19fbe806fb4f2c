"""Named source mutants, each with the tests that must catch it.

Run from anywhere, with the test dependencies installed:

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # only the mutants named

A mutant is a patch to one file of the repository: its old text, which
must occur exactly once there, its new text, and the ids of the tests
that must fail once it is applied.  The script copies src/, tests/ and
pyproject.toml into a temporary directory, applies one patch at a time
there, runs only that mutant's tests, and reports the mutant as

    caught   every named test failed;
    missed   some named test passed;
    stale    the old text no longer occurs exactly once;
    broken   pytest ran no test (an id that no longer names one).

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
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
INTEGRALS = "src/ssgamma/integrals.py"
MATRICES = "src/ssgamma/matrices.py"


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
        "            counts = _point_counts(x, on_shell, ys, rank, value(x), record)\n",
        "            counts = _point_counts(x, on_shell, ys, rank, value(x), record)\n"
        "            if any(on for _, on in record.values()):\n"
        "                break\n",
        ("tests/test_integrals.py::test_brute_force_raises_on_a_nonzero_shell_point",),
    ),
    Mutant(
        "shell points left out of the record",
        INTEGRALS,
        "            record[(x, y)] = parts, on_shell or any(s for _, s in combo)\n",
        "            if not (on_shell or any(s for _, s in combo)):\n"
        "                record[(x, y)] = parts, False\n",
        (
            "tests/test_integrals.py::test_brute_force_raises_on_a_nonzero_shell_point",
            "tests/test_integrals.py::test_a_nonzero_shell_point_reaches_both_the_evaluator_and_the_scan",
        ),
    ),
    Mutant(
        "the error names the last shell point",
        INTEGRALS,
        "    first = next((point for point, (_, on) in record.items() if on), None)\n",
        "    first = next((point for point, (_, on) in reversed(record.items()) if on), None)\n",
        (
            "tests/test_integrals.py::test_brute_force_raises_on_a_nonzero_shell_point",
            "tests/test_integrals.py::test_jpss_raises_on_a_nonzero_shell_point",
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
        '    for z, y in _entry(_so_buckets, p, ell, level, cutoff, "brute-force", side, t)[1]:\n',
        '    for z, y in _so_buckets(p, ell, level, cutoff, "brute-force", side, t)[1]:\n',
        ("tests/test_kernel.py::test_support_scan_reads_the_brute_force_record",),
    ),
    Mutant(
        "y_k membership dropped from the prediction",
        INTEGRALS,
        "            pred = z_in and all(c in support_y for c in y)\n",
        "            pred = z_in\n",
        (
            "tests/test_integrals.py::test_scan_support_matches_predicate[phi]",
            "tests/test_integrals.py::test_scan_support_matches_predicate[phi_star]",
        ),
    ),
    # the support-aware windows and their measure
    Mutant(
        "support-aware z window off by one class",
        INTEGRALS,
        "(1 + p * Fraction(a)), False) for a in range(p ** (level - 1))]",
        "(1 + p * Fraction(a)), False) for a in range(1, p ** (level - 1))]",
        (
            "tests/test_integrals.py::test_scan_support_matches_predicate[phi]",
            "tests/test_padic.py::test_repset_units_example",
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
    # the JPSS GL sides
    Mutant(
        "the plain and dual entries swapped in jpss_gl_gamma",
        INTEGRALS,
        'for side in ("plain", "dual"))\n',
        'for side in ("dual", "plain"))\n',
        (
            "tests/test_integrals.py::test_jpss_n3",
            "tests/test_integrals.py::test_jpss_raises_on_a_nonzero_shell_point",
        ),
    ),
    Mutant(
        "the dual rows with ones on the superdiagonal",
        INTEGRALS,
        "        row[r + 1] = a\n",
        "        row[r + 1] = F1\n",
        (
            "tests/test_gl.py::test_dual_rows_equal_the_generic_product",
            "tests/test_gl.py::test_jpss_support_lemma[2-3]",
        ),
    ),
    Mutant(
        "the wrapped GL entries divided by z alone",
        MATRICES,
        "*[x / pz if x else x for x in row[:j]]",
        "*[x / z if x else x for x in row[:j]]",
        (
            "tests/test_gl.py::test_evaluator_matches_whittaker_eval_on_the_support",
            "tests/test_matrices.py::test_gl_rotation_is_the_product_with_the_inverse",
        ),
    ),
)


def occurrences(mutant: Mutant, root: Path = ROOT) -> int:
    """How many times the mutant's old text occurs in its file."""
    return (root / mutant.path).read_text().count(mutant.old)


def failed_ids(output: str) -> set:
    """The test ids that pytest's -rfE summary reports as failed or errored."""
    return set(re.findall(r"^(?:FAILED|ERROR) (\S+)", output, flags=re.MULTILINE))


def run(mutant: Mutant, copy: Path) -> str:
    """Apply the mutant in the copy, run its tests there, restore the file."""
    if occurrences(mutant, copy) != 1:
        return "stale"
    target = copy / mutant.path
    original = target.read_text()
    target.write_text(original.replace(mutant.old, mutant.new))
    try:
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        command = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *mutant.tests]
        out = subprocess.run(command, cwd=copy, env=env, capture_output=True, text=True)
    finally:
        target.write_text(original)
    if out.returncode not in (0, 1):
        return "broken"
    return "caught" if set(mutant.tests) <= failed_ids(out.stdout) else "missed"


def main(names) -> int:
    unknown = sorted(set(names) - {m.name for m in MUTANTS})
    if unknown:
        print(f"unknown mutants: {unknown}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m.name in names]
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", copy)
        verdicts = [(m, run(m, copy)) for m in chosen]
    for m, verdict in verdicts:
        print(f"{verdict:7}  {m.name}")
    caught = sum(verdict == "caught" for _, verdict in verdicts)
    print(f"{caught}/{len(verdicts)} caught")
    return 0 if caught == len(verdicts) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
