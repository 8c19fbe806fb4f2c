"""The oracles in tests/oracles.py stay apart from the code they check,
the package runs on the standard library alone, and every function in
it is reached from an entry point.

An oracle that imported a private helper could quietly share the fast
path it is meant to check, and a copy of an oracle in src/ would be a
second production path.  Both are read off the source with ast, so the
check does not depend on what an import happens to execute.  So is
scan_support, which must name neither the row builder nor the row test:
it reads the brute-force enumeration's record and values no point
itself.  So are the imports of the I+ tests: integrals.py imports none,
so no box test runs beside the per-point row tests of matrices.py, and
oracles.py imports neither, so its in_iplus stays apart from the
package's row test.  So is the oracle whittaker_eval, which must name
neither package row test, and oracles.py imports neither: it factors
with the oracle's own Fraction solvers, so a bug cannot hide in both
sides of a comparison.
sympy is a test-side oracle only: importing it took most of `import
ssgamma`.  Nor is dataclasses imported, which loads inspect with it: the
records are plain classes over padic.Record.

tests/mutants.py patches the package by exact text, so each of its
mutants is checked here to still apply: its old text occurs exactly
once in its file, and each test id it names is a test function of the
file it names.  That check reads the files and starts no process.

Code that only tests reach is either an oracle, kept in tests/oracles.py
on purpose, or dead.  One run of small instances of the CLI commands and
library entry points under sys.settrace (REACH_RUN) records the package
functions they call and the lines they execute.
test_every_package_function_is_reached fails on a package function none
of them calls, unless REACH_ALLOWED names it with a reason.
test_every_package_statement_is_executed fails on a statement of a
called function that none of them executes, unless LINES_ALLOWED names
it with a reason; raise statements are left out, as are module-level
and class-body lines, which run on import.
"""

import ast
import json
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import mutants

ROOT = Path(__file__).resolve().parents[1]
ORACLES = ROOT / "tests" / "oracles.py"
PACKAGE = ROOT / "src" / "ssgamma"


def top_level_definitions(tree):
    """Names bound at module level by def, class or assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return names


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_oracles_import_only_public_package_names():
    imported = []
    for node in ast.walk(parse(ORACLES)):
        if isinstance(node, ast.Import):
            # a bare `import ssgamma...` would reach private names by attribute
            assert not any(a.name.split(".")[0] == "ssgamma" for a in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ssgamma":
            assert not any(part.startswith("_") for part in node.module.split(".")), node.module
            imported += [(node.module, a.name) for a in node.names]
    assert imported
    private = [f"{module}.{name}" for module, name in imported if name.startswith("_") or name == "*"]
    assert private == []


def test_no_oracle_name_is_defined_in_the_package():
    oracle_names = top_level_definitions(parse(ORACLES))
    required = {
        "whittaker_eval",
        "section_eval",
        "in_iplus",
        "random_so_iplus",
        "EisensteinElement",
        "iota_embed",
        "pi_e",
        # the dense matrix engine, which no production path needs
        "GroupMatrix",
        "so_check",
        "g_chi_so",
        "g_chi_gl",
    }
    assert required <= oracle_names
    package_names = set()
    for path in sorted(PACKAGE.glob("*.py")):
        package_names |= top_level_definitions(parse(path))
    assert "coset_decompose" in package_names
    assert sorted(oracle_names & package_names) == []


def test_scan_support_values_no_point_itself():
    """scan_support reads the nonzero points off the record of the
    brute-force enumeration (_so_buckets).  A reference in it to the
    row builder or the row test would be a second point loop."""
    tree = parse(PACKAGE / "integrals.py")
    scan = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "scan_support")
    names = set()
    for node in ast.walk(scan):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    assert "_so_buckets" in names
    assert sorted(names & {"_so_rows", "coset_decompose"}) == []


def test_the_oracle_whittaker_eval_names_no_package_solver():
    tree = parse(ORACLES)
    oracle = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "whittaker_eval")
    names = {node.id for node in ast.walk(oracle) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(oracle) if isinstance(node, ast.Attribute)}
    assert {"reference_coset_decompose", "reference_coset_decompose_gl"} <= names
    assert sorted(names & {"coset_decompose", "coset_decompose_gl"}) == []
    assert sorted(imported_names(ORACLES) & {"coset_decompose", "coset_decompose_gl"}) == []


def imported_names(path):
    """Every name a from-import in the file binds, at any depth."""
    return {a.name for node in ast.walk(parse(path)) if isinstance(node, ast.ImportFrom) for a in node.names}


def test_i_plus_tests_stay_out_of_integrals_and_the_oracle():
    """integrals.py values every point with the per-point row tests of
    matrices.py (coset_decompose, coset_decompose_gl), which run the one
    I+ row test: an import of an I+ test there would be a box test beside
    them.  The oracle's in_iplus is read off valuations, so that the
    package's row test is checked against a test that shares no code
    with it."""
    assert sorted(imported_names(PACKAGE / "integrals.py") & {"in_iplus", "row_in_iplus"}) == []
    assert sorted(imported_names(ORACLES) & {"in_iplus", "row_in_iplus"}) == []


def test_every_mutant_still_applies():
    """A mutant whose old text moved, or occurs twice, would test nothing,
    or the wrong place; each names at least one test that must catch it.
    A test id that names no test function of its file (a [param] suffix
    aside), say after a rename, would otherwise show only as "broken" in
    a full run of tests/mutants.py."""
    assert [m.name for m in mutants.MUTANTS if mutants.occurrences(m) != 1] == []
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)
    assert all(m.tests and m.old != m.new for m in mutants.MUTANTS)
    functions = {}
    unknown = []
    for test_id in sorted({t for m in mutants.MUTANTS for t in m.tests}):
        path, _, name = test_id.partition("::")
        if path not in functions:
            tree = parse(ROOT / path) if (ROOT / path).is_file() else ast.Module(body=[], type_ignores=[])
            functions[path] = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
        if name.split("[")[0] not in functions[path]:
            unknown.append(test_id)
    assert unknown == []


def test_package_imports_no_heavy_dependency():
    heavy = "{'sympy', 'mpmath', 'numpy', 'dataclasses', 'inspect'}"
    code = f"import sys, ssgamma, ssgamma.cli; print(sorted({heavy} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_no_package_file_imports_sympy():
    importers = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] == "sympy" for m in modules):
                importers.append(path.name)
    assert importers == []


# Run in a fresh interpreter, so no earlier test has warmed a cache or
# called a function.  Prints the (file, first line) of every code object
# of the package that received a call, and the (file, line) of every
# line of the package that ran.  JPSS results are rendered as the bench
# renders them, and gamma-so writes one --output file to a temporary
# directory.
REACH_RUN = """
import contextlib, io, json, os, sys, tempfile
from pathlib import Path

import ssgamma
from ssgamma import cli
from ssgamma.characters import TameCharacter
from ssgamma.cyclotomic import CyclotomicNumber
from ssgamma.integrals import IntegralConfig, gamma_so, jpss_gl_gamma, match_so_gl
from ssgamma.scalars import ExactScalar

package = str(Path(ssgamma.__file__).resolve().parent)
codes = set()
lines = set()


def local(frame, event, arg):
    if event == "line":
        lines.add((frame.f_code.co_filename, frame.f_lineno))
    return local


def trace(frame, event, arg):
    if not frame.f_code.co_filename.startswith(package):
        return None
    codes.add(frame.f_code)
    return local


tau = TameCharacter(3, 1, ExactScalar.from_coeff(3, -1))
# tau(pi) = 1 + zeta_3 is stored with two terms, so inverting it runs the
# elimination that one-term inverses skip
tau_two_terms = TameCharacter(3, 1, ExactScalar.from_coeff(3, CyclotomicNumber(3, {0: 1, 1: 1})))
minus_one = CyclotomicNumber.from_rational(-1)
out_dir = tempfile.TemporaryDirectory()
os.environ["SSGAMMA_OUTPUT_DIR"] = out_dir.name
sys.settrace(trace)
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for argv in (
        ["gamma-so", "--p", "3", "--ell", "2", "--zeta", "-1", "--tau-j", "1", "--tau-pi", "-1"],
        ["gamma-so", "--p", "3", "--ell", "2", "--zeta", "1", "--mode", "brute"],
        ["gamma-so", "--p", "3", "--ell", "1", "--zeta", "1", "--output", "gamma.json"],
        ["table", "--p", "3", "--ell", "1,2"],
        ["scan-support", "--p", "3", "--ell", "2", "--side", "phi"],
        ["scan-support", "--p", "3", "--ell", "2", "--side", "phi-star"],
        ["param", "--p", "5", "--ell", "2"],
        ["param", "--p", "5", "--ell", "2", "--zeta", "2"],  # a config error, exit 3
    ):
        cli.main(argv)
    for res in (
        jpss_gl_gamma(3, tau, CyclotomicNumber.root_of_unity(3, 1), level=2, cutoff=1),
        jpss_gl_gamma(2, tau_two_terms, minus_one, level=2, cutoff=1),
    ):
        cli.scalar_str(res.computed), res.computed.to_records()
    match_so_gl(1, tau, minus_one)
    match_so_gl(1, tau, minus_one, cfg=IntegralConfig(3, 1, minus_one, tau, level=2, cutoff=1))
    # the default tau(pi) = 1, and affine parameters t in the family
    gamma_so(IntegralConfig(3, 1, minus_one, TameCharacter(3, 0), level=2, cutoff=1, t=(1, 4)))
sys.settrace(None)
out_dir.cleanup()
called = {(Path(c.co_filename).name, c.co_firstlineno) for c in codes}
ran = {(Path(name).name, line) for name, line in lines}
print(json.dumps({"called": sorted(called), "lines": sorted(ran)}))
"""


@lru_cache(maxsize=None)
def reach_run():
    """(called, lines) of one run of REACH_RUN: the (file name, first
    line) of each package function it called, and the (file name, line)
    of each package line it ran."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", REACH_RUN], env=env, capture_output=True, text=True, check=True)
    doc = json.loads(out.stdout)
    return {tuple(key) for key in doc["called"]}, {tuple(key) for key in doc["lines"]}


# Package functions no entry point above calls, each kept for a reason.
REACH_ALLOWED = {
    # a bench tracer target, and the psi tests/oracles.py evaluates
    "characters.psi_eval",
    # only psi_eval, a bench tracer target, calls it
    "characters.psi_exponent",
    # a bench tracer target
    "matrices.mat_inv",
    # the rest of the ring interface of the two scalar types
    "cyclotomic.CyclotomicNumber.__add__",
    "cyclotomic.CyclotomicNumber.__neg__",
    "cyclotomic.CyclotomicNumber.__repr__",
    "cyclotomic.CyclotomicNumber.__rsub__",
    "cyclotomic.CyclotomicNumber.__sub__",
    "cyclotomic.CyclotomicNumber.zero",
    "scalars.ExactScalar.__neg__",
    "scalars.ExactScalar.__repr__",
    "scalars.ExactScalar.__sub__",
    # the record interface, pinned by test_records.py::test_records_keep_the_frozen_dataclass_interface
    "padic.Record.__hash__",
    "padic.Record.__reduce__",
    "padic.Record.__repr__",
    "padic.Record.__setattr__",
    # runs on import, as each record class is made, before any entry point
    "padic.Record.__init_subclass__",
}

# Statements of called package functions that no entry point above
# executes, each kept for a reason: ring interface, or the test that
# keeps it (an error or mismatch path that no valid input takes).  An
# entry (function, text fragment) covers each unexecuted statement of
# the function whose first line holds the fragment, or that sits in a
# block (an except clause included) whose first line does.
RING = "ring interface"
LINES_ALLOWED = {
    ("cli.cmd_gamma_so", "except BoundaryNonvanishing"): "test_cli.py::test_gamma_so_brute_reports_a_nonzero_shell_point",
    ("cli.cmd_table", "except IntegralError"): "test_cli.py::test_table_reports_a_failing_cell",
    ("cli.cmd_table", "if not match:"): "test_cli.py::test_table_reports_a_failing_cell",
    ("cli.main", "except (IntegralError"): "test_cli.py::test_library_errors_exit_2_without_a_traceback",
    ("cli.scalar_str", 'return "0"'): "test_cli.py::test_scalar_str_renders_zero",
    ("integrals._enumerate", "return BoundaryNonvanishing"): "test_integrals.py::test_brute_force_raises_on_a_nonzero_shell_point",
    ("integrals.match_so_gl", "return False"): "test_integrals.py::test_match_so_gl_is_false_when_the_closed_forms_differ",
    ("integrals.scan_support", "verdict = False"): "test_integrals.py::test_scan_support_detects_wrong_predicate",
    ("matrices.row_in_iplus", "if x % q:"): "test_matrices.py::test_in_iplus_is_the_valuation_definition",
    ("padic.Record.__eq__", "return NotImplemented"): "test_records.py::test_records_keep_the_frozen_dataclass_interface",
    ("cyclotomic.CyclotomicNumber.__pow__", "if n < 0:"): RING,
    ("cyclotomic.CyclotomicNumber.__pow__", "if n == 1:"): RING,
    ("cyclotomic.CyclotomicNumber.__eq__", "other = CyclotomicNumber.from_rational(other)"): RING,
    ("cyclotomic.CyclotomicNumber.__eq__", "return NotImplemented"): RING,
    ("scalars.ExactScalar.__init__", "if prev is not None:"): RING,
    ("scalars.ExactScalar.__init__", "for key in merged:"): RING,
    ("scalars.ExactScalar.__eq__", "other = self._coerce(other)"): RING,
    ("scalars.ExactScalar.__eq__", "return NotImplemented"): RING,
    ("scalars.ExactScalar.__eq__", "return False"): RING,
}


def package_functions():
    """{(file name, first line): "module.qualname"} for every def in the
    package.  The first line is that of the first decorator, as in
    code.co_firstlineno."""
    out = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                out[(path.name, first)] = f"{path.stem}.{prefix}{child.name}"
                visit(child, path, f"{prefix}{child.name}.<locals>.")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(parse(path), path, "")
    return out


def package_statements():
    """[(file name, own lines, "module.qualname", heads)] for every
    statement in the body of a package function, but raise and try
    statements, docstrings, and nested defs, whose bodies are walked as
    functions of their own.  The own lines of a statement are those
    before its body, all of them for a simple statement; heads holds the
    first line of the statement and of each block around it in its
    function, an except clause's included."""
    out = []

    def walk(body, path, text, qual, heads):
        for node in body:
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str):
                continue  # a docstring
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(node.body, path, text, f"{qual}.<locals>.{node.name}", [])
                continue
            here = heads + [text[node.lineno - 1].strip()]
            nested = getattr(node, "body", None)
            end = nested[0].lineno - 1 if isinstance(nested, list) and nested else node.end_lineno
            if not isinstance(node, (ast.Raise, ast.Try)):
                out.append((path.name, range(node.lineno, end + 1), qual, here))
            for field in ("body", "orelse", "finalbody"):
                walk(getattr(node, field, None) or [], path, text, qual, here)
            for handler in getattr(node, "handlers", None) or []:
                walk(handler.body, path, text, qual, here + [text[handler.lineno - 1].strip()])

    def visit(node, path, text, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, path, text, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(child.body, path, text, f"{path.stem}.{prefix}{child.name}", [])

    for path in sorted(PACKAGE.glob("*.py")):
        visit(parse(path), path, path.read_text().splitlines(), "")
    return out


def test_every_package_function_is_reached():
    called, _ = reach_run()
    functions = package_functions()
    unreached = {name for key, name in functions.items() if key not in called}
    assert sorted(unreached - REACH_ALLOWED) == []
    # an allowed name that is now reached, or gone, leaves the list
    assert sorted(REACH_ALLOWED - unreached) == []


def test_every_package_statement_is_executed():
    """A failure lists each statement no entry point executes as
    "file:line function: its first line".  Either an entry point should
    run it (a REACH_RUN input that production meets), or it is dead and
    goes, or LINES_ALLOWED names it with its reason.  The one REACH_RUN
    takes about 0.25 s on a 2-core machine; the line tracer makes the
    entry points about twice as slow."""
    _, lines = reach_run()
    used = set()
    unexplained = []
    for name, own, qual, heads in package_statements():
        if qual in REACH_ALLOWED or any((name, line) in lines for line in own):
            continue
        keys = {key for key in LINES_ALLOWED if key[0] == qual and any(key[1] in head for head in heads)}
        used |= keys
        if not keys:
            unexplained.append(f"{name}:{own[0]} {qual}: {heads[-1]}")
    assert unexplained == []
    # an entry whose statements now run, or are gone, leaves the list
    assert sorted(set(LINES_ALLOWED) - used) == []
    # and each test named as a reason is a test function of its file
    for reason in sorted(set(LINES_ALLOWED.values()) - {RING}):
        path, _, name = reason.partition("::")
        assert name in {node.name for node in parse(ROOT / "tests" / path).body if isinstance(node, ast.FunctionDef)}, reason
