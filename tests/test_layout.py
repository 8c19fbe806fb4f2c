"""The oracles in tests/oracles.py stay apart from the code they check,
and the package runs on the standard library alone.

An oracle that imported a private helper could quietly share the fast
path it is meant to check, and a copy of an oracle in src/ would be a
second production path.  Both are read off the source with ast, so the
check does not depend on what an import happens to execute.  sympy is a
test-side oracle only: importing it took most of `import ssgamma`.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

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
    assert {"whittaker_eval", "section_eval", "random_so_iplus"} <= oracle_names
    package_names = set()
    for path in sorted(PACKAGE.glob("*.py")):
        package_names |= top_level_definitions(parse(path))
    assert "coset_decompose" in package_names
    assert sorted(oracle_names & package_names) == []


def test_package_imports_no_heavy_dependency():
    code = "import sys, ssgamma, ssgamma.cli; print(sorted({'sympy', 'mpmath', 'numpy'} & set(sys.modules)))"
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
