"""The package's top-level names are all reached from the package itself.

Every top-level import is used by the module that makes it, and every
private top-level function, class and constant is referenced somewhere in
the package outside its own definition, so no helper is kept alive by
tests alone. Importing the package itself loads no numpy.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "otconvert"
MODULES = sorted(PACKAGE.glob("*.py"))


def _unused_imports(tree):
    bound = {}  # name an import binds -> its line
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_top_level_import(path):
    unused = _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
    assert not unused, [f"{path.name}:{line} {name}" for line, name in unused]


def _private_definitions(statement):
    """Private (single-underscore) names a top-level statement defines."""
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        names = [statement.name]
    elif isinstance(statement, ast.Assign):
        names = [t.id for t in statement.targets if isinstance(t, ast.Name)]
    elif isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
        names = [statement.target.id]
    else:
        names = []
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def _references(statement):
    """Names a statement loads, directly or as an attribute."""
    found = set()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    return found


def test_every_private_name_is_referenced_in_the_package():
    statements = [(path.name, statement) for path in MODULES
                  for statement in ast.parse(path.read_text(encoding="utf-8")).body]
    unreferenced = []
    for home, definition in statements:
        for name in _private_definitions(definition):
            if not any(name in _references(statement)
                       for _, statement in statements if statement is not definition):
                unreferenced.append(f"{home}:{definition.lineno} {name}")
    assert not unreferenced, unreferenced


def test_package_import_loads_no_numpy():
    code = ("import sys, otconvert\n"
            "assert 'numpy' not in sys.modules, 'numpy loaded'\n"
            "from otconvert import discrete\n"
            "assert discrete.sinkhorn and 'numpy' in sys.modules\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
