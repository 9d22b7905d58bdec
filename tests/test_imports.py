"""The package's top-level names are all reached from the package itself.

Every top-level import is used by the module that makes it, and every
private top-level function, class and constant is referenced somewhere in
the package outside its own definition, so no helper is kept alive by
tests alone. Every defaulted parameter of a package function is given a
value by at least one call in the package, the tests, the demos or the
bench harness; one nothing sets is a constant. Importing the package itself
loads no numpy.

scipy has one import in the package: ``linear_sum_assignment``, inside the
exact solver ``exact_ot``. So ``import otconvert.cli`` loads no scipy, nor
does a ``knn`` or ``sinkvc`` convert, nor a Sinkhorn solve that relaxes
after its plain warm-up, whose relaxation bound is found by bisection, nor
the extremal NOT losses, whose sigmoid is numpy's ``expm1``. The runtime
checks run in subprocesses, because the test process has scipy loaded
already.
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


def _scipy_imports(node, function=None):
    """(enclosing function, module, names) of each scipy import under node, at any depth."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Import):
            yield from ((function, alias.name, ()) for alias in child.names
                        if alias.name.split(".")[0] == "scipy")
        elif isinstance(child, ast.ImportFrom) and (child.module or "").split(".")[0] == "scipy":
            yield function, child.module, tuple(alias.name for alias in child.names)
        named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        yield from _scipy_imports(child, child.name if named else function)


def test_scipy_is_imported_only_for_exact_ots_assignment():
    sites = [(path.name, *site) for path in MODULES
             for site in _scipy_imports(ast.parse(path.read_text(encoding="utf-8")))]
    assert sites == [("discrete.py", "exact_ot", "scipy.optimize", ("linear_sum_assignment",))]


_CONVERTS_WITHOUT_SCIPY = """
import json, sys
from otconvert import cli
assert 'scipy' not in sys.modules, 'import otconvert.cli loaded scipy'
import numpy as np
from otconvert.fileio import write_feature_file
out = sys.argv[1]
rng = np.random.default_rng(0)
write_feature_file(out + '/s.otf', rng.normal(size=(40, 8)))
write_feature_file(out + '/r.otf', rng.normal(size=(120, 8)))
for method in ('knn', 'sinkvc'):
    assert cli.entry(['convert', '--method', method, '--source', out + '/s.otf',
                      '--reference', out + '/r.otf', '--out', f'{out}/{method}.otf']) == 0
    assert 'scipy' not in sys.modules, method + ' loaded scipy'
with open(out + '/sinkvc.otf.report.json') as handle:
    iterations = json.load(handle)['plan_stats']['iterations_used']
assert iterations < 100, f'the solve ran past its warm-up ({iterations} iterations)'
"""


def test_cli_import_and_discrete_converts_load_no_scipy(tmp_path):
    proc = subprocess.run([sys.executable, "-c", _CONVERTS_WITHOUT_SCIPY, str(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("call, loads", [
    ("plan, _ = discrete.exact_ot(cost)\n"
     "assert plan.marginal_error < 1e-12\n", True),
    # 20 points at a sharp epsilon: the solve relaxes after its warm-up, and
    # its relaxation bound is bisected without scipy
    ("plan = discrete.sinkhorn(cost, cfg=discrete.SinkhornConfig(epsilon=0.005,"
     " max_iterations=300))\n"
     "assert plan.iterations_used > 100\n", False),
    # the extremal potential's sigmoid is e^f - 1, from its own value f
    ("from otconvert.neural import NotConfig, NotModelPair, not_loss_map,"
     " not_loss_potential\n"
     "from otconvert.nn import init_mlp\n"
     "rng = np.random.default_rng(3)\n"
     "pair = NotModelPair(init_mlp((2, 8, 2), rng), init_mlp((2, 8, 1), rng), True)\n"
     "cfg = NotConfig(extremal=True)\n"
     "for loss, grads in (not_loss_potential(pair, x, y, None, cfg),"
     " not_loss_map(pair, x, None, cfg)):\n"
     "    assert np.isfinite(loss) and np.isfinite(grads).all()\n", False),
], ids=["exact_ot", "relaxed_sinkhorn", "extremal_not_losses"])
def test_scipy_solvers_load_it_on_first_use(call, loads):
    code = ("import sys, warnings\n"
            "import numpy as np\n"
            "from otconvert import discrete\n"
            "warnings.simplefilter('ignore', discrete.ConvergenceWarning)\n"
            "x, y = np.random.default_rng(2).normal(size=(2, 20, 2))\n"
            "cost = discrete.cost_matrix(x, y)\n"
            "assert 'scipy' not in sys.modules\n"
            + call +
            f"assert ('scipy' in sys.modules) is {loads}\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


ROOT = PACKAGE.parents[1]
CALLERS = ("src", "tests", "demos", "perfbench")


def _defaulted_parameters(body, owner=None):
    """(callee name, parameter, positional index or None, line) per defaulted parameter.

    A class's ``__init__`` is called by the class name. A method's index
    leaves out ``self``, as a call through an attribute does.
    """
    for node in body:
        if isinstance(node, ast.ClassDef):
            yield from _defaulted_parameters(node.body, node.name)
        elif isinstance(node, ast.FunctionDef):
            args = node.args
            name = owner if owner and node.name == "__init__" else node.name
            bound = 1 if owner else 0  # the package has no static or class methods
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            for index in range(first, len(positional)):
                yield name, positional[index].arg, index - bound, node.lineno
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield name, arg.arg, None, node.lineno


def _calls_by_name():
    """Every call in the callers' sources, keyed by the called name or attribute."""
    calls = {}
    for top in CALLERS:
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                    calls.setdefault(name, []).append(node)
    return calls


def _passes(call, parameter, index):
    """Whether a call gives the parameter a value: by keyword, position or unpacking."""
    if any(keyword.arg in (None, parameter) for keyword in call.keywords):
        return True
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    return index is not None and len(call.args) > index


def test_every_defaulted_parameter_is_passed_by_some_call():
    """A parameter no call sets holds one value: it is a constant, not a knob."""
    calls = _calls_by_name()
    unset = [f"{path.name}:{line} {name}({parameter})"
             for path in MODULES
             for name, parameter, index, line in _defaulted_parameters(
                 ast.parse(path.read_text(encoding="utf-8")).body)
             if not any(_passes(call, parameter, index) for call in calls.get(name, ()))]
    assert not unset, unset
