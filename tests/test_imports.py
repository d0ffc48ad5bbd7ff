"""Every name a `cmlab` module imports is used in it or re-exported,
every import is at module level, and no module imports a scipy
subpackage at import time.

Stand-ins for a linter's unused-import and import-position rules: they
parse each module with `ast`, so they need nothing beyond the standard
library.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "cmlab"


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no other node of the module
    reads and that `__all__` does not list."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_a_stray_import_is_found():
    source = ("from __future__ import annotations\n"
              "import json\nfrom .rng import derive_rng, derive_seed\n"
              "__all__ = ['derive_seed']\nderive_rng(0)\n")
    assert unused_imports(source) == ["json (line 2)"]


def nested_imports(source: str) -> list[str]:
    """Import statements that are not at the top level of the module,
    e.g. inside a function, class or `if` block."""
    tree = ast.parse(source)
    top = {id(node) for node in tree.body}
    return [f"line {node.lineno}" for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and id(node) not in top]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_imports_are_at_module_level(path):
    assert nested_imports(path.read_text()) == []


def test_a_nested_import_is_found():
    source = ("import json\n"
              "def f():\n    from .rng import derive_rng\n    return 1\n"
              "if json:\n    import os\n")
    assert nested_imports(source) == ["line 3", "line 6"]


def scipy_submodule_imports(source: str) -> list[str]:
    """Import statements that load a scipy subpackage when the module is
    imported: `import scipy.<sub>`, `from scipy.<sub> import ...` and
    `from scipy import <sub>`.  `import scipy` alone loads none, and scipy
    imports `scipy.<sub>` on its first attribute access."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [f"{node.module}."]
        else:
            continue
        if any(name.startswith("scipy.") for name in names):
            lines.add(node.lineno)
    return [f"line {n}" for n in sorted(lines)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_scipy_subpackages_load_on_first_use(path):
    # integrate, special and linalg are slow and large to import, and
    # criteria 1-4, 7 and 9 call none of them
    assert scipy_submodule_imports(path.read_text()) == []


def test_an_eager_scipy_import_is_found():
    source = ("import scipy\nimport numpy.linalg\n"
              "from scipy.special import erf\n"
              "def f():\n    import scipy.linalg as la\n    return la\n"
              "from scipy import integrate\nfrom .scipy import x\n")
    assert scipy_submodule_imports(source) == ["line 3", "line 5", "line 7"]


def test_fast_criteria_and_grid_load_no_scipy_subpackage():
    # criterion 1's sweep and `cmlab grid` after importing every module;
    # then the exact map's reference solve, which loads scipy.integrate
    code = (
        "import contextlib, importlib, io, pkgutil, sys, cmlab\n"
        "import numpy as np\n"
        "for m in pkgutil.iter_modules(cmlab.__path__):\n"
        "    importlib.import_module('cmlab.' + m.name)\n"
        "from cmlab import cli, distributions, harness, models\n"
        "harness.h_sweep_one_step(n=200, seed=7)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['grid']) == 0\n"
        "subs = ['scipy.integrate', 'scipy.special', 'scipy.linalg',\n"
        "        'scipy.optimize']\n"
        "print([k for k in subs if k in sys.modules])\n"
        "dist = distributions.MixtureParams.gaussian([0.0], [4.0])\n"
        "models.exact_cm(dist, 0.01)(np.zeros((2, 1)), 1.0)\n"
        "print('scipy.integrate' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ,
                              "PYTHONPATH": str(SRC.parent)}).stdout
    assert out.splitlines() == ["[]", "True"]


def test_no_module_imports_scipy_stats():
    # scipy.stats is slow and large to import, and no module needs it
    code = ("import importlib, pkgutil, sys, cmlab\n"
            "for m in pkgutil.iter_modules(cmlab.__path__):\n"
            "    importlib.import_module('cmlab.' + m.name)\n"
            "print([k for k in sys.modules if k.startswith('scipy.stats')])")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ,
                              "PYTHONPATH": str(SRC.parent)}).stdout
    assert out.strip() == "[]"


def test_distributions_imports_nothing_from_scipy():
    # the score kernel repeats scipy's logsumexp with numpy steps, so its
    # bit contract is with numpy alone
    code = ("import sys, cmlab.distributions\n"
            "print([k for k in sys.modules if k.split('.')[0] == 'scipy'])")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ,
                              "PYTHONPATH": str(SRC.parent)}).stdout
    assert out.strip() == "[]"


def pool_owners(source: str) -> bool:
    """Whether the module imports `concurrent.futures`."""
    return any(
        (isinstance(node, ast.ImportFrom) and node.module is not None
         and node.module.startswith("concurrent"))
        or (isinstance(node, ast.Import)
            and any(a.name.startswith("concurrent") for a in node.names))
        for node in ast.walk(ast.parse(source)))


def pool_parameters(source: str) -> list[str]:
    """Public functions and methods that take a parameter named pool."""
    return [node.name for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not node.name.startswith("_")
            and "pool" in {a.arg for a in (*node.args.posonlyargs,
                                           *node.args.args,
                                           *node.args.kwonlyargs)}]


def test_one_owner_per_thread_pool():
    # distributions owns the row split's worker and samplers the Langevin
    # corrector's prefetch pool; no caller hands a pool down
    modules = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert sorted(name for name, source in modules.items()
                  if pool_owners(source)) == ["distributions", "samplers"]
    assert {name: pool_parameters(source)
            for name, source in modules.items()
            if pool_parameters(source)} == {}


def test_a_pool_import_and_parameter_are_found():
    source = ("import concurrent.futures\n"
              "def score(x, *, pool=None): pass\n"
              "def _split(pool): pass\n")
    assert pool_owners(source)
    assert pool_owners("from concurrent.futures import Executor\n")
    assert not pool_owners("import contextvars\n")
    assert pool_parameters(source) == ["score"]
