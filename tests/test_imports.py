"""Every name a `cmlab` module imports is used in it or re-exported, and
every import is at module level.

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
