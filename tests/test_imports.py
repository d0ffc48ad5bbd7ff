"""Every name a `cmlab` module imports is used in it or re-exported.

A stand-in for a linter's unused-import rule: it parses each module with
`ast`, so it needs nothing beyond the standard library.
"""

import ast
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
