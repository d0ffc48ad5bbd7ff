"""The demos run for about a minute, so the unit tests do not run them.
They check instead that every call a demo makes into `cmlab.harness`
binds to the current signature of the function it calls."""

import ast
import inspect
from pathlib import Path

import pytest

from cmlab import harness

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def _harness_calls(tree: ast.Module) -> list[tuple[str, ast.Call]]:
    """(harness name, call) for each call of a name the module imported
    from cmlab.harness."""
    names = {alias.asname or alias.name: alias.name
             for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom)
             and node.module == "cmlab.harness"
             for alias in node.names}
    return [(names[node.func.id], node) for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in names]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_calls_bind(path):
    calls = _harness_calls(ast.parse(path.read_text(encoding="utf-8")))
    assert calls, f"{path.name} calls nothing in cmlab.harness"
    for name, call in calls:
        assert not any(isinstance(a, ast.Starred) for a in call.args)
        assert all(k.arg is not None for k in call.keywords)
        # raises TypeError when the call does not fit the signature
        inspect.signature(getattr(harness, name)).bind(
            *call.args, **{k.arg: k.value for k in call.keywords})
