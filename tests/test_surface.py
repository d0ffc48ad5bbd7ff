"""Every public name that `cmlab` defines is read outside the tests.

A function that only tests call is surface to keep up with nothing to
show for it.  So each public top-level function, class and method of a
`cmlab` module must be referenced by the library itself (outside its own
definition), a demo, the benchmark in `perfbench/` or a python block of
the README.  Like `test_imports.py`, it parses with `ast` and needs
nothing beyond the standard library.  The scan goes by name: a reference
to any attribute or name spelled like a definition counts for it.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "cmlab"

# module.name -> why it stays although only tests call it
EXEMPT: dict[str, str] = {}

_IDENTIFIER = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def references(tree: ast.AST) -> Counter:
    """Identifier -> how often the tree reads it: names, attributes,
    imported names, and string constants spelled like a (dotted) name,
    which is how perfbench's tracer names what it wraps."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name.split(".")[-1]] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and _IDENTIFIER.fullmatch(node.value)):
            out.update(node.value.split("."))
    return out


def _public_definitions(module: str, tree: ast.Module):
    """(qualified name, node) of each public top-level function and class
    and each public method of a top-level class."""
    defs = (ast.FunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, defs) or node.name.startswith("_"):
            continue
        yield f"{module}.{node.name}", node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs) and not item.name.startswith("_"):
                    yield f"{module}.{node.name}.{item.name}", item


def only_tested(library: dict[str, str], outside: list[str]) -> list[str]:
    """Public definitions of the library modules (name -> source) that
    neither another part of the library nor any of the outside sources
    references."""
    trees = {name: ast.parse(src) for name, src in library.items()}
    total = sum((references(t) for t in trees.values()), Counter())
    for src in outside:
        total += references(ast.parse(src))
    return sorted(
        qualname
        for module, tree in trees.items()
        for qualname, node in _public_definitions(module, tree)
        if total[node.name] == references(node)[node.name])


def _outside_sources() -> list[str]:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    scripts = sorted((ROOT / "demos").glob("*.py")) \
        + sorted((ROOT / "perfbench").glob("*.py"))
    return blocks + [p.read_text(encoding="utf-8") for p in scripts]


def test_only_the_exempt_names_are_read_by_tests_alone():
    # an exempt name that gains a caller loses its exemption too
    library = {p.stem: p.read_text(encoding="utf-8")
               for p in sorted(SRC.glob("*.py"))}
    assert only_tested(library, _outside_sources()) == sorted(EXEMPT)


def test_a_test_only_name_is_found():
    lib = ("def used():\n    return helper()\n\n"
           "def helper():\n    return 1\n\n"
           "def recursive(n):\n    return recursive(n - 1) if n else 0\n\n"
           "class Box:\n    def open(self):\n        return self.shut()\n\n"
           "    def shut(self):\n        return 0\n")
    traced = "TRACED = [('lib', 'Box')]\nused()\n"
    assert only_tested({"lib": lib}, [traced]) == [
        "lib.Box.open", "lib.recursive"]
