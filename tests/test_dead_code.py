"""Dead-code guard over the package source, on the standard library's ast.

A module other than __init__.py fails when it keeps a top-level import that
it never reads, or a private module-level function that nothing in the
package references outside the function's own body. A name read from a
string constant (such as an enumerator looked up with globals()) counts as a
reference.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "toughlab"
TREES = {path.name: ast.parse(path.read_text(), str(path))
         for path in sorted(PACKAGE.glob("*.py"))}
CHECKED = [name for name in TREES if name != "__init__.py"]


def _references(nodes) -> set[str]:
    """Names read anywhere under the nodes: bare names, attribute names and
    string constants."""
    found = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                found.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                found.add(sub.attr)
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                found.add(sub.value)
    return found


def _imported_names(stmt) -> list[str]:
    if isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
        return [alias.asname or alias.name for alias in stmt.names]
    if isinstance(stmt, ast.Import):
        return [alias.asname or alias.name.split(".")[0] for alias in stmt.names]
    return []


@pytest.mark.parametrize("module", CHECKED)
def test_no_unused_top_level_import(module):
    tree = TREES[module]
    body = [stmt for stmt in tree.body if not isinstance(stmt, (ast.Import, ast.ImportFrom))]
    used = _references(body)
    unused = [name for stmt in tree.body for name in _imported_names(stmt) if name not in used]
    assert unused == [], f"{module} imports but never reads {unused}"


@pytest.mark.parametrize("module", CHECKED)
def test_every_private_function_is_referenced(module):
    elsewhere = _references(tree for name, tree in TREES.items() if name != module)
    body = TREES[module].body
    dead = [stmt.name for stmt in body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            and stmt.name.startswith("_") and not stmt.name.startswith("__")
            and stmt.name not in elsewhere
            and stmt.name not in _references(other for other in body if other is not stmt)]
    assert dead == [], f"{module} defines private functions nothing references: {dead}"
