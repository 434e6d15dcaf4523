"""Dead-code guard over the package source and the tests, on the standard
library's ast.

A package module other than __init__.py fails when it keeps a top-level
import that it never reads, or a private module-level function that nothing
in the package references outside the function's own body. A test module
fails on an unused top-level import too, or on a module-level helper, any
function not named test_*, that nothing else in the module references. A
name counts as read through a bare name or a string constant (such as an
enumerator looked up with globals()), never through an attribute that only
shares its name.

The package also defines exactly three exception classes: GraphError, the
one refusal (exit 64), Graph6Error, its bad-data case (exit 65), and the
command line's _WriteError (exit 74).
"""

import ast
import builtins
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _parse(directory: Path) -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(), str(path))
            for path in sorted(directory.glob("*.py"))}


TREES = _parse(ROOT / "src" / "toughlab")
CHECKED = [name for name in TREES if name != "__init__.py"]
TEST_TREES = _parse(ROOT / "tests")


def _references(nodes) -> set[str]:
    """Names read anywhere under the nodes: bare names and string constants."""
    found = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                found.add(sub.id)
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                found.add(sub.value)
    return found


def _imported_names(stmt) -> list[str]:
    if isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
        return [alias.asname or alias.name for alias in stmt.names]
    if isinstance(stmt, ast.Import):
        return [alias.asname or alias.name.split(".")[0] for alias in stmt.names]
    return []


def _functions(body) -> list[ast.FunctionDef]:
    return [stmt for stmt in body if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))]


def _referenced_elsewhere(stmt, body) -> bool:
    return stmt.name in _references(other for other in body if other is not stmt)


def _is_exception_name(name: str) -> bool:
    """A builtin exception, or by its name one from another module."""
    builtin = getattr(builtins, name, None)
    if isinstance(builtin, type):
        return issubclass(builtin, BaseException)
    return name.endswith(("Error", "Exception"))


@pytest.mark.parametrize("module", CHECKED + list(TEST_TREES))
def test_no_unused_top_level_import(module):
    tree = TREES[module] if module in CHECKED else TEST_TREES[module]
    body = [stmt for stmt in tree.body if not isinstance(stmt, (ast.Import, ast.ImportFrom))]
    used = _references(body)
    unused = [name for stmt in tree.body for name in _imported_names(stmt) if name not in used]
    assert unused == [], f"{module} imports but never reads {unused}"


@pytest.mark.parametrize("module", CHECKED)
def test_every_private_function_is_referenced(module):
    elsewhere = _references(tree for name, tree in TREES.items() if name != module)
    body = TREES[module].body
    dead = [stmt.name for stmt in _functions(body)
            if stmt.name.startswith("_") and not stmt.name.startswith("__")
            and stmt.name not in elsewhere and not _referenced_elsewhere(stmt, body)]
    assert dead == [], f"{module} defines private functions nothing references: {dead}"


@pytest.mark.parametrize("module", TEST_TREES)
def test_every_test_helper_is_referenced(module):
    body = TEST_TREES[module].body
    dead = [stmt.name for stmt in _functions(body)
            if not stmt.name.startswith("test_") and not _referenced_elsewhere(stmt, body)]
    assert dead == [], f"{module} defines helpers nothing in it references: {dead}"


def test_exactly_three_exception_classes():
    # every class in the package, nested ones included, by the names of its bases
    bases = {node.name: [base.id if isinstance(base, ast.Name) else base.attr
                         for base in node.bases if isinstance(base, (ast.Name, ast.Attribute))]
             for tree in TREES.values() for node in ast.walk(tree)
             if isinstance(node, ast.ClassDef)}
    found: set[str] = set()
    while True:
        grown = {name for name, names in bases.items()
                 if any(b in found or _is_exception_name(b) for b in names)}
        if grown == found:
            break
        found = grown
    assert found == {"GraphError", "Graph6Error", "_WriteError"}
