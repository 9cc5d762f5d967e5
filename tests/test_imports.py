"""Every name a package module imports is used there (stdlib ``ast`` only)."""

import ast
from pathlib import Path

import pytest

import quadharm

MODULES = sorted(Path(quadharm.__file__).parent.glob("*.py"))


def unused_imports(tree: ast.Module) -> list[str]:
    """Imported names that the module never reads, in import order.

    ``from __future__`` imports and the names listed in a module-level
    ``__all__`` (re-exports) count as used.
    """
    imported = []
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_every_import(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_unused_import_is_reported():
    tree = ast.parse("from __future__ import annotations\n"
                     "import math, os.path\nfrom x import a, b as c\n"
                     "__all__ = ['a']\nprint(math.pi)\n")
    assert unused_imports(tree) == ["os", "c"]


def _defined_private_names(statement: ast.stmt) -> list[str]:
    """The private names a module-level statement defines: a function, a
    class or assignment targets, dunders excluded."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [statement.name]
    elif isinstance(statement, ast.Assign):
        names = [t.id for t in statement.targets if isinstance(t, ast.Name)]
    elif isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
        names = [statement.target.id]
    else:
        names = []
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def unread_private_names(trees: dict[str, ast.Module]) -> list[str]:
    """Private module-level definitions that no module-level statement of
    any of the modules reads, their own statement excepted, as
    "module.name" in module and definition order.  A read is a loaded name
    or an attribute of that name, so ``solver._level_store`` counts."""
    statements = [(module, s) for module, tree in trees.items() for s in tree.body]
    reads = []
    for _, statement in statements:
        names = set()
        for node in ast.walk(statement):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
        reads.append(names)
    return [f"{module}.{name}"
            for i, (module, statement) in enumerate(statements)
            for name in _defined_private_names(statement)
            if not any(name in names for j, names in enumerate(reads) if j != i)]


def test_every_private_definition_is_read():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}
    assert unread_private_names(trees) == []


def test_unread_private_definition_is_reported():
    trees = {
        "a": ast.parse("def _used(): pass\ndef _dead(n): return _dead(n - 1)\n"
                       "_LIMIT = 3\n_store: dict = {}\nclass _Shape: pass\n"
                       "def __getattr__(name): pass\n"),
        "b": ast.parse("from a import _used\nimport a\nx = _used() + len(a._store)\n"
                       "def f(): return _Shape\n"),
    }
    assert unread_private_names(trees) == ["a._dead", "a._LIMIT"]
