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
