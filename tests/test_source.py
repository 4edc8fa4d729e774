"""Source checks that need no linter, read with the stdlib ``ast``."""

import ast
from pathlib import Path

import pytest

import endslab

MODULES = sorted(p for p in Path(endslab.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")  # __init__ imports to re-export


def unread_imports(source: str) -> list:
    """(line, name) of each name an import binds that the module never
    reads, in line order.

    A name counts as read when it appears as a loaded name anywhere in the
    module, annotations included; ``import a.b`` binds ``a``.
    """
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_unread_imports_are_found():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from .errors import Infeasible, InvalidParameter\n"
              "def f(x: InvalidParameter) -> None:\n"
              "    return os.path.join(x)\n")
    assert unread_imports(source) == [(3, "Infeasible")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert unread_imports(path.read_text(encoding="utf-8")) == []
