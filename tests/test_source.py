"""Source checks that need no linter, read with the stdlib ``ast``."""

import ast
from pathlib import Path

import pytest

import endslab

MODULES = sorted(p for p in Path(endslab.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")  # __init__ imports to re-export
TEST_MODULES = sorted(Path(__file__).parent.glob("*.py"))


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


@pytest.mark.parametrize("path", MODULES + TEST_MODULES, ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert unread_imports(path.read_text(encoding="utf-8")) == []


def private_names(source: str) -> dict:
    """Line of each private function, class or constant the module defines
    at its top level: a name with one leading underscore."""
    defined = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined.setdefault(name, node.lineno)
    return defined


def read_names(source: str) -> set:
    """Every name the module reads: loaded names, attributes and the names
    it imports from another module."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def unread_private_names(sources: dict) -> list:
    """(module, line, name) of each private top-level name that no module
    of ``sources`` (module name -> source) reads."""
    read = set().union(*map(read_names, sources.values()))
    return sorted((module, line, name) for module, source in sources.items()
                  for name, line in private_names(source).items() if name not in read)


def test_unread_private_names_are_found():
    sources = {"a": "_BATCH = 1024\n_THIN = 16\ndef _left(x):\n    return x\n"
                    "class _Gone:\n    pass\n",
               "b": "from .a import _THIN\nimport a\ny = a._left(_THIN)\n"}
    assert unread_private_names(sources) == [("a", 1, "_BATCH"), ("a", 5, "_Gone")]


def test_every_private_name_is_read():
    sources = {p.name: p.read_text(encoding="utf-8")
               for p in Path(endslab.__file__).parent.glob("*.py")}
    assert unread_private_names(sources) == []
