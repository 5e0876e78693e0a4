"""Source hygiene of the package modules."""

import ast
from pathlib import Path

import pytest

import qube

# ``__init__`` imports names to re-export them
MODULES = sorted(p.name for p in Path(qube.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names a module imports and never reads, in source order.
    ``__future__`` imports and statements marked ``# noqa: F401`` on any of
    their lines are skipped."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        imported += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for _, name in sorted(imported) if name not in read]


def unread_private_names(source: str) -> list[str]:
    """The private names (``_name``, not dunder) a module binds at its top
    level by ``def``, ``class`` or assignment and never reads, in source
    order.  A read anywhere counts, a decorator's or the name's own body's
    included."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    read = {
        n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    return [
        name for name in bound
        if name.startswith("_") and not name.startswith("__") and name not in read
    ]


class TestUnreadPrivateNames:
    @pytest.mark.parametrize("module", MODULES)
    def test_every_private_name_is_read(self, module):
        source = (Path(qube.__file__).parent / module).read_text(encoding="utf-8")
        assert unread_private_names(source) == []

    def test_the_check_finds_an_unread_name(self):
        source = (
            "import functools\n"
            "__all__ = ['f']\n"
            "_CAP = 3\n"
            "_LIMIT: int = 4\n"
            "_a, _b = 1, 2\n"
            "class _Row:\n"
            "    pass\n"
            "def _helper(x):\n"
            "    return x + _CAP + _a\n"
            "def _walk(x):\n"
            "    return _walk(x - 1) if x else 0\n"
            "@functools.cache\n"
            "def _memo(x):\n"
            "    return x\n"
            "def f(_unused):\n"
            "    _local = _helper(1)\n"
            "    return _local, _memo.__wrapped__\n"
        )
        assert unread_private_names(source) == ["_LIMIT", "_b", "_Row"]


class TestUnusedImports:
    @pytest.mark.parametrize("module", MODULES)
    def test_every_imported_name_is_read(self, module):
        source = (Path(qube.__file__).parent / module).read_text(encoding="utf-8")
        assert unused_imports(source) == []

    def test_the_check_finds_an_unused_name(self):
        source = (
            "from __future__ import annotations\n"
            "import os.path\n"
            "from typing import Iterable, Sequence\n"
            "from .cycles import (  # noqa: F401 -- a re-export\n"
            "    check_balance,\n"
            ")\n"
            "import json as j\n"
            "def f(x: Iterable[int]) -> Counter:\n"
            "    return os.path.join(x)\n"
            "from collections import Counter\n"
        )
        assert unused_imports(source) == ["Sequence", "j"]
