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
