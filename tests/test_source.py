"""Source hygiene of the package modules."""

import ast
from pathlib import Path

import pytest

import qube

PACKAGE = Path(qube.__file__).parent
# ``__init__`` imports names to re-export them
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


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


def top_level_names(tree: ast.Module) -> list[str]:
    """The names a module binds at its top level by ``def``, ``class`` or
    assignment, in source order."""
    bound = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return bound


def is_private(name: str) -> bool:
    """Whether ``name`` is private: ``_name``, not a dunder."""
    return name.startswith("_") and not name.startswith("__")


def unread_private_names(source: str) -> list[str]:
    """The private names (``_name``, not dunder) a module binds at its top
    level by ``def``, ``class`` or assignment and never reads, in source
    order.  A read anywhere counts, a decorator's or the name's own body's
    included."""
    tree = ast.parse(source)
    bound = top_level_names(tree)
    read = {
        n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    return [name for name in bound if is_private(name) and name not in read]


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


ENVIRONMENT_NAMES = {"environ", "environb", "getenv", "getenvb", "putenv", "unsetenv"}


def environment_reads(source: str) -> list[str]:
    """Where a module reaches the process environment, in source order: each
    ``os.<name>`` (``os`` under any name it is imported as) and each
    ``from os import <name>`` of a name in ``ENVIRONMENT_NAMES``."""
    tree = ast.parse(source)
    aliases = {
        a.asname or a.name
        for node in ast.walk(tree) if isinstance(node, ast.Import)
        for a in node.names if a.name == "os"
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_NAMES:
            if isinstance(node.value, ast.Name) and node.value.id in aliases:
                found.append((node.lineno, f"os.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [
                (node.lineno, f"os.{a.name}") for a in node.names if a.name in ENVIRONMENT_NAMES
            ]
    return [f"line {line}: {name}" for line, name in sorted(found)]


class TestNoEnvironment:
    # the CLI promises that no command reads an environment variable
    @pytest.mark.parametrize("module", MODULES + ["__init__.py"])
    def test_no_module_reads_the_environment(self, module):
        assert environment_reads((PACKAGE / module).read_text(encoding="utf-8")) == []

    def test_the_check_finds_each_read(self):
        source = (
            "import os\n"
            "import os as system\n"
            "from os import getenv, path\n"
            "from os import putenv as put\n"
            "seed = os.environ.get('SEED')\n"
            "def f(env=system.environ):\n"
            "    return getenv('X'), os.path.join('a'), os.getenv('Y')\n"
            "class Environ:\n"
            "    environ = {}\n"
            "Environ.environ.get('Z')\n"
        )
        assert environment_reads(source) == [
            "line 3: os.getenv",
            "line 4: os.putenv",
            "line 5: os.environ",
            "line 6: os.environ",
            "line 7: os.getenv",
        ]


def qube_imports(source: str) -> list[tuple[str, str | None]]:
    """What a module of the package imports from its sibling modules, as
    ``(module, name)`` pairs: ``from .squares import f`` and
    ``from qube.squares import f`` give ("squares", "f"), while
    ``from . import squares`` and ``import qube.squares`` give ("squares",
    None), the whole module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [
                (a.name.split(".")[1], None)
                for a in node.names if a.name.startswith("qube.")
            ]
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                module = node.module
            elif node.module and node.module.startswith("qube."):
                module = node.module.split(".")[1]
            else:
                continue
            found += [
                (module, a.name) if module else (a.name, None) for a in node.names
            ]
    return found


ALPHA_TABLES = {"ALPHA_EQUI_HYPERCUBE", "ALPHA_EQUI_COMPUTED"}
BOUNDS_NAMES = ALPHA_TABLES | {"EquiValueUnavailable"}
# the modules of cycles, squares, search and sweeps, and the graph modules
# they must not read: a threshold reaches them as a number
CYCLE_LAYER = {"hypercube.py", "cycles.py", "squares.py", "enumeration.py", "verify.py"}
GRAPH_LAYER = {"bounds", "graphs", "independence"}


def layering_faults(sources: dict[str, str]) -> list[str]:
    """Where the package's sources, keyed by file name, break its layering,
    one line per fault:

    * the balanced-independence tables and ``EquiValueUnavailable`` are
      bound anywhere but in ``bounds.py``, or imported from anywhere else;
    * a table is imported by a module other than ``__init__.py``, the
      bounds' readers living in ``bounds.py`` itself;
    * ``independence.py`` imports from ``squares`` or ``bounds``, the two
      modules built on it;
    * a module of the cycle layer imports from ``bounds``, ``graphs`` or
      ``independence``, so that no cycle check chooses an alpha table;
    * a module imports a private name from another module of the package.
    """
    faults = []
    for file, source in sorted(sources.items()):
        for name in top_level_names(ast.parse(source)):
            if name in BOUNDS_NAMES and file != "bounds.py":
                faults.append(f"{file} binds {name}")
        for module, name in qube_imports(source):
            if name in BOUNDS_NAMES and module != "bounds":
                faults.append(f"{file} imports {name} from {module}")
            if name in ALPHA_TABLES and file != "__init__.py":
                faults.append(f"{file} imports {name}")
            if file == "independence.py" and module in ("squares", "bounds"):
                faults.append(f"{file} imports from {module}")
            if file in CYCLE_LAYER and module in GRAPH_LAYER:
                faults.append(f"{file} imports from {module}")
            if name is not None and is_private(name):
                faults.append(f"{file} imports {name} from {module}")
    return faults


class TestLayering:
    def test_the_package_keeps_its_layers(self):
        sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
        assert "bounds.py" in sources
        assert layering_faults(sources) == []

    def test_the_check_finds_each_fault(self):
        sources = {
            "bounds.py": (
                "class EquiValueUnavailable(LookupError):\n"
                "    pass\n"
                "ALPHA_EQUI_HYPERCUBE = {}\n"
            ),
            "__init__.py": "from .bounds import ALPHA_EQUI_HYPERCUBE, EquiValueUnavailable\n",
            "cli.py": "from .bounds import EquiValueUnavailable\n",
            "squares.py": (
                "from .bounds import ALPHA_EQUI_HYPERCUBE\n"
                "from .bounds import rim_threshold\n"
                "ALPHA_EQUI_COMPUTED: dict = {}\n"
            ),
            "independence.py": (
                "from . import squares\n"
                "from qube.bounds import rim_threshold\n"
                "from .graphs import hypercube_bipartite\n"
            ),
            "verify.py": (
                "import qube.cycles\n"
                "from .squares import _rim_scan, find_squares\n"
                "from .cli import EquiValueUnavailable\n"
                "from .squares import __doc__\n"
            ),
        }
        assert layering_faults(sources) == [
            "independence.py imports from squares",
            "independence.py imports from bounds",
            "squares.py binds ALPHA_EQUI_COMPUTED",
            "squares.py imports ALPHA_EQUI_HYPERCUBE",
            "squares.py imports from bounds",
            "squares.py imports from bounds",
            "verify.py imports _rim_scan from squares",
            "verify.py imports EquiValueUnavailable from cli",
        ]
        assert qube_imports(sources["verify.py"])[0] == ("cycles", None)


def table_readers(source: str) -> dict[str, set[str]]:
    """The alpha tables each top-level ``def`` or ``class`` of ``source``
    loads by name, keyed by its name, and those the other top-level
    statements load, keyed by ``"<module>"``; only readers are listed."""
    readers: dict[str, set[str]] = {}
    for node in ast.parse(source).body:
        key = getattr(node, "name", "<module>")
        for name in ast.walk(node):
            if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load):
                if name.id in ALPHA_TABLES:
                    readers.setdefault(key, set()).add(name.id)
    return readers


class TestAlphaTableReaders:
    def test_each_table_has_one_reader(self):
        # every verdict reads the computed table through ``rim_threshold``;
        # the reference table is table 1's comparison column
        readers = {
            f"{p.name}:{key}": tables
            for p in sorted(PACKAGE.glob("*.py"))
            for key, tables in table_readers(p.read_text(encoding="utf-8")).items()
        }
        assert readers == {
            "bounds.py:rim_threshold": {"ALPHA_EQUI_COMPUTED"},
            "bounds.py:table1_rows": {"ALPHA_EQUI_HYPERCUBE"},
        }

    def test_the_check_finds_each_reader(self):
        source = (
            "ALPHA_EQUI_COMPUTED: dict = {}\n"
            "class Report:\n"
            "    def caveat(self):\n"
            "        return ALPHA_EQUI_COMPUTED[self.n]\n"
            "def rows():\n"
            "    return 1\n"
            "TABLE = ALPHA_EQUI_HYPERCUBE\n"
        )
        assert table_readers(source) == {
            "Report": {"ALPHA_EQUI_COMPUTED"},
            "<module>": {"ALPHA_EQUI_HYPERCUBE"},
        }
