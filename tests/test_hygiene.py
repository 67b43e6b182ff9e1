"""Source hygiene: every module of the package uses what it imports, and
every private module-level function or class is used somewhere in it.

``__init__.py`` is left out of the import check: its imports are the
package's re-exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "cicyweb"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    """Names bound by an import of ``source`` and never read as a name."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in read)


def test_unused_import_detector():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as j\n"
        "from math import comb, factorial\n"
        "def f(x: Sequence) -> int:\n"
        "    return comb(x, 2) + j.loads('1')\n"
        "from typing import Sequence\n"
    )
    assert _unused_imports(source) == ["factorial (line 4)", "os (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def _unreferenced_private_defs(sources: dict[str, str]) -> list[str]:
    """Private module-level functions and classes no code of ``sources`` names.

    A name counts as used when it appears as a name, an attribute or an
    imported name anywhere in the sources outside its own definition, so a
    helper that only calls itself is unused.  Names are matched without
    their module: a private name defined in two modules and used in one
    counts as used in both.
    """
    defined = []
    used = set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            own = None
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.startswith("__"):
                    own = node.name
                    defined.append(f"{module}:{own}")
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    names = [sub.id]
                elif isinstance(sub, ast.Attribute):
                    names = [sub.attr]
                elif isinstance(sub, ast.ImportFrom):
                    names = [alias.name for alias in sub.names]
                else:
                    continue
                used.update(name for name in names if name != own)
    return sorted(entry for entry in defined if entry.partition(":")[2] not in used)


def test_unreferenced_private_def_detector():
    sources = {
        "a.py": (
            "class _Used:\n"
            "    pass\n"
            "def _dead(x):\n"
            "    return _dead(x - 1) if x else _Used()\n"
            "def _by_attribute():\n"
            "    pass\n"
            "def _imported():\n"
            "    pass\n"
            "class _DeadClass:\n"
            "    def _method(self):\n"
            "        return self._method()\n"
            "def __getattr__(name):\n"
            "    pass\n"
            "def public():\n"
            "    pass\n"
        ),
        "b.py": (
            "from .a import _imported\n"
            "from . import a\n"
            "VALUE = a._by_attribute\n"
        ),
    }
    assert _unreferenced_private_defs(sources) == ["a.py:_DeadClass", "a.py:_dead"]


def test_no_unreferenced_private_defs():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert _unreferenced_private_defs(sources) == []
