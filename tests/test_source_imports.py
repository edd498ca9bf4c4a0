"""Every import in ``src/`` is used.

No linter is part of the toolchain, so this walks each module's syntax tree
with the standard library only. A name bound by an import counts as used
when it is read anywhere in the module (as a name or as the base of an
attribute) or listed in the module's ``__all__``. ``from __future__`` and
star imports bind no checked name.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted(SRC.rglob("*.py"))


def _imported(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import in the module -> its line."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name] = node.lineno
    return bound


def _used(tree: ast.Module) -> set[str]:
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            used |= {
                e.value for e in node.value.elts if isinstance(e, ast.Constant)
            }
    return used


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = _used(tree)
    return [
        f"line {line}: {name}"
        for name, line in _imported(tree).items()
        if name not in used
    ]


def test_the_check_sees_unused_and_used_imports():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from math import comb, lcm\n"
        "from .x import *\n"
        "from . import mod\n"
        "__all__ = ['comb']\n"
        "def f() -> mod.T:\n"
        "    return sys.argv\n"
    )
    assert unused_imports(source) == ["line 2: os", "line 3: lcm"]


def test_modules_found():
    assert any(path.name == "registry.py" for path in MODULES)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
