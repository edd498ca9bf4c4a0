"""Every import in ``src/`` is used and sits at module level, and every
private helper is called.

No linter is part of the toolchain, so this walks each module's syntax tree
with the standard library only. A name bound by an import counts as used
when it is read anywhere in the module (as a name or as the base of an
attribute) or listed in the module's ``__all__``. ``from __future__`` and
star imports bind no checked name. An import inside a function hides an
edge of the module graph, such as one that closes an import cycle, so no
function body holds one. A module-level private function or class with no
decorator must be loaded by name (as a name or an attribute) somewhere in
``src/`` outside its own definition; a decorated one, such as a registry
evaluator, is reached through its decorator. ``cli.py`` imports no private
name from the package. No module imports ``inspect``
and only the registry imports ``dataclasses``, so ``import binomsums``
loads neither.
"""

from __future__ import annotations

import ast
import subprocess
import sys
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


def nested_imports(source: str) -> list[str]:
    """Lines of the imports that sit inside a function body."""
    lines = {
        node.lineno
        for fn in ast.walk(ast.parse(source))
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    }
    return [f"line {line}" for line in sorted(lines)]


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


def imported_modules(source: str) -> set[str]:
    """Top-level names of the absolute modules the imports load."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_the_check_sees_imported_modules():
    source = (
        "import os.path, threading as t\n"
        "from threading import Lock\n"
        "from .threading import x\n"
        "def f():\n"
        "    from concurrent.futures import ThreadPoolExecutor\n"
    )
    assert imported_modules(source) == {"os", "threading", "concurrent"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_module_imports_threading(path):
    # there is no pool of any kind and no lock: the library runs on the
    # calling thread and keeps no shared store for one to guard
    assert "threading" not in imported_modules(path.read_text(encoding="utf-8"))


# The records are NamedTuples or slotted classes: a dataclass costs about
# 0.65 ms of generated code at import, and ``dataclasses`` loads ``inspect``.
# Module -> why it may import ``dataclasses`` all the same.
DATACLASS_IMPORTERS = {
    "binomsums/audit/registry.py": (
        "IdentityEntry stays a frozen dataclass: perfbench's tracer rebuilds "
        "each entry with dataclasses.replace"
    ),
}


def start_up_imports(module: str, source: str) -> set[str]:
    """The modules of ``source`` that cost start-up time for nothing:
    ``inspect`` anywhere, and ``dataclasses`` outside ``DATACLASS_IMPORTERS``."""
    costly = {"inspect"} if module in DATACLASS_IMPORTERS else {"inspect", "dataclasses"}
    return imported_modules(source) & costly


def test_the_check_sees_dataclasses_and_inspect():
    source = (
        "import typing\n"
        "import inspect as i\n"
        "from dataclasses import dataclass\n"
    )
    assert start_up_imports("binomsums/hypergeom.py", source) == {"dataclasses", "inspect"}
    assert start_up_imports("binomsums/audit/registry.py", source) == {"inspect"}
    assert start_up_imports("binomsums/cli.py", "import typing\n") == set()
    modules = {path.relative_to(SRC).as_posix() for path in MODULES}
    assert set(DATACLASS_IMPORTERS) <= modules and all(DATACLASS_IMPORTERS.values())


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_only_the_registry_imports_dataclasses_and_none_imports_inspect(path):
    module = path.relative_to(SRC).as_posix()
    assert start_up_imports(module, path.read_text(encoding="utf-8")) == set()


def test_importing_the_library_loads_neither_dataclasses_nor_inspect():
    # -S: no ``site``, whose own imports could load either module or hide it
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import binomsums\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    child = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    )
    assert child.stdout == "[]\n"


def test_the_check_sees_imports_inside_functions():
    source = (
        "import os\n"
        "def f():\n"
        "    from .y import g\n"
        "    def h():\n"
        "        import sys\n"
        "    return g, os\n"
        "class C:\n"
        "    async def m(self):\n"
        "        import json\n"
    )
    assert nested_imports(source) == ["line 3", "line 5", "line 9"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_import_inside_a_function(path):
    assert nested_imports(path.read_text(encoding="utf-8")) == []


def _class_names(path: Path) -> set[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}


def foreign_type_tests(source: str, classes: set[str]) -> list[str]:
    """Imports from ``exact_core``, and ``isinstance`` tests naming one of
    ``classes`` (bare or as an attribute), each with its line."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names = {(node.module or "").split(".")[-1], *(a.name for a in node.names)}
            if "exact_core" in names:
                found.append((node.lineno, "import from exact_core"))
        elif isinstance(node, ast.Import):
            if any(a.name.split(".")[-1] == "exact_core" for a in node.names):
                found.append((node.lineno, "import from exact_core"))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
        ):
            for sub in ast.walk(node.args[1]):
                name = getattr(sub, "id", None) or getattr(sub, "attr", None)
                if name in classes:
                    found.append((node.lineno, f"isinstance {name}"))
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_the_check_sees_foreign_type_tests():
    source = (
        "from ..exact_core import EgfSeries\n"
        "from .. import exact_core\n"
        "import binomsums.exact_core as ec\n"
        "from .registry import build_registry\n"
        "def f(v, g):\n"
        "    if isinstance(v, (list, tuple)):\n"
        "        return isinstance(v, (EgfSeries, ec._Unreduced))\n"
        "    return isinstance(g, registry._Fixed)\n"
    )
    assert foreign_type_tests(source, {"EgfSeries", "_Unreduced", "_Fixed"}) == [
        "line 1: import from exact_core",
        "line 2: import from exact_core",
        "line 3: import from exact_core",
        "line 7: isinstance EgfSeries",
        "line 7: isinstance _Unreduced",
        "line 8: isinstance _Fixed",
    ]


def test_runner_tests_no_exact_core_or_registry_type():
    # the runner prints a side through ``str`` and checks a config section
    # by its effect, so a new side or grid type needs no runner edit
    pkg = SRC / "binomsums"
    classes = _class_names(pkg / "exact_core.py") | _class_names(pkg / "audit" / "registry.py")
    assert {"Poly", "EgfSeries", "_Unreduced", "IdentityEntry"} <= classes
    runner = (pkg / "audit" / "runner.py").read_text(encoding="utf-8")
    assert foreign_type_tests(runner, classes) == []


def private_imports(source: str) -> list[str]:
    """``line N: name`` of each ``_``-prefixed name imported from the
    package, by a relative import or one from ``binomsums``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").partition(".")[0] == "binomsums"
        ):
            found += [
                f"line {node.lineno}: {a.name}"
                for a in node.names
                if a.name.startswith("_")
            ]
    return found


def test_the_check_sees_private_imports():
    source = (
        "from __future__ import annotations\n"
        "from os import _exit\n"
        "from .y6_engine import _sums, bnk\n"
        "from .audit.registry import build_registry\n"
        "from binomsums.exact_core import _check_indices as check\n"
        "from . import _private\n"
    )
    assert private_imports(source) == [
        "line 3: _sums",
        "line 5: _check_indices",
        "line 6: _private",
    ]


def test_cli_imports_no_private_name():
    # the command line reads the library as any user does, so each range it
    # prints is one that the public API gives
    cli = (SRC / "binomsums" / "cli.py").read_text(encoding="utf-8")
    assert private_imports(cli) == []


def unloaded_helpers(sources: dict[str, str]) -> list[str]:
    """``module: name`` of every module-level private function or class
    with no decorator that no code in ``sources`` loads outside its own
    definition."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    loads = [
        (node, node.id if isinstance(node, ast.Name) else node.attr)
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    ]
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and node.name.startswith("_")
                and not node.name.startswith("__")
                and not node.decorator_list
            ):
                own = {id(sub) for sub in ast.walk(node)}
                if not any(name == node.name and id(n) not in own for n, name in loads):
                    found.append(f"{module}: {node.name}")
    return found


def test_the_check_sees_unloaded_helpers():
    sources = {
        "a": (
            "def _used(): pass\n"
            "def _dead(): return _dead()\n"
            "class _Shape: pass\n"
            "@register\n"
            "def _evaluator(): pass\n"
            "def _only_in_b(): pass\n"
            "def public(): return _used()\n"
        ),
        "b": "from .a import _only_in_b\nx = mod._Shape\nf = _only_in_b\n",
    }
    assert unloaded_helpers(sources) == ["a: _dead"]


def test_no_unloaded_private_helper():
    sources = {str(path.relative_to(SRC)): path.read_text(encoding="utf-8") for path in MODULES}
    assert unloaded_helpers(sources) == []


def memoized(source: str) -> list[str]:
    """Names of the functions, nested ones too, decorated with
    ``lru_cache`` or ``cache``, bare, called or as an attribute."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for deco in fn.decorator_list:
                target = deco.func if isinstance(deco, ast.Call) else deco
                name = getattr(target, "id", None) or getattr(target, "attr", None)
                if name in ("lru_cache", "cache"):
                    found.append((fn.lineno, fn.name))
    return [name for _, name in sorted(found)]


def test_the_check_sees_memos():
    source = (
        "import functools\n"
        "from functools import cache, lru_cache\n"
        "@lru_cache(maxsize=None, typed=True)\n"
        "def a(n): pass\n"
        "@functools.lru_cache\n"
        "def b(n): pass\n"
        "@cache\n"
        "def c(n): pass\n"
        "@property\n"
        "def d(self): pass\n"
        "def e(n):\n"
        "    @functools.lru_cache(8)\n"
        "    def f(k): pass\n"
    )
    assert memoized(source) == ["a", "b", "c", "f"]


# Calls / distinct keys are for one default audit on one thread. A memo that
# only hides a slow kernel is deleted rather than listed here. No other
# store exists: the Stirling rows are walked by their recurrences, not kept.
MEMOS = {
    "y6_engine._y6": "7,236 calls on 2,321 keys; about 8 ms an audit without it",
    "y6_engine._y6_row": "9,390 calls on 315 keys; about 75 ms an audit without it",
    "p_polynomials._p_poly": "29,407 calls on 2,520 keys; about 150 ms without it",
}


def test_every_memo_is_listed_with_its_reason():
    pkg = SRC / "binomsums"
    found = {
        f"{'.'.join(path.relative_to(pkg).with_suffix('').parts)}.{name}"
        for path in MODULES
        for name in memoized(path.read_text(encoding="utf-8"))
    }
    assert found == set(MEMOS)
    assert all(MEMOS.values())
