"""Source hygiene: every name a package module imports is used in it, no
package module imports ``dataclasses`` or ``inspect`` (whose import, with
what it pulls in, is a large part of a CLI process's start-up), and every
source file parses at the Python floor that pyproject.toml declares.

``__init__.py`` imports to re-export, so it is exempt.  Names that occur
only inside string annotations (``-> "TowerElement"``) count as used.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "extraspecial"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SOURCES = sorted(p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py"))
FLOOR = (3, 10)
SLOW_TO_IMPORT = {"dataclasses", "inspect"}


def _imported_names(tree: ast.Module) -> dict[str, int]:
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names[bound] = node.lineno
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree: ast.Module) -> set[str]:
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in _annotations(tree):
        for n in ast.walk(ann):
            if isinstance(n, ast.Constant) and isinstance(n.value, str):
                used |= _used_names(ast.parse(n.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used_names(tree)
    unused = {name: line for name, line in _imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


def test_check_sees_an_unused_import():
    tree = ast.parse("from .x import a, b\nimport os.path\n"
                     "def f(y: 'list[b]'):\n    return y")
    assert {n for n in _imported_names(tree) if n not in _used_names(tree)} == {"a", "os"}


def _imported_modules(tree: ast.Module) -> set[str]:
    """Top-level names of the absolute imports in ``tree``."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module.split(".")[0])
    return out


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_slow_standard_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert not _imported_modules(tree) & SLOW_TO_IMPORT, path.name


def test_slow_import_check_sees_them():
    tree = ast.parse("from dataclasses import dataclass\nimport inspect.x\n"
                     "from .inspect import y\nimport typing")
    assert _imported_modules(tree) == SLOW_TO_IMPORT | {"typing"}


def test_cli_import_loads_neither_indirectly():
    # -S: the site module and its .pth files may import what they like
    code = ("import sys, extraspecial.cli; "
            f"print(sorted({SLOW_TO_IMPORT!r} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_floor_is_the_declared_one():
    assert f'requires-python = ">={FLOOR[0]}.{FLOOR[1]}"' in (ROOT / "pyproject.toml").read_text()


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_at_python_floor(path):
    # syntax only: a newer library name (tomllib, say) still passes
    ast.parse(path.read_text(), filename=str(path), feature_version=FLOOR)


def test_floor_check_sees_newer_syntax():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=FLOOR)
