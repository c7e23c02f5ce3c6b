"""Source hygiene: every name a package module imports is used in it, every
function, class and method of the package is named by other package code,
every field of a package ``Record`` is read as an attribute by package code,
every ``raise OracleMismatch`` of ``oracle.py`` is the raising frame of a
trip in ``test_oracle.MISMATCH_TRIPS``, no package module imports
``dataclasses`` or ``inspect`` (whose import, with what it pulls in, is a
large part of a CLI process's start-up), and every source file parses at
the Python floor that pyproject.toml declares.

``__init__.py`` imports to re-export, so it is exempt from the import check,
and its re-exports do not reach a definition.  Names that occur only inside
string annotations (``-> "TowerElement"``) count as used imports.
"""

import ast
import os
import subprocess
import sys
import traceback
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


# definitions no package code names, each with the reason it stays
UNREACHED_ALLOWED = {
    "record.py:Record.replace": "the record API that tests use to build variants",
    "valuation.py:LaurentSeries.inverse": "bench/bench_trace.py patches it by name; it goes "
                                          "with that patching (ROADMAP item 5)",
}


def _definitions(tree: ast.Module):
    """(qualified name, node) of each top-level function and class and each
    non-dunder method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not (
                        sub.name.startswith("__") and sub.name.endswith("__")):
                    yield f"{node.name}.{sub.name}", sub


def _named(node: ast.AST) -> list[str]:
    """Every ``ast.Name`` and ``ast.Attribute.attr`` under ``node``."""
    return [n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))]


def _unreached(trees: dict[str, ast.Module]) -> set[str]:
    """``file:qualname`` of the definitions that code outside their own body
    never names; a name shared by two definitions reaches both."""
    counts: dict[str, int] = {}
    for tree in trees.values():
        for name in _named(tree):
            counts[name] = counts.get(name, 0) + 1
    out = set()
    for file, tree in trees.items():
        for qual, node in _definitions(tree):
            name = node.name
            if counts.get(name, 0) == _named(node).count(name):
                out.add(f"{file}:{qual}")
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_definition_is_reached(path):
    trees = {p.name: ast.parse(p.read_text(), filename=str(p))
             for p in sorted(PACKAGE.glob("*.py"))}
    allowed = {d for d in UNREACHED_ALLOWED if d.startswith(f"{path.name}:")}
    assert {d for d in _unreached(trees) if d.startswith(f"{path.name}:")} == allowed


def test_check_sees_a_dead_helper():
    live = ("def used():\n    return 1\n"
            "class Box:\n    def __init__(self):\n        self.v = used()\n"
            "    def get(self):\n        return self.v\n"
            "def main():\n    return Box().get()\nmain()\n")
    assert _unreached({"m.py": ast.parse(live)}) == set()
    dead = live + "def helper(n):\n    return helper(n - 1) if n else Box()\n"
    assert _unreached({"m.py": ast.parse(dead)}) == {"m.py:helper"}
    assert _unreached({"m.py": ast.parse(live.replace("Box().get()", "Box()"))}) == \
        {"m.py:Box.get"}


def _unread_fields(trees: dict[str, ast.Module]) -> set[str]:
    """``file:Class.field`` of each annotated field of a ``Record`` subclass
    that no code reads as an attribute (``x.field`` in a load)."""
    read = {n.attr for tree in trees.values() for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    out = set()
    for file, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(b, ast.Name) and b.id == "Record" for b in node.bases):
                out |= {f"{file}:{node.name}.{sub.target.id}" for sub in node.body
                        if isinstance(sub, ast.AnnAssign) and sub.target.id not in read}
    return out


def test_every_record_field_is_read():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p))
             for p in sorted(PACKAGE.glob("*.py"))}
    assert _unread_fields(trees) == set()


def test_check_sees_an_unread_field():
    live = ("class Box(Record, frozen=True):\n    v: int\n    w: int = 0\n"
            "def get(box):\n    return box.v + box.w\n")
    assert _unread_fields({"m.py": ast.parse(live)}) == set()
    # assignment and keyword construction are not reads
    dead = live.replace("box.v + box.w", "box.v") + "Box(1, w=2).w = 3\n"
    assert _unread_fields({"m.py": ast.parse(dead)}) == {"m.py:Box.w"}
    assert _unread_fields({"m.py": ast.parse(live.replace("(Record, ", "("))}) == set()


def _raise_spans(tree: ast.Module, exc: str) -> list[tuple[int, int]]:
    """(first line, last line) of each ``raise exc(...)`` statement."""
    return sorted((n.lineno, n.end_lineno) for n in ast.walk(tree)
                  if isinstance(n, ast.Raise) and isinstance(n.exc, ast.Call)
                  and isinstance(n.exc.func, ast.Name) and n.exc.func.id == exc)


def _raising_lines(trips, path: Path, exc_type: type) -> set[int]:
    """The line of the raising frame of each ``exc_type`` that a trip
    raises, where that frame is in ``path``."""
    lines = set()
    for trip in trips:
        try:
            trip()
        except exc_type as exc:
            frame = traceback.extract_tb(exc.__traceback__)[-1]
            if Path(frame.filename).resolve() == path.resolve():
                lines.add(frame.lineno)
    return lines


def _unfired(spans, lines: set[int]) -> list[tuple[int, int]]:
    return [(lo, hi) for lo, hi in spans if not any(lo <= line <= hi for line in lines)]


def test_every_oracle_check_fires():
    from extraspecial.oracle import OracleMismatch
    from test_oracle import MISMATCH_TRIPS
    path = PACKAGE / "oracle.py"
    spans = _raise_spans(ast.parse(path.read_text(), filename=str(path)), "OracleMismatch")
    lines = _raising_lines([trip for trip, _ in MISMATCH_TRIPS.values()], path,
                           OracleMismatch)
    assert len(spans) > 1
    assert _unfired(spans, lines) == []


def test_check_sees_an_unreachable_raise(tmp_path):
    planted = ("class Mismatch(Exception):\n    pass\n"
               "def check(x):\n    if x < 0:\n        raise Mismatch(\n"
               "            'negative')\n"
               "    if x < 0 and x > 0:\n        raise Mismatch('never')\n"
               "    return x\n")
    path = tmp_path / "planted.py"
    path.write_text(planted)
    space = {}
    exec(compile(planted, str(path), "exec"), space)
    spans = _raise_spans(ast.parse(planted), "Mismatch")
    assert spans == [(5, 6), (8, 8)]
    lines = _raising_lines([lambda: space["check"](-1), lambda: space["check"](1)], path,
                           space["Mismatch"])
    assert _unfired(spans, lines) == [(8, 8)]
    # a raising frame in another file fires nothing here
    assert _raising_lines([lambda: space["check"](-1)], tmp_path / "other.py",
                          space["Mismatch"]) == set()


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
