"""Source hygiene: every name a package module imports is used in it, every
function, class and method of the package is named by other package code,
every field of a package ``Record`` is read as an attribute by package code,
every ``raise OracleMismatch`` of ``oracle.py`` is the raising frame of a
trip in ``test_oracle.MISMATCH_TRIPS``, every function and method that a
traced run of the CLI never enters is listed in ``CLI_UNREACHED`` with the
reason it stays, no package module imports
``dataclasses`` or ``inspect`` (whose import, with what it pulls in, is a
large part of a CLI process's start-up), and every source file parses at
the Python floor that pyproject.toml declares.

``__init__.py`` imports to re-export, so it is exempt from the import check,
and its re-exports do not reach a definition.  Names that occur only inside
string annotations (``-> "TowerElement"``) count as used imports.
"""

import ast
import json
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
    live = ("class Box(Record):\n    v: int\n    w: int = 0\n"
            "def get(box):\n    return box.v + box.w\n")
    assert _unread_fields({"m.py": ast.parse(live)}) == set()
    # assignment and keyword construction are not reads
    dead = live.replace("box.v + box.w", "box.v") + "Box(1, w=2).w = 3\n"
    assert _unread_fields({"m.py": ast.parse(dead)}) == {"m.py:Box.w"}
    # a class that is not a record is not checked
    assert _unread_fields({"m.py": ast.parse(dead.replace("(Record)", ""))}) == set()


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


# -- the definitions a CLI run never enters -------------------------------------

# a fresh interpreter, so that no cache of an earlier test (residue_field's
# tables, say) hides a call; the trace is set before any package import
_TRACE = """\
import contextlib, io, json, sys
entered = set()

def tracer(frame, event, arg):
    entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

sys.settrace(tracer)
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    exec(sys.argv[1])
sys.settrace(None)
print(json.dumps(sorted(entered)))
"""


def _entered(run: str, path: Path) -> set[tuple[str, int]]:
    """(file, first line) of each code object a fresh interpreter enters
    while it runs the statements ``run``, imports included, with ``path``
    on its module path; the CLI's output is discarded."""
    env = {**os.environ, "PYTHONPATH": str(path)}
    out = subprocess.run([sys.executable, "-c", _TRACE, run], env=env, capture_output=True,
                         text=True, check=True, timeout=300)
    return {(str(Path(f).resolve()), line) for f, line in json.loads(out.stdout)}


def _functions(tree: ast.Module):
    """(qualified name, first line) of each top-level function and each
    method of a top-level class, dunders included.  The first line is the
    first decorator's, as in ``co_firstlineno``."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            found = [(node.name, node)]
        elif isinstance(node, ast.ClassDef):
            found = [(f"{node.name}.{sub.name}", sub) for sub in node.body
                     if isinstance(sub, ast.FunctionDef)]
        else:
            found = []
        for qual, fn in found:
            yield qual, min([fn.lineno] + [d.lineno for d in fn.decorator_list])


def _never_entered(paths, entered: set[tuple[str, int]]) -> set[str]:
    """``file:qualname`` of each function of ``paths`` that ``entered``
    does not hold."""
    return {f"{path.name}:{qual}" for path in paths
            for qual, line in _functions(ast.parse(path.read_text(), filename=str(path)))
            if (str(path.resolve()), line) not in entered}


# the definitions the CLI run of test_cli_enters_every_definition never
# enters, each with the reason it stays
CLI_UNREACHED = {
    "localfield.py:_level_norm": "the norm of a level where an element is not linear; every "
                                 "element a verify values is linear on every level (the "
                                 "induction in CHANGES.md). It moves to the tests once "
                                 "bench/bench_trace.py stops patching localfield.ring_det "
                                 "by name (ROADMAP item 4)",
    "localfield.py:TowerElement.__bool__": "refuses a truth value; nothing asks for one",
    "localfield.py:TowerElement.__str__": "the text of an element, for test failures",
    "localfield.py:TowerElement.__repr__": "the text of an element, for test failures",
    "localfield.py:GaloisMap.__eq__": "map equality, for the tests; is_identity compares "
                                      "images",
    "record.py:Record.__eq__": "record equality, for the tests",
    "record.py:Record.__repr__": "the text of a record, for test failures",
    "record.py:Record._values": "the field tuple of __eq__, __repr__, replace and hashing",
    "record.py:Record.replace": "the record API that tests use to build variants",
    "record.py:Record.__hash__": "hashes a record; no CLI path keys by one",
    "record.py:Record.__setattr__": "refuses a write to a record; nothing writes one",
    "record.py:Record.__delattr__": "refuses a deletion from a record; nothing deletes one",
    "valuation.py:FFElem.__eq__": "value equality, for the tests",
    "valuation.py:FFElem.__hash__": "FFElem is a hashable value; no CLI path hashes one",
    "valuation.py:FFElem.__repr__": "the text of an element, for test failures",
    "valuation.py:LaurentSeries.__sub__": "series subtraction, a ring operation; the tower "
                                          "layer negates and adds, and the tests spell "
                                          "differences with it, the field-table checks among "
                                          "them",
    "valuation.py:LaurentSeries.__bool__": "refuses a truth value; nothing asks for one",
    "valuation.py:LaurentSeries.__str__": "the text of a series, for test failures",
    "valuation.py:LaurentSeries.__repr__": "the text of a series, for test failures",
    "valuation.py:LaurentSeries.inverse": UNREACHED_ALLOWED["valuation.py:LaurentSeries.inverse"],
    "valuation.py:ResidueField.__hash__": "a field is a hashable value; no CLI path hashes one",
    "valuation.py:ResidueField.__repr__": "the text of a field, for test failures",
}


def test_cli_enters_every_definition():
    # the oracle ladder in JSON, each subcommand in text and JSON, both
    # directions of `ram convert`, and the spoiled oracle argv of test_cli
    from test_cli import ORACLE_H31, ORACLE_SPOILS
    from test_oracle import LADDER
    argvs = [["oracle", "verify", "--variant", v, "--p", str(p), "--n", str(n),
              "--u", "1", "--t", "1", "--output", "json"] for v, p, n in LADDER]
    for output in ("text", "json"):
        argvs += [argv + ["--output", output] for argv in [
            ["plan", "--variant", "H", "--p", "3", "--n", "1", "--r", "1", "--m", "0,0,1",
             "--leads", "1,g,1"],
            ["example", "--p", "3", "--n", "1", "--u", "1", "--t", "1", "--variant", "M"],
            ["verdict", "--p", "3", "--n", "1", "--c", "64", "--u1", "1"],
            ["ram", "convert", "--p", "3", "--lower", "1,1,82"],
            ["ram", "convert", "--p", "3", "--upper", "26,26,116"],
            ["ram", "tables", "--p", "3", "--n", "2", "--b", "1,10"],
            ["oracle", "verify", "--variant", "H", "--p", "3", "--n", "1", "--u", "1",
             "--t", "1"]]]
    argvs += [["oracle", "verify", *(x for k, v in {**ORACLE_H31, flag: value}.items()
                                     for x in (f"--{k}", v))]
              for flag, value in ORACLE_SPOILS]
    run = f"from extraspecial.cli import main\nfor argv in {argvs!r}:\n    main(argv)"
    entered = _entered(run, ROOT / "src")
    assert _never_entered(sorted(PACKAGE.glob("*.py")), entered) == set(CLI_UNREACHED)


def test_trace_sees_a_dead_helper(tmp_path):
    planted = ("class Box:\n    def __init__(self):\n        self.v = 1\n"
               "    @property\n    def value(self):\n        return self.v\n"
               "    def __repr__(self):\n        return 'Box'\n"
               "def helper():\n    return Box()\n"
               "def main():\n    return Box().value\n")
    path = tmp_path / "planted.py"
    path.write_text(planted)
    entered = _entered("import planted\nplanted.main()", tmp_path)
    assert _never_entered([path], entered) == {"planted.py:helper", "planted.py:Box.__repr__"}
