"""Every name a pcgl module or test file imports is used in that file, every
pcgl module imports at module level, no pcgl module imports from the tests
or imports dataclasses, and every function and class pcgl defines is read by
the program.

Stdlib-only: each module under src/pcgl and each file under tests is parsed
with ``ast`` and the names its import statements bind are checked against
the names it reads.  The package ``__init__`` re-exports names on purpose
and is exempt from that check.  No module imports inside a function body, so
a module's dependencies are all listed at its top; the tests are not held to
that rule.  pytest puts tests/ on sys.path, so a pcgl import of an oracle
kept there would pass the suite and fail for every installed user.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "pcgl"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))
BENCH = sorted((ROOT / "perfbench").glob("*.py"))

# Top-level names no src module or benchmark file reads, each with its reason.
UNREAD_ALLOWED = {
    "check_log_canonical": "the log-canonical check that chain-verify is to run on every seed",
}


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scanner_flags_an_unused_import():
    src = "from typing import Dict, List\nimport os.path\nx: List[int] = []\n"
    assert unused_imports(src) == [(1, "Dict"), (2, "os")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", TESTS, ids=lambda p: p.name)
def test_no_unused_imports_in_tests(path):
    assert unused_imports(path.read_text()) == []


def function_local_imports(source: str):
    tree = ast.parse(source)
    found = []
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found += [(node.lineno, fn.name)
                      for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))]
    return sorted(set(found))


def test_scanner_flags_a_function_local_import():
    src = "import os\ndef f():\n    from math import gcd\n    return gcd\nclass C:\n    def g(self):\n        import json\n"
    assert function_local_imports(src) == [(3, "f"), (7, "g")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_function_local_imports(path):
    assert function_local_imports(path.read_text()) == []


def imported_modules(source: str) -> set:
    """Top-level package names a file's import statements name (absolute imports only)."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.split(".")[0])
    return found


def test_scanner_finds_imported_modules():
    src = "import os.path\nfrom dataclasses import field\nfrom . import poly\ndef f():\n    import json\n"
    assert imported_modules(src) == {"os", "dataclasses", "json"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_src_module_imports_dataclasses(path):
    # the records are NamedTuples: dataclasses would bring inspect, ast and dis
    # into the start-up of every command
    assert "dataclasses" not in imported_modules(path.read_text())


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_src_module_imports_a_test_module(path):
    local = {p.stem for p in TESTS} | {"tests"}
    assert imported_modules(path.read_text()) & local == set()


def read_names(source: str, strings: bool = False) -> set:
    """Names a file reads: loaded names and attributes, and with strings=True
    the dotted parts of its string constants (the benchmark's tracer names
    its targets as strings)."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(node.value.split("."))
    return names


def unread_definitions(src_paths, bench_paths):
    """Top-level functions and classes of src_paths that no file reads."""
    read = set()
    for p in src_paths:
        read |= read_names(p.read_text())
    for p in bench_paths:
        read |= read_names(p.read_text(), strings=True)
    defined = [node.name for p in src_paths for node in ast.parse(p.read_text()).body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    return sorted(name for name in defined if name not in read)


def test_scanner_flags_an_unread_definition(tmp_path):
    (tmp_path / "a.py").write_text("def used():\n    return 1\ndef unused():\n    return used()\n")
    (tmp_path / "b.py").write_text("class Traced:\n    pass\n")
    (tmp_path / "bench.py").write_text('TARGETS = {"x": ("pkg.b", "Traced.run")}\n')
    paths = [tmp_path / "a.py", tmp_path / "b.py"]
    assert unread_definitions(paths, []) == ["Traced", "unused"]
    assert unread_definitions(paths, [tmp_path / "bench.py"]) == ["unused"]


def test_every_src_definition_is_read():
    assert [n for n in unread_definitions(MODULES, BENCH) if n not in UNREAD_ALLOWED] == []
    assert set(UNREAD_ALLOWED) <= set(unread_definitions(MODULES, BENCH)), "stale allowlist entry"
