"""Every name a pcgl module or test file imports is used in that file, and
every pcgl module imports at module level.

Stdlib-only: each module under src/pcgl and each file under tests is parsed
with ``ast`` and the names its import statements bind are checked against
the names it reads.  The package ``__init__`` re-exports names on purpose
and is exempt from that check.  No module imports inside a function body, so
a module's dependencies are all listed at its top; the tests are not held to
that rule.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "pcgl"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


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
