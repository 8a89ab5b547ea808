"""No pcgl module reads the process environment.

Stdlib-only: each module under src/pcgl is parsed with ``ast`` and every
read of ``os.environ`` or call of ``os.getenv`` (also when imported by name
from ``os``) is reported, so limits and options stay in code and argv.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "pcgl"
MODULES = sorted(SRC.glob("*.py"))
ENV_NAMES = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(source: str):
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr in ENV_NAMES
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            found.append((node.lineno, f"os.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found.extend((node.lineno, f"os.{a.name}") for a in node.names if a.name in ENV_NAMES)
    return sorted(found)


def test_scanner_flags_environment_reads():
    src = ("import os\nfrom os import getenv\n"
           "a = os.environ.get('X', '1')\nb = os.getenv('Y')\nc = os.path.join('a')\n")
    assert environment_reads(src) == [(2, "os.getenv"), (3, "os.environ"), (4, "os.getenv")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_environment_reads(path):
    assert environment_reads(path.read_text()) == []
