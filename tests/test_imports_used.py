"""Tooling check: every name a module imports is read in that module.

Each module of the package (except ``__init__.py``, which imports to
re-export) and of the test suite is parsed with ``ast``; a name bound by
an import must appear as a loaded ``Name`` somewhere in the module.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path.relative_to(ROOT).as_posix()
    for folder in (ROOT / "src" / "bgmu", ROOT / "tests")
    for path in folder.glob("*.py")
    if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """Names bound by an import (``__future__`` aside) that the module
    never reads, each with the line of its import."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(f"{name} (line {line})" for name, line in bound.items() if name not in read)


def test_unused_imports_are_found():
    source = "import os\nimport a.b as c\nfrom x import y, z\nprint(z)\n"
    assert unused_imports(source) == ["c (line 2)", "os (line 1)", "y (line 3)"]
    assert unused_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_read(module):
    assert unused_imports((ROOT / module).read_text()) == []
