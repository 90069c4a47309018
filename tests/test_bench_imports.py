"""The benchmark under ``bench/`` imports package names that the test
suite does not otherwise pin: every one of them must still resolve."""

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
MODULES = ("bgmu", "bgmu.acceptable", "bgmu.newton")


def bench_imports(path: Path):
    """(module, name) for every ``from <module> import name`` of the
    package modules above."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.module in MODULES:
            yield from ((node.module, alias.name) for alias in node.names)


@pytest.mark.parametrize("script", ["workloads.py", "corpus.py"])
def test_bench_imports_resolve(script):
    imports = list(bench_imports(BENCH / script))
    assert imports
    missing = [
        f"{module}.{name}" for module, name in imports
        if not hasattr(importlib.import_module(module), name)
    ]
    assert not missing
