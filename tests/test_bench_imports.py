"""The benchmark under ``bench/`` imports package names that the test
suite does not otherwise pin: every one of them must still resolve. So
must the ``<module>.<name>`` that each per-layer metric of
``bench/run.py`` names, since the tracer wraps that attribute of
``bgmu.<module>``."""

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


# per-layer prefixes that name no package attribute: counters the tracer
# keeps itself, and functions that are gone, whose metrics read 0 until
# the benchmark drops them
COUNTERS = {"weyl.length", "weyl.mul", "reduction.lift", "cli.stdout_bytes"}
DEAD = {
    "weyl.left_descent", "weyl.bruhat_memo", "weyl.bruhat_lower_set", "weyl.reduced_word",
    "superbasic.bruhat_lt", "reduction.factor_witness", "reduction.product_split",
    "reduction.parabolic_reduce",
}


def per_layer_prefixes(source: str) -> list[str]:
    """The ``<module>.<name>`` prefixes of the keys of the module-level
    ``PER_LAYER`` dict, in order, each once."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "PER_LAYER" for t in node.targets
        ):
            keys = [".".join(key.value.split(".")[:2]) for key in node.value.keys]
            return list(dict.fromkeys(keys))
    return []


def _resolves(prefix: str) -> bool:
    module, name = prefix.split(".")
    return hasattr(importlib.import_module("bgmu." + module), name)


def test_per_layer_prefixes_are_found():
    source = 'X = {"a.b.c": 1}\nPER_LAYER = {"m.f.calls": "u", "m.f.self_s": "u", "m.g": "v"}\n'
    assert per_layer_prefixes(source) == ["m.f", "m.g"]


def test_per_layer_names_resolve():
    prefixes = per_layer_prefixes((BENCH / "run.py").read_text())
    checked = [p for p in prefixes if p not in COUNTERS | DEAD and not p.startswith("trace.")]
    assert checked
    assert [p for p in checked if not _resolves(p)] == []
    # a dead name that resolves again belongs in the checked list
    assert [p for p in DEAD if _resolves(p)] == []
