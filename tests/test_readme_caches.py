"""Tooling check: README's "Concurrency" section names every
process-wide cache of the package.

Each module of ``src/bgmu`` is parsed with ``ast``. A cache is a
function wrapped by ``lru_cache`` or ``functools.cache`` (as a decorator
or by a call whose result is bound at module level), or module-level
state: a name bound to an empty dict at module level, or rebound by a
``global`` statement. Its name is ``Class.function`` for a method and
``module.name`` otherwise, and the section must name it in backticks.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bgmu"
CACHE_WRAPPERS = {"lru_cache", "cache"}


def _is_cache_wrapper(node: ast.expr) -> bool:
    """lru_cache, cache, functools.lru_cache, functools.cache, or a
    call of one of them (``lru_cache(maxsize=64)``)."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr in CACHE_WRAPPERS
    return isinstance(node, ast.Name) and node.id in CACHE_WRAPPERS


def caches(module: str, source: str) -> list[str]:
    """The process-wide caches that one module's source defines."""
    tree = ast.parse(source)
    found = []
    for node in tree.body:
        targets = []
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        for target in targets:
            if isinstance(target, ast.Name) and (
                (isinstance(value, ast.Dict) and not value.keys)
                or (isinstance(value, ast.Call) and _is_cache_wrapper(value.func))
            ):
                found.append(f"{module}.{target.id}")
    for node in ast.walk(tree):
        if isinstance(node, ast.Global):
            found += [f"{module}.{name}" for name in node.names]
    for owner in [tree, *(n for n in tree.body if isinstance(n, ast.ClassDef))]:
        prefix = owner.name if isinstance(owner, ast.ClassDef) else module
        for node in owner.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                _is_cache_wrapper(d) for d in node.decorator_list
            ):
                found.append(f"{prefix}.{node.name}")
    return sorted(set(found))


def concurrency_section() -> str:
    text = (ROOT / "README.md").read_text()
    start = text.index("## Concurrency\n")
    end = text.find("\n## ", start + 1)
    return text[start : end if end >= 0 else len(text)]


PACKAGE_CACHES = sorted(
    name
    for path in PACKAGE.glob("*.py")
    for name in caches(path.stem, path.read_text())
)


def test_caches_are_found():
    source = (
        "import functools\n"
        "from functools import lru_cache\n"
        "_TABLE: dict[int, int] = {}\n"
        "_FILLED = {1: 2}\n"
        "_LAST = None\n"
        "_parser = functools.cache(build)\n"
        "@lru_cache(maxsize=8)\n"
        "def f(x):\n"
        "    global _LAST\n"
        "    _LAST = x\n"
        "class C:\n"
        "    @staticmethod\n"
        "    @functools.cache\n"
        "    def g(n):\n"
        "        return n\n"
        "    def h(self):\n"
        "        return 0\n"
    )
    assert caches("m", source) == ["C.g", "m._LAST", "m._TABLE", "m._parser", "m.f"]


def test_the_package_caches_are_seen():
    # the package keeps state across problems in these three only: the
    # block Adm table, the superbasic twist data and the CLI's parser
    assert PACKAGE_CACHES == ["acceptable._BLOCK_ADM", "cli._parser", "superbasic._twist_data"]


def test_no_module_has_a_global_statement():
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text())
        assert not any(isinstance(node, ast.Global) for node in ast.walk(tree)), path.name


@pytest.mark.parametrize("name", PACKAGE_CACHES)
def test_readme_names_every_cache(name):
    assert f"`{name}`" in concurrency_section()
