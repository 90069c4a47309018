"""Tooling check: README's "Concurrency" section names every
process-wide cache of the package.

Each module of ``src/bgmu`` is parsed with ``ast``. A cache is a
function wrapped by ``lru_cache`` or ``functools.cache`` (as a decorator
or by a call whose result is bound at module level), or state: a
name bound to an empty table (``{}``, ``dict()`` or ``set()``) at
module level or in a class body, or rebound by a ``global`` statement.
Its name is ``Class.name`` for a method or a class attribute and
``module.name`` otherwise, and the section must name it in backticks.

A memo must also keep a bound: every ``lru_cache`` passes an integer
``maxsize``, and ``functools.cache`` only wraps a function of no
arguments, whose memo holds one value. The section's bullet for an
``lru_cache`` states that bound as "at most N entries".

A derived attribute, a ``cached_property`` of ``newton.Sigma0`` or
``newton.Frobenius``, is computed once per value and read by every
problem on it, so the section's paragraph on derived attributes must
name each one as ``Class.name`` in backticks.
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


def _is_empty_table(node: ast.expr) -> bool:
    """``{}``, ``dict()`` or ``set()``: a table that starts empty and is
    filled as the process runs."""
    if isinstance(node, ast.Dict):
        return not node.keys
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("dict", "set") and not node.args and not node.keywords)


def _assignments(body: list[ast.stmt]):
    """(name, value) for each name bound by an assignment in body, a
    module's or a class's."""
    for node in body:
        targets = []
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        for target in targets:
            if isinstance(target, ast.Name):
                yield target.id, value


def _memos(module: str, tree: ast.Module):
    """(name, wrapper, wrapped) for each function that the module wraps
    in a cache; wrapped is the function's definition, or None when the
    module does not define it."""
    defs = {n.name: n for n in tree.body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))}
    for name, value in _assignments(tree.body):
        if isinstance(value, ast.Call) and _is_cache_wrapper(value.func):
            arg = value.args[0] if value.args else None
            yield f"{module}.{name}", value.func, defs.get(arg.id) if isinstance(arg, ast.Name) else None
    for owner in [tree, *(n for n in tree.body if isinstance(n, ast.ClassDef))]:
        prefix = owner.name if isinstance(owner, ast.ClassDef) else module
        for node in owner.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for d in node.decorator_list:
                    if _is_cache_wrapper(d):
                        yield f"{prefix}.{node.name}", d, node


def caches(module: str, source: str) -> list[str]:
    """The process-wide caches that one module's source defines."""
    tree = ast.parse(source)
    found = [name for name, _, _ in _memos(module, tree)]
    for owner in [tree, *(n for n in tree.body if isinstance(n, ast.ClassDef))]:
        prefix = owner.name if isinstance(owner, ast.ClassDef) else module
        found += [f"{prefix}.{name}" for name, value in _assignments(owner.body)
                  if _is_empty_table(value)]
    for node in ast.walk(tree):
        if isinstance(node, ast.Global):
            found += [f"{module}.{name}" for name in node.names]
    return sorted(set(found))


def _maxsize(wrapper: ast.expr):
    """The integer maxsize that a call of lru_cache passes, else None."""
    if not isinstance(wrapper, ast.Call):
        return None
    sizes = wrapper.args[:1] + [k.value for k in wrapper.keywords if k.arg == "maxsize"]
    return next((s.value for s in sizes if isinstance(s, ast.Constant) and type(s.value) is int),
                None)


def _bounded(wrapper: ast.expr, wrapped) -> bool:
    """lru_cache called with an integer maxsize, or cache around a
    function of no arguments."""
    if isinstance(wrapper, ast.Call):
        return _maxsize(wrapper) is not None
    name = wrapper.attr if isinstance(wrapper, ast.Attribute) else wrapper.id
    if name != "cache" or wrapped is None:
        return False
    args = wrapped.args
    return not (args.posonlyargs or args.args or args.vararg or args.kwonlyargs or args.kwarg)


def unbounded(module: str, source: str) -> list[str]:
    """The memos of one module's source that keep no bound."""
    return sorted(name for name, wrapper, wrapped in _memos(module, ast.parse(source))
                  if not _bounded(wrapper, wrapped))


def maxsizes(module: str, source: str) -> dict[str, int]:
    """The integer maxsize of each lru_cache of one module's source."""
    sizes = {name: _maxsize(wrapper) for name, wrapper, _ in _memos(module, ast.parse(source))}
    return {name: size for name, size in sizes.items() if size is not None}


def concurrency_section() -> str:
    text = (ROOT / "README.md").read_text()
    start = text.index("## Concurrency\n")
    end = text.find("\n## ", start + 1)
    return text[start : end if end >= 0 else len(text)]


def bullet(name: str) -> str:
    """The section's bullet that starts with the cache's name, up to the
    next bullet or the end of its paragraph."""
    items = concurrency_section().split("\n* ")[1:]
    return next(item.split("\n\n")[0] for item in items if item.startswith(f"`{name}`"))


PACKAGE_CACHES = sorted(
    name
    for path in PACKAGE.glob("*.py")
    for name in caches(path.stem, path.read_text())
)
PACKAGE_MAXSIZES = {
    name: size
    for path in PACKAGE.glob("*.py")
    for name, size in maxsizes(path.stem, path.read_text()).items()
}


def test_caches_are_found():
    source = (
        "import functools\n"
        "from functools import lru_cache\n"
        "_TABLE: dict[int, int] = {}\n"
        "_FILLED = {1: 2}\n"
        "_SEEN = set()\n"
        "_LAST = None\n"
        "_parser = functools.cache(build)\n"
        "@lru_cache(maxsize=8)\n"
        "def f(x):\n"
        "    global _LAST\n"
        "    _LAST = x\n"
        "class C:\n"
        "    _kept = {}\n"
        "    _named: set = set()\n"
        "    _also = dict()\n"
        "    _fixed = {'a': 1}\n"
        "    _sized = dict(a=1)\n"
        "    _none = None\n"
        "    @staticmethod\n"
        "    @functools.cache\n"
        "    def g(n):\n"
        "        _local = {}\n"
        "        return n\n"
        "    def h(self):\n"
        "        return 0\n"
    )
    assert caches("m", source) == [
        "C._also", "C._kept", "C._named", "C.g",
        "m._LAST", "m._SEEN", "m._TABLE", "m._parser", "m.f",
    ]


def test_unbounded_memos_are_found():
    source = (
        "import functools\n"
        "from functools import lru_cache\n"
        "def build():\n"
        "    return 1\n"
        "def keyed(x):\n"
        "    return x\n"
        "_one = functools.cache(build)\n"
        "_many = functools.cache(keyed)\n"
        "_imported = functools.cache(other)\n"
        "_sized = lru_cache(8)(keyed)\n"
        "@lru_cache(maxsize=64)\n"
        "def a(x):\n"
        "    return x\n"
        "@lru_cache(maxsize=None)\n"
        "def b(x):\n"
        "    return x\n"
        "@lru_cache\n"
        "def c(x):\n"
        "    return x\n"
        "class C:\n"
        "    @staticmethod\n"
        "    @functools.cache\n"
        "    def g(n):\n"
        "        return n\n"
    )
    assert unbounded("m", source) == ["C.g", "m._imported", "m._many", "m.b", "m.c"]


def test_maxsizes_are_found():
    source = (
        "import functools\n"
        "from functools import lru_cache\n"
        "def keyed(x):\n"
        "    return x\n"
        "_one = functools.cache(keyed)\n"
        "_sized = lru_cache(8)(keyed)\n"
        "@lru_cache(maxsize=1024)\n"
        "def a(x):\n"
        "    return x\n"
        "@functools.lru_cache(maxsize=None)\n"
        "def b(x):\n"
        "    return x\n"
    )
    assert maxsizes("m", source) == {"m._sized": 8, "m.a": 1024}


def test_the_package_caches_are_seen():
    # the package keeps state across problems in these ten only: the
    # interned twists, automorphisms and data, the block Adm table, the
    # superbasic twist data, the reduction's per-twist stages, the brute
    # force's keying plans, the CLI's parsed twists, the CLI's twist
    # headers and the CLI's parser
    assert PACKAGE_CACHES == [
        "Frobenius._interned", "GroupDatum._interned", "Sigma0._interned",
        "acceptable._BLOCK_ADM", "cli._parse_sigma", "cli._parser", "cli._twist_header",
        "newton._keying_plan", "reduction._stage", "superbasic._twist_data",
    ]


def test_every_memo_is_bounded():
    for path in PACKAGE.glob("*.py"):
        assert unbounded(path.stem, path.read_text()) == [], path.name


def test_no_module_has_a_global_statement():
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text())
        assert not any(isinstance(node, ast.Global) for node in ast.walk(tree)), path.name


@pytest.mark.parametrize("name", PACKAGE_CACHES)
def test_readme_names_every_cache(name):
    assert f"`{name}`" in concurrency_section()


@pytest.mark.parametrize("name", sorted(PACKAGE_MAXSIZES))
def test_readme_states_every_memo_bound(name):
    assert f"at most {PACKAGE_MAXSIZES[name]:,} entries" in bullet(name)


def test_readme_states_the_twist_table_bound():
    # the interned twists, automorphisms and data are tables, not
    # lru_caches: their bound is the constant that ``weyl._Interned``
    # holds each table to
    from bgmu.weyl import _INTERN_BOUND

    for name in ("Frobenius._interned", "GroupDatum._interned", "Sigma0._interned"):
        assert f"at most {_INTERN_BOUND:,} entries" in bullet(name), name


def derived_attributes(source: str, classes: set[str]) -> list[str]:
    """``Class.name`` for every ``cached_property`` (bare or as
    ``functools.cached_property``) in the bodies of ``classes``."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef) and node.name in classes:
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and any(
                        (d.attr if isinstance(d, ast.Attribute) else getattr(d, "id", None))
                        == "cached_property" for d in item.decorator_list):
                    found.append(f"{node.name}.{item.name}")
    return found


def test_derived_attributes_are_found():
    source = ("import functools\n"
              "class A:\n    @cached_property\n    def x(self): return 1\n"
              "    @functools.cached_property\n    def _y(self): return 2\n"
              "    @property\n    def z(self): return 3\n"
              "class B:\n    @cached_property\n    def w(self): return 4\n")
    assert derived_attributes(source, {"A"}) == ["A.x", "A._y"]


def derived_attributes_paragraph() -> str:
    """The Concurrency section's paragraph on what a ``Sigma0`` and a
    ``Frobenius`` derive from their fields."""
    text = concurrency_section()
    start = text.index("A `Sigma0` computes")
    end = text.find("\n\n", start)
    return text[start : end if end >= 0 else len(text)]


@pytest.mark.parametrize("name", derived_attributes(
    (PACKAGE / "newton.py").read_text(), {"Sigma0", "Frobenius"}))
def test_readme_names_every_derived_attribute(name):
    # a derived attribute is computed once per value and shared by every
    # problem on it, as a cache is, so it is held to the same rule
    assert f"`{name}`" in derived_attributes_paragraph()
