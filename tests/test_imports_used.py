"""Tooling check: every name a module imports is read in that module.

Each module of the package (except ``__init__.py``, which imports to
re-export) and of the test suite is parsed with ``ast``; a name bound by
an import must appear as a loaded ``Name`` somewhere in the module.

The converse runs on the same modules with ``symtable``: every name
that a function, class or comprehension of a module reads as a global
must be bound in the module once it is imported, or be a builtin.

A second check covers the package's private definitions: a module-level
function, class or constant of ``src/bgmu`` named with one leading
underscore must be read somewhere in the package outside the statement
that defines it. Its public counterpart covers module-level functions
and classes without a leading underscore: each is read in the package
outside its definition, read in ``bench/``, named as an entry point in
``pyproject.toml``, or exported by ``bgmu``.

A third check covers the package's records: every annotated field of a
``NamedTuple``, of a ``_Frozen`` value or of a ``@dataclass`` in
``src/bgmu`` must be read as an attribute somewhere in the package, in
``bench/`` or in the test suite.

A fourth check keeps raw element formats inside the modules that own
them: ``reduction`` imports none of the helpers that read the descent
walk's lists, the admissible set's (trans, images) tuples or the Newton
map's keying internals. A fifth keeps decisions there: ``reduction``
imports neither the sigma0-average and height helpers nor the brute
force's guard policy.
"""

import ast
import builtins
import importlib
import symtable
import tomllib
from pathlib import Path

import pytest

import bgmu

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


def global_reads(source: str, filename: str = "<module>") -> set[str]:
    """The names that the module's functions, classes and comprehensions,
    at any depth, read as globals."""
    found: set[str] = set()
    tables = list(symtable.symtable(source, filename, "exec").get_children())
    while tables:
        table = tables.pop()
        found.update(sym.get_name() for sym in table.get_symbols()
                     if sym.is_global() and sym.is_referenced())
        tables += table.get_children()
    return found


def test_global_reads_are_found():
    source = ("import os\nX = 1\ndef f(a):\n    b = a\n    return [os.sep for _ in Y] + [b, X]\n"
              "class C:\n    def m(self):\n        global Z\n        Z = 1\n        return W\n")
    assert global_reads(source) == {"os", "X", "Y", "W"}


@pytest.mark.parametrize("module", MODULES)
def test_every_global_read_is_bound(module):
    path = ROOT / module
    name = ("bgmu." if module.startswith("src/") else "") + path.stem
    bound = set(vars(importlib.import_module(name))) | set(vars(builtins))
    assert sorted(global_reads(path.read_text(), module) - bound) == []


PACKAGE = sorted((ROOT / "src" / "bgmu").glob("*.py"))


def _private_definitions(tree: ast.Module) -> list[tuple[str, ast.stmt]]:
    """Module-level functions, classes and constants named with one
    leading underscore, each with the statement that defines it."""
    out = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        out += [(name, stmt) for name in names if name[:1] == "_" and name[:2] != "__"]
    return out


def dead_definitions(sources: dict[str, str]) -> list[str]:
    """Private module-level names (``_private_definitions``) that no
    module reads outside the statement defining them, as module.name."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reads: dict[str, list[ast.stmt]] = {}
    for tree in trees.values():
        for stmt in tree.body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    reads.setdefault(node.id, []).append(stmt)
                elif isinstance(node, ast.Attribute):
                    reads.setdefault(node.attr, []).append(stmt)
    return sorted(
        f"{module}.{name}"
        for module, tree in trees.items()
        for name, stmt in _private_definitions(tree)
        if all(s is stmt for s in reads.get(name, []))
    )


def test_dead_definitions_are_found():
    sources = {
        "a": "def _f():\n    return _f()\n_K = 1\ndef _g():\n    return _K\nclass _C:\n    pass\n",
        "b": "from a import _g\nprint(_g())\n",
    }
    assert dead_definitions(sources) == ["a._C", "a._f"]


def test_every_private_definition_is_read():
    sources = {path.stem: path.read_text() for path in PACKAGE}
    assert dead_definitions(sources) == []


def dead_public_definitions(sources: dict[str, str], readers: list[str], kept: set[str]) -> list[str]:
    """Public module-level functions and classes, as module.name, that
    no module of ``sources`` reads by name outside the statement
    defining them, that no reader source reads (by name or as an
    attribute) or imports, and that are not in ``kept`` (the exports
    and entry points)."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    # the package reads its own functions and classes by name; an
    # attribute of the same name (a record field) is not a read
    read: dict[str, list[ast.stmt]] = {}
    for tree in trees.values():
        for stmt in tree.body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    read.setdefault(node.id, []).append(stmt)
    outside = set(kept)
    for node in (node for source in readers for node in ast.walk(ast.parse(source))):
        if isinstance(node, ast.Name):
            outside.add(node.id)
        elif isinstance(node, ast.Attribute):
            outside.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            outside.update(alias.name for alias in node.names)
    return sorted(
        f"{module}.{stmt.name}"
        for module, tree in trees.items()
        for stmt in tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not stmt.name.startswith("_") and stmt.name not in outside
        and all(s is stmt for s in read.get(stmt.name, []))
    )


def test_dead_public_definitions_are_found():
    sources = {
        "a": "def f():\n    return f()\ndef g():\n    return h()\ndef h():\n    pass\n"
             "class C:\n    pass\ndef entry():\n    pass\ndef _p():\n    pass\n"
             "def r():\n    pass\ndef s(x):\n    return x.r\n",
        # an import inside the package is not a read
        "b": "from .a import g\ndef m():\n    pass\ndef n():\n    pass\n",
    }
    readers = ["from b import m\nimport a\nprint(a.C, a.s)\n"]
    assert dead_public_definitions(sources, readers, {"entry"}) == ["a.f", "a.g", "a.r", "b.n"]


def test_every_public_definition_is_used():
    sources = {path.stem: path.read_text() for path in PACKAGE}
    readers = [path.read_text() for path in sorted((ROOT / "bench").glob("*.py"))]
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    entries = {target.split(":")[1] for target in scripts.values()}
    exports = {name for name in vars(bgmu) if not name.startswith("_")}
    assert dead_public_definitions(sources, readers, entries | exports) == []


def _name(node: ast.expr) -> str:
    node = node.func if isinstance(node, ast.Call) else node
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def _is_record(cls: ast.ClassDef) -> bool:
    """Whether the class body's annotations are its fields: a
    ``NamedTuple``, a ``_Frozen`` value or a ``@dataclass``."""
    return (any(_name(base) in ("NamedTuple", "_Frozen") for base in cls.bases)
            or any(_name(decorator) == "dataclass" for decorator in cls.decorator_list))


def unread_fields(package: dict[str, str], readers: list[str]) -> list[str]:
    """Annotated fields of the package's records (``_is_record``), as
    module.Class.field, that no attribute load in the package or in the
    reader sources reads."""
    trees = {module: ast.parse(source) for module, source in package.items()}
    loads = {
        node.attr
        for tree in [*trees.values(), *map(ast.parse, readers)]
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return sorted(
        f"{module}.{cls.name}.{stmt.target.id}"
        for module, tree in trees.items()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and _is_record(cls)
        for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
        and stmt.target.id not in loads
    )


def test_unread_fields_are_found():
    sources = {
        "a": "@dataclass(frozen=True)\nclass P:\n    x: int\n    y: int\n    z: int = 0\n"
             "class Q:\n    y: int\n",
        "b": "@dataclasses.dataclass\nclass R:\n    w: int\n    def f(self):\n        return self.x\n",
        "c": "class S(typing.NamedTuple):\n    u: int\n    v: int\n"
             "class T(_Frozen):\n    s: int\n    t: int\n    def __init__(self, s, t):\n"
             "        self._set(s=s, t=t, _d=s + t)\n",
    }
    readers = ["print(P(1, 2).z)\n", "r.w = 1\n", "print(S(1, 2).v, T(1, 2).s, x.u[0])\n"]
    assert unread_fields(sources, readers) == ["a.P.y", "b.R.w", "c.T.t"]


def test_every_record_field_is_read():
    sources = {path.stem: path.read_text() for path in PACKAGE}
    readers = [
        path.read_text() for folder in ("bench", "tests") for path in sorted((ROOT / folder).glob("*.py"))
    ]
    assert unread_fields(sources, readers) == []


def imported_names(source: str) -> set[tuple[str, str]]:
    """(module, name) for every name bound by ``from module import
    name``, the module without its leading dots."""
    return {
        (node.module or "", alias.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def test_imported_names_are_found():
    source = "from .weyl import _window, bruhat_leq\nfrom typing import Optional\nimport os\n"
    assert imported_names(source) == {("weyl", "_window"), ("weyl", "bruhat_leq"), ("typing", "Optional")}


OWNED_ELSEWHERE = {
    ("weyl", "_window"), ("weyl", "_from_window"), ("weyl", "_window_length"),
    ("weyl", "_nodes"), ("weyl", "_swap"), ("weyl", "_walk"),
    ("acceptable", "_adm_raw"), ("acceptable", "_adm_order"),
    ("acceptable", "_conjugate"), ("acceptable", "_omega_blocks"),
    ("newton", "_linear_part"), ("newton", "_newton_keys"),
}


# the helpers behind decisions that other modules own: the sigma0
# averages and heights of the Levi descent's hypotheses, which the final
# check covers, and the brute force's guard policy, which the brute
# force applies itself
DECIDED_ELSEWHERE = {
    ("newton", "_diamond"), ("newton", "_scaled_heights"), ("newton", "simple_nodes"),
    ("acceptable", "_adm_refusal"), ("acceptable", "BRUTE_GUARD_N"),
}


def test_reduction_reads_no_raw_element_format():
    source = (ROOT / "src" / "bgmu" / "reduction.py").read_text()
    assert sorted(imported_names(source) & OWNED_ELSEWHERE) == []


def test_reduction_re_derives_no_decision_owned_elsewhere():
    source = (ROOT / "src" / "bgmu" / "reduction.py").read_text()
    assert sorted(imported_names(source) & DECIDED_ELSEWHERE) == []


def constructions_outside(source: str, classes: set[str], owner: str) -> list[str]:
    """Calls that construct one of ``classes``, ``C(...)`` or
    ``C.factory(...)``, outside the function named ``owner``, each as
    class in function (line); module-level calls count as ``<module>``."""
    found = []

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func.value if isinstance(child.func, ast.Attribute) else child.func
                if isinstance(func, ast.Name) and func.id in classes and where != owner:
                    found.append(f"{func.id} in {where} (line {child.lineno})")
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


def test_constructions_outside_are_found():
    source = ("X = A()\ndef f():\n    return A.make(B())\ndef g():\n    def f():\n        return A()\n"
              "    return A(), b.A()\n")
    assert constructions_outside(source, {"A"}, "f") == ["A in <module> (line 1)", "A in g (line 7)"]


def test_reduction_builds_every_sub_twist_in_sub_twist():
    # each reduction stage builds its sub-problem's twist once, through
    # the one function that checks it
    source = (ROOT / "src" / "bgmu" / "reduction.py").read_text()
    assert constructions_outside(source, {"Frobenius", "Sigma0"}, "_sub_twist") == []
