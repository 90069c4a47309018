"""The package's values and records.

Plain records are ``NamedTuple``s. The nine values that check their
input are ``_Frozen`` classes: immutable, and equal, hashed and printed
by their fields alone, whatever they derive from them; the group
elements ``Permutation`` and ``AffineElement`` among them. No other
class writes its own immutability, equality or hash. Importing the
package and its CLI loads neither ``dataclasses`` nor ``inspect``.
"""

import ast
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from bgmu.newton import Frobenius, KappaValue, NewtonPoint, Sigma0
from bgmu.reduction import Problem
from bgmu.superbasic import Segment
from bgmu.weyl import AffineElement, GroupDatum, Permutation, superbasic_element

ROOT = Path(__file__).resolve().parent.parent


def _values():
    d = GroupDatum((3,))
    fr = Frobenius.superbasic(1, 3)
    return [
        d,
        Sigma0.identity(d),
        fr,
        KappaValue(d, (1,)),
        NewtonPoint(d, (Fraction(1, 3),) * 3, KappaValue(d, (1,))),
        Problem((1, 0, 0), fr),
        Segment(1, (0, 1)),
        Permutation((2, 1, 3)),
        superbasic_element(1, 3),
    ]


@pytest.mark.parametrize("value", _values(), ids=lambda v: type(v).__name__)
def test_values_are_immutable(value):
    before = repr(value)
    for name in (*value._fields, "_map", "other"):
        with pytest.raises(AttributeError, match="is immutable"):
            setattr(value, name, None)
    for name in value._fields:
        with pytest.raises(AttributeError, match="is immutable"):
            delattr(value, name)
    assert repr(value) == before


def test_element_fields_cannot_be_deleted():
    # a deleted field would leave an element that fails on ==
    w, u = superbasic_element(1, 3), Permutation((2, 1, 3))
    for value, name in ((w, "trans"), (w, "perm"), (w, "datum"), (u, "images")):
        with pytest.raises(AttributeError, match="is immutable"):
            delattr(value, name)
    assert w == superbasic_element(1, 3) and u == Permutation((2, 1, 3))


def _distinct(value):
    """A value equal to an interned one (a datum, an automorphism or a
    twist) but not that value itself, with nothing derived: the
    constructor would return the one live object of its value."""
    return type(value)._unchecked(*value._key)


def test_equal_fields_make_equal_values():
    pairs = [
        # data, automorphisms and twists are interned, so the second of
        # each pair is built unchecked, a distinct value of the same fields
        (GroupDatum((2,)), _distinct(GroupDatum((2,), (False,)))),
        (KappaValue(GroupDatum.pgl(3), (4,)), KappaValue(GroupDatum.pgl(3), (1,))),
        (NewtonPoint(GroupDatum.gl(2), (1, 0), KappaValue(GroupDatum.gl(2), (1,))),
         NewtonPoint(GroupDatum.gl(2), (Fraction(1), Fraction(0)), KappaValue(GroupDatum.gl(2), (1,)))),
        (Sigma0.identity(GroupDatum.gl(2)), _distinct(Sigma0.identity(GroupDatum.gl(2)))),
        (Frobenius.trivial(GroupDatum.gl(2)), _distinct(Frobenius.trivial(GroupDatum.gl(2)))),
        (Problem([1, 0], Frobenius.superbasic(1, 2)), Problem((1, 0), Frobenius.superbasic(1, 2))),
        (Segment(2, [1, 0]), Segment(2, (1, 0))),
        (Permutation([2, 1, 3]), Permutation._unchecked((2, 1, 3))),
        (superbasic_element(1, 3),
         AffineElement._unchecked(GroupDatum.gl(3), (1, 0, 0), Permutation._unchecked((2, 3, 1)))),
    ]
    for a, b in pairs:
        assert a is not b and a == b and hash(a) == hash(b) and not a != b
    assert GroupDatum((2,)) != GroupDatum.pgl(2)
    assert GroupDatum((2,)) != ((2,), (False,))
    assert Segment(1, (0,)) != Segment(2, (0,))
    assert Permutation((2, 1)) != (2, 1)
    # an element's datum is a field: the same map on other blocks differs
    w = AffineElement(GroupDatum((2, 1)), (1, 0, 0), Permutation((2, 1, 3)))
    assert w != w.with_datum(GroupDatum.gl(3))


def test_derived_attributes_do_not_count():
    # cached properties filled on one value only, and the layout and
    # signed map computed at construction, leave equality and hash alone
    d = GroupDatum((2, 2))
    read = Sigma0(d, (1, 0), (True, True))
    fresh = _distinct(read)
    assert read.block_orbits == ((0, 1),) and read.node_orbits and read._average
    assert "block_orbits" in vars(read) and "block_orbits" not in vars(fresh)
    assert read == fresh and hash(read) == hash(fresh)
    fr, other = _distinct(Frobenius.superbasic(2, 5)), _distinct(Frobenius.superbasic(2, 5))
    assert fr.affine_map and "affine_map" not in vars(other)
    assert fr == other and hash(fr) == hash(other)
    assert d._ranges == ((1, 2), (3, 4))
    assert GroupDatum._fields == ("blocks", "adjoint")
    assert Sigma0._fields == ("datum", "block_to", "flip")


def test_the_datum_keeps_its_rank_and_block_count():
    # n and num_blocks are read for nearly every element built, so they
    # are set once with the layout, not recounted on every read
    d = GroupDatum((2, 3, 1))
    assert vars(d)["n"] == d.n == 6 and vars(d)["num_blocks"] == d.num_blocks == 3
    for name in ("n", "num_blocks"):
        with pytest.raises(AttributeError, match="is immutable"):
            setattr(d, name, 0)
    assert d == GroupDatum((2, 3, 1), (False,) * 3)


def test_the_hash_is_kept_beside_the_fields():
    # the first hash of an interned value is the hash of its intern key,
    # plain ints and bools, kept on the value; equal values hash equal,
    # an unchecked build included, and a cached property filled later
    # leaves the hash, equality and repr as they were
    fr, other = _distinct(Frobenius.superbasic(2, 5)), _distinct(Frobenius.superbasic(2, 5))
    assert "_hash" not in vars(fr)
    h = hash(fr)
    assert vars(fr)["_hash"] == h == hash(fr._intern_key(*fr._key)) == hash(other)
    before = repr(fr)
    assert fr.affine_map and fr.sigma0.block_orbits
    assert "affine_map" in vars(fr) and "affine_map" not in vars(other)
    assert hash(fr) == h and repr(fr) == before and fr == other
    assert fr._fields == ("tau", "sigma0", "shift")


def test_values_print_their_fields():
    d = GroupDatum((2,))
    assert repr(d) == "GroupDatum(blocks=(2,), adjoint=(False,))"
    assert repr(Sigma0.identity(d)) == f"Sigma0(datum={d!r}, block_to=(0,), flip=(False,))"
    assert repr(KappaValue(d, (1,))) == f"KappaValue(datum={d!r}, values=(1,))"
    fr = Frobenius.trivial(d)
    assert repr(fr) == (
        f"Frobenius(tau={fr.tau!r}, sigma0={fr.sigma0!r}, shift=(Fraction(0, 1), Fraction(0, 1)))"
    )
    assert repr(Problem((0, 0), fr)) == f"Problem(mu=(0, 0), frob={fr!r})"
    # these four keep their own forms
    assert repr(NewtonPoint(d, (1, 0), KappaValue(d, (1,)))) == "(1, 0)"
    assert repr(Segment(2, (1, 0))) == "(1,0)@[2,3]"
    assert repr(Permutation((2, 1, 3))) == "cyc(1,2)"
    assert repr(superbasic_element(1, 3)) == "t[1,0,0]*cyc(1,2,3)"


def test_elements_keep_their_hash_and_length_beside_the_fields():
    # an element is hashed on first use, never when it is built, whether
    # it is checked or built from a product; its length is kept the same
    # way, and a length-zero element is built knowing its length
    d = GroupDatum.gl(3)
    w = AffineElement(d, (2, 0, 1), Permutation((2, 1, 3)))
    built = [w, w * w, w.inverse(), w.perm * w.perm, Permutation((3, 1, 2))]
    for value in built:
        assert "_hash" not in vars(value) and "_len" not in vars(value)
    assert hash(w) == vars(w)["_hash"] == hash((d, (2, 0, 1), w.perm))
    assert w.length() == vars(w)["_len"] == 3 and w.length() == 3
    assert vars(superbasic_element(1, 3))["_len"] == 0
    assert w == AffineElement._unchecked(d, (2, 0, 1), w.perm)


_HAND_WRITTEN = {"__slots__", "__setattr__", "__delattr__", "__eq__", "__hash__"}


def hand_written_values(tree: ast.Module) -> list[tuple[str, str]]:
    """(class, name) for every class in the module whose body defines one
    of the names of ``_HAND_WRITTEN``, as a method or an assignment."""
    found = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for stmt in cls.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            found += [(cls.name, name) for name in names if name in _HAND_WRITTEN]
    return found


def test_hand_written_values_are_found():
    tree = ast.parse(
        "class A:\n    __slots__ = ('x',)\n    def __eq__(self, o): ...\n"
        "class B(A):\n    __delattr__: object = None\n    def __lt__(self, o): ...\n"
        "class C:\n    x = 1\n    def f(self):\n        __hash__ = 0\n"
    )
    assert hand_written_values(tree) == [("A", "__slots__"), ("A", "__eq__"), ("B", "__delattr__")]


def test_only_frozen_writes_immutability_equality_and_hash():
    # one idiom for values: a class that needs them subclasses _Frozen
    found = []
    for path in sorted((ROOT / "src" / "bgmu").glob("*.py")):
        for cls, name in hand_written_values(ast.parse(path.read_text())):
            if (path.name, cls) != ("weyl.py", "_Frozen"):
                found.append(f"{path.name}: {cls}.{name}")
    assert not found, found


def test_import_loads_no_dataclasses_or_inspect():
    code = "import sys, bgmu, bgmu.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"
