"""The package's values and records.

Plain records are ``NamedTuple``s. The seven values that check their
input are ``_Frozen`` classes: immutable, and equal, hashed and printed
by their fields alone, whatever they derive from them. Importing the
package and its CLI loads neither ``dataclasses`` nor ``inspect``.
"""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from bgmu.newton import Frobenius, KappaValue, NewtonPoint, Sigma0
from bgmu.reduction import Problem
from bgmu.superbasic import Segment
from bgmu.weyl import GroupDatum

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


def test_equal_fields_make_equal_values():
    pairs = [
        (GroupDatum((2,)), GroupDatum((2,), (False,))),
        (KappaValue(GroupDatum.pgl(3), (4,)), KappaValue(GroupDatum.pgl(3), (1,))),
        (NewtonPoint(GroupDatum.gl(2), (1, 0), KappaValue(GroupDatum.gl(2), (1,))),
         NewtonPoint(GroupDatum.gl(2), (Fraction(1), Fraction(0)), KappaValue(GroupDatum.gl(2), (1,)))),
        (Frobenius.trivial(GroupDatum.gl(2)), Frobenius.trivial(GroupDatum.gl(2)).with_shift((0, 0))),
        (Problem([1, 0], Frobenius.superbasic(1, 2)), Problem((1, 0), Frobenius.superbasic(1, 2))),
        (Segment(2, [1, 0]), Segment(2, (1, 0))),
    ]
    for a, b in pairs:
        assert a is not b and a == b and hash(a) == hash(b) and not a != b
    assert GroupDatum((2,)) != GroupDatum.pgl(2)
    assert GroupDatum((2,)) != ((2,), (False,))
    assert Segment(1, (0,)) != Segment(2, (0,))


def test_derived_attributes_do_not_count():
    # cached properties filled on one value only, and the layout and
    # signed map computed at construction, leave equality and hash alone
    d = GroupDatum((2, 2))
    read, fresh = Sigma0(d, (1, 0), (True, True)), Sigma0(d, (1, 0), (True, True))
    assert read.block_orbits == ((0, 1),) and read.node_orbits and read._average
    assert "block_orbits" in vars(read) and "block_orbits" not in vars(fresh)
    assert read == fresh and hash(read) == hash(fresh)
    fr, other = Frobenius.superbasic(2, 5), Frobenius.superbasic(2, 5)
    assert fr.affine_map and "affine_map" not in vars(other)
    assert fr == other and hash(fr) == hash(other)
    assert d._ranges == ((1, 2), (3, 4))
    assert GroupDatum._fields == ("blocks", "adjoint")
    assert Sigma0._fields == ("datum", "block_to", "flip")


def test_the_hash_is_kept_beside_the_fields():
    # the first hash of a value is the hash of its fields, kept on the
    # value; equal values hash equal, and a cached property filled later
    # leaves the hash, equality and repr as they were
    fr, other = Frobenius.superbasic(2, 5), Frobenius.superbasic(2, 5)
    assert "_hash" not in vars(fr)
    h = hash(fr)
    assert vars(fr)["_hash"] == h == hash(fr._key) == hash(other)
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
    # these two keep their own forms
    assert repr(NewtonPoint(d, (1, 0), KappaValue(d, (1,)))) == "(1, 0)"
    assert repr(Segment(2, (1, 0))) == "(1,0)@[2,3]"


def test_import_loads_no_dataclasses_or_inspect():
    code = "import sys, bgmu, bgmu.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"
