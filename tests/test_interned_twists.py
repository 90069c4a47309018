"""One object per value: ``GroupDatum``, ``Sigma0`` and ``Frobenius``.

Each constructor returns the one live object of its value, kept in the
class's ``_interned`` table by the one idiom of ``weyl._Interned``, so
equal twists built anywhere share their checks, their derived
attributes and the reduction's stage. These tests pin that contract
for each of the three classes: an equal value is one object, a refused
value is never stored, the table keeps its bound without changing an
answer, pickling and copying go through the constructor, and threads
that race on one value get one object. For twists they also pin that
every construction site returns the interned twist, and that the
builders look a twist up before they build it.
"""

import copy
import importlib.util
import pickle
import random
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest

from bgmu import cli
from bgmu.errors import BgmuError, DimensionMismatch, ParseError
from bgmu.newton import Frobenius, Sigma0
from bgmu.weyl import _INTERN_BOUND
from bgmu.reduction import Problem, _stage, solve
from bgmu.weyl import AffineElement, GroupDatum, omega_element, superbasic_element
from conftest import twisted_draw

ROOT = Path(__file__).resolve().parent.parent


def _bench_workloads():
    """``bench/workloads.py``, loaded by path: its ``twist`` builds the
    benchmark's twists."""
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_equal_twists_from_every_construction_site_are_one_object():
    d5 = GroupDatum.gl(5)
    shift = (Fraction(2, 5),) * 5
    sb = Frobenius.superbasic(2, 5)
    raw = Frobenius.superbasic(2, 5, normalized=False)
    # the constructor and its builders, with the shift as Fractions or ints
    assert Frobenius(superbasic_element(2, 5, d5), Sigma0.identity(d5), shift) is sb
    assert Frobenius.superbasic(2, 5) is sb and sb.with_shift(shift) is sb
    assert Frobenius.inner(omega_element(d5, (2,))) is raw
    assert raw.with_shift(raw.canonical_shift()) is sb
    trivial = Frobenius.trivial(d5)
    assert Frobenius.inner(AffineElement.identity(d5)) is trivial
    assert trivial.with_shift((0,) * 5) is trivial and trivial.with_shift(()) is trivial
    # the CLI's parse, past its own memo
    cli._parse_sigma.cache_clear()
    assert cli._parse_sigma("superbasic:2/5", d5, False) is sb
    assert cli._parse_sigma("tau=t[1,1,0,0,0]*cyc(1,3,5,2,4)", d5, False) is raw
    assert cli._parse_sigma("tau=t[1,1,0,0,0]*cyc(1,3,5,2,4)", d5, True) is sb
    # a sub-twist that the reduction builds is the twist built directly
    d33 = GroupDatum((3, 3))
    split = _stage(Frobenius(omega_element(d33, (1, 0)), Sigma0.identity(d33)))
    assert split.kind == "orbit-split"
    assert split.subs == (Frobenius.inner(omega_element(GroupDatum.gl(3), (1,))),
                          Frobenius.trivial(GroupDatum.gl(3)))
    assert split.subs[0] is Frobenius.inner(omega_element(GroupDatum.gl(3), (1,)))
    assert split.subs[1] is Frobenius.trivial(GroupDatum.gl(3))
    # the benchmark's twist
    twist = _bench_workloads().twist
    problem = {"group": "gl:5", "sigma": "superbasic:2/5", "kappas": [2], "sigma0": [1]}
    assert twist(problem) is sb and twist(dict(problem, sigma="tau=")) is raw


def test_a_twist_reuses_what_it_derived():
    # an equal twist built again carries the hash, the affine map, the
    # orbit average of lam and the sigma0 orbits that the first derived
    d22 = GroupDatum((2, 2))
    first = Frobenius(omega_element(d22, (1, 0)), Sigma0(d22, (1, 0), (True, False)))
    derived = hash(first), first.affine_map, first._lam_diamond, first.sigma0.block_orbits
    again = Frobenius(omega_element(d22, (1, 0)), Sigma0(d22, (1, 0), (True, False)))
    assert again is first
    assert (vars(again)["_hash"], vars(again)["affine_map"], vars(again)["_lam_diamond"],
            vars(again.sigma0)["block_orbits"]) == derived


def test_answers_stay_equal_past_the_bound():
    Frobenius._interned.clear()
    mu = (2, 1, 0, 0)
    first = Frobenius.superbasic(1, 4)
    before = solve(mu, first, "constructive")
    d3 = GroupDatum.gl(3)
    shifted = [Frobenius.trivial(d3).with_shift((k,) * 3) for k in range(_INTERN_BOUND + 10)]
    assert len(Frobenius._interned) <= _INTERN_BOUND
    assert [s.shift for s in shifted] == [(Fraction(k),) * 3 for k in range(_INTERN_BOUND + 10)]
    # the table started over, so an equal twist is now a new object:
    # equal, hashed alike, printed alike, and it gives the same answer
    again = Frobenius.superbasic(1, 4)
    assert again is not first
    assert again == first and hash(again) == hash(first) and repr(again) == repr(first)
    assert Frobenius.superbasic(1, 4) is again
    after = solve(mu, again, "constructive")
    assert (after.nu, after.nu_raw, after.w, after.x, after.trace) == (
        before.nu, before.nu_raw, before.w, before.x, before.trace)
    assert _stage(again) is _stage(first)


def test_a_refused_twist_raises_on_every_call_and_is_never_stored():
    d2 = GroupDatum.gl(2)
    trivial = Frobenius.trivial(d2)
    refused = [
        (lambda: Frobenius(AffineElement.translation(d2, (1, 0)), Sigma0.identity(d2)),
         ParseError, "length zero"),
        (lambda: trivial.with_shift((0, 1)), ParseError, "central"),
        (lambda: trivial.with_shift((0,)), DimensionMismatch, "wrong length"),
        # equal targets and flips on an other datum: sigma0's datum is
        # part of the key, so this is no hit on the trivial twist
        (lambda: Frobenius(AffineElement.identity(d2), Sigma0.identity(GroupDatum.pgl(2))),
         DimensionMismatch, "different data"),
    ]
    before = dict(Frobenius._interned)
    for build, error, match in refused:
        for _ in range(3):
            with pytest.raises(error, match=match):
                build()
    assert Frobenius._interned == before
    assert all(v is before[k] for k, v in Frobenius._interned.items())


D22 = GroupDatum((2, 2))
TWISTS = {
    "superbasic": lambda: Frobenius.superbasic(2, 5),
    "swap-flip": lambda: Frobenius(omega_element(D22, (1, 0)), Sigma0(D22, (1, 0), (True, False))),
    "shifted-pgl": lambda: Frobenius.trivial(GroupDatum.pgl(3)).with_shift((Fraction(1, 3),) * 3),
}


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
@pytest.mark.parametrize("make", TWISTS.values(), ids=TWISTS)
def test_a_pickled_twist_comes_back_as_the_interned_twist(make, protocol):
    fr = make()
    assert pickle.loads(pickle.dumps(fr, protocol)) is fr
    problem = Problem((1, 0, 0, 0, 0)[:fr.datum.n], fr)
    assert pickle.loads(pickle.dumps(problem, protocol)).frob is fr
    # in a table that no longer holds it, a new equal twist, which is
    # then the interned one
    data = pickle.dumps(fr, protocol)
    Frobenius._interned.clear()
    back = pickle.loads(data)
    assert back is not fr and back == fr and hash(back) == hash(fr) and repr(back) == repr(fr)
    assert make() is back


@pytest.mark.parametrize("make", TWISTS.values(), ids=TWISTS)
def test_a_copied_twist_is_the_interned_twist(make):
    fr = make()
    assert copy.copy(fr) is fr and copy.deepcopy(fr) is fr
    assert copy.deepcopy([fr, fr]) == [fr, fr]
    # a distinct equal value, built unchecked, copies to the interned one
    held = Frobenius._unchecked(fr.tau, fr.sigma0, fr.shift)
    assert copy.deepcopy(held) is fr and copy.copy(held) is fr


def test_the_builders_look_a_twist_up_before_they_build_it(monkeypatch):
    # a twist that is stored already costs its builder no element and no
    # automorphism: superbasic, trivial and inner find it by its key
    import bgmu.weyl as weyl

    tau = omega_element(D22, (1, 0))
    builds = [lambda: Frobenius.superbasic(3, 7),
              lambda: Frobenius.superbasic(2, 5, normalized=False, adjoint=True),
              lambda: Frobenius.trivial(D22), lambda: Frobenius.inner(tau)]
    twists = [build() for build in builds]
    # a pair that is not superbasic is refused before the lookup, though
    # its omega element names a stored twist
    stored = Frobenius.inner(omega_element(GroupDatum.gl(4), (2,)))
    assert stored.tau.trans == (1, 1, 0, 0)
    with pytest.raises(ParseError, match="not coprime"):
        Frobenius.superbasic(2, 4, normalized=False)
    built = []
    real = weyl.AffineElement.__init__
    monkeypatch.setattr(weyl.AffineElement, "__init__",
                        lambda self, *args: built.append(args) or real(self, *args))
    monkeypatch.setattr(Sigma0, "_build", lambda self, *args: built.append(args))
    assert all(build() is twist for build, twist in zip(builds, twists))
    assert built == []


class Spec:
    """What the tests build of one interned class: a few values, each by
    a builder run afresh; refused builds, with their error (a twist's
    are in its own test above); and value i of a run of distinct ones,
    to pass the bound."""

    def __init__(self, cls, values, refused, nth):
        self.cls, self.values, self.refused, self.nth = cls, values, refused, nth


SPECS = {
    "GroupDatum": Spec(
        GroupDatum,
        {"gl:2*3": lambda: GroupDatum((2, 3)), "pgl:3": lambda: GroupDatum.pgl(3),
         "mixed": lambda: GroupDatum((1, 1), (True, False))},
        [(lambda: GroupDatum(()), ParseError, "invalid block sizes"),
         (lambda: GroupDatum((2, 0)), ParseError, "invalid block sizes"),
         (lambda: GroupDatum((2,), (True, False)), ParseError, "adjoint flags")],
        lambda i: GroupDatum((i + 1,))),
    "Sigma0": Spec(
        Sigma0,
        {"swap-flip": lambda: Sigma0(D22, (1, 0), (True, False)),
         "identity": lambda: Sigma0.identity(GroupDatum.gl(3)),
         "pgl-flip": lambda: Sigma0(GroupDatum.pgl(3), (0,), (True,))},
        [(lambda: Sigma0(D22, (0, 0), (False, False)), ParseError, "must permute"),
         (lambda: Sigma0(D22, (1, 0), (False,)), ParseError, "one flip flag each"),
         (lambda: Sigma0(GroupDatum((2, 3)), (1, 0), (False, False)), ParseError,
          "different sizes")],
        lambda i: Sigma0.identity(GroupDatum((i + 1,)))),
    "Frobenius": Spec(Frobenius, TWISTS, None,
                      lambda i: Frobenius.trivial(GroupDatum.gl(3)).with_shift((i,) * 3)),
}
VALUES = [(name, spec, make) for name, spec in SPECS.items() for make in spec.values.values()]
VALUE_IDS = [f"{name}-{label}" for name, spec in SPECS.items() for label in spec.values]
# a twist's refusals, pickling and copying have their own tests above,
# on the same three twists; these rows add the datum and the automorphism
DATA = [row for row in VALUES if row[0] != "Frobenius"]
DATA_IDS = [i for i in VALUE_IDS if not i.startswith("Frobenius")]


@pytest.mark.parametrize("name, spec, make", VALUES, ids=VALUE_IDS)
def test_an_equal_value_is_one_object(name, spec, make):
    value = make()
    assert type(value) is spec.cls and make() is value
    # a value built from its fields, and from its fields as lists, is
    # the same object
    assert spec.cls(*value._key) is value
    assert spec.cls(*(list(f) if type(f) is tuple else f for f in value._key)) is value
    assert spec.cls._interned[spec.cls._intern_key(*value._key)] is value


def test_other_builders_return_the_interned_value():
    assert GroupDatum.gl(3) is GroupDatum((3,)) is GroupDatum((3,), adjoint=(False,))
    assert Frobenius.superbasic(2, 5) is Frobenius(
        superbasic_element(2, 5), sigma0=Sigma0.identity(GroupDatum.gl(5)),
        shift=(Fraction(2, 5),) * 5)
    assert GroupDatum.pgl(3) is GroupDatum((3,), (True,))
    assert Sigma0.identity(D22) is Sigma0(D22, (0, 1), (False, False))
    assert Frobenius.trivial(D22).sigma0 is Sigma0.identity(D22)
    assert Frobenius.superbasic(2, 5).datum is GroupDatum.gl(5)


@pytest.mark.parametrize("name", ["GroupDatum", "Sigma0"])
def test_a_refused_value_raises_on_every_call_and_is_never_stored(name):
    spec = SPECS[name]
    before = dict(spec.cls._interned)
    for build, error, match in spec.refused:
        for _ in range(3):
            with pytest.raises(error, match=match):
                build()
    assert spec.cls._interned == before
    assert all(v is before[k] for k, v in spec.cls._interned.items())


@pytest.mark.parametrize("name", SPECS)
def test_the_table_keeps_its_bound(name):
    spec = SPECS[name]
    spec.cls._interned.clear()
    first = spec.nth(0)
    values = [spec.nth(i) for i in range(_INTERN_BOUND + 10)]
    assert len(spec.cls._interned) <= _INTERN_BOUND
    assert len(set(values)) == len(values)
    # the table started over, so an equal value is now a new object:
    # equal, hashed alike and printed alike
    again = spec.nth(0)
    assert again is not first
    assert again == first and hash(again) == hash(first) and repr(again) == repr(first)
    assert spec.nth(0) is again


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
@pytest.mark.parametrize("name, spec, make", DATA, ids=DATA_IDS)
def test_a_pickled_value_comes_back_as_the_interned_value(name, spec, make, protocol):
    value = make()
    assert pickle.loads(pickle.dumps(value, protocol)) is value
    # in a table that no longer holds it, a new equal value, which is
    # then the interned one
    data = pickle.dumps(value, protocol)
    spec.cls._interned.clear()
    back = pickle.loads(data)
    assert back is not value and back == value and hash(back) == hash(value)
    assert repr(back) == repr(value)
    assert make() is back


@pytest.mark.parametrize("name, spec, make", DATA, ids=DATA_IDS)
def test_a_copied_value_is_the_interned_value(name, spec, make):
    value = make()
    assert copy.copy(value) is value and copy.deepcopy(value) is value
    assert copy.deepcopy([value, value]) == [value, value]
    # a distinct equal value, built unchecked, copies to the interned one
    held = spec.cls._unchecked(*value._key)
    assert held is not value
    assert copy.deepcopy(held) is value and copy.copy(held) is value


@pytest.mark.parametrize("name", SPECS)
def test_values_built_from_threads_are_one_object(name):
    # four threads build 300 values, each in its own order, with a short
    # switch interval, so misses on one value race; each value is still
    # one object, the one a later build returns
    spec = SPECS[name]
    spec.cls._interned.clear()
    built = [{} for _ in range(4)]

    def run(seed):
        order = list(range(300))
        random.Random(seed).shuffle(order)
        for i in order:
            built[seed][i] = spec.nth(i % 150)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(seed,)) for seed in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for i in range(300):
        assert built[0][i] is built[1][i] is built[2][i] is built[3][i] is spec.nth(i % 150)


def test_twists_built_from_threads_match_one_thread():
    # four threads build the twists of one draw, in their own orders,
    # with a short switch interval, so misses on one value race; each
    # value is still one object, and every answer is the one that a
    # single thread gives from an empty table
    rng = random.Random(48)
    specs = []
    for _ in range(150):
        mu, fr = twisted_draw(rng)
        specs.append((mu, fr.datum, fr.tau.kappa_raw(), fr.sigma0.block_to, fr.sigma0.flip,
                      len(specs) % 2))

    def build(spec):
        _, datum, kappas, block_to, flip, normalize = spec
        fr = Frobenius(omega_element(datum, kappas), Sigma0(datum, block_to, flip))
        return fr.with_shift(fr.canonical_shift()) if normalize else fr

    def answer(spec):
        fr = build(spec)
        try:
            result = solve(spec[0], fr, "constructive")
        except BgmuError as exc:
            return repr(fr), type(exc).__name__, str(exc)
        return repr(fr), result.nu.nu, result.nu_raw, result.w, result.x

    Frobenius._interned.clear()
    _stage.cache_clear()
    expected = [answer(spec) for spec in specs]
    Frobenius._interned.clear()
    _stage.cache_clear()
    wrong, built = [], [{} for _ in range(4)]

    def run(seed):
        order = list(range(len(specs)))
        random.Random(seed).shuffle(order)
        for i in order:
            built[seed][i] = build(specs[i])
            if answer(specs[i]) != expected[i]:
                wrong.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(seed,)) for seed in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
    for i in range(len(specs)):
        assert built[0][i] is built[1][i] is built[2][i] is built[3][i] is build(specs[i])
