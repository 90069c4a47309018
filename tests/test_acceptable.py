"""Acceptable sets: the integrality criterion against brute force,
witness construction, enumeration, the maximal point, and the
admissible set."""

import hashlib
import itertools
import json
import random
import re
import sys
import threading
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bgmu import acceptable
from bgmu.acceptable import (
    _hull,
    _orbit_points,
    adjoint_eq,
    adm_enumerate,
    adm_member,
    enumerate_acceptable,
    maximal_newton,
    maximal_newton_state,
    mu_diamond_acceptable,
    polygon,
    support_nodes,
)
from bgmu.errors import (
    DimensionMismatch,
    GuardExceeded,
    InternalCheckFailed,
    ParseError,
    UnsupportedTwist,
)
from bgmu.newton import (
    Frobenius,
    Sigma0,
    _keying_plan,
    _newton_keys,
    diamond,
    dominant_rep,
    heights,
    newton_point,
)
from bgmu.reduction import solve
from bgmu.superbasic import chi, sharp_peel, superbasic_witness
from bgmu.weyl import (
    AffineElement,
    GroupDatum,
    Permutation,
    _product,
    bruhat_leq,
    omega_element,
    parse_element,
    superbasic_element,
)
from conftest import (
    adjoint_leq,
    adm_reference,
    brute_keys_reference,
    candidates_reference,
    coset_ball,
    dominant_coweights,
    grow_block_adm_reference,
    heights_reference,
    maximal_state_reference,
    newton_criterion,
    newton_witness,
    nu_reference,
    orbit_bounds_reference,
    orbit_points,
    pinned_twisted_problems,
    polygon_reference,
    same_keys,
    twisted_draw,
)

GL2 = GroupDatum.gl(2)
PGL2 = GroupDatum.pgl(2)
F12 = Frobenius.superbasic(1, 2)
F12_raw = Frobenius.superbasic(1, 2, normalized=False, adjoint=True)


def brute_points(mu, frob, max_len=10):
    """All dominant Newton vectors of the coset t^mu W_a, length capped."""
    datum = frob.datum
    kap = datum.block_sums(mu)
    omega = omega_element(datum, kap)
    shift = tuple(a - b for a, b in zip(mu, omega.trans))
    base = AffineElement.translation(datum, shift) * omega
    assert base.kappa_raw() == tuple(kap)
    points = set()
    zero = frob.with_shift((Fraction(0),) * datum.n)
    for w in coset_ball(datum, base, max_len):
        bar, _ = dominant_rep(datum, newton_point(w, zero).nu)
        points.add(bar)
    return points


# --- criterion ----------------------------------------------------------------

def test_criterion_vacuous_for_basic_point():
    ref = nu_reference((1, 0), F12_raw)
    bar, _ = dominant_rep(PGL2, ref)
    assert support_nodes(PGL2, bar) == frozenset()
    assert newton_criterion(bar, (1, 0), F12_raw)


def test_criterion_rejects_mu_diamond_for_odd_central():
    # raw-scale candidate matching mu_diamond (defect pairing is 1/2)
    assert not newton_criterion(
        (Fraction(3, 2), Fraction(1, 2)), (1, 0), F12_raw
    )


def test_criterion_accepts_half_height_for_mu_20():
    assert newton_criterion((2, 1), (2, 0), F12_raw)


@pytest.mark.parametrize("n,max_len", [(2, 10), (3, 10), (4, 12)])
def test_criterion_equals_brute_force(n, max_len):
    datum = GroupDatum.gl(n)
    for m in range(1, n):
        if gcd(m, n) != 1:
            continue
        frob = Frobenius.superbasic(m, n, normalized=False)
        for mu in dominant_coweights(n, 1):
            acc = enumerate_acceptable(mu, frob)
            brute = {
                p for p in brute_points(mu, frob, max_len)
                if adjoint_leq(datum, p, diamond(mu, frob))
            }
            assert set(acc.raw) == brute, (n, m, mu)


# --- witnesses -----------------------------------------------------------------

def test_witness_trivial_case():
    fr = Frobenius.trivial(GL2)
    w = newton_witness((1, 0), (1, 0), fr)
    assert newton_point(w, fr).nu == (1, 0)


def test_witness_for_every_enumerated_point():
    cases = [
        ((1, 0), Frobenius.superbasic(1, 2, normalized=False)),
        ((2, 0), Frobenius.superbasic(1, 2, normalized=False)),
        ((1, 0, 0), Frobenius.superbasic(1, 3, normalized=False, adjoint=True)),
        ((1, 1, 0, 0), Frobenius.superbasic(3, 4, normalized=False)),
    ]
    for mu, fr in cases:
        acc = enumerate_acceptable(mu, fr)
        for v in acc.raw:
            w = newton_witness(v, mu, fr)
            bar, _ = dominant_rep(fr.datum, newton_point(w, fr.with_shift((Fraction(0),) * fr.datum.n)).nu)
            assert bar == v


def test_witness_requires_criterion():
    with pytest.raises(ValueError, match=r"^\(3/2, 1/2\)"):
        newton_witness((Fraction(3, 2), Fraction(1, 2)), (1, 0), F12_raw)


# --- enumeration and the maximal point ------------------------------------------

def test_enumerate_gl2_mu20():
    acc = enumerate_acceptable((2, 0), F12)
    assert [p.strings() for p in acc.points] == [("3/2", "1/2"), ("1", "1")]
    assert acc.maximum == 0
    assert acc.hasse == ((1, 0),)
    assert acc.to_json_dict()["points"] == [["3/2", "1/2"], ["1", "1"]]


def test_enumerate_central_mu_single_point():
    acc = enumerate_acceptable((0, 0), F12)
    assert len(acc.points) == 1


def test_enumerate_gl2_mu10_basic_only():
    acc = enumerate_acceptable((1, 0), Frobenius.superbasic(1, 2, normalized=False))
    assert [tuple(map(str, p)) for p in acc.raw] == [("1", "1")]


def test_enumerate_guard():
    with pytest.raises(GuardExceeded):
        enumerate_acceptable((0,) * 9, Frobenius.trivial(GroupDatum.gl(9)))


@pytest.mark.parametrize("solver", [maximal_newton_state, enumerate_acceptable])
def test_non_dominant_mu_is_refused(solver):
    with pytest.raises(ParseError, match=r"mu \(0, 1\) is not dominant per block"):
        solver((0, 1), Frobenius.superbasic(1, 2))


def test_mu_is_checked_before_the_enumeration_guard():
    # n = 9 is over the rank guard, but a mu of the wrong length or not
    # dominant is bad input first, as solve and the CLI report it
    frob = Frobenius.superbasic(1, 9)
    with pytest.raises(ParseError, match=r"^mu \(0, 1, 0, 0, 0, 0, 0, 0, 0\) is not dominant per block$"):
        enumerate_acceptable((0, 1, 0, 0, 0, 0, 0, 0, 0), frob)
    with pytest.raises(DimensionMismatch, match="^mu has wrong length$"):
        enumerate_acceptable((1, 0), frob)
    with pytest.raises(GuardExceeded, match=r"^enumeration guard: n=9 > 8$"):
        enumerate_acceptable((1, 0, 0, 0, 0, 0, 0, 0, 0), frob)


@pytest.mark.parametrize("mu", [(True, False, False), (1.0, 0, 0), (Fraction(1), 0, 0)],
                         ids=["bools", "float", "Fraction"])
def test_mu_entries_that_are_not_ints_are_refused(mu):
    # a bool, a float or a Fraction equal to an int is refused, never
    # converted: solve once kept the bools in Problem.mu, a float died
    # with a raw TypeError, and adm_member answered (True, id)
    frob = Frobenius.superbasic(1, 3)
    w = parse_element("t[1,0,0]", frob.datum)
    message = "^" + re.escape(f"mu {mu} has an entry that is not an int") + "$"
    calls = [lambda: solve(mu, frob), lambda: maximal_newton_state(mu, frob),
             lambda: enumerate_acceptable(mu, frob), lambda: mu_diamond_acceptable(mu, frob),
             lambda: adm_member(w, mu), lambda: adm_enumerate(mu, frob.datum)]
    for call in calls:
        with pytest.raises(ParseError, match=message):
            call()
    # the same values as ints are answered
    assert solve((1, 0, 0), frob).nu == solve([1, 0, 0], frob).nu
    assert adm_member(w, (1, 0, 0))[0] and len(adm_enumerate((1, 0, 0), frob.datum)) == 7


_NOT_AN_INT = " has an entry that is not an int"
# each call once answered, once with m = 1.0 in its certificate, or
# died with a raw TypeError or AttributeError from inside
_MORE_ENTRIES_THAT_ARE_NOT_INTS = {
    "witness-Fraction": (lambda: superbasic_witness((Fraction(1), 0, 0), 1, 3),
                         "mu (Fraction(1, 1), 0, 0)" + _NOT_AN_INT),
    "witness-bools": (lambda: superbasic_witness((True, False, False), 1, 3),
                      "mu (True, False, False)" + _NOT_AN_INT),
    "witness-float": (lambda: superbasic_witness((1.0, 0, 0), 1, 3), "mu (1.0, 0, 0)" + _NOT_AN_INT),
    "peel-float-m": (lambda: sharp_peel((1, 0, 0), 1.0, 3), "(m, n) = (1.0, 3)" + _NOT_AN_INT),
    "chi-bool-m": (lambda: chi(True, 3), "(m, n) = (True, 3)" + _NOT_AN_INT),
    "diamond-float": (lambda: diamond((1.0, 0, 0), Frobenius.superbasic(1, 3)),
                      "mu (1.0, 0, 0)" + _NOT_AN_INT + " or a Fraction"),
    "polygon-float": (lambda: polygon((1.0, 0, 0)), "eta (1.0, 0, 0)" + _NOT_AN_INT + " or a Fraction"),
    "polygon-str": (lambda: polygon(("1", 0, 0)), "eta ('1', 0, 0)" + _NOT_AN_INT + " or a Fraction"),
}


@pytest.mark.parametrize("probe", list(_MORE_ENTRIES_THAT_ARE_NOT_INTS))
def test_the_superbasic_entries_diamond_and_polygon_refuse_what_is_not_an_int(probe):
    call, message = _MORE_ENTRIES_THAT_ARE_NOT_INTS[probe]
    with pytest.raises(ParseError, match="^" + re.escape(message) + "$"):
        call()


def test_mu_is_checked_before_it_is_averaged(monkeypatch):
    import bgmu.acceptable as acceptable

    def averaged(vec, frob):
        raise AssertionError("averaged before the check")

    monkeypatch.setattr(acceptable, "_diamond", averaged)
    with pytest.raises(ParseError, match="is not dominant per block"):
        maximal_newton_state((0, 1), Frobenius.superbasic(1, 2))
    with pytest.raises(DimensionMismatch, match="^mu has wrong length$"):
        maximal_newton_state((1, 0, 0), Frobenius.superbasic(1, 2))


def test_maximal_pgl2_examples():
    st = maximal_newton_state((1, 0), F12_raw)
    assert set(st.targets.values()) == {Fraction(0)}
    assert st.nu_raw == (1, 1)
    st = maximal_newton_state((2, 0), F12_raw)
    assert heights(PGL2, st.nu_raw)[(0, 1)] == Fraction(1, 2)


@st.composite
def twisted_problems(draw, entries=(-1, 3)):
    """A rotation of r equal blocks plus one fixed block, with random
    flips, adjoint flags, twist kappas and dominant mu, its entries in
    the closed range entries."""
    nb, r = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    blocks = (nb,) * r + (draw(st.integers(1, 4)),)
    k = draw(st.integers(0, r - 1))
    block_to = tuple((b + k) % r for b in range(r)) + (r,)
    flip = tuple(draw(st.lists(st.booleans(), min_size=r + 1, max_size=r + 1)))
    adjoint = tuple(draw(st.lists(st.booleans(), min_size=r + 1, max_size=r + 1)))
    datum = GroupDatum(blocks, adjoint)
    kappas = draw(st.lists(st.integers(-3, 5), min_size=r + 1, max_size=r + 1))
    frob = Frobenius(omega_element(datum, kappas), Sigma0(datum, block_to, flip))
    mu = []
    for size in blocks:
        part = draw(st.lists(st.integers(*entries), min_size=size, max_size=size))
        mu += sorted(part, reverse=True)
    return tuple(mu), frob


@settings(max_examples=150, deadline=None)
@given(twisted_problems())
def test_maximal_point_meets_its_tents_at_the_support(problem):
    # the least concave majorant of the tents touches them at its vertices
    mu, frob = problem
    state = maximal_newton_state(mu, frob)
    assert state.active == support_nodes(frob.datum, state.nu_raw)
    h = heights(frob.datum, state.nu_raw)
    for nd in state.active:
        assert h[nd] == state.targets[nd]


@settings(max_examples=150, deadline=None)
@given(twisted_problems())
def test_central_sums_are_those_of_mu_lam_diamond(problem):
    # the twist's linear part permutes blocks up to sign, so the Newton
    # vector of t^mu has the block sums of mu_diamond + lam_diamond
    mu, frob = problem
    both = tuple(a + b for a, b in zip(diamond(mu, frob), diamond(frob.lam, frob)))
    assert frob.datum.block_sums(nu_reference(mu, frob)) == frob.datum.block_sums(both)


def _agrees_with_the_first_form(mu, frob):
    """The integer bound table and maximal point against the fractions
    of ``orbit_bounds_reference`` and ``maximal_state_reference``: each
    height, block sum, orbit, pairing and range, the tents, the support
    and the point."""
    bounds = acceptable._orbit_bounds(mu, frob)
    den, h_mu, sums, table = bounds
    ref_h, ref_sums, ref_table = orbit_bounds_reference(mu, frob)
    off = frob.datum.offsets()
    assert {(b, i): Fraction(h_mu[off[b] + i - 1], den) for b, i in ref_h} == ref_h
    assert [h_mu[hi - 1] for _, hi in frob.datum.block_ranges()] == [0] * frob.datum.num_blocks
    assert tuple(Fraction(t, den) for t in sums) == ref_sums
    assert [(orbit, Fraction(rep, den), offsets) for orbit, rep, offsets in table] == [
        (tuple(off[b] + i - 1 for b, i in orbit), rep, offsets) for orbit, rep, offsets in ref_table]
    ref = maximal_state_reference(frob, (ref_h, ref_sums, ref_table))
    assert maximal_newton_state(mu, frob) == ref
    d, nums = acceptable._maximal_state(frob, bounds)
    assert tuple(Fraction(x, d) for x in nums) == ref.nu_raw


@settings(max_examples=150, deadline=None)
@given(twisted_problems())
def test_the_maximal_point_is_its_first_form_on_drawn_twists(problem):
    _agrees_with_the_first_form(*problem)


def test_the_maximal_point_is_its_first_form_on_the_pinned_problems():
    for mu, frob in pinned_twisted_problems():
        _agrees_with_the_first_form(mu, frob)


def test_solve_and_the_enumeration_build_no_maximal_state_record(monkeypatch):
    # the hot paths read the maximal point as integers; only the public
    # maximal_newton_state builds the record with its fractions
    built = []
    real = acceptable.MaximalSolverState
    monkeypatch.setattr(acceptable, "MaximalSolverState", lambda *a: built.append(a) or real(*a))
    for mu, frob in itertools.islice(pinned_twisted_problems(), 0, 180, 15):
        try:
            solve(mu, frob, strategy="auto")
        except UnsupportedTwist:  # a flip at the superbasic base
            pass
        enumerate_acceptable(mu, frob)
        mu_diamond_acceptable(mu, frob)
    assert built == []
    maximal_newton_state((1, 0, 0), Frobenius.superbasic(1, 3))
    assert len(built) == 1


def test_maximal_quasi_split_is_mu():
    fr = Frobenius.trivial(GroupDatum.gl(3))
    assert maximal_newton((2, 1, 0), fr).nu == (2, 1, 0)


def test_maximal_equals_enumerated_max():
    for n in (2, 3, 4):
        for m in range(1, n):
            if gcd(m, n) != 1:
                continue
            fr = Frobenius.superbasic(m, n, normalized=False)
            for mu in dominant_coweights(n, 2):
                acc = enumerate_acceptable(mu, fr)
                assert acc.raw[acc.maximum] == maximal_newton_state(mu, fr).nu_raw


def test_enumeration_builds_one_bound_table(monkeypatch):
    # the cross-check against the maximal point runs on the table the
    # enumeration already holds
    import bgmu.acceptable as acceptable

    calls = []
    real = acceptable._orbit_bounds
    monkeypatch.setattr(acceptable, "_orbit_bounds", lambda *a: calls.append(a) or real(*a))
    for mu, frob in itertools.islice(pinned_twisted_problems(), 0, 180, 15):
        calls.clear()
        enumerate_acceptable(mu, frob)
        assert len(calls) == 1, (mu, frob)


def test_an_enumerated_maximum_off_the_solver_point_is_refused(monkeypatch):
    # the enumeration's cross-check against the maximal point raises the
    # typed error, with both points in its message; the solver's point
    # is (d, nums), here (1, 0, 0) over 1
    monkeypatch.setattr(acceptable, "_maximal_state", lambda *a: (1, [1, 0, 0]))
    fr = Frobenius.superbasic(1, 3, normalized=False)
    with pytest.raises(InternalCheckFailed, match=re.escape(
        "enumerated maximum (1, 1/2, 1/2) differs from solver (1, 0, 0)"
    )):
        enumerate_acceptable((1, 0, 0), fr)


def test_verify_body_agrees_on_the_maximum():
    # solve, enumerate_acceptable and mu_diamond_acceptable of one
    # problem each build their own bound table, and agree as the verify
    # body checks: the enumeration's maximum is the solved point, which
    # is mu_diamond exactly when the criterion says so
    for mu, frob in itertools.islice(pinned_twisted_problems(), 0, 180, 15):
        try:
            nu_raw = solve(mu, frob, strategy="auto").nu_raw
        except UnsupportedTwist:  # a flip at the superbasic base
            nu_raw = maximal_newton_state(mu, frob).nu_raw
        acc = enumerate_acceptable(mu, frob)
        assert acc.raw[acc.maximum] == nu_raw, (mu, frob)
        assert mu_diamond_acceptable(list(mu), frob) == adjoint_eq(
            frob.datum, nu_raw, diamond(mu, frob)), (mu, frob)


def test_twisted_enumeration_bytes():
    # every point, cover and maximum of 180 twisted enumerations, pinned
    h = hashlib.sha256()
    for mu, frob in pinned_twisted_problems():
        acc = enumerate_acceptable(mu, frob)
        h.update(json.dumps(acc.to_json_dict(), sort_keys=True).encode())
        h.update(repr([tuple(map(str, v)) for v in acc.raw]).encode())
    assert h.hexdigest() == "9bcd728409ecc869b60796916be23646ff559a4bfb3ea7af69a4e1014dc44395"


def test_enumerate_gl2_long_chain():
    # 151 points in one chain: each point covers only the next one down
    acc = enumerate_acceptable((300, 0), Frobenius.superbasic(1, 2))
    assert len(acc.points) == 151
    assert acc.maximum == 0
    assert acc.hasse == tuple((i + 1, i) for i in range(150))


# --- the enumeration's candidates and points, against their first form --------

def test_lam_diamond_is_averaged_once_per_twist(monkeypatch):
    # each bound table averages its mu, and the twist averages its lam
    # once, on the first table; the tables match a fresh twist's
    import bgmu.newton as newton

    calls = []
    real = newton._diamond
    for module in (acceptable, newton):
        monkeypatch.setattr(module, "_diamond", lambda vec, frob: calls.append(vec) or real(vec, frob))
    datum = GroupDatum((3, 3))
    tau = parse_element("t[1,0,0,0,0,0]*cyc(1,2,3)", datum)
    frob = Frobenius(tau, Sigma0(datum, (1, 0), (False, True)))
    mus = [(2, 1, 0, 1, 0, 0), (1, 1, 0, 2, 2, 0), (3, 0, 0, 1, 1, 1)]
    tables = [acceptable._orbit_bounds(mu, frob) for mu in mus]
    assert calls == [mus[0], frob.lam, *mus[1:]]
    assert tables == [acceptable._orbit_bounds(mu, Frobenius(tau, frob.sigma0)) for mu in mus]


def _gate_enumerations():
    """The problems of the byte gate's enumerations: the seed-0 twisted
    draw of its ``enumerate`` corpus, then the 180 pinned problems."""
    rng = random.Random(0)
    return [*(twisted_draw(rng) for _ in range(1000)), *pinned_twisted_problems()]


def _candidate_lists(mu, frob):
    bounds = acceptable._orbit_bounds(mu, frob)
    m = lcm(*range(1, max(frob.datum.blocks) + 1))
    return acceptable._candidates(frob, bounds, m), candidates_reference(frob.datum, bounds, m)


def test_candidates_are_the_first_formulations_on_the_gate():
    # the same candidates in the same order, ranks over the guard included
    for mu, frob in _gate_enumerations():
        got, want = _candidate_lists(mu, frob)
        assert got == want, (mu, frob)


@st.composite
def permuted_blocks(draw):
    """2 or 3 equal blocks of size 1-4 (at most 8 positions) under any
    block permutation, so sigma0-orbits of nodes span blocks, with
    random flips, adjoint flags, twist kappas and dominant mu in 0..2."""
    r = draw(st.integers(2, 3))
    nb = draw(st.integers(1, 8 // r))
    block_to = tuple(draw(st.permutations(range(r))))
    flip = tuple(draw(st.lists(st.booleans(), min_size=r, max_size=r)))
    adjoint = tuple(draw(st.lists(st.booleans(), min_size=r, max_size=r)))
    datum = GroupDatum((nb,) * r, adjoint)
    kappas = draw(st.lists(st.integers(-3, 5), min_size=r, max_size=r))
    frob = Frobenius(omega_element(datum, kappas), Sigma0(datum, block_to, flip))
    mu = []
    for _ in range(r):
        mu += sorted(draw(st.lists(st.integers(0, 2), min_size=nb, max_size=nb)), reverse=True)
    return tuple(mu), frob


@settings(max_examples=150, deadline=None)
@given(permuted_blocks())
def test_candidates_are_the_first_formulations_on_drawn_twists(problem):
    got, want = _candidate_lists(*problem)
    assert got == want


def test_points_are_dominant_and_the_raw_points_shifted():
    # the points are built unchecked from integers: on the gate's
    # enumerations, and on the draw under the canonical shift that
    # --normalize adds to a tau= twist, each is dominant and is its raw
    # point minus the shift, in fractions
    gate = _gate_enumerations()
    normalized = [(mu, frob.with_shift(frob.canonical_shift())) for mu, frob in gate[:1000]]
    shifted = 0
    for mu, frob in gate + normalized:
        if frob.datum.n > acceptable.DEFAULT_ENUM_GUARD:
            continue
        acc = enumerate_acceptable(mu, frob)
        shifted += any(frob.shift)
        for point, raw in zip(acc.points, acc.raw, strict=True):
            assert frob.datum.is_dominant(point.nu), (mu, frob)
            assert point.nu == tuple(a - b for a, b in zip(raw, frob.shift)), (mu, frob)
            assert all(type(x) is Fraction for x in point.nu)
    assert shifted > 500


def test_mu_diamond_acceptable_examples():
    assert mu_diamond_acceptable((1, 0), Frobenius.trivial(GL2))
    assert not mu_diamond_acceptable((1, 0), F12_raw)
    fr58 = Frobenius.superbasic(5, 8, normalized=False, adjoint=True)
    assert not mu_diamond_acceptable((1, 1, 1, 0, 0, 0, 0, 0), fr58)


def test_mu_diamond_iff_maximum_is_diamond():
    for n in (2, 3, 4):
        for m in range(1, n):
            if gcd(m, n) != 1:
                continue
            fr = Frobenius.superbasic(m, n, normalized=False)
            for mu in dominant_coweights(n, 2):
                datum = fr.datum
                top = maximal_newton_state(mu, fr).nu_raw
                assert mu_diamond_acceptable(mu, fr) == adjoint_eq(
                    datum, top, diamond(mu, fr)
                )


def test_monotone_in_mu():
    fr = Frobenius.superbasic(1, 2, normalized=False)
    small = maximal_newton_state((1, 0), fr).nu_raw
    large = maximal_newton_state((2, -1), fr).nu_raw
    assert adjoint_leq(GL2, small, large)


def test_parabolic_datum_support_split():
    d4 = GroupDatum.gl(4)
    assert support_nodes(d4, (2, 1, 1, 0)) == frozenset({(0, 1), (0, 3)})
    assert support_nodes(d4, (1, 1, 1, 1)) == frozenset()
    assert support_nodes(d4, (3, 2, 1, 0)) == frozenset({(0, 1), (0, 2), (0, 3)})


# --- admissible set ---------------------------------------------------------------

@pytest.mark.parametrize("part", [(0,), (1, 0), (0, 1, 2), (2, 1, 1, 0), (1, 1, 0, 0, 0), (3, 2, 2, 0, -1, -1)])
def test_orbit_points_are_distinct_permutations_descending(part):
    want = sorted(set(itertools.permutations(part)), reverse=True)
    assert _orbit_points(GroupDatum.gl(len(part)), part) == want


def test_orbit_points_of_a_block_product():
    datum = GroupDatum((2, 3))
    mu = (1, 0, 2, 1, 1)
    want = sorted(
        (
            a + b
            for a in set(itertools.permutations(mu[:2]))
            for b in set(itertools.permutations(mu[2:]))
        ),
        reverse=True,
    )
    assert _orbit_points(datum, mu) == want


def test_orbit_points_count_without_factorial_scan():
    assert len(_orbit_points(GroupDatum.gl(12), (1,) * 6 + (0,) * 6)) == 924


def test_adm_translations_are_members():
    mu = (1, 1, 0)
    d3 = GroupDatum.gl(3)
    for point in set(itertools.permutations(mu)):
        ok, x = adm_member(AffineElement.translation(d3, point), mu)
        assert ok and x.act(mu) == point


def test_adm_worked_example():
    mu = (1, 1, 1, 0, 0, 0, 0, 0)
    d8 = GroupDatum.gl(8)
    s = superbasic_element(5, 8)
    from bgmu.weyl import Permutation

    eps = Permutation((6, 3, 8, 5, 2, 7, 4, 1))
    w = AffineElement.translation(d8, eps.act(mu)) * s
    for cyc in [(8, 3), (1, 3), (1, 2)]:
        w = w * AffineElement.from_permutation(d8, Permutation.from_cycles(8, [cyc]))
    w = w * s.inverse()
    ok, x = adm_member(w, mu)
    assert ok
    assert bruhat_leq(w, AffineElement.translation(d8, x.act(mu)))
    # epsilon itself certifies the membership
    assert bruhat_leq(w, AffineElement.translation(d8, eps.act(mu)))


def test_adm_rejects_long_translation():
    ok, x = adm_member(parse_element("t[2,-1]", GL2), (1, 0))
    assert not ok and x is None


def test_adm_enumerate_small():
    assert adm_enumerate((0, 0), GL2) == (AffineElement.identity(GL2),)
    elements = adm_enumerate((1, 0), GL2)
    want = {
        parse_element("t[1,0]", GL2),
        parse_element("t[0,1]", GL2),
        parse_element("t[1,0]*cyc(1,2)", GL2),
    }
    assert set(elements) == want


def _compositions(n):
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first,) + rest


def test_adm_enumerate_is_union_of_intervals():
    # the gate for the vertexwise criterion: elements and order on every
    # GL, PGL and product datum with n <= 5 and entries 0..2 (4,322 pairs
    # of datum and mu); the subword intervals do not read the adjoint
    # flags, so one reference serves the GL and the PGL datum of a shape
    count = 0
    for n in range(1, 6):
        for blocks in _compositions(n):
            per_block = [dominant_coweights(nb, 2) for nb in blocks]
            for combo in itertools.product(*per_block):
                mu = tuple(x for part in combo for x in part)
                want = [(e.trans, e.perm.images) for e in adm_reference(GroupDatum(blocks), mu)]
                for adj in (False, True):
                    datum = GroupDatum(blocks, (adj,) * len(blocks))
                    got = adm_enumerate(mu, datum)
                    assert all(e.datum == datum for e in got)
                    assert [(e.trans, e.perm.images) for e in got] == want, (datum, mu)
                    count += 1
    assert count == 4322
    # membership again through the independent Bruhat lifting walk
    for datum, mu in [
        (GroupDatum.gl(3), (2, 1, 0)),
        (GroupDatum((2, 3)), (1, 0, 1, 1, 0)),
        (GroupDatum((2, 2), (True, True)), (1, 0, 1, 0)),
    ]:
        assert all(adm_member(w, mu)[0] for w in adm_enumerate(mu, datum))


@pytest.mark.parametrize("datum, mu", [
    (GroupDatum.gl(3), (1, 1, 0)),
    (GroupDatum.gl(3), (2, 1, 0)),
    (GroupDatum.pgl(3), (2, 0, 0)),
    (GroupDatum((2, 2), (True, False)), (1, 0, 2, 0)),
], ids=["gl3-110", "gl3-210", "pgl3-200", "pgl2xgl2"])
def test_adm_member_rejects_without_a_bruhat_walk(monkeypatch, datum, mu):
    import bgmu.acceptable as acceptable

    walks = []
    real = acceptable.bruhat_leq
    monkeypatch.setattr(
        acceptable, "bruhat_leq", lambda a, b: walks.append(1) or real(a, b)
    )
    adm = set(adm_reference(datum, mu))
    points = orbit_points(datum, mu)
    # a central translation on the adjoint blocks moves nothing in the
    # Bruhat order, so the shifted element must get the same answer
    center = tuple(
        1 if adj else 0 for nb, adj in zip(datum.blocks, datum.adjoint) for _ in range(nb)
    )
    members = rejected = 0
    for base in coset_ball(datum, AffineElement.translation(datum, mu), 4):
        for w in (base, AffineElement.translation(datum, center) * base):
            walks.clear()
            ok, x = adm_member(w, mu)
            assert ok == (base in adm), w
            if ok:
                members += 1
                first = next(p for p in points if bruhat_leq(base, AffineElement.translation(datum, p)))
                assert x.act(mu) == first
            else:
                rejected += 1
                assert walks == [] and x is None
    assert members and rejected
    # another W_a coset is rejected without a walk as well
    walks.clear()
    off = AffineElement.translation(datum, (1,) + (0,) * (datum.n - 1))
    assert adm_member(off, mu) == (False, None) and walks == []


def test_adm_member_shifts_adjoint_blocks():
    assert adm_member(parse_element("t[1,1]", PGL2), (0, 0))[0]
    assert adm_member(parse_element("t[2,0]", PGL2), (0, 0)) == (False, None)
    assert adm_member(parse_element("t[1,1]", GL2), (0, 0)) == (False, None)


def test_adm_guard():
    with pytest.raises(GuardExceeded):
        adm_enumerate((0,) * 6, GroupDatum.gl(6))
    with pytest.raises(GuardExceeded):
        adm_enumerate((5, 0), GL2)


# --- the table of Adm(mu) per block shape -------------------------------------

@pytest.fixture
def empty_adm_table(monkeypatch):
    """An empty Adm table for one test; the process's own comes back after."""
    monkeypatch.setattr(acceptable, "_BLOCK_ADM", {})


def _flat(groups):
    return [(lam, im) for lam, ims in groups for im in ims]


def _block_adm(mu):
    """Adm(mu) of one block from the table, expanded from its
    representatives and moved to mu."""
    c, entry = acceptable._block_entry(mu)
    return acceptable._full_set(acceptable._flatten(c, entry.reps))


def _reps(mu):
    """The omega_1-orbit representatives of the table entry of mu's
    shape, moved to mu."""
    c, entry = acceptable._block_entry(mu)
    return acceptable._flatten(c, entry.reps)


def _conjugator(om):
    """(t^trans u) -> om (t^trans u) om^{-1} on raw tuples, by the
    group product."""
    inv = om.inverse()

    def conj(elem):
        t, u = _product(om.trans, om.perm.images, *elem)
        return _product(t, u, inv.trans, inv.perm.images)
    return conj


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_block_adm_is_the_shifted_shape(data):
    n = data.draw(st.integers(1, 5))
    low = data.draw(st.integers(0, 2))
    mu = tuple(sorted(data.draw(st.lists(st.integers(low, 2), min_size=n, max_size=n)),
                      reverse=True))
    c = data.draw(st.integers(-5, 5))
    moved = tuple(x + c for x in mu)
    got = _block_adm(moved)
    assert got == [(tuple(x + c for x in t), im) for t, im in _block_adm(mu)]
    grown, size = acceptable._grow_block_adm(moved)
    reps = _reps(moved)
    assert reps == _flat(grown)
    assert reps == [(tuple(x + c for x in t), im) for t, im in _reps(mu)]
    assert set(reps) <= set(got) and len(set(got)) == len(got) == size


def test_one_table_entry_per_shape(empty_adm_table):
    fr = Frobenius.superbasic(2, 5)
    for c in (0, 1, -2, 3):
        r = solve(tuple(x + c for x in (2, 2, 1, 0, 0)), fr, strategy="bruteforce")
        assert r.nu_raw[:3] == (Fraction(2 + c),) * 3
    assert list(acceptable._BLOCK_ADM) == [(2, 2, 1, 0, 0)]
    # two blocks of one shape share the entry within one solve
    d = GroupDatum((3, 3))
    solve((3, 2, 1, 2, 1, 0), Frobenius(omega_element(d, (1, 1)), Sigma0.identity(d)),
          strategy="bruteforce")
    assert len(acceptable._BLOCK_ADM) == 2 and (2, 1, 0) in acceptable._BLOCK_ADM


def test_block_adm_returns_a_fresh_list(empty_adm_table):
    mu = (2, 1, 1, 0)
    want = _block_adm(mu)
    first = _block_adm(mu)
    assert first == want and first is not want
    first.clear()
    want.append(((9, 9, 9, 9), (1, 2, 3, 4)))
    assert _block_adm(mu) == want[:-1]
    assert _reps(mu) is not _reps(mu)


def _verify_sweep_problems():
    """The problems of ``bgmu verify`` at desk scale: every superbasic
    twist on gl:n and pgl:n, n = 3..5, entries 0..2, and pgl:4 with the
    kappa = 2 inner twist."""
    out = []
    for n in (3, 4, 5):
        for mu in dominant_coweights(n, 2):
            for adjoint in (False, True):
                out += [(mu, Frobenius.superbasic(m, n, adjoint=adjoint))
                        for m in range(1, n) if gcd(m, n) == 1]
            if n == 4:
                out.append((mu, Frobenius.inner(omega_element(GroupDatum.pgl(4), (2,)))))
    return out


def test_brute_force_answers_do_not_depend_on_order(monkeypatch):
    # each order starts from an empty table, so a shape built by an
    # earlier problem cannot hand a later one a different answer
    problems = _verify_sweep_problems()
    assert len(problems) == 283
    answers = []
    for order in (range(len(problems)), random.Random(0).sample(range(len(problems)), len(problems))):
        monkeypatch.setattr(acceptable, "_BLOCK_ADM", {})
        answers.append({
            i: acceptable._brute_force(*problems[i], witness=True)
            for i in order
        })
    assert answers[0] == answers[1]


def test_size_guard_comes_before_the_product(monkeypatch):
    # |Adm((2,1,0,2,1,0))| on gl:3*3 is 25 * 25, known from the blocks
    def no_product(*args):
        raise AssertionError("the product was built")

    d = GroupDatum((3, 3))
    fr = Frobenius(omega_element(d, (1, 1)), Sigma0.identity(d))
    monkeypatch.setattr(acceptable, "BRUTE_GUARD_SIZE", 624)
    monkeypatch.setattr(itertools, "product", no_product)
    with pytest.raises(GuardExceeded, match=r"^admissible set too large: 625$"):
        solve((2, 1, 0, 2, 1, 0), fr, strategy="bruteforce")
    monkeypatch.undo()
    monkeypatch.setattr(acceptable, "BRUTE_GUARD_SIZE", 625)
    assert solve((2, 1, 0, 2, 1, 0), fr, strategy="bruteforce").checks["bruteforce"]


def test_incomparable_admissible_maxima_are_refused(monkeypatch):
    # two keys whose heights (2, 2) and (1, 3) are incomparable leave the
    # brute force no maximum: the typed error lists the points attained
    monkeypatch.setattr(acceptable, "_newton_keys", lambda raw, twist, slices: {
        (1, (2, 0, 1)): raw[:1], (1, (1, 2, 0)): raw[1:],
    })
    fr = Frobenius.superbasic(1, 3, normalized=False)
    with pytest.raises(InternalCheckFailed, match=re.escape(
        "admissible Newton points have 0 maxima: (1, 2, 0), (2, 0, 1)"
    )):
        acceptable._brute_force((1, 0, 0), fr, witness=False)


def test_representatives_are_the_orbit_minima():
    # every shape of rank <= 4 with entries 0..2, and (2,2,1,0,0), on
    # the subword reference of Adm(mu): one representative per orbit
    # under conjugation by omega_1, the least by (images, trans), orbits
    # walked by the group product; the entry's size is the sum of the
    # orbit sizes, and the representatives' orbits are the whole set
    shapes = [mu for n in range(1, 5) for mu in dominant_coweights(n, 2) if mu[-1] == 0]
    for mu in shapes + [(2, 2, 1, 0, 0)]:
        datum = GroupDatum.gl(len(mu))
        conj = _conjugator(omega_element(datum, (1,)))
        reference = {(e.trans, e.perm.images) for e in adm_reference(datum, mu)}
        want, seen = set(), set()
        for elem in reference:
            if elem in seen:
                continue
            orbit = [elem]
            while (nxt := conj(orbit[-1])) != elem:
                orbit.append(nxt)
            seen.update(orbit)
            want.add(min(orbit, key=lambda e: (e[1], e[0])))
        reps = _reps(mu)
        assert len(reps) == len(want) and set(reps) == want, mu
        assert acceptable._block_entry(mu)[1].size == len(reference), mu
        full = _block_adm(mu)
        assert len(full) == len(reference) and set(full) == reference, mu
    assert len(_reps((2, 2, 1, 0, 0))) == 341
    assert len({im for _, im in _reps((2, 2, 1, 0, 0))}) == 28


def test_representatives_live_in_the_table_entries(empty_adm_table, monkeypatch):
    # the 283 verify-sweep problems fill 31 shapes and never expand one;
    # each entry holds only its representatives and |Adm(mu)|, which
    # their expansion meets
    expanded = []
    full_set = acceptable._full_set
    monkeypatch.setattr(acceptable, "_full_set", lambda reps: expanded.append(reps) or full_set(reps))
    for mu, frob in _verify_sweep_problems():
        solve(mu, frob, strategy="auto")
    assert len(acceptable._BLOCK_ADM) == 31 and not expanded
    for entry in acceptable._BLOCK_ADM.values():
        reps, size = entry
        assert reps and len(_flat(reps)) <= size
        assert len(full_set(_flat(reps))) == size


# shapes beyond the guards' entry spread of 2, which only a caller of the
# search itself reaches
_WIDE_SHAPES = [(3, 0), (3, 1, 0), (3, 2, 0), (3, 0, 0), (3, 3, 0, 0), (3, 2, 1, 0), (3, 1, 1, 0),
                (4, 2, 0)]


def _search_shapes():
    """Every block shape of rank <= 6 with entries 0..2 (56), and the
    wide shapes."""
    return [mu for n in range(1, 7) for mu in dominant_coweights(n, 2) if mu[-1] == 0] + _WIDE_SHAPES


def test_the_search_is_the_search_per_lattice_point():
    # one search carries every lattice point as a bit; the reference
    # grows u once per point: the same groups, entry for entry and in
    # order, and the same size
    shapes = _search_shapes()
    assert len(shapes) == 64
    for mu in shapes:
        assert acceptable._grow_block_adm(mu) == grow_block_adm_reference(mu), mu


@pytest.mark.parametrize("limit", [1, 10, 100, 1000])
def test_the_search_refuses_where_the_search_per_lattice_point_does(limit):
    # refused exactly when |Adm(mu)| passes limit, with the reference's
    # message; answered in full otherwise
    def outcome(grow, mu):
        try:
            return grow(mu, limit)
        except GuardExceeded as exc:
            return str(exc)

    for mu in _search_shapes():
        got = outcome(acceptable._grow_block_adm, mu)
        assert got == outcome(grow_block_adm_reference, mu), mu
        if acceptable._grow_block_adm(mu)[1] > limit:
            assert got == f"admissible set too large: more than {limit}", mu
        else:
            assert got == acceptable._grow_block_adm(mu), mu


def _brute_force_problems():
    """The 283 verify-sweep problems and the problems of the seed-0 and
    seed-7 draws (1,000 each) that the brute force's guards admit."""
    out = _verify_sweep_problems()
    for seed in (0, 7):
        rng = random.Random(seed)
        draw = [twisted_draw(rng) for _ in range(1000)]
        out += [(mu, frob) for mu, frob in draw
                if acceptable._adm_refusal(mu, frob.datum, acceptable.BRUTE_GUARD_N) is None]
    return out


def test_brute_force_keys_one_element_per_omega_orbit():
    # for each generator omega_O: sigma0 fixes it, Adm(mu) is stable
    # under conjugation by it, and the Newton key is constant along its
    # orbits; so keying the first block's representatives gives the
    # keys of all of Adm(mu). The batch keying agrees with the
    # one-element-at-a-time reference on both sets
    problems = _brute_force_problems()
    seen = {"flipped": 0, "odd": 0}
    for mu, frob in problems:
        datum, sigma0 = frob.datum, frob.sigma0
        twist, slices = frob.affine_map, datum.block_slices()
        full = acceptable._adm_raw(mu, datum, acceptable.BRUTE_GUARD_N)
        reference = brute_keys_reference(full, twist, slices)
        assert same_keys(_newton_keys(full, twist, slices), reference)
        keys = {elem: key for key, members in reference.items() for elem in members}
        orbits = acceptable._omega_blocks(sigma0)
        for orbit in orbits:
            kappas = [0] * datum.num_blocks
            for b, sign in orbit:
                kappas[b] = sign
            om = omega_element(datum, kappas)
            assert sigma0.apply_element(om) == om
            conj = _conjugator(om)
            moved = [conj(elem) for elem in full]
            assert set(moved) == set(keys)
            assert all(keys[c] == keys[e] for e, c in zip(full, moved))
            seen["flipped"] += any(sigma0.flip[b] for b, _ in orbit)
        seen["odd"] += len(orbits) < len(sigma0.block_orbits)
        reduced = acceptable._adm_raw(mu, datum, acceptable.BRUTE_GUARD_N,
                                      reduced=[orbit[0][0] for orbit in orbits])
        assert set(reduced) <= set(keys)
        keyed = _newton_keys(reduced, twist, slices)
        assert same_keys(keyed, brute_keys_reference(reduced, twist, slices))
        assert keyed.keys() == reference.keys()
    # the corpus meets flipped even orbits and odd ones
    assert seen["flipped"] and seen["odd"]


def _brute_force_keyings(problems, clear=False):
    """The brute force's keying of each problem, the plan cache cleared
    before each with clear."""
    out = []
    for mu, frob in problems:
        datum = frob.datum
        raw = acceptable._adm_raw(mu, datum, acceptable.BRUTE_GUARD_N, reduced=[
            orbit[0][0] for orbit in acceptable._omega_blocks(frob.sigma0)])
        if clear:
            _keying_plan.cache_clear()
        out.append(_newton_keys(raw, frob.affine_map, datum.block_slices()))
    return out


def _judged_beyond_rank_six(mu, frob):
    """Under a rank guard of 8: auto's answer carries the brute force's
    agreement, so a problem skipped by the size guard fails; a twist
    that the reduction does not take (a flip at the superbasic base)
    has its maximal point judged by the brute force directly."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("BGMU_GUARD", "8")
        try:
            result = solve(mu, frob, strategy="auto")
        except UnsupportedTwist:
            (k, lam), _ = acceptable._brute_force(mu, frob, witness=False)
            assert tuple(Fraction(x, k) for x in lam) == maximal_newton_state(mu, frob).nu_raw
            return False
    assert result.checks.get("matches_bruteforce"), (mu, frob)
    return True


def test_the_brute_force_judges_superbasic_twists_at_ranks_7_and_8():
    # every superbasic twist of GL_7, GL_8, PGL_7 and PGL_8, every mu
    # with entries 0..1: 168 problems, each judged
    judged = 0
    for n in (7, 8):
        for m in (m for m in range(1, n) if gcd(m, n) == 1):
            for adjoint in (False, True):
                frob = Frobenius.superbasic(m, n, adjoint=adjoint)
                for mu in dominant_coweights(n, 1):
                    judged += _judged_beyond_rank_six(mu, frob)
    assert judged == 168


@settings(max_examples=40, deadline=None)
@given(twisted_problems(entries=(0, 1)).filter(lambda p: 7 <= p[1].datum.n <= 8))
def test_the_brute_force_judges_drawn_twists_at_ranks_7_and_8(problem):
    _judged_beyond_rank_six(*problem)


def test_brute_force_keys_alike_from_a_cleared_and_a_warm_plan_cache():
    # the keying plans outlive a problem: each problem keyed from a
    # cleared cache gives the same keys, with the members in the same
    # order, as the whole corpus keyed in one run, where every problem
    # reads the plans that earlier problems on its twist built
    problems = _brute_force_problems()
    cold = _brute_force_keyings(problems, clear=True)
    _keying_plan.cache_clear()
    assert _brute_force_keyings(problems) == cold
    assert _keying_plan.cache_info().hits


def test_brute_force_keys_from_threads_match_one_thread():
    # more plans than the cache holds, from more threads than cores,
    # with a short switch interval: misses, evictions and hits
    # interleave, and every keying is still the one a single thread
    # makes from a cleared cache; the problems are the first 400 of the
    # draws, past the 283 verify-sweep problems
    problems = _brute_force_problems()[283:683]
    expected = _brute_force_keyings(problems, clear=True)
    _keying_plan.cache_clear()
    _brute_force_keyings(problems)
    assert _keying_plan.cache_info().misses > _keying_plan.cache_info().maxsize
    _keying_plan.cache_clear()
    wrong: list = []

    def run(seed):
        order = list(range(len(problems)))
        random.Random(seed).shuffle(order)
        got = _brute_force_keyings([problems[i] for i in order])
        wrong.extend(i for i, keys in zip(order, got) if keys != expected[i])

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
    assert _keying_plan.cache_info().currsize <= _keying_plan.cache_info().maxsize


def test_brute_force_witness_is_the_least_of_the_maximal_class():
    # the witness is ordered on raw tuples, by (length, trans, images)
    # with the length from the window: it is the least by _adm_order of
    # the validated elements of Adm(mu) at the maximal Newton point,
    # keyed one element at a time
    for mu, frob in _brute_force_problems():
        datum = frob.datum
        (d, nums), witness = acceptable._brute_force(mu, frob, witness=True)
        nu = tuple(Fraction(x, d) for x in nums)
        full = acceptable._adm_raw(mu, datum, acceptable.BRUTE_GUARD_N)
        keyed = brute_keys_reference(full, frob.affine_map, datum.block_slices())
        top = [members for (k, lam), members in keyed.items()
               if tuple(Fraction(x, k) for x in lam) == nu]
        assert len(top) == 1
        least = min((AffineElement(datum, t, Permutation(im)) for t, im in top[0]),
                    key=acceptable._adm_order)
        assert witness == least
        assert witness.length() == least.length()


# --- the integer hull and heights against the fraction references --------------

# entries that make ties and runs of equal slope likely: a few small
# integers, halves and thirds, negative ones included
_entries = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3), Fraction(-2, 3)]),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_entries, max_size=14))
@example([])
@example([3, 3, 3])
@example([1, 2, 1, 2, 1, 2])
@example([2, 0, 2, 0, 1, 1])
@example([-1, -1, 3, 3, -2, 0, 0])
@example([Fraction(1, 2), 1, 0, Fraction(1, 2), Fraction(1, 2)])
def test_polygon_is_the_greedy_reference(eta):
    # the monotone stack gives the greedy search's vertices and slopes,
    # as the same fractions; the hull value off the vertices is the
    # slope sum at every abscissa
    got = polygon(eta)
    assert repr(got) == repr(polygon_reference(eta))
    for k in range(len(eta) + 1):
        value = got.hull_value(k)
        assert type(value) is Fraction and value == sum(got.slopes[:k], Fraction(0))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-4, 4), max_size=16))
@example([2, 2, 2])
@example([0, 1, 0, 1])
def test_hull_slopes_strictly_decrease(nums):
    # why _hull needs no check of its own: the monotone stack only keeps
    # a segment whose slope is above the next one's, and its runs cover
    # the steps and lie on or above every running sum
    runs = _hull(nums)
    assert all(r0 * w1 > r1 * w0 for (w0, r0), (w1, r1) in zip(runs, runs[1:]))
    assert sum(w for w, _ in runs) == len(nums) and sum(r for _, r in runs) == sum(nums)
    x = y = 0
    for width, rise in runs:
        for k in range(1, width + 1):
            assert (y * width + k * rise) >= width * sum(nums[: x + k])
        x, y = x + width, y + rise


@pytest.mark.parametrize("k", [-1, 3])
def test_hull_value_refuses_an_abscissa_out_of_range(k):
    with pytest.raises(ParseError, match=f"abscissa {k} outside 0..2"):
        polygon((1, 0)).hull_value(k)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_heights_are_the_fraction_reference(data):
    blocks = tuple(data.draw(st.lists(st.integers(1, 5), min_size=1, max_size=3)))
    datum = GroupDatum(blocks)
    vec = tuple(data.draw(st.lists(_entries, min_size=datum.n, max_size=datum.n)))
    assert repr(heights(datum, vec)) == repr(heights_reference(datum, vec))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_adjoint_eq_is_the_equality_of_heights(data):
    # on integer and fractional vectors, GL and PGL blocks, against a
    # vector drawn afresh, moved by a central vector, or flipped blockwise
    # (-reverse, moved by a central vector: equal heights on symmetric v)
    blocks = tuple(data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    adjoint = tuple(data.draw(st.lists(st.booleans(), min_size=len(blocks), max_size=len(blocks))))
    datum = GroupDatum(blocks, adjoint)
    v = tuple(data.draw(st.lists(_entries, min_size=datum.n, max_size=datum.n)))
    center = [c for nb in blocks for c in [data.draw(_entries)] * nb]
    kind = data.draw(st.sampled_from(["fresh", "central", "flip"]))
    if kind == "fresh":
        w = tuple(data.draw(st.lists(_entries, min_size=datum.n, max_size=datum.n)))
    elif kind == "central":
        w = tuple(a + c for a, c in zip(v, center))
    else:
        w = tuple(c - x for sl, lo in zip(datum.block_slices(), range(len(blocks)))
                  for c, x in zip(center[sl], reversed(v[sl])))
    assert adjoint_eq(datum, v, w) == (heights(datum, v) == heights(datum, w))
    if kind == "central":
        assert adjoint_eq(datum, v, w)


def test_a_vector_of_the_wrong_length_is_refused():
    # as diamond refuses it: heights and adjoint_eq read positions by
    # block, so a short or long vector would be read as another one
    d = GroupDatum.gl(3)
    calls = [lambda: heights(d, (1, 0)), lambda: heights(d, (1, 0, 0, 0)),
             lambda: adjoint_eq(d, (1, 0), (2, 1)), lambda: adjoint_eq(d, (1, 0, 0), (2, 1)),
             lambda: adjoint_eq(d, (1, 0), (1, 0, 0)), lambda: diamond((1, 0), Frobenius.trivial(d))]
    for call in calls:
        with pytest.raises(DimensionMismatch, match="^vector has wrong length$"):
            call()


# --- the self-checks of the maximal point and of the enumeration --------------
# Each is forced with a patched input: only a bug could raise them, and each
# must raise its typed error with a message that formats.

def test_a_maximal_point_that_sigma0_moves_is_refused(monkeypatch):
    monkeypatch.setattr(Sigma0, "is_invariant", lambda self, vec: False)
    with pytest.raises(InternalCheckFailed, match="^maximal point is not sigma0-invariant$"):
        maximal_newton_state((1, 0, 0), Frobenius.superbasic(1, 3))


def test_a_maximal_point_above_mu_diamond_is_refused(monkeypatch):
    # mu_diamond's heights lowered to -1: a dominant point's are >= 0
    real = acceptable._orbit_bounds

    def lowered(mu, frob):
        den, h_mu, sums, table = real(mu, frob)
        return den, [-1] * len(h_mu), sums, table

    monkeypatch.setattr(acceptable, "_orbit_bounds", lowered)
    with pytest.raises(InternalCheckFailed, match="^maximal point exceeds mu_diamond$"):
        maximal_newton_state((1, 0, 0), Frobenius.superbasic(1, 3))


def test_a_maximal_point_below_a_tent_is_refused(monkeypatch):
    # a hull of one straight run is central; the tent of mu = (1, 0)
    # under the trivial twist is mu's height 1/2
    monkeypatch.setattr(acceptable, "_hull", lambda rises: [(len(rises), sum(rises))])
    with pytest.raises(InternalCheckFailed, match="^maximal point drops below a tent$"):
        maximal_newton_state((1, 0), Frobenius.trivial(GL2))


def test_a_maximal_point_off_the_integrality_criterion_is_refused(monkeypatch):
    # superbasic 1/2 with mu = (2, 0): the tent is 1/2, on the coset
    # 3/2 + Z of <omega_1, mu_diamond + lam_diamond>, and mu_diamond's
    # height is 1. A hull through (5/2, 1/2) (numerators over the table's
    # den 2) has height 1, between the two, and moves the node, so only
    # its pairing, off the coset, refuses it
    monkeypatch.setattr(acceptable, "_hull", lambda rises: [(1, 5), (1, 1)])
    with pytest.raises(InternalCheckFailed,
                       match="^maximal point fails the integrality criterion$"):
        maximal_newton_state((2, 0), Frobenius.superbasic(1, 2, normalized=False))


def test_an_acceptable_set_without_one_maximum_is_refused(monkeypatch):
    # knots that ignore every prescribed height make each candidate the
    # central point: the four choices on GL_3's two nodes (in or out of
    # the support) give four equal points, all maxima
    real = acceptable._knot_runs
    monkeypatch.setattr(acceptable, "_knot_runs",
                        lambda plans, heights, strict: real(plans, [None] * len(heights), strict))
    with pytest.raises(InternalCheckFailed, match="^acceptable set has 4 maxima$"):
        enumerate_acceptable((1, 0, 0), Frobenius.trivial(GroupDatum.gl(3)))
