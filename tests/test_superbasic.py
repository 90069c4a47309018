"""Segment combinatorics, the Euclidean recursion and the peeling
construction."""

import itertools
import json
import random
import re
import sys
import threading
from bisect import bisect_left
from fractions import Fraction
from functools import partial
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgmu import weyl
from bgmu.acceptable import maximal_newton
from bgmu.errors import InternalCheckFailed, ParseError
from bgmu.newton import Frobenius, dominant_rep, newton_point
from bgmu.superbasic import (
    Segment,
    _epsilon,
    _twist_data,
    chi,
    division_step,
    euclid_chain,
    polygon,
    sharp_peel,
    superbasic_witness,
)
from bgmu.weyl import (
    AffineElement,
    GroupDatum,
    Permutation,
    _dominant_length,
    _transposition_delta,
    _transposition_descends,
    superbasic_element,
)
from conftest import (
    a_sequence_less,
    bruhat_lt,
    dominant_coweights,
    eager_peel_chain,
    expand,
    im_length,
    level_decompose_reference,
    reading_sequence,
)


def coprime_pairs(max_n):
    return [
        (m, n) for n in range(2, max_n + 1) for m in range(1, n) if gcd(m, n) == 1
    ]


# --- chi -----------------------------------------------------------------------

def test_chi_worked_example():
    assert chi(5, 8) == (0, 1, 0, 1, 1, 0, 1, 1)


def test_chi_small():
    assert chi(1, 2) == (0, 1)
    assert chi(1, 5) == (0, 0, 0, 0, 1)


def test_chi_entries_and_sum():
    for m, n in coprime_pairs(20):
        c = chi(m, n)
        assert set(c) <= {0, 1} and sum(c) == m


def test_chi_is_its_floor_definition():
    for m, n in coprime_pairs(64):
        assert chi(m, n) == tuple((i * m) // n - ((i - 1) * m) // n for i in range(1, n + 1))


def test_chi_rejects_non_coprime():
    with pytest.raises(ValueError):
        chi(2, 4)


# --- reading sequences and epsilon ----------------------------------------------

def test_a_sequence_comparisons():
    c = chi(1, 2)
    assert not a_sequence_less(c, 1, 1)
    assert a_sequence_less(c, 1, 2)
    assert not a_sequence_less(c, 2, 1)


def test_epsilon_worked_example():
    assert _epsilon(5, 8) == Permutation.from_cycles(8, [(1, 6, 7, 4, 5, 2, 3, 8)])


def test_epsilon_small():
    assert _epsilon(1, 2) == Permutation.from_cycles(2, [(1, 2)])


def test_epsilon_order_matches_comparisons():
    c = chi(5, 8)
    eps = _epsilon(5, 8)
    for i in range(1, 9):
        for j in range(1, 9):
            if i != j:
                assert (eps(i) < eps(j)) == a_sequence_less(c, j, i)


@pytest.mark.parametrize("m,n", coprime_pairs(60))
def test_epsilon_identities(m, n):
    c = chi(m, n)
    eps = _epsilon(m, n)
    varpi = tuple(1 if i <= m else 0 for i in range(1, n + 1))
    assert eps.act(c) == varpi
    assert eps(n) == 1
    # the closed form ranks 1..n by descending reading sequence
    ranked = sorted(range(1, n + 1), key=lambda j: reading_sequence(c, j), reverse=True)
    assert [eps(j) for j in ranked] == list(range(1, n + 1))


def test_epsilon_conjugates_full_cycle_to_rotation():
    for m, n in coprime_pairs(12):
        eps = _epsilon(m, n)
        full = Permutation.from_cycles(n, [tuple(range(1, n + 1))])
        rot = superbasic_element(m, n).perm
        assert eps * full * eps.inverse() == rot


# --- segments and polygons --------------------------------------------------------

def test_segment_basics():
    s = Segment(3, (1, 2, 0))
    assert s.tail == 5 and s.size == 3 and s.total == 3 and s.average == 1


def test_segment_average_refuses_an_empty_segment():
    with pytest.raises(ParseError, match="empty segment has no average"):
        Segment(3, ()).average


def test_polygon_constant():
    p = polygon((3, 3, 3))
    assert p.slopes == (3, 3, 3)
    assert p.vertices == ((0, 0), (3, 9))


def test_polygon_worked_example():
    p = polygon((1, 2, 1, 1, 1, 0, 1, 1))
    assert p.slopes == (
        Fraction(3, 2), Fraction(3, 2), Fraction(1), Fraction(1), Fraction(1),
        Fraction(2, 3), Fraction(2, 3), Fraction(2, 3),
    )
    assert sum(p.slopes) == 8
    assert p.vertices == ((0, 0), (2, 3), (5, 6), (8, 8))


def test_polygon_strictly_decreasing_prefix():
    assert polygon((2, 1)).slopes == (2, 1)


def test_polygon_empty():
    p = polygon(())
    assert p.slopes == () and len(p.vertices) == 1


def test_polygon_dominates_partial_sums():
    for values in itertools.product((0, 1, 2), repeat=6):
        p = polygon(values)
        running = 0
        for k in range(1, 7):
            running += values[k - 1]
            assert p.hull_value(k) >= running
        assert p.hull_value(6) == sum(values)


# --- the Euclidean recursion --------------------------------------------------------

def test_division_step_values():
    assert division_step(1, 2) == (1, 1)
    assert division_step(5, 8) == (2, 3)
    assert division_step(2, 3) == (0, 1)
    assert division_step(2, 5) == (1, 2)


def test_chain_worked_example():
    ch = euclid_chain(5, 8)
    assert ch.pairs == ((5, 8), (2, 3), (0, 1))
    assert ch.chis == ((0, 1, 0, 1, 1, 0, 1, 1), (0, 1, 1), (0,))
    assert ch.ends0 == ((1, 2, 3, 4, 5, 6, 7, 8), (2, 5, 8), (8,))


@pytest.mark.parametrize("m,n", coprime_pairs(40))
def test_chain_reconstruction(m, n):
    ch = euclid_chain(m, n)
    for h in range(len(ch.pairs)):
        assert expand(ch, h, ch.chis[h]) == chi(m, n)
    for a, b in zip(ch.pairs, ch.pairs[1:]):
        assert b[1] < a[1]
    assert ch.pairs[-1] in ((1, 1), (0, 1))


def test_level_decompose_whole_and_single():
    ch = euclid_chain(5, 8)
    whole = level_decompose_reference(ch, (1, 8))
    assert whole.level == ch.depth and whole.inside_elementary
    single = level_decompose_reference(ch, (3, 3))
    assert single.level == 0
    assert single.iota.values == (chi(5, 8)[2],)


def test_level_decompose_level_one_block():
    ch = euclid_chain(5, 8)
    sp = level_decompose_reference(ch, (3, 5))
    assert sp.level == 1 and sp.iota.size == 1


def test_level_decompose_misaligned():
    ch = euclid_chain(5, 8)
    with pytest.raises(ParseError):
        level_decompose_reference(ch, (0, 3))


def _template_spans(ch, h) -> list:
    """The level-0 span (start, end) of each level-h entry, from the
    templates alone: the entries expand to consecutive runs of chi."""
    spans, end = [], 0
    for v in ch.chis[h]:
        start, end = end + 1, end + len(expand(ch, h, (v,)))
        spans.append((start, end))
    return spans


@pytest.mark.parametrize("m,n", coprime_pairs(24))
def test_level_decompose_matches_the_template_spans(m, n):
    """Every segment [a, b]: its level is the largest h at which a starts
    a level-h span and b ends one, iota is the entries those spans
    cover, and it is inside one elementary block when a and b lie in one
    level-(h + 1) span (always at the top level)."""
    ch = euclid_chain(m, n)
    spans = [_template_spans(ch, h) for h in range(ch.depth + 1)]
    for a in range(1, n + 1):
        for b in range(a, n + 1):
            h = max(h for h, sp in enumerate(spans)
                    if a in {s for s, _ in sp} and b in {e for _, e in sp})
            i = next(k for k, (s, _) in enumerate(spans[h], 1) if s == a)
            j = next(k for k, (_, e) in enumerate(spans[h], 1) if e == b)
            inside = h == ch.depth or any(s <= a and b <= e for s, e in spans[h + 1])
            split = level_decompose_reference(ch, (a, b))
            assert (split.level, split.inside_elementary) == (h, inside), (a, b)
            assert split.iota == Segment(i, ch.chis[h][i - 1 : j]), (a, b)


@pytest.mark.parametrize("m,n", coprime_pairs(24))
def test_the_level_table_gives_the_level_scan(m, n):
    # each position's top is the largest level that it ends an entry of,
    # and the level and inside flag that sharp_peel reads off the tables
    # are the ones the scan finds
    ch = euclid_chain(m, n)
    assert len(ch.top) == n + 1 and ch.top[0] == ch.depth
    for p in range(1, n + 1):
        assert ch.top[p] == max(h for h, ends in enumerate(ch.ends0) if p in ends), p
    for a in range(1, n + 1):
        for b in range(a, n + 1):
            level = min(ch.top[a - 1], ch.top[b])
            inside = level == ch.depth or (
                bisect_left(ch.ends0[level + 1], a) == bisect_left(ch.ends0[level + 1], b))
            split = level_decompose_reference(ch, (a, b))
            assert (level, inside) == (split.level, split.inside_elementary), (a, b)


def test_fact_c_elementary_interior_readings():
    """Interior positions of an elementary block read strictly below
    both the position before its head and its tail."""
    for m, n in coprime_pairs(40):
        c = chi(m, n)
        ch = euclid_chain(m, n)
        start = 1
        for end in ch.ends0[1]:
            head, tail = start, end
            start = end + 1
            for j in range(head, tail):
                prev = (head - 1 - 1) % n + 1  # head - 1, cyclically
                assert a_sequence_less(c, j, prev)
                assert a_sequence_less(c, j, tail)


def test_fact_a_average_transfer():
    """Expansion preserves average comparisons between segments of the
    contracted word."""
    for m, n in coprime_pairs(16):
        ch = euclid_chain(m, n)
        if ch.depth == 0:
            continue
        m1, n1 = ch.pairs[1]
        if n1 < 2:
            continue
        c1 = ch.chis[1]
        ends = ch.ends0[1]
        starts = (1,) + tuple(e + 1 for e in ends[:-1])

        def expanded_av(i, j):
            lo, hi = starts[i - 1], ends[j - 1]
            part = chi(m, n)[lo - 1 : hi]
            return Fraction(sum(part), len(part))

        segs = [(i, j) for i in range(1, n1 + 1) for j in range(i, n1 + 1)]
        for (i1, j1) in segs:
            a1 = Fraction(sum(c1[i1 - 1 : j1]), j1 - i1 + 1)
            for (i2, j2) in segs:
                a2 = Fraction(sum(c1[i2 - 1 : j2]), j2 - i2 + 1)
                assert (a1 >= a2) == (expanded_av(i1, j1) >= expanded_av(i2, j2))


def test_fact_d_order_transfer():
    """The reading order of the contracted word matches the reading
    order of block tails in the expanded word."""
    for m, n in coprime_pairs(24):
        ch = euclid_chain(m, n)
        if ch.depth == 0:
            continue
        m1, n1 = ch.pairs[1]
        if n1 < 2:
            continue
        c0, c1 = ch.chis[0], ch.chis[1]
        ends = ch.ends0[1]
        for i in range(1, n1 + 1):
            for j in range(1, n1 + 1):
                if i == j:
                    continue
                assert a_sequence_less(c1, i, j) == a_sequence_less(
                    c0, ends[i - 1], ends[j - 1]
                )


# --- peeling -----------------------------------------------------------------------

def test_sharp_peel_worked_example():
    cert = sharp_peel((1, 1, 1, 0, 0, 0, 0, 0), 5, 8)
    assert cert.theta == (1, 2, 1, 1, 1, 0, 1, 1)
    assert [set(c.cycle_conjugated) for c in cert.chain] == [
        {8, 3}, {1, 3}, {1, 2},
    ]
    assert [tuple(s.values) for s in cert.decomposition] == [
        (1, 2), (1,), (1, 1), (0, 1, 1),
    ]
    assert cert.breakpoints == (3,)
    for step in cert.chain:
        assert bruhat_lt(step.after, step.before)
        assert step.after.length() < step.before.length()


def test_sharp_peel_small_cases():
    cert = sharp_peel((1, 0), 1, 2)
    assert len(cert.chain) == 1 and cert.chain[0].kind == "final"
    cert = sharp_peel((2, 0), 1, 2)
    assert [tuple(s.values) for s in cert.decomposition] == [(2,), (1,)]
    assert cert.slopes == (2, 1)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_transposition_delta_is_the_counted_change(data):
    n = data.draw(st.integers(2, 12))
    lam = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    images = data.draw(st.permutations(range(1, n + 1)))
    # adjacent positions and the block's ends among them
    a = data.draw(st.sampled_from([1, data.draw(st.integers(1, n - 1))]))
    b = data.draw(st.sampled_from([a + 1, n, data.draw(st.integers(a + 1, n))]))
    if data.draw(st.booleans()):
        a, b = b, a
    swapped = list(images)
    swapped[a - 1], swapped[b - 1] = swapped[b - 1], swapped[a - 1]

    def length(u):
        return im_length(AffineElement(GroupDatum.gl(n), lam, Permutation(u)))

    assert _transposition_delta(lam, images, a, b) == length(swapped) - length(images)


@st.composite
def transpositions_of_elements(draw):
    """t^lam u on a product of GL/PGL blocks and a transposition (a b)
    inside one of its blocks. The entries of lam are small, so that they
    tie, or of 20 digits, both signs, among them two that tie."""
    blocks = tuple(draw(st.lists(st.integers(1, 6), min_size=1, max_size=3)))
    if max(blocks) < 2:
        blocks += (2,)
    adjoint = tuple(draw(st.lists(st.booleans(), min_size=len(blocks), max_size=len(blocks))))
    datum = GroupDatum(blocks, adjoint)
    images: list[int] = []
    for lo, hi in datum.block_ranges():
        images += draw(st.permutations(range(lo, hi + 1)))
    entry = st.one_of(st.integers(-3, 3), st.integers(-10**20, 10**20),
                      st.sampled_from([-10**19 - 1, 10**19 + 1]))
    lam = tuple(draw(st.lists(entry, min_size=datum.n, max_size=datum.n)))
    lo, hi = draw(st.sampled_from([r for r in datum.block_ranges() if r[1] > r[0]]))
    a, b = draw(st.lists(st.integers(lo, hi), min_size=2, max_size=2, unique=True))
    return datum, lam, tuple(images), a, b


@settings(max_examples=300, deadline=None)
@given(transpositions_of_elements())
def test_the_descent_test_is_the_sign_of_the_length_change(case):
    datum, lam, images, a, b = case
    swapped = list(images)
    swapped[a - 1], swapped[b - 1] = swapped[b - 1], swapped[a - 1]
    before = im_length(AffineElement(datum, lam, Permutation(images)))
    after = im_length(AffineElement(datum, lam, Permutation(swapped)))
    delta = _transposition_delta(lam, images, a, b)
    assert delta == after - before
    assert _transposition_descends(lam, images, a, b) == (delta < 0) == (after < before)


@pytest.mark.parametrize("m,n", coprime_pairs(16))
def test_the_derived_chain_is_the_eager_one(m, n):
    eps = _epsilon(m, n)
    for mu in _peel_mus(n):
        cert = sharp_peel(mu, m, n)
        chain = cert.chain
        assert chain == eager_peel_chain(mu, m, n), (mu, m, n)
        assert [s.cycle_conjugated for s in chain] == [(eps(a), eps(b)) for a, b in (s.cycle for s in chain)]
        # block by block, the blocks of mu numbered from 1
        blocks = [s.block for s in chain]
        assert blocks == sorted(blocks) and set(blocks) <= set(range(1, len(cert.breakpoints) + 2))
        assert (chain[-1].after if chain else cert.start) == cert.end


def test_the_peel_builds_a_fixed_number_of_elements(monkeypatch):
    # a witness on distinct entries, whose chain has n - 1 steps, builds
    # as many elements at n = 512 as at n = 64 and counts no length;
    # printing its certificate adds one length change per step
    from bgmu import superbasic

    deltas, built = [], []
    real_delta = superbasic._transposition_delta
    real_unchecked = weyl._Frozen.__dict__["_unchecked"].__func__

    def delta(*args):
        deltas.append(args)
        return real_delta(*args)

    def unchecked(cls, *fields):
        built.append(cls)
        return real_unchecked(cls, *fields)

    monkeypatch.setattr(superbasic, "_transposition_delta", delta)
    monkeypatch.setattr(weyl._Frozen, "_unchecked", classmethod(unchecked))
    counts = {}
    for n in (64, 512):
        mu, m = tuple(range(n - 1, -1, -1)), n // 2 + 1
        superbasic_witness(mu, m, n)  # the twist's data, once per (m, n)
        del deltas[:], built[:]
        sw = superbasic_witness(mu, m, n)
        assert len(sw.certificate.steps) == n - 1 and deltas == []
        counts[n] = (built.count(AffineElement), built.count(Permutation))
        sw.certificate.to_json_dict()
        assert len(deltas) == n - 1
    assert counts[64] == counts[512] and max(counts[512]) <= 3, counts


@pytest.mark.parametrize("n", range(2, 41))
@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_carried_lengths_are_counted_lengths(n, data):
    mu = sorted(data.draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n)),
                reverse=True)
    for m in range(1, n):
        if gcd(m, n) != 1:
            continue
        for step in sharp_peel(mu, m, n).chain:
            # fresh elements, so length() counts from scratch
            before = AffineElement(step.before.datum, step.before.trans, step.before.perm)
            after = AffineElement(step.after.datum, step.after.trans, step.after.perm)
            assert step.length_before == before.length()
            assert step.length_after == after.length()
            assert step.length_after < step.length_before


def test_witness_counts_lengths_once(monkeypatch):
    # no O(n^2) count at all, however long the chain: the start's
    # length is the closed form and sigma's length zero the O(n) test
    calls = []
    real = weyl._window_length

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(weyl, "_window_length", counted)
    sw = superbasic_witness(tuple(range(63, -1, -1)), 33, 64)
    sw.certificate.to_json_dict()
    assert len(sw.certificate.chain) == 63
    assert len(calls) == 0


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-50, 50), min_size=1, max_size=40))
def test_dominant_length_is_the_counted_length(entries):
    mu = tuple(sorted(entries, reverse=True))
    n = len(mu)
    assert _dominant_length(mu) == im_length(AffineElement.translation(GroupDatum.gl(n), mu))
    for m in (1, n - 1):
        if 0 < m < n and gcd(m, n) == 1:
            # the start of the peel, t^{eps(mu)} sigma_{m,n}, counted afresh
            start = sharp_peel(mu, m, n).start
            fresh = AffineElement(start.datum, start.trans, start.perm)
            assert _dominant_length(mu) == fresh.length()


def _peel_mus(n):
    """Two mu per n, one with distinct entries and one with steps, and a
    central one."""
    q = max(n // 3, 1)
    steps = (4,) * q + (1,) * q + (-2,) * (n - 2 * q)
    return [tuple(range(n - 1, -1, -1)), steps, (3,) * n]


@pytest.mark.parametrize("m,n", coprime_pairs(16))
def test_the_unchecked_start_is_the_checked_product(m, n):
    eps, sigma = _epsilon(m, n), superbasic_element(m, n)
    for mu in _peel_mus(n):
        start = sharp_peel(mu, m, n).start
        expected = AffineElement.translation(GroupDatum.gl(n), eps.act(mu)) * sigma
        assert start == expected, (mu, m, n)
        assert start.datum == GroupDatum.gl(n)


@pytest.mark.parametrize("m,n", coprime_pairs(16))
def test_segments_keep_their_recomputed_tail_size_and_total(m, n):
    chain = euclid_chain(m, n)
    segments = [level_decompose_reference(chain, (a, b)).iota
                for a in range(1, n + 1) for b in range(a, n + 1, 3)]
    for mu in _peel_mus(n):
        segments += sharp_peel(mu, m, n).decomposition
    for s in segments:
        assert s.tail == s.head + len(s.values) - 1, s
        assert s.size == len(s.values), s
        assert s.total == sum(s.values), s


@pytest.mark.parametrize("m,n", coprime_pairs(16))
def test_a_peel_builds_one_segment_per_piece(m, n, monkeypatch):
    # the level of each step is read off the chain's tables, so the only
    # Segments a peel builds are the pieces of its decomposition
    built = []
    real = Segment.__init__

    def counted(self, head, values):
        built.append((head, tuple(values)))
        real(self, head, values)

    monkeypatch.setattr(Segment, "__init__", counted)
    for mu in _peel_mus(n):
        built.clear()
        cert = sharp_peel(mu, m, n)
        assert sorted(built) == sorted((s.head, s.values) for s in cert.decomposition), (mu, m, n)


def test_sharp_peel_slopes_match_hull():
    for m, n in coprime_pairs(7):
        for mu in dominant_coweights(n, 2):
            cert = sharp_peel(mu, m, n)
            assert cert.slopes == polygon(cert.theta).slopes


def test_witness_worked_example():
    sw = superbasic_witness((1, 1, 1, 0, 0, 0, 0, 0), 5, 8)
    d8 = GroupDatum.gl(8)
    s = superbasic_element(5, 8)
    eps = sw.x
    assert eps == Permutation((6, 3, 8, 5, 2, 7, 4, 1))
    expected = AffineElement.translation(d8, eps.act((1, 1, 1, 0, 0, 0, 0, 0))) * s
    for cyc in [(8, 3), (1, 3), (1, 2)]:
        expected = expected * AffineElement.from_permutation(
            d8, Permutation.from_cycles(8, [cyc])
        )
    expected = expected * s.inverse()
    assert sw.w == expected
    assert sw.nu.nu == (
        Fraction(3, 2), Fraction(3, 2), 1, 1, 1,
        Fraction(2, 3), Fraction(2, 3), Fraction(2, 3),
    )


def test_witness_small_cases():
    from bgmu.weyl import format_element

    sw = superbasic_witness((1, 0), 1, 2)
    assert format_element(sw.w) == "t[1,0]*cyc(1,2)"
    assert sw.nu.nu == (1, 1)
    sw = superbasic_witness((2, 0), 1, 2)
    assert format_element(sw.w) == "t[1,1]*cyc(1,2)"
    assert sw.nu.nu == (2, 1)


def test_witness_chain_is_certified():
    sw = superbasic_witness((2, 1, 1, 0, 0), 2, 5)
    cert = sw.certificate
    for step in cert.chain:
        assert bruhat_lt(step.after, step.before)
    doc = cert.to_json_dict()
    assert doc["schema"] == "bgmu/1"
    assert all(entry["verified"] for entry in doc["chain"])


@pytest.mark.parametrize("m,n", coprime_pairs(7))
def test_witness_point_is_the_newton_point(m, n):
    # the witness compares its point with the slopes in integers and
    # then reports the slopes: they are newton_point's dominant point
    frob = Frobenius.inner(superbasic_element(m, n))
    for mu in dominant_coweights(n, 2):
        sw = superbasic_witness(mu, m, n)
        assert sw.nu == newton_point(sw.w, frob).nu_bar, (mu, m, n)


def test_witness_refuses_a_point_off_the_slopes(monkeypatch):
    from bgmu import superbasic

    real = superbasic._newton_kernel

    def off_by_one(*args):
        lam, bar = real(*args)
        return lam, [bar[0] + 1] + bar[1:]

    monkeypatch.setattr(superbasic, "_newton_kernel", off_by_one)
    with pytest.raises(InternalCheckFailed, match="is not the hull slope sequence"):
        superbasic_witness((2, 1, 1, 0, 0), 2, 5)


def test_witness_newton_point_from_cycle_element():
    """t^theta x_c has the hull slopes as its plain Newton vector."""
    mu, m, n = (1, 1, 0, 0, 0), 2, 5
    cert = sharp_peel(mu, m, n)
    datum = GroupDatum.gl(n)
    xc = Permutation.identity(n)
    for seg in cert.decomposition:
        if seg.size > 1:
            xc = xc * Permutation.from_cycles(n, [tuple(range(seg.head, seg.tail + 1))])
    wc = AffineElement.translation(datum, cert.theta) * AffineElement.from_permutation(datum, xc)
    nd = newton_point(wc, Frobenius.trivial(datum))
    bar, _ = dominant_rep(datum, nd.nu)
    assert bar == cert.slopes


def _three_coweights(n):
    """Three fixed dominant coweights of length n: minuscule, a
    staircase in {0, 1, 2}, and a seeded draw from {0, ..., 4}."""
    rng = random.Random(n)
    return (
        (1,) + (0,) * (n - 1),
        tuple(sorted(((i + 1) % 3 for i in range(n)), reverse=True)),
        tuple(sorted((rng.randrange(5) for _ in range(n)), reverse=True)),
    )


@pytest.mark.parametrize("n", range(2, 17))
def test_witness_point_is_maximal(n):
    # superbasic_witness checks only that w realizes the hull slopes;
    # that those slopes, shifted by m/n, are the maximal point is checked
    # here for the base case (and by solve for every problem)
    for m in range(1, n):
        if gcd(m, n) != 1:
            continue
        frob = Frobenius.superbasic(m, n)
        for mu in _three_coweights(n):
            sw = superbasic_witness(mu, m, n)
            normalized = tuple(a - Fraction(m, n) for a in sw.nu.nu)
            assert normalized == maximal_newton(mu, frob).nu, (mu, m, n)


@pytest.mark.parametrize("m,n", coprime_pairs(5))
def test_witness_sweep_matches_enumeration(m, n):
    from bgmu.acceptable import enumerate_acceptable

    frob = Frobenius.superbasic(m, n)
    for mu in dominant_coweights(n, 2):
        sw = superbasic_witness(mu, m, n)
        acc = enumerate_acceptable(mu, frob)
        assert acc.raw[acc.maximum] == sw.nu.nu


# --- the per-(m, n) twist data ---------------------------------------------------

def test_twist_data_is_a_fresh_build_kept_once():
    # the closed forms against the generic builders: the validated
    # sigma_{m,n}, its inverse, Frobenius's affine map and the cycle walk
    for m, n in coprime_pairs(64):
        data = _twist_data(m, n)
        assert _twist_data(m, n) is data
        sigma = superbasic_element(m, n)
        assert data.chain == euclid_chain(m, n)
        assert data.eps == _epsilon(m, n)
        assert data.eps_text == repr(_epsilon(m, n))
        assert data.sigma == sigma
        assert data.sigma_text == weyl._element_text("", sigma.perm.images)
        assert data.sigma_inv == sigma.inverse()
        assert data.affine_map == Frobenius.inner(sigma).affine_map
    info = _twist_data.cache_info()
    assert info.maxsize == 64 and info.currsize <= 64


def test_a_twist_data_miss_builds_no_twist_and_proves_length_zero_once(monkeypatch):
    # sigma_{m,n}, its inverse and the affine map are closed forms built
    # unchecked: a miss interns no twist, validates no element and runs
    # the one length-zero proof; a hit runs nothing
    import bgmu.newton as newton
    import bgmu.superbasic as superbasic

    calls = dict.fromkeys(["_length_zero", "AffineElement", "Permutation",
                           "Sigma0._build", "Frobenius._build"], 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    length_zero = counted("_length_zero", weyl._length_zero)
    for module in (weyl, superbasic):
        monkeypatch.setattr(module, "_length_zero", length_zero)
    monkeypatch.setattr(AffineElement, "__init__", counted("AffineElement", AffineElement.__init__))
    monkeypatch.setattr(Permutation, "__init__", counted("Permutation", Permutation.__init__))
    for cls in (newton.Sigma0, Frobenius):
        monkeypatch.setattr(cls, "_build", counted(f"{cls.__name__}._build", cls._build))
    _twist_data.cache_clear()
    for m, n in [(1, 2), (3, 8), (13, 32), (31, 64)]:
        for first in (True, False):
            data = _twist_data(m, n)
            assert calls == {**dict.fromkeys(calls, 0), "_length_zero": first}, (m, n, first)
            calls.update(dict.fromkeys(calls, 0))
        assert data.sigma.length() == 0  # the proof's yes is kept


def test_a_sigma_that_is_not_length_zero_is_refused_and_not_kept(monkeypatch):
    import bgmu.superbasic as superbasic

    _twist_data.cache_clear()
    monkeypatch.setattr(superbasic, "_length_zero", lambda w: False)
    with pytest.raises(InternalCheckFailed, match="^omega element is not length zero$"):
        _twist_data(3, 8)
    assert _twist_data.cache_info().currsize == 0


def _witness_text(mu, m, n):
    sw = superbasic_witness(mu, m, n)
    doc = sw.certificate.to_json_dict()
    return json.dumps(doc, sort_keys=True), weyl.format_element(sw.w), sw.nu, sw.x


def test_witness_is_the_same_from_a_warm_and_a_cleared_cache():
    cases = [(mu, m, n) for m, n in coprime_pairs(7) for mu in dominant_coweights(n, 2)]
    cases += [(tuple(range(n - 1, -1, -1)), n // 2 + 1, n) for n in (12, 17, 32)]
    for mu, m, n in cases:
        _twist_data.cache_clear()
        cold = _witness_text(mu, m, n)
        hits, misses, _, _ = _twist_data.cache_info()
        assert _witness_text(mu, m, n) == cold, (mu, m, n)
        # one hit in sharp_peel, one in superbasic_witness and one for
        # epsilon's text in to_json_dict
        assert _twist_data.cache_info()[:2] == (hits + 3, misses)


@pytest.mark.parametrize("m,n", [(0, 1), (1, 1), (2, 1), (0, 3), (3, 3), (4, 3), (-1, 3), (2, 4), (6, 9)])
def test_invalid_twist_raises_and_is_not_kept(m, n):
    _twist_data.cache_clear()
    mu = (0,) * n
    message = re.escape(f"need coprime 0 < m < n, got ({m}, {n})")
    for build in (partial(superbasic_witness, mu), partial(sharp_peel, mu), euclid_chain):
        with pytest.raises(ParseError, match=message):
            build(m, n)
    with pytest.raises(ParseError, match=message):
        _twist_data(m, n)
    assert _twist_data.cache_info().currsize == 0


@pytest.mark.parametrize("m,n,message", [(2, 4, "(2, 4) are not coprime"),
                                         (0, 3, "need 0 < m < n, got (0, 3)")])
def test_superbasic_element_refuses_a_bad_pair(m, n, message):
    with pytest.raises(ParseError, match=re.escape(message)):
        superbasic_element(m, n)


def test_mu_is_checked_before_the_twist():
    _twist_data.cache_clear()
    with pytest.raises(ParseError, match="mu must have length 4"):
        superbasic_witness((0, 0, 0), 2, 4)
    with pytest.raises(ParseError, match="is not dominant"):
        superbasic_witness((0, 1, 0, 0), 2, 4)
    assert _twist_data.cache_info().currsize == 0


def test_witnesses_from_threads_match_one_thread():
    # more pairs than the cache holds, from more threads than cores, with
    # a short switch interval: misses, evictions and hits interleave, and
    # every witness is still the one a single thread builds
    cases = [(tuple(range(n - 1, -1, -1)), m, n) for m, n in coprime_pairs(20)]
    assert len(cases) > _twist_data.cache_info().maxsize
    expected = {case: _witness_text(*case) for case in cases}
    _twist_data.cache_clear()
    wrong: list = []

    def run(seed):
        order = cases[:]
        random.Random(seed).shuffle(order)
        wrong.extend(case for case in order if _witness_text(*case) != expected[case])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(seed,)) for seed in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
    assert _twist_data.cache_info().currsize <= 64


# --- the self-checks of the chain, the peel and the witness -------------------
# Each is forced with a patched input: only a bug could raise them, and each
# must raise its typed error with a message that formats.

def test_templates_that_do_not_rebuild_chi_are_refused(monkeypatch):
    import bgmu.superbasic as superbasic

    real = superbasic._templates
    monkeypatch.setattr(superbasic, "_templates", lambda m, n: real(m, n)[::-1])
    with pytest.raises(InternalCheckFailed, match=re.escape(
        "template expansion of chi(1, 2) does not rebuild chi(2, 5)"
    )):
        euclid_chain(2, 5)


def test_a_chain_step_that_keeps_the_length_is_refused(monkeypatch):
    import bgmu.superbasic as superbasic

    monkeypatch.setattr(superbasic, "_transposition_descends", lambda *args: False)
    with pytest.raises(InternalCheckFailed, match=re.escape(
        "chain step final cyc(1, 3) is not a strict Bruhat descent at t[1,1,0]*cyc(1,2,3)"
    )):
        sharp_peel((1, 0, 0), 1, 3)


@pytest.mark.parametrize("cut, message", [
    # each piece loses its first entry and starts one later
    (lambda head, values: (head + 1, values[1:]), "decomposition pieces are not contiguous"),
    # each piece loses its last entry
    (lambda head, values: (head, values[:-1]), "decomposition does not cover the block"),
])
def test_pieces_that_do_not_tile_the_block_are_refused(monkeypatch, cut, message):
    # mu = 0 is one block, peeled as one piece; a shortened piece emits
    # a final step, which is let pass
    import bgmu.superbasic as superbasic

    monkeypatch.setattr(superbasic, "Segment", lambda head, values: Segment(*cut(head, values)))
    monkeypatch.setattr(superbasic, "_transposition_descends", lambda *args: True)
    with pytest.raises(InternalCheckFailed, match=f"^{message}$"):
        sharp_peel((0, 0, 0), 1, 3)


def test_slopes_off_the_hull_are_refused(monkeypatch):
    # a hull of one straight run against the peel of theta = (1, 0, 1)
    import bgmu.superbasic as superbasic

    monkeypatch.setattr(superbasic, "_hull", lambda nums: [(len(nums), sum(nums))])
    with pytest.raises(InternalCheckFailed, match=re.escape(
        "peeled decomposition slopes (1, 1/2, 1/2) differ from hull"
    )):
        sharp_peel((1, 0, 0), 1, 3)
