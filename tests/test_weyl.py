"""Group arithmetic, length, reduced words and the Bruhat order."""

import itertools
import re
from functools import lru_cache
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgmu import weyl
from bgmu.errors import DimensionMismatch, InternalCheckFailed, ParseError
from bgmu.newton import Sigma0
from bgmu.weyl import (
    AffineElement,
    GroupDatum,
    Permutation,
    _from_window,
    _length_zero,
    _subword_split,
    _swap,
    _window,
    bruhat_leq,
    format_element,
    omega_element,
    parse_element,
    superbasic_element,
)
from conftest import (
    apply_affine,
    bruhat_lower_set,
    bruhat_lt,
    element_power,
    format_element_reference,
    from_cycles_reference,
    im_length,
    oracle_length,
    permutation_repr_reference,
    reduced_word,
    simple_reflections,
    wa_ball,
)

GL2 = GroupDatum.gl(2)
GL3 = GroupDatum.gl(3)


def elt(text, datum=GL2):
    return parse_element(text, datum)


def elements(datum, max_abs=3):
    def build(trans, *block_perms):
        images = []
        for (lo, _), perm in zip(datum.block_ranges(), block_perms):
            images.extend(lo + p - 1 for p in perm)
        return AffineElement(datum, trans, Permutation(images))

    return st.builds(
        build,
        st.tuples(*[st.integers(-max_abs, max_abs)] * datum.n),
        *[st.permutations(list(range(1, nb + 1))) for nb in datum.blocks],
    )


# --- composition and inversion ----------------------------------------------

def test_translations_commute():
    assert elt("t[1,0]") * elt("t[0,1]") == elt("t[1,1]")


def test_permutation_acts_on_lattice():
    assert elt("t[0,0]*cyc(1,2)") * elt("t[1,0]") == elt("t[0,1]*cyc(1,2)")


def test_square_of_length_zero_generator():
    a = elt("t[1,0]*cyc(1,2)")
    assert a * a == elt("t[1,1]")


def test_invert_examples():
    assert AffineElement.identity(GL2).inverse() == AffineElement.identity(GL2)
    assert elt("t[1,0]*cyc(1,2)").inverse() == elt("t[0,-1]*cyc(1,2)")


@settings(max_examples=120, deadline=None)
@given(elements(GL3))
def test_double_inverse(w):
    assert w.inverse().inverse() == w


@settings(max_examples=80, deadline=None)
@given(elements(GL3), elements(GL3), elements(GL3))
def test_group_axioms(a, b, c):
    assert (a * b) * c == a * (b * c)
    e = AffineElement.identity(GL3)
    assert a * e == a and e * a == a
    assert a * a.inverse() == e


@settings(max_examples=60, deadline=None)
@given(elements(GroupDatum((2, 3))))
def test_block_product_axioms(w):
    assert (w * w.inverse()).is_identity()


def test_group_axioms_rank_eight():
    import random

    rng = random.Random(58)
    d8 = GroupDatum.gl(8)

    def rand():
        perm = list(range(1, 9))
        rng.shuffle(perm)
        return AffineElement(
            d8, tuple(rng.randint(-3, 3) for _ in range(8)), Permutation(perm)
        )

    e = AffineElement.identity(d8)
    for _ in range(25):
        a, b, c = rand(), rand(), rand()
        assert (a * b) * c == a * (b * c)
        assert a * a.inverse() == e
        assert (a * e) == a


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        elt("t[1,0]") * parse_element("t[1,0,0]", GL3)


# --- affine action ------------------------------------------------------------

def test_apply_affine():
    assert apply_affine(AffineElement.identity(GL2), (5, 7)) == (5, 7)
    assert apply_affine(elt("t[1,0]"), (0, 0)) == (1, 0)
    s = superbasic_element(5, 8)
    assert apply_affine(s, (0,) * 8) == (1, 1, 1, 1, 1, 0, 0, 0)


# --- length -------------------------------------------------------------------

def test_length_examples():
    assert AffineElement.identity(GL2).length() == 0
    assert superbasic_element(5, 8).length() == 0
    assert elt("t[1,0]").length() == 1


@pytest.mark.parametrize("datum", [GL2, GL3])
def test_length_against_word_search(datum):
    for w in sorted(wa_ball(datum, 5), key=lambda v: (v.length(), v.trans, v.perm.images)):
        if 0 < w.length() <= 5:
            assert oracle_length(w, cap=6) == w.length()


@st.composite
def wide_elements(draw):
    """An element of a GL or PGL datum of 1-4 blocks of size 1-6, its
    entries small or up to 10^20 in size."""
    blocks = tuple(draw(st.lists(st.integers(1, 6), min_size=1, max_size=4)))
    datum = GroupDatum(blocks, tuple(draw(st.lists(st.booleans(), min_size=len(blocks),
                                                   max_size=len(blocks)))))
    entry = st.one_of(st.integers(-4, 4), st.integers(-10**20, 10**20))
    trans = draw(st.lists(entry, min_size=datum.n, max_size=datum.n))
    images = []
    for lo, hi in datum.block_ranges():
        images += draw(st.permutations(range(lo, hi + 1)))
    return AffineElement(datum, trans, Permutation(images))


@settings(max_examples=300, deadline=None)
@given(wide_elements())
def test_length_is_the_iwahori_matsumoto_count(w):
    assert w.length() == im_length(w)


@st.composite
def wide_translations(draw):
    """A pure translation of a GL or PGL datum of 1-4 blocks of size
    1-6, its entries unsorted, negative or up to 10^20 in size."""
    w = draw(wide_elements())
    return AffineElement.translation(w.datum, w.trans)


@settings(max_examples=300, deadline=None)
@given(wide_translations())
def test_translation_length_is_the_iwahori_matsumoto_count(w):
    # a translation takes the sorted closed form, not Shi's sum
    assert w.perm.is_identity()
    assert w.length() == im_length(w)


def test_translation_length_sums_no_pairs(monkeypatch):
    def refuse(*args):
        raise AssertionError("a translation's length summed pairs")

    monkeypatch.setattr(weyl, "_window_length", refuse)
    datum = GroupDatum((3, 64), (False, True))
    trans = (-2, 5, 0) + tuple((7 * i) % 13 - 6 for i in range(64))
    w = AffineElement.translation(datum, trans)
    assert w.length() == im_length(w)


@settings(max_examples=80, deadline=None)
@given(elements(GL3))
def test_length_symmetries(w):
    assert w.length() == w.inverse().length()


@settings(max_examples=60, deadline=None)
@given(elements(GL3), st.integers(0, 5))
def test_length_zero_conjugation(w, k):
    omega = omega_element(GL3, (k,))
    assert (omega * w * omega.inverse()).length() == w.length()


@settings(max_examples=60, deadline=None)
@given(elements(GL3), elements(GL3))
def test_length_subadditive(a, b):
    assert (a * b).length() <= a.length() + b.length()


# --- reduced words -------------------------------------------------------------

@pytest.mark.parametrize("blocks, spread", [((2,), 2), ((4,), 1), ((2, 3), 1)])
def test_left_descent_matches_definition(blocks, spread):
    datum = GroupDatum(blocks)
    reflections = simple_reflections(datum)
    block_perms = [
        itertools.permutations(range(lo, hi + 1)) for lo, hi in datum.block_ranges()
    ]
    perms = [
        Permutation(x for block in combo for x in block)
        for combo in itertools.product(*block_perms)
    ]
    for trans in itertools.product(range(-spread, spread + 1), repeat=datum.n):
        for perm in perms:
            w = AffineElement(datum, trans, perm)
            want = [label for label, s in reflections if (s * w).length() < w.length()]
            assert reduced_word(w).letters[:1] == tuple(want[:1])


def test_reduced_word_examples():
    rw = reduced_word(AffineElement.identity(GL2))
    assert rw.letters == () and rw.omega.is_identity()
    rw = reduced_word(elt("t[1,0]"))
    assert len(rw.letters) == 1 and rw.omega.length() == 0
    assert len(reduced_word(elt("t[0,2]")).letters) == 2


@settings(max_examples=80, deadline=None)
@given(elements(GL3, max_abs=2))
def test_reduced_word_reproduces_element(w):
    rw = reduced_word(w)
    assert len(rw.letters) == w.length()
    assert rw.product() == w


# --- Bruhat order ---------------------------------------------------------------

def test_bruhat_reflexive_and_example_chain():
    w = elt("t[1,0]*cyc(1,2)")
    assert bruhat_leq(w, w)
    d8 = GroupDatum.gl(8)
    mu = (1, 1, 1, 0, 0, 0, 0, 0)
    s = superbasic_element(5, 8)
    eps = Permutation((6, 3, 8, 5, 2, 7, 4, 1))
    top = AffineElement.translation(d8, eps.act(mu)) * s
    step = top * AffineElement.from_permutation(d8, Permutation.from_cycles(8, [(8, 3)]))
    assert bruhat_lt(step, top)


def test_length_zero_is_minimal_in_coset():
    assert bruhat_leq(elt("t[1,0]*cyc(1,2)"), elt("t[0,1]"))


def test_bruhat_needs_same_coset():
    assert not bruhat_leq(elt("t[1,0]"), elt("t[1,1]"))


@pytest.mark.parametrize("datum,max_len", [
    (GL2, 8), (GL3, 6), (GroupDatum((2, 1, 2)), 4), (GroupDatum((1, 3)), 5),
])
def test_bruhat_matches_subword_enumeration(datum, max_len):
    for k in range(min(3, datum.n)):
        omega = omega_element(datum, (k,) * datum.num_blocks)
        ball = sorted(
            (a * omega for a in wa_ball(datum, max_len)),
            key=lambda v: (v.length(), v.trans, v.perm.images),
        )
        lower = {w: bruhat_lower_set(w) for w in ball}
        for u in ball:
            assert reduced_word(u).product() == u
            for w in ball:
                assert bruhat_leq(u, w) == (u in lower[w])


def splits_in_every_order(u, v):
    """The u1 that ``_subword_split(u, v)`` would return, for each order
    in which its walk may take v's left descents: a walk on the windows
    that branches on every descent of the top, memoized by state."""
    nodes = v.datum._nodes

    @lru_cache(maxsize=None)
    def bottoms(top, low):
        found = set()
        for node in nodes:
            _, a, c, k = node
            if top[a] - k <= top[c]:
                continue
            t = list(top)
            _swap(t, node)
            if low[a] - k <= low[c]:
                found |= bottoms(tuple(t), low)
                continue
            lo = list(low)
            _swap(lo, node)
            for g in bottoms(tuple(t), tuple(lo)):
                g = list(g)
                _swap(g, node)
                found.add(tuple(g))
        return frozenset(found or [top])

    return {_from_window(v.datum, g) for g in bottoms(tuple(_window(v)), tuple(_window(u)))}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_subword_split_does_not_depend_on_the_descent_order(n):
    # the answer to the walk's order question: on these cases every
    # order gives the same u1, so the (block, node) order is a choice,
    # not a requirement; for u <= v that u1 is u itself
    datum = GroupDatum.gl(n)
    ball = wa_ball(datum, 6)
    for v in ball:
        for u in bruhat_lower_set(v):
            assert splits_in_every_order(u, v) == {u}
    # pairs that are not comparable, as the product split hands over
    small = [w for w in ball if w.length() <= 4]
    for v in small:
        for u in small:
            assert splits_in_every_order(u, v) == {_subword_split(u, v)[0]}


def test_walks_build_only_the_elements_they_return(monkeypatch):
    from bgmu.superbasic import superbasic_witness

    mu = (4,) * 8 + (2,) * 8 + (1,) * 8 + (0,) * 8
    sw = superbasic_witness(mu, 17, 32)
    top = AffineElement.translation(sw.w.datum, sw.x.act(mu))
    assert top.length() == 832 and sw.w.length() < 832
    built = []
    init = AffineElement.__init__

    def counting(self, *args):
        built.append(1)
        init(self, *args)

    monkeypatch.setattr(AffineElement, "__init__", counting)
    assert bruhat_leq(sw.w, top)
    assert len(built) <= 2
    built.clear()
    assert len(reduced_word(top)) == 832
    assert len(built) <= 2


def test_bruhat_antisymmetry_on_interval():
    top = elt("t[2,-1]")
    interval = sorted(
        bruhat_lower_set(top), key=lambda v: (v.length(), v.trans, v.perm.images)
    )
    for u in interval:
        for w in interval:
            if bruhat_leq(u, w) and bruhat_leq(w, u):
                assert u == w


def test_conjugation_by_length_zero_preserves_order():
    ball = sorted(
        wa_ball(GL2, 5), key=lambda v: (v.length(), v.trans, v.perm.images)
    )
    omega = omega_element(GL2, (1,))
    oinv = omega.inverse()
    for u in ball:
        for w in ball:
            assert bruhat_leq(u, w) == bruhat_leq(omega * u * oinv, omega * w * oinv)


def test_adjoint_blocks_align_central_translations():
    pgl2 = GroupDatum.pgl(2)
    lo = parse_element("t[1,0]*cyc(1,2)", pgl2)
    hi = parse_element("t[2,1]", pgl2)  # central shift of t[1,0]
    assert bruhat_leq(lo, hi)


# --- superbasic elements ---------------------------------------------------------

def test_superbasic_worked_case():
    s = superbasic_element(5, 8)
    assert s.trans == (1, 1, 1, 1, 1, 0, 0, 0)
    assert s.perm == Permutation.from_cycles(8, [(6, 3, 8, 5, 2, 7, 4, 1)])
    assert s.length() == 0


def test_superbasic_small():
    assert superbasic_element(1, 2) == elt("t[1,0]*cyc(1,2)")


@pytest.mark.parametrize("n", range(2, 13))
def test_superbasic_power_identity(n):
    for m in range(1, n):
        if gcd(m, n) != 1:
            continue
        s = superbasic_element(m, n)
        assert s.length() == 0
        assert element_power(s, n) == AffineElement.translation(GroupDatum.gl(n), (m,) * n)


def test_superbasic_rejects_bad_input():
    with pytest.raises(ValueError):
        superbasic_element(2, 4)
    with pytest.raises(ValueError):
        superbasic_element(3, 3)


# --- literals --------------------------------------------------------------------

def test_parse_basic():
    w = elt("t[1,0]*cyc(1,2)")
    assert w.trans == (1, 0) and w.perm(1) == 2


def test_parse_u58():
    d8 = GroupDatum.gl(8)
    w = parse_element("t[0,0,0,0,0,0,0,0]*cyc(6,3,8,5,2,7,4,1)", d8)
    assert w.perm == superbasic_element(5, 8).perm


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.lists(st.integers(-1, n + 1), max_size=n + 1), max_size=4))))
def test_from_cycles_is_the_product_of_its_cycles(case):
    # composed on one list and checked once: a cycle of two or more
    # indices must hold distinct ones in 1..n, and on such cycles the
    # product is the reference's, one checked permutation per cycle.
    # Every cycle list that the reference refuses is refused, with
    # ParseError where the reference could also raise IndexError; the
    # reference reads a few more (a repeated cycle such as (1,2,1,2), or
    # 0 and -1 as indices from the end), which are refused too
    n, cycles = case
    valid = all(len(c) < 2 or (len(set(c)) == len(c) and min(c) >= 1 and max(c) <= n)
                for c in cycles)
    try:
        want = from_cycles_reference(n, cycles)
    except (ParseError, IndexError):
        want = None
    if valid:
        assert Permutation.from_cycles(n, cycles) == want
        assert Permutation.from_cycles(n, map(list, cycles)) == want
    else:
        with pytest.raises(ParseError, match=rf"^not a permutation of 1\.\.{n}: cycle \("):
            Permutation.from_cycles(n, cycles)


def test_from_cycles_refuses_a_cycle_that_is_no_permutation():
    for cyc in [(1, 2, 1), (1, 4), (0, 1), (1, 2, 1, 2), (3, 0)]:
        with pytest.raises(ParseError, match=re.escape(f"not a permutation of 1..3: cycle {cyc}")):
            Permutation.from_cycles(3, [(1, 2), cyc])
    # a cycle of one index, or of none, is the identity, as it always was
    assert Permutation.from_cycles(3, [(5,), (), (1, 3)]) == Permutation((3, 2, 1))


def test_parse_cycles_compose_left_to_right():
    d3 = GL3
    w = parse_element("t[0,0,0]*cyc(1,2)*cyc(2,3)", d3)
    # (uv)(i) = u(v(i)): first cyc(2,3), then cyc(1,2)
    assert w.perm(2) == 3 and w.perm(3) == 1 and w.perm(1) == 2


@settings(max_examples=100, deadline=None)
@given(elements(GL3))
def test_format_parse_round_trip(w):
    assert parse_element(format_element(w), GL3) == w


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_element("t[1,0", GL2)
    with pytest.raises(ParseError):
        parse_element("t[1,0]*cyc(1,3)", GL2)
    with pytest.raises(ParseError):
        parse_element("t[1,0]*cyc(1,1)", GL2)
    with pytest.raises(ParseError):
        parse_element("t[1]", GL2)


# --- checks at entry, closed operations unchecked ------------------------------

def rechecked(w):
    """w built again through the public, checking constructors."""
    return AffineElement(w.datum, w.trans, Permutation(w.perm.images))


def assert_valid(w):
    fresh = rechecked(w)
    assert w == fresh and hash(w) == hash(fresh)
    assert type(w.trans) is tuple and type(w.perm.images) is tuple
    assert w.length() == fresh.length()


@st.composite
def twisted_products(draw):
    """A product of GL/PGL blocks, two of its elements and a diagram
    automorphism with random flips on a random permutation of equal
    blocks."""
    blocks = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    adjoint = tuple(draw(st.lists(st.booleans(), min_size=len(blocks), max_size=len(blocks))))
    datum = GroupDatum(blocks, adjoint)
    block_to = list(range(len(blocks)))
    for size in set(blocks):
        same = [b for b, nb in enumerate(blocks) if nb == size]
        for b, tb in zip(same, draw(st.permutations(same))):
            block_to[b] = tb
    flip = tuple(draw(st.lists(st.booleans(), min_size=len(blocks), max_size=len(blocks))))
    sigma0 = Sigma0(datum, tuple(block_to), flip)
    return datum, draw(elements(datum)), draw(elements(datum)), sigma0


@settings(max_examples=150, deadline=None)
@given(twisted_products())
def test_closed_operations_equal_their_rechecked_copies(problem):
    datum, v, w, sigma0 = problem
    for result in (v * w, w * v, v.inverse(), (v * w).inverse(),
                   sigma0.apply_element(w), sigma0.apply_element(v * w)):
        assert result.datum == datum
        assert_valid(result)
    for perm in (v.perm * w.perm, w.perm.inverse(), sigma0.apply_element(w).perm):
        assert perm == Permutation(perm.images) and hash(perm) == hash(Permutation(perm.images))
    # sigma0 is an automorphism: it respects products and inverses
    assert sigma0.apply_element(v * w) == sigma0.apply_element(v) * sigma0.apply_element(w)
    assert sigma0.apply_element(w.inverse()) == sigma0.apply_element(w).inverse()


def test_apply_element_rejects_another_datum():
    sigma0 = Sigma0(GroupDatum((1, 1)), (1, 0), (False, False))
    with pytest.raises(DimensionMismatch):
        sigma0.apply_element(AffineElement.identity(GL2))


@pytest.mark.parametrize("mu, m", [((2, 2, 1, 0, 0), 2), ((3, 1, 1, 0, 0, 0, 0), 3),
                                   (tuple(range(11, -1, -1)), 5)])
def test_peel_steps_equal_their_rechecked_copies(mu, m):
    from bgmu.superbasic import sharp_peel

    cert = sharp_peel(mu, m, len(mu))
    assert cert.chain
    for step in cert.chain:
        assert_valid(step.after)
        assert rechecked(step.after).length() == step.length_after


def test_public_constructors_still_check():
    d21 = GroupDatum((2, 1))
    with pytest.raises(ParseError, match="not a permutation"):
        Permutation((1, 1, 2))
    with pytest.raises(ParseError, match="not a permutation"):
        Permutation((0, 1, 2))
    crossing = Permutation((3, 2, 1))
    with pytest.raises(ParseError, match="does not preserve blocks"):
        AffineElement(d21, (0, 0, 0), crossing)
    with pytest.raises(ParseError, match="does not preserve blocks"):
        AffineElement.from_permutation(GroupDatum.gl(3), crossing).with_datum(d21)
    with pytest.raises(ParseError):
        parse_element("t[0,0,0]*cyc(1,3)", d21)
    with pytest.raises(ParseError):
        parse_element("t[0,0,0]*cyc(1,2,1)", d21)
    with pytest.raises(ParseError):
        parse_element("t[0,0,0]*cyc(1,4)", d21)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 9).flatmap(lambda n: st.tuples(
    st.lists(st.integers(-12, 12), min_size=n, max_size=n),
    st.permutations(list(range(1, n + 1))),
)))
def test_format_element_matches_the_cycle_reference(case):
    trans, images = case
    w = AffineElement(GroupDatum.gl(len(images)), trans, Permutation(images))
    assert format_element(w) == format_element_reference(w)
    assert repr(w.perm) == permutation_repr_reference(w.perm)


def test_gl_is_the_single_block_datum():
    assert GroupDatum.gl(7) == GroupDatum((7,)) and GroupDatum.gl(6) != GroupDatum.gl(7)
    with pytest.raises(ParseError):
        GroupDatum.gl(0)


# --- the O(n) length-zero test: no left descent on the window --------------------

@st.composite
def blocks_near_length_zero(draw):
    """(lam, inv, lo, hi): one block of rank <= 8 inside padding, either
    random (entries -3..3, a random inverse permutation) or a length-zero
    block with one pair of lam entries and one pair of inv entries swapped."""
    n = draw(st.integers(1, 8))
    if draw(st.booleans()):
        lam = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        inv = draw(st.permutations(list(range(1, n + 1))))
    else:
        w = omega_element(GroupDatum.gl(n), (draw(st.integers(-2 * n, 2 * n)),))
        lam, inv = list(w.trans), list(w.perm.inverse().images)
        for vec in (lam, inv):
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            vec[i], vec[j] = vec[j], vec[i]
    pad = draw(st.integers(0, 2))
    lam = [9] * pad + list(lam) + [-9] * pad
    inv = list(range(1, pad + 1)) + [x + pad for x in inv] + list(range(pad + n + 1, 2 * pad + n + 1))
    return tuple(lam), tuple(inv), pad + 1, pad + n


@settings(max_examples=400, deadline=None)
@given(blocks_near_length_zero())
def test_length_zero_test_matches_the_count(block):
    # the block between two length-zero padding blocks of its own
    lam, inv, lo, hi = block
    pad, n = lo - 1, hi - lo + 1
    datum = GroupDatum((pad, n, pad) if pad else (n,))
    w = AffineElement(datum, lam, Permutation(inv).inverse())
    zero = _length_zero(w)  # the window's no-descent test, on a fresh element
    assert zero == (im_length(w) == 0)
    assert w.__dict__.get("_len") == (0 if zero else None)  # a yes is kept


def test_length_zero_reads_a_kept_length(monkeypatch):
    d = GroupDatum.gl(3)
    zero, two = omega_element(d, (1,)), AffineElement.translation(d, (1, 0, 0))
    assert two.length() == 2
    monkeypatch.setattr(weyl, "_window", lambda w: pytest.fail("the window was read"))
    assert _length_zero(zero) and not _length_zero(two)


def test_an_omega_element_of_positive_length_is_refused(monkeypatch):
    # a reversed window has a left descent at node 1
    real = weyl._window
    monkeypatch.setattr(weyl, "_window", lambda w: real(w)[::-1])
    with pytest.raises(InternalCheckFailed, match="^omega element is not length zero$"):
        omega_element(GroupDatum.gl(3), (0,))


def test_every_omega_element_is_counted_length_zero():
    for n in range(1, 41):
        datum = GroupDatum.gl(n)
        for kap in range(-2 * n, 2 * n + 1):
            w = omega_element(datum, (kap,))
            assert im_length(w) == 0, (n, kap)
            assert w.length() == 0 and rechecked(w).length() == 0
    d = GroupDatum((2, 3, 1), (False, True, False))
    for kappas in itertools.product(range(-4, 5), range(-6, 7), range(-2, 3)):
        assert rechecked(omega_element(d, kappas)).length() == 0
