"""Newton map, diamond averages, Kottwitz values and dominance."""

import itertools
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgmu.errors import DimensionMismatch, ParseError
from bgmu.newton import (
    Frobenius,
    KappaValue,
    NewtonPoint,
    Sigma0,
    SignedMap,
    _keying_plan,
    _linear_part,
    _newton_kernel,
    _newton_keys,
    diamond,
    dominant_rep,
    kappa,
    newton_point,
)
from bgmu.weyl import (
    AffineElement,
    GroupDatum,
    Permutation,
    omega_element,
    parse_element,
    superbasic_element,
)
from conftest import (
    brute_keys_reference,
    element_power,
    iterated_newton,
    num_inversions,
    oracle_newton,
    orbit_average,
    same_keys,
    wa_ball,
)

GL2 = GroupDatum.gl(2)
GL8 = GroupDatum.gl(8)
F18 = Frobenius.superbasic(5, 8, normalized=False)


def worked_example_witness():
    mu = (1, 1, 1, 0, 0, 0, 0, 0)
    s = superbasic_element(5, 8)
    eps = Permutation((6, 3, 8, 5, 2, 7, 4, 1))
    w = AffineElement.translation(GL8, eps.act(mu)) * s
    for cyc in [(8, 3), (1, 3), (1, 2)]:
        w = w * AffineElement.from_permutation(GL8, Permutation.from_cycles(8, [cyc]))
    return w * s.inverse()


def test_translation_under_trivial_twist():
    fr = Frobenius.trivial(GL2)
    nd = newton_point(parse_element("t[3,-1]", GL2), fr)
    assert nd.order == 1 and nd.nu == (3, -1)


def test_identity_under_superbasic_twist():
    for m, n in [(1, 2), (2, 3), (5, 8), (3, 7)]:
        fr = Frobenius.superbasic(m, n, normalized=False)
        nd = newton_point(AffineElement.identity(GroupDatum.gl(n)), fr)
        assert nd.nu_bar.nu == (Fraction(m, n),) * n
        # oracle: direct n-th power is the translation by m*d
        s = superbasic_element(m, n)
        assert element_power(s, n) == AffineElement.translation(GroupDatum.gl(n), (m,) * n)


def test_frobenius_refuses_a_shift_that_is_not_central():
    with pytest.raises(ParseError, match="shift must be central"):
        Frobenius.superbasic(1, 2).with_shift((0, 1))


def test_every_length_zero_twist_has_a_dominant_translation():
    # why Frobenius checks only tau's length: each pair i < j of a block
    # adds |lam_i - lam_j| or |lam_i - lam_j - 1| to the length, so length
    # zero forces lam_i >= lam_j. All 235 length-zero elements with
    # entries in -2..2 on GL_1..GL_4, GL_2 x GL_2, GL_1 x GL_2 and GL_3 x GL_1
    seen = 0
    for blocks in ((1,), (2,), (3,), (4,), (2, 2), (1, 2), (3, 1)):
        d = GroupDatum(blocks)
        perms = [
            Permutation(p for part in parts for p in part)
            for parts in itertools.product(*(
                itertools.permutations(range(lo, hi + 1)) for lo, hi in d.block_ranges()
            ))
        ]
        for trans in itertools.product(range(-2, 3), repeat=d.n):
            for u in perms:
                if AffineElement(d, trans, u).length() == 0:
                    seen += 1
                    assert d.is_dominant(trans), (blocks, trans, u)
    assert seen == 235


def test_newton_point_refuses_a_point_that_is_not_dominant():
    gl2 = GroupDatum.gl(2)
    with pytest.raises(ParseError, match=r"Newton point \(0, 1\) is not dominant per block"):
        NewtonPoint(gl2, (0, 1), KappaValue(gl2, (1,)))


def test_worked_example_newton_point():
    w = worked_example_witness()
    nd = newton_point(w, F18)
    want = (
        Fraction(3, 2), Fraction(3, 2), Fraction(1), Fraction(1), Fraction(1),
        Fraction(2, 3), Fraction(2, 3), Fraction(2, 3),
    )
    assert nd.nu_bar.nu == want
    assert sum(nd.nu_bar.nu) == 8
    k, nu = oracle_newton(w, F18)
    bar, _ = dominant_rep(GL8, nu)
    assert bar == want


def test_newton_independent_of_iteration_count():
    w = worked_example_witness()
    nd = newton_point(w, F18)
    k, nu = oracle_newton(w, F18)
    # doubling the closing exponent scales the translation exactly
    g = w * F18.tau  # sigma0 is trivial here, so (w sigma)^k = (w tau)^k
    power = element_power(g, 2 * nd.order)
    assert power.perm.is_identity()
    assert tuple(Fraction(t, 2 * nd.order) for t in power.trans) == nd.nu


def test_newton_matches_oracle_on_ball():
    fr = Frobenius.superbasic(1, 2, normalized=False)
    for a in wa_ball(GL2, 4):
        w = a * omega_element(GL2, (1,))
        nd = newton_point(w, fr)
        k, nu = oracle_newton(w, fr)
        assert nu == nd.nu


@st.composite
def twisted_elements(draw):
    """An element and a twist on GL/PGL with 1-3 blocks: r equal blocks
    rotated by sigma0, optionally one more block fixed by it, random
    flips, adjoint flags, twist kappas, block permutations and
    translations."""
    nb, r = draw(st.integers(1, 4)), draw(st.integers(1, 2))
    blocks = (nb,) * r + tuple(draw(st.lists(st.integers(1, 4), max_size=1)))
    k = draw(st.integers(0, r - 1))
    block_to = tuple((b + k) % r for b in range(r)) + tuple(range(r, len(blocks)))
    count = len(blocks)
    flip = tuple(draw(st.lists(st.booleans(), min_size=count, max_size=count)))
    adjoint = tuple(draw(st.lists(st.booleans(), min_size=count, max_size=count)))
    datum = GroupDatum(blocks, adjoint)
    kappas = draw(st.lists(st.integers(-3, 5), min_size=count, max_size=count))
    frob = Frobenius(omega_element(datum, kappas), Sigma0(datum, block_to, flip))
    if draw(st.booleans()):
        frob = frob.with_shift(frob.canonical_shift())
    images = []
    for lo, hi in datum.block_ranges():
        images += draw(st.permutations(range(lo, hi + 1)))
    trans = draw(st.lists(st.integers(-3, 3), min_size=datum.n, max_size=datum.n))
    return AffineElement(datum, trans, Permutation(images)), frob


def _check_against_iteration(w, frob):
    nd = newton_point(w, frob)
    k, lam, nu, bar = iterated_newton(w, frob)
    assert (nd.order, nd.translation, nd.nu, nd.nu_bar.nu) == (k, lam, nu, bar)
    return nd


@settings(max_examples=300, deadline=None)
@given(twisted_elements())
def test_newton_point_matches_iteration(problem):
    w, frob = problem
    _check_against_iteration(w, frob)
    # the brute force's integer key of a one-element batch, on plain
    # tuples, names the same unshifted dominant Newton vector, in lowest
    # terms
    elem = (w.trans, w.perm.images)
    [((k, lam), members)] = _newton_keys([elem], frob.affine_map, w.datum.block_slices()).items()
    assert members == [elem]
    zero = frob.with_shift((Fraction(0),) * w.datum.n)
    assert tuple(Fraction(x, k) for x in lam) == newton_point(w, zero).nu_bar.nu
    assert gcd(k, *lam) == 1


@settings(max_examples=300, deadline=None)
@given(twisted_elements(), st.data())
def test_linear_part_serves_every_translation(problem, data):
    # the brute force walks the cycles of u o A once per permutation and
    # reuses that part for every translation over it: applied to another
    # translation lam', it must give the Newton map of t^lam' u by
    # iteration, on cycles of sign -1 too; and a batch of translations
    # over u puts each under the key of its iterated Newton point
    w, frob = problem
    datum, slices = w.datum, w.datum.block_slices()
    part = _linear_part(w.perm.images, frob.affine_map)
    vectors = st.lists(st.integers(-3, 3), min_size=datum.n, max_size=datum.n).map(tuple)
    others = data.draw(st.lists(vectors, min_size=1, max_size=6, unique=True))
    zero = frob.with_shift((Fraction(0),) * datum.n)
    keyed = _newton_keys([(t, w.perm.images) for t in others], frob.affine_map, slices)
    assert sorted(t for members in keyed.values() for t, _ in members) == sorted(others)
    for (key_k, key_bar), members in keyed.items():
        for other, _ in members:
            k, lam, _, bar = iterated_newton(AffineElement(datum, other, w.perm), zero)
            assert (part.order, tuple(_newton_kernel(part, other, slices)[0])) == (k, lam)
            assert tuple(Fraction(x, key_k) for x in key_bar) == bar


def test_newton_point_on_cycles_of_sign_minus_one():
    # a flip of GL_3 fixes the middle coordinate with sign -1 and swaps
    # the outer two with signs -1, -1: the order is lcm(2, 2 * 1) and
    # the middle coordinate gets no translation, whatever w adds there
    d3 = GroupDatum.gl(3)
    flip = Frobenius(AffineElement.identity(d3), Sigma0(d3, (0,), (True,)))
    seen = 0
    for a in wa_ball(d3, 3):
        nd = _check_against_iteration(a, flip)
        lin = SignedMap(a.perm.images, (1,) * 3).after(flip.sigma0.map())
        for cycle, sign in lin.cycles():
            if sign == -1:
                seen += 1
                assert nd.order % (2 * len(cycle)) == 0
                assert all(nd.translation[c] == 0 for c in cycle)
    assert seen > 0
    nd = newton_point(parse_element("t[1,1,0]", d3), flip)
    assert (nd.order, nd.translation) == (2, (1, 0, -1))
    # two blocks swapped, one way with a flip: w o sigma has the cycles
    # (1 4) and (2 3), each of sign -1, so the order is 4 and nothing
    # of the translation survives
    d22 = GroupDatum((2, 2))
    swap = Frobenius(AffineElement.identity(d22), Sigma0(d22, (1, 0), (True, False)))
    nd = _check_against_iteration(parse_element("t[2,1,0,3]*cyc(1,2)", d22), swap)
    assert nd.order == 4 and nd.translation == (0, 0, 0, 0)
    assert _newton_keys([((2, 1, 0, 3), (2, 1, 3, 4))], swap.affine_map, d22.block_slices()) == {
        (1, (0, 0, 0, 0)): [((2, 1, 0, 3), (2, 1, 3, 4))]
    }
    # the brute force's batch keying agrees with keying one element at
    # a time on both balls
    for datum, frob in ((d3, flip), (d22, swap)):
        raw = [(a.trans, a.perm.images) for a in wa_ball(datum, 3)]
        twist, slices = frob.affine_map, datum.block_slices()
        assert same_keys(_newton_keys(raw, twist, slices), brute_keys_reference(raw, twist, slices))


@settings(max_examples=300, deadline=None)
@given(twisted_elements(), st.data())
def test_newton_keys_match_the_per_element_reference(problem, data):
    # a batch of up to 4 permutations, each under up to 5 translations,
    # keyed at once: the same keys and members as keying the elements
    # one at a time
    w, frob = problem
    datum = w.datum
    perms = st.tuples(*(st.permutations(range(lo, hi + 1)) for lo, hi in datum.block_ranges()))
    vectors = st.lists(st.integers(-3, 3), min_size=datum.n, max_size=datum.n).map(tuple)
    raw = [(w.trans, w.perm.images)]
    for blocks in data.draw(st.lists(perms, max_size=3)):
        images = sum(map(tuple, blocks), ())
        raw += [(t, images) for t in data.draw(st.lists(vectors, min_size=1, max_size=5))]
    raw = list(dict.fromkeys(raw))
    twist, slices = frob.affine_map, datum.block_slices()
    assert same_keys(_newton_keys(raw, twist, slices), brute_keys_reference(raw, twist, slices))


def test_keying_plans_are_keyed_on_the_whole_twist_and_the_bounds():
    # a plan is kept per process and read by every later twist with an
    # equal key, so a plan warmed under one twist must not serve another
    # that differs in what the plan reads: (a) the twists of omega with
    # kappa k and k + 5 share the linear part, and their translations
    # differ by (1, ..., 1), which a cycle's constant reads; (b) the
    # identity twist is one affine map on gl:5 and gl:2*3, whose slot
    # getters differ; (c) GL_5 and PGL_5 share map and bounds, so one
    # plan serves both
    d5, d23 = GroupDatum.gl(5), GroupDatum((2, 3))
    cases = [
        (Frobenius.inner(omega_element(d5, (k,))), Frobenius.inner(omega_element(d5, (k + 5,))), False)
        for k in range(5)
    ]
    cases += [
        (Frobenius.trivial(d5), Frobenius.trivial(d23), False),
        (Frobenius.superbasic(2, 5), Frobenius.superbasic(2, 5, adjoint=True), True),
    ]
    # elements of gl:2*3 are elements of gl:5 as well
    raw = [(a.trans, a.perm.images) for a in wa_ball(d23, 3)]
    for first, second, shared in cases:
        assert first.affine_map.linear == second.affine_map.linear
        _keying_plan.cache_clear()
        for frob in (first, second):
            twist, slices = frob.affine_map, frob.datum.block_slices()
            assert same_keys(_newton_keys(raw, twist, slices), brute_keys_reference(raw, twist, slices))
        assert bool(_keying_plan.cache_info().hits) == shared


def test_twist_change_identity():
    """Conjugating the twist matches conjugating the element."""
    fr = Frobenius.superbasic(2, 3, normalized=False)
    d3 = GroupDatum.gl(3)
    for k in (0, 1, 2):
        tau0 = omega_element(d3, (k,))
        conj_tau = tau0 * fr.tau * tau0.inverse()
        fr2 = Frobenius(conj_tau, fr.sigma0)
        for a in wa_ball(d3, 3):
            w = a * omega_element(d3, (1,))
            bar1, _ = dominant_rep(d3, newton_point(w, fr2).nu)
            bar2, _ = dominant_rep(
                d3, newton_point(tau0.inverse() * w * tau0, fr).nu
            )
            assert bar1 == bar2


def test_twisted_conjugation_invariance():
    fr = Frobenius.superbasic(1, 3, normalized=False)
    d3 = GroupDatum.gl(3)
    ball = sorted(
        wa_ball(d3, 3), key=lambda v: (v.length(), v.trans, v.perm.images)
    )
    w = parse_element("t[1,1,0]*cyc(1,3)", d3)
    bar0, _ = dominant_rep(d3, newton_point(w, fr).nu)
    for g in ball[:25]:
        # twisted conjugation g w sigma(g)^{-1}, sigma(g) = tau sigma0(g) tau^{-1}
        sigma_g = fr.tau * fr.sigma0.apply_element(g) * fr.tau.inverse()
        w2 = g * w * sigma_g.inverse()
        bar, _ = dominant_rep(d3, newton_point(w2, fr).nu)
        assert bar == bar0
        assert kappa(w2) == kappa(w)


# --- diamond -----------------------------------------------------------------

def test_diamond_trivial():
    assert diamond((2, 1, 0), Frobenius.trivial(GroupDatum.gl(3))) == (2, 1, 0)


def test_diamond_flip_gl3():
    d3 = GroupDatum.gl(3)
    s0 = Sigma0(d3, (0,), (True,))
    assert diamond((2, 1, 0), Frobenius(AffineElement.identity(d3), s0)) == (1, 0, -1)


def test_diamond_swapped_blocks():
    d22 = GroupDatum((2, 2))
    s0 = Sigma0(d22, (1, 0), (False, False))
    assert diamond((1, 0, 0, 0), Frobenius(AffineElement.identity(d22), s0)) == (
        Fraction(1, 2), 0, Fraction(1, 2), 0,
    )



def test_sigma0_derives_its_orbits_and_average_once(monkeypatch):
    # block_orbits and node_orbits each walk the cycles of one signed
    # map on first read, the average behind diamond walks the cycles of
    # sigma0's map once in _linear_part, and none walks again
    import bgmu.newton as newton

    d22 = GroupDatum((2, 2))
    s0 = Sigma0(d22, (1, 0), (True, False))
    frob = Frobenius(AffineElement.identity(d22), s0)
    walks, parts = [], []
    real, real_part = SignedMap.cycles, newton._linear_part
    monkeypatch.setattr(SignedMap, "cycles", lambda self: walks.append(self) or real(self))
    monkeypatch.setattr(newton, "_linear_part", lambda *a: parts.append(a) or real_part(*a))
    q = Fraction(1, 4)
    for _ in range(2):
        assert s0.block_orbits == ((0, 1),)
        assert s0.node_orbits == (((0, 1), (1, 1)),)
        assert diamond((1, 0, 0, 0), frob) == (q, -q, q, -q)
    assert len(walks) == 2 and len(parts) == 1

def test_sigma0_derives_its_bound_plan_once(monkeypatch):
    # every bound table on a twist reads sigma0's plan: solve, the
    # enumeration and the mu_diamond criterion of several mu derive it
    # on the first read only, and the twist's lam share once beside it
    import bgmu.acceptable as acceptable
    import bgmu.reduction as reduction

    plans = []
    prop = Sigma0.__dict__["_bound_plan"]
    real = prop.func
    monkeypatch.setattr(prop, "func", lambda self: plans.append(self) or real(self))
    d22 = GroupDatum((2, 2))
    s0 = Sigma0(d22, (1, 0), (True, True))
    frob = Frobenius(omega_element(d22, (1, 0)), s0)
    for mu in [(1, 0, 1, 0), (2, 0, 1, 1), (0, 0, 0, 0)]:
        reduction.solve(mu, frob, strategy="auto")
        acceptable.enumerate_acceptable(mu, frob)
        acceptable.mu_diamond_acceptable(mu, frob)
    assert len(plans) == 1 and plans[0] is s0
    assert list(vars(frob)).count("_lam_diamond") == 1


@st.composite
def orbit_data(draw):
    """A sigma0 on GL/PGL with 1-3 blocks of size at most 4 (any
    permutation of equal-size blocks, random flips), an integer or
    fractional vector, and a permutation of the same rank."""
    nb = draw(st.integers(1, 4))
    blocks = tuple(draw(st.lists(st.integers(1, 4) | st.just(nb), min_size=1, max_size=3)))
    block_to = list(range(len(blocks)))
    for size in sorted(set(blocks)):
        same = [b for b, m in enumerate(blocks) if m == size]
        for b, t in zip(same, draw(st.permutations(same))):
            block_to[b] = t
    count = len(blocks)
    flip = draw(st.lists(st.booleans(), min_size=count, max_size=count))
    adjoint = draw(st.lists(st.booleans(), min_size=count, max_size=count))
    datum = GroupDatum(blocks, tuple(adjoint))
    s0 = Sigma0(datum, tuple(block_to), tuple(flip))
    entries = (
        st.integers(-3, 3) if draw(st.booleans())
        else st.fractions(-3, 3, max_denominator=6)
    )
    vec = tuple(draw(st.lists(entries, min_size=datum.n, max_size=datum.n)))
    perm = Permutation(draw(st.permutations(range(1, datum.n + 1))))
    return s0, vec, perm


def _closure(start, step):
    orbit = [start]
    while step(orbit[-1]) != start:
        orbit.append(step(orbit[-1]))
    return orbit


@settings(max_examples=200, deadline=None)
@given(orbit_data())
def test_orbit_data_matches_definitions(data):
    s0, vec, perm = data
    datum = s0.datum
    assert diamond(vec, Frobenius(AffineElement.identity(datum), s0)) == orbit_average(vec, s0)

    blocks = [_closure(b, s0.block_to.__getitem__) for b in range(datum.num_blocks)]
    assert s0.block_orbits == tuple(tuple(o) for o in blocks if o[0] == min(o))

    def node_step(node):
        b, i = node
        return s0.block_to[b], datum.blocks[b] - i if s0.flip[b] else i

    nodes = [(b, i) for b, nb in enumerate(datum.blocks) for i in range(1, nb)]
    orbits = [sorted(_closure(nd, node_step)) for nd in nodes]
    assert s0.node_orbits == tuple(tuple(o) for nd, o in zip(nodes, orbits) if o[0] == nd)

    cycles = perm.cycles()
    assert all(len(c) > 1 and c[0] == min(c) for c in cycles)
    assert Permutation.from_cycles(datum.n, cycles) == perm


# --- kappa -------------------------------------------------------------------

def test_kappa_examples():
    assert kappa(AffineElement.identity(GL8)).values == (0,)
    assert kappa(superbasic_element(5, 8)).values == (5,)
    mu = (1, 1, 1, 0, 0, 0, 0, 0)
    assert kappa(AffineElement.translation(GL8, mu)).values == (3,)


def test_kappa_additive_and_coset_invariant():
    d3 = GroupDatum.gl(3)
    w1 = parse_element("t[1,0,2]*cyc(1,2)", d3)
    w2 = parse_element("t[0,-1,1]*cyc(2,3)", d3)
    assert kappa(w1 * w2).values == tuple(
        a + b for a, b in zip(kappa(w1).values, kappa(w2).values)
    )
    for a in wa_ball(d3, 3):
        assert kappa(AffineElement.translation(d3, (1, 0, 0)) * a).values == (1,)


def test_kappa_adjoint_reduction():
    pgl2 = GroupDatum.pgl(2)
    assert KappaValue(pgl2, (3,)) == KappaValue(pgl2, (1,))


# --- dominant representatives --------------------------------------------------

def test_dominant_rep_examples():
    rep, z = dominant_rep(GL2, (1, 0))
    assert rep == (1, 0) and z.is_identity()
    rep, z = dominant_rep(GL2, (0, 1))
    assert rep == (1, 0) and z == Permutation.from_cycles(2, [(1, 2)])
    rep, z = dominant_rep(GroupDatum.gl(4), (Fraction(1, 3), 1, Fraction(1, 3), 0))
    assert rep == (1, Fraction(1, 3), Fraction(1, 3), 0)
    assert z == Permutation.from_cycles(4, [(1, 2)])


@pytest.mark.parametrize("vec", [(1, 0), (1, 0, 0, 0), ()])
def test_dominant_rep_refuses_a_vector_of_the_wrong_length(vec):
    # as heights, adjoint_eq and diamond do: a short vector would index
    # past its end, a long one would come back longer than the datum
    with pytest.raises(DimensionMismatch, match="vector has wrong length"):
        dominant_rep(GroupDatum.gl(3), vec)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_dominant_rep_minimal_length(n):
    datum = GroupDatum.gl(n)
    vecs = list(itertools.product((0, 1, 2), repeat=n))[::3]
    for v in vecs:
        rep, z = dominant_rep(datum, v)
        assert z.act(v) == rep
        assert datum.is_dominant(rep)
        best = min(
            (
                num_inversions(Permutation(p))
                for p in itertools.permutations(range(1, n + 1))
                if Permutation(p).act(v) == rep
            )
        )
        assert num_inversions(z) == best
