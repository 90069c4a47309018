"""Reduction steps and the composed solver."""

import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgmu.acceptable import (
    BRUTE_GUARD_N,
    DEFAULT_ADM_GUARD_N,
    _adm_refusal,
    enumerate_acceptable,
    maximal_newton_state,
)
from bgmu.errors import GuardExceeded, InternalCheckFailed, ParseError, UnsupportedTwist
from bgmu.newton import Frobenius, Sigma0, _vec_str, dominant_rep, kappa, newton_point
from bgmu.reduction import (
    BaseStep,
    ParabolicStep,
    Problem,
    Solution,
    _conjugator_into_last,
    _embed,
    _embed_perm,
    _factor_witness,
    _fixed_direction_space,
    _generic_point,
    _split_product,
    _stage,
    _sub_twist,
    solve,
    step_json,
)
from bgmu.weyl import (
    AffineElement,
    GroupDatum,
    Permutation,
    SignedMap,
    bruhat_leq,
    format_element,
    omega_element,
    parse_element,
)
from conftest import (
    bruhat_lower_set,
    dominant_coweights,
    orbit_spread_reference,
    pinned_twisted_problems,
    reference_attained,
    reference_brute_force,
    twisted_draw,
)


# --- adjoint -------------------------------------------------------------------

def test_adjoint_round_trip():
    fr = Frobenius.superbasic(1, 2, normalized=False)
    ad = Frobenius.superbasic(1, 2, normalized=False, adjoint=True)
    assert ad.datum.adjoint == (True,)
    first = solve((1, 0), fr, strategy="constructive").trace[0]
    assert step_json(first) == {"kind": "adjoint", "kappa": [1]}
    # Newton points correspond through the centered pairing
    from bgmu.newton import heights

    raw_gl = maximal_newton_state((2, 0), fr).nu_raw
    raw_ad = maximal_newton_state((2, 0), ad).nu_raw
    assert raw_gl == raw_ad
    assert heights(ad.datum, raw_ad)[(0, 1)] == Fraction(1, 2)


# --- omega conjugation ------------------------------------------------------------

def test_omega_conjugate_preserves_acceptable_set():
    # sigma-conjugation by a length-zero tau0, tau -> tau0 tau sigma0(tau0)^-1,
    # which the product split applies before it splits, keeps B(G, mu)
    d3 = GroupDatum.gl(3)
    fr = Frobenius.superbasic(1, 3, normalized=False)
    a = enumerate_acceptable((1, 1, 0), fr)
    for k in (1, 2, 4):
        tau0 = omega_element(d3, (k,))
        conj = Frobenius(tau0 * fr.tau * fr.sigma0.apply_element(tau0).inverse(), fr.sigma0)
        b = enumerate_acceptable((1, 1, 0), conj)
        assert a.raw == b.raw and a.hasse == b.hasse


# --- product splitting --------------------------------------------------------------

def swap_frobenius(tau=None):
    d22 = GroupDatum((2, 2))
    s0 = Sigma0(d22, (1, 0), (False, False))
    return Frobenius(tau if tau is not None else AffineElement.identity(d22), s0)


def test_product_split_two_blocks():
    fr = swap_frobenius()
    step, (sub,) = _stage(fr).split((1, 0, 0, 0))
    assert sub.datum.blocks == (2,)
    assert sub.mu == (1, 0)
    assert step.parts == ((1, 0), (0, 0))


def test_product_split_conjugates_tau_onto_the_last_block():
    # tau on the first block is conjugated onto the last one by a
    # length-zero tau0, which the step records; tau on the last block
    # needs none. Either way the sub-twist is the same on GL_2
    d22 = GroupDatum((2, 2))
    for kappas, tau0 in (((1, 0), "t[0,-1,0,0]*cyc(1,2)"), ((0, 1), "t[0,0,0,0]")):
        step, (sub,) = _stage(swap_frobenius(omega_element(d22, kappas))).split((1, 0, 1, 0))
        assert format_element(step.omega.tau0) == tau0 and step.omega.tau0.length() == 0
        assert format_element(sub.frob.tau) == "t[1,0]*cyc(1,2)"
        assert sub.mu == (2, 0)


def test_product_split_bijection_of_acceptable_sets():
    fr = swap_frobenius()
    parent = Problem((1, 0, 0, 0), fr)
    step, (sub,) = _stage(fr).split(parent.mu)
    a = enumerate_acceptable(parent.mu, parent.frob)
    b = enumerate_acceptable(sub.mu, sub.frob)
    # parent points are the halved spread of the factor points
    spread = {
        tuple(list(p) + list(p)): None for p in
        (tuple(x / 2 for x in q) for q in b.raw)
    }
    assert {tuple(p) for p in a.raw} == set(spread)


def test_product_lift_newton_shape():
    fr = swap_frobenius()
    r = solve((1, 0, 0, 0), fr)
    assert r.nu_raw == (Fraction(1, 2), 0, Fraction(1, 2), 0)
    assert r.checks.get("matches_bruteforce")


# --- witness factorization ------------------------------------------------------------

def test_factor_witness_single_part():
    d2 = GroupDatum.gl(2)
    w = parse_element("t[1,0]*cyc(1,2)", d2)
    assert _factor_witness(w, [parse_element("t[1,0]", d2)]) == (w,)


def test_factor_witness_full_subword():
    d2 = GroupDatum.gl(2)
    bounds = [parse_element("t[1,0]", d2), parse_element("t[1,0]", d2)]
    total = bounds[0] * bounds[1]
    pieces = _factor_witness(total, bounds)
    assert pieces == (bounds[0], bounds[1])


def test_factor_witness_splits_below_bounds():
    d2 = GroupDatum.gl(2)
    bounds = [parse_element("t[1,0]", d2), parse_element("t[1,0]", d2)]
    total = bounds[0] * bounds[1]
    for w in sorted(
        bruhat_lower_set(total), key=lambda v: (v.length(), v.trans, v.perm.images)
    ):
        pieces = _factor_witness(w, bounds)
        prod = pieces[0]
        for p in pieces[1:]:
            prod = prod * p
        assert prod == w
        for piece, bound in zip(pieces, bounds):
            assert bruhat_leq(piece, bound)


def test_factor_witness_three_bounds_on_gl3():
    # bounds of length 2 each: the lifted prefix of a piece can hold two
    # non-commuting letters, so their order is checked too
    d3 = GroupDatum.gl(3)
    bounds = [parse_element(t, d3) for t in ("t[1,0,0]", "t[1,1,0]", "t[1,0,0]")]
    total = bounds[0] * bounds[1] * bounds[2]
    for w in bruhat_lower_set(total):
        pieces = _factor_witness(w, bounds)
        assert pieces[0] * pieces[1] * pieces[2] == w
        for piece, bound in zip(pieces, bounds):
            assert bruhat_leq(piece, bound)


# --- parabolic reduction ---------------------------------------------------------------

def test_parabolic_superbasic_is_terminal():
    fr = Frobenius.superbasic(1, 3, normalized=False, adjoint=True)
    assert isinstance(_stage(fr), BaseStep)


def test_parabolic_pgl4_splits_into_two_gl2():
    d4 = GroupDatum.pgl(4)
    fr = Frobenius.inner(omega_element(d4, (2,)))
    step, (sub,) = _stage(fr).split((1, 1, 0, 0))
    assert sub.datum.blocks == (2, 2)
    assert sub.frob.tau.length() == 0
    assert kappa(sub.frob.tau).values == (1, 1)
    # z carries the generic fixed direction to its dominant order
    vbar = step.z.act(step.v0)
    assert d4.is_dominant(vbar)
    assert step.z == Permutation((3, 1, 4, 2))


def test_parabolic_image_contains_maximum():
    d4 = GroupDatum.pgl(4)
    fr = Frobenius.inner(omega_element(d4, (2,)))
    for mu in dominant_coweights(4, 2):
        parent = Problem(mu, fr)
        assert isinstance(_stage(fr), ParabolicStep)
        step, (sub,) = _stage(fr).split(mu)
        a = enumerate_acceptable(parent.mu, parent.frob)
        b = enumerate_acceptable(sub.mu, sub.frob)
        top = a.raw[a.maximum]
        # the parent maximum appears among the J-dominant points of the
        # sub-problem after undoing the dominance sort
        sub_top = b.raw[b.maximum]
        bar, _ = dominant_rep(parent.datum, sub_top)
        assert bar == top


def test_bruhat_transfer_through_z():
    d4 = GroupDatum.gl(4)
    sub_datum = GroupDatum((2, 2))
    z = Permutation((1, 3, 2, 4))
    z_elt = AffineElement.from_permutation(d4, z)
    tops = [
        AffineElement.translation(sub_datum, v)
        for v in [(1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0)]
    ]
    for top in tops:
        lower = bruhat_lower_set(top)
        for u in lower:
            for w in lower:
                if bruhat_leq(u, w):
                    gu = z_elt.inverse() * u.with_datum(d4) * z_elt
                    gw = z_elt.inverse() * w.with_datum(d4) * z_elt
                    assert bruhat_leq(gu, gw)


def test_parabolic_lift_newton_vector_is_the_dominant_rearrangement():
    # the lifted witness is a z-conjugate of the sub-witness, so its
    # Newton point is the dominant rearrangement of the sub-witness's on
    # the one parent block, which is why the lift needs no Newton
    # vector; checked on sub-witnesses whose vector is not already
    # dominant, with z not the identity
    d4 = GroupDatum.gl(4)
    unsorted = 0
    for k, flip in ((2, False), (1, True)):
        fr = Frobenius(omega_element(d4, (k,)), Sigma0(d4, (0,), (flip,)))
        step, (sub,) = _stage(fr).split((1, 0, 0, 0))
        assert not step.z.is_identity() and sub.datum.num_blocks > 1
        zeros = (Fraction(0),) * 4
        perms = [
            Permutation(tuple(itertools.chain.from_iterable(parts)))
            for parts in itertools.product(*(
                itertools.permutations(range(lo, hi + 1))
                for lo, hi in sub.datum.block_ranges()
            ))
        ]
        for lam in itertools.product(range(2), repeat=4):
            for u in perms:
                w = AffineElement(sub.datum, lam, u)
                nu = newton_point(w, sub.frob.with_shift(zeros)).nu_bar.nu
                lifted = step.lift([Solution(w, Permutation.identity(4))])
                lifted_nu = newton_point(lifted.w, fr.with_shift(zeros)).nu_bar.nu
                assert lifted_nu == tuple(sorted(nu, reverse=True))
                unsorted += list(nu) != sorted(nu, reverse=True)
    assert unsorted


# --- the solver --------------------------------------------------------------------------

def test_solve_quasi_split():
    fr = Frobenius.trivial(GroupDatum.gl(3))
    r = solve((2, 1, 0), fr)
    assert r.nu.nu == (2, 1, 0)
    assert format_element(r.w) == "t[2,1,0]"


def test_solve_worked_example():
    fr = Frobenius.superbasic(5, 8)
    r = solve((1, 1, 1, 0, 0, 0, 0, 0), fr)
    assert r.nu_raw == (
        Fraction(3, 2), Fraction(3, 2), 1, 1, 1,
        Fraction(2, 3), Fraction(2, 3), Fraction(2, 3),
    )
    assert r.certificate is not None
    assert [set(c.cycle_conjugated) for c in r.certificate.chain] == [
        {8, 3}, {1, 3}, {1, 2},
    ]
    assert r.checks["admissible"] and r.checks["matches_maximal_newton"]


def test_solve_pgl4_parabolic_path():
    d4 = GroupDatum.pgl(4)
    fr = Frobenius.inner(omega_element(d4, (2,)))
    r = solve((1, 1, 0, 0), fr)
    kinds = [s.kind for s in r.trace]
    assert "parabolic" in kinds and kinds.count("base-superbasic") == 2
    acc = enumerate_acceptable((1, 1, 0, 0), fr)
    assert acc.raw[acc.maximum] == r.nu_raw


def test_solve_flip_through_products():
    d3 = GroupDatum.pgl(3)
    fr = Frobenius(AffineElement.identity(d3), Sigma0(d3, (0,), (True,)))
    r = solve((1, 0, 0), fr)
    assert r.checks.get("matches_bruteforce")
    assert r.nu_raw == (Fraction(1, 2), 0, Fraction(-1, 2))


def test_solve_flip_at_base_is_rejected():
    d4 = GroupDatum.pgl(4)
    fr = Frobenius(omega_element(d4, (1,)), Sigma0(d4, (0,), (True,)))
    with pytest.raises(UnsupportedTwist):
        solve((1, 0, 0, 0), fr)


def test_solve_bruteforce_strategy():
    fr = Frobenius.superbasic(1, 3)
    a = solve((1, 1, 0), fr, strategy="bruteforce")
    b = solve((1, 1, 0), fr, strategy="constructive")
    assert a.nu_raw == b.nu_raw


def _pgl4_inner():
    d = GroupDatum.pgl(4)
    return Frobenius.inner(omega_element(d, (2,)))


def _pgl22_flip():
    d = GroupDatum((2, 2), (True, True))
    return Frobenius(omega_element(d, (1, 0)), Sigma0(d, (1, 0), (True, False)))


def _gl23_rotation():
    return Frobenius.inner(omega_element(GroupDatum((2, 3)), (1, 2)))


def _superbasic_1_4():
    return Frobenius.superbasic(1, 4)


def _pgl4_superbasic_3_4():
    return Frobenius.superbasic(3, 4, adjoint=True)


REFERENCE_TWISTS = [_pgl4_inner, _pgl22_flip, _gl23_rotation, _superbasic_1_4, _pgl4_superbasic_3_4]


def _reference_problems(frob):
    """The twist with every mu whose blocks are dominant with entries
    in 0..2."""
    per_block = [dominant_coweights(nb, 2) for nb in frob.datum.blocks]
    return [(tuple(x for part in combo for x in part), frob) for combo in itertools.product(*per_block)]


@pytest.mark.parametrize("make", REFERENCE_TWISTS)
def test_solve_bruteforce_matches_reference_maximum(make):
    for mu, frob in _reference_problems(make()):
        r = solve(mu, frob, strategy="bruteforce")
        assert (r.nu_raw, r.w, r.x) == reference_brute_force(mu, frob), mu


def _admitted(problems, guard_n):
    """The problems whose Adm(mu) the rank guard guard_n and the
    entry-spread guard let the package list."""
    return [(mu, frob) for mu, frob in problems if _adm_refusal(mu, frob.datum, guard_n) is None]


def _oracle_problems(group):
    if group == "reference-twists":
        return [p for make in REFERENCE_TWISTS for p in _reference_problems(make())]
    if group == "draw":
        rng = random.Random(0)
        return _admitted([twisted_draw(rng) for _ in range(1000)], DEFAULT_ADM_GUARD_N)
    return _admitted(pinned_twisted_problems(), BRUTE_GUARD_N)


@pytest.mark.parametrize("group, count", [("reference-twists", 141), ("draw", 667), ("pinned", 96)])
def test_acceptable_set_is_the_newton_image_of_adm(group, count):
    # the whole acceptable set, not only its maximum, is the set of
    # Newton points of Adm(mu) (the Kottwitz-Rapoport conjecture, proved
    # by X. He, Ann. Sci. ENS 49, 2016): the enumeration, read off the
    # bound table, against the subword-interval Adm(mu) and k-fold
    # iteration, which share no code with it
    problems = _oracle_problems(group)
    assert len(problems) == count
    wrong = [(mu, frob) for mu, frob in problems
             if set(enumerate_acceptable(mu, frob).raw) != reference_attained(mu, frob)]
    assert not wrong, wrong[:3]


def test_solve_bruteforce_guard():
    fr = Frobenius.superbasic(5, 8)
    with pytest.raises(GuardExceeded):
        solve((1, 1, 1, 0, 0, 0, 0, 0), fr, strategy="bruteforce")


def test_auto_skips_its_cross_check_when_the_brute_force_refuses(monkeypatch):
    # (2, 1, 0) passes the rank and spread guards, and |Adm| = 25 is
    # over a size guard of 10: auto answers without the cross-check,
    # while bruteforce still raises
    import bgmu.acceptable as acceptable

    monkeypatch.setattr(acceptable, "BRUTE_GUARD_SIZE", 10)
    fr = Frobenius.superbasic(1, 3)
    r = solve((2, 1, 0), fr, "auto")
    assert "matches_bruteforce" not in r.checks and r.checks["admissible"]
    assert r.nu_raw == solve((2, 1, 0), fr, "constructive").nu_raw
    with pytest.raises(GuardExceeded, match=r"^admissible set too large: more than 10$"):
        solve((2, 1, 0), fr, "bruteforce")


def test_size_guard_refuses_a_block_before_storing_it(monkeypatch):
    # |Adm((2, 1, 0))| = 25 passes a limit of 10 while the table grows:
    # the shape is refused there and no entry is kept, and a shape
    # already in the table is refused with the same message
    import bgmu.acceptable as acceptable

    monkeypatch.setattr(acceptable, "_BLOCK_ADM", {})
    monkeypatch.setattr(acceptable, "BRUTE_GUARD_SIZE", 10)
    fr = Frobenius.superbasic(1, 3)
    message = r"^admissible set too large: more than 10$"
    with pytest.raises(GuardExceeded, match=message):
        solve((2, 1, 0), fr, "bruteforce")
    assert (2, 1, 0) not in acceptable._BLOCK_ADM
    acceptable._block_entry((2, 1, 0))
    with pytest.raises(GuardExceeded, match=message):
        solve((2, 1, 0), fr, "bruteforce")


def test_bruteforce_walks_cycles_once_per_permutation(monkeypatch):
    # Adm((2,2,1,0,0)) has 1,701 elements over 120 distinct permutations,
    # and 35 of them attain the maximal Newton point under superbasic
    # 2/5. The brute force keys one element per orbit under conjugation
    # by omega_1, the least by (images, trans): 341 elements over 28
    # permutations reach _newton_keys. From a cleared plan cache it
    # reads the linear part of u o A once per permutation it receives
    # and no other, since the twist's Sigma0 derived its block orbits in
    # the constructive path of the auto run; and it takes lengths only
    # inside the maximal class, and only for the witness of the
    # bruteforce strategy (auto discards it). Another mu under the same
    # twist reads the linear parts of the permutations not yet seen only
    import bgmu.acceptable as acceptable
    import bgmu.newton as newton
    import bgmu.reduction as reduction
    import bgmu.weyl as weyl

    calls = {"linear": 0, "length": 0}
    keyed: list = []
    inside = [False]

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += inside[0]
            return fn(*args, **kwargs)
        return wrapper

    def brute_force(*args, **kwargs):
        inside[0] = True
        try:
            return real(*args, **kwargs)
        finally:
            inside[0] = False

    def newton_keys(raw, *args):
        keyed.extend(raw)
        return real_keys(raw, *args)

    real, real_keys = reduction._brute_force, acceptable._newton_keys
    monkeypatch.setattr(reduction, "_brute_force", brute_force)
    monkeypatch.setattr(acceptable, "_newton_keys", newton_keys)
    monkeypatch.setattr(newton, "_linear_part", counted("linear", newton._linear_part))
    monkeypatch.setattr(weyl, "_window_length", counted("length", weyl._window_length))
    frob = Frobenius.superbasic(2, 5)
    for strategy in ("auto", "bruteforce"):
        newton._keying_plan.cache_clear()
        calls.update(dict.fromkeys(calls, 0))
        keyed.clear()
        r = solve((2, 2, 1, 0, 0), frob, strategy=strategy)
        assert r.checks["matches_bruteforce" if strategy == "auto" else "bruteforce"]
        assert 0 < calls["linear"] <= 28
        assert calls["linear"] == len({images for _, images in keyed})
        assert len(keyed) == 341
        if strategy == "auto":
            assert calls["length"] == 0
        else:
            assert 0 < calls["length"] <= 35
    # from a cleared cache, mu = (1,1,0,0,0) keys 20 permutations,
    # (2,1,1,0,0) those 20 and 8 more, and (2,2,1,0,0) the same 28
    newton._keying_plan.cache_clear()
    seen: set = set()
    built = []
    for mu in ((1, 1, 0, 0, 0), (2, 1, 1, 0, 0), (2, 2, 1, 0, 0)):
        calls.update(dict.fromkeys(calls, 0))
        keyed.clear()
        assert solve(mu, frob, strategy="auto").checks["matches_bruteforce"]
        perms = {images for _, images in keyed}
        assert calls["linear"] == len(perms - seen)
        built.append(calls["linear"])
        seen |= perms
    assert built == [20, 8, 0]


def test_solve_gl40_has_no_recursion_limit():
    for n, m in ((40, 17), (64, 31)):
        q = n // 4
        mu = (4,) * q + (2,) * q + (1,) * q + (0,) * q
        r = solve(mu, Frobenius.superbasic(m, n), strategy="constructive")
        assert r.checks["admissible"] and r.checks["matches_maximal_newton"]


def test_solve_deterministic():
    fr = Frobenius.superbasic(3, 5)
    r1 = solve((2, 1, 1, 0, 0), fr)
    r2 = solve((2, 1, 1, 0, 0), fr)
    assert r1.w == r2.w and r1.x == r2.x and r1.nu_raw == r2.nu_raw
    c1 = r1.certificate.to_json_dict()
    c2 = r2.certificate.to_json_dict()
    assert c1 == c2


def test_solve_rejects_witness_above_bound(monkeypatch):
    # the lifts check nothing, so the one final verification in solve
    # must catch a witness that is not below t^{x(mu)}
    import bgmu.reduction as reduction

    real = reduction._superbasic_base

    def broken(mu, m, n):
        _, x, cert = real(mu, m, n)
        return AffineElement.translation(GroupDatum.gl(n), (2, 0, -1)), x, cert

    monkeypatch.setattr(reduction, "_superbasic_base", broken)
    fr = Frobenius.superbasic(1, 3)
    with pytest.raises(InternalCheckFailed, match="not below"):
        solve((1, 0, 0), fr, strategy="constructive")


def test_solve_rejects_an_unknown_strategy():
    with pytest.raises(ParseError, match="unknown strategy 'nope'"):
        solve((1, 0), Frobenius.superbasic(1, 2), "nope")


def test_solve_rejects_a_sub_witness_above_its_bound(monkeypatch):
    # the product-split lift splits its sub-witness unchecked; a forged
    # GL_3 sub-witness of the gl:3*3 block swap, t[1,3,0]*cyc(1,3,2) with
    # two translation entries swapped, is not below its bound, and the
    # final walk refuses the lifted witness
    import bgmu.reduction as reduction

    real = reduction._solve_orbits
    forged = []

    def forge(problem):
        sol = real(problem)
        if problem.datum.blocks == (3,):
            assert format_element(sol.w) == "t[1,3,0]*cyc(1,3,2)"
            sol = sol._replace(w=parse_element("t[1,0,3]*cyc(1,3,2)", problem.datum))
            forged.append(sol.w)
        return sol

    monkeypatch.setattr(reduction, "_solve_orbits", forge)
    d = GroupDatum((3, 3))
    fr = Frobenius(omega_element(d, (1, 0)), Sigma0(d, (1, 0), (False, False)))
    with pytest.raises(InternalCheckFailed, match="not below"):
        solve((2, 1, 0, 1, 0, 0), fr, strategy="constructive")
    assert len(forged) == 1


@pytest.mark.parametrize("adjoint", [False, True])
def test_solve_rejects_a_witness_off_the_coset(monkeypatch, adjoint):
    # one more unit on one translation entry moves w out of the coset of
    # t^mu, on PGL_3 too, where kappa is read mod 3: the walk's coset test
    # is the only coset check
    import bgmu.reduction as reduction

    real = reduction._solve_orbits
    witnesses = []

    def moved(problem):
        sol = real(problem)
        trans = (sol.w.trans[0] + 1,) + sol.w.trans[1:]
        witnesses.append(AffineElement(sol.w.datum, trans, sol.w.perm))
        return sol._replace(w=witnesses[-1])

    monkeypatch.setattr(reduction, "_solve_orbits", moved)
    fr = Frobenius.superbasic(1, 3, adjoint=adjoint)
    with pytest.raises(InternalCheckFailed, match="not below"):
        solve((1, 0, 0), fr, strategy="constructive")
    assert kappa(witnesses[0]) != kappa(AffineElement.translation(fr.datum, (1, 0, 0)))


def _end_one_step_early(cert, sigma):
    return cert._replace(end=cert.chain[-1].before)


def _other_epsilon(cert, sigma):
    return cert._replace(epsilon=cert.epsilon * Permutation((2, 1, 3, 4, 5)))


def _other_mu(cert, sigma):
    return cert._replace(mu=(3,) + cert.mu[1:])


def _start_at_another_orbit_point(cert, sigma):
    # eps(mu) with its first two entries swapped: another point of the
    # W_0-orbit of mu, so the chain no longer starts at t^{x(mu)} sigma
    y = Permutation((2, 1, 3, 4, 5)) * cert.epsilon
    assert y.act(cert.mu) != cert.epsilon.act(cert.mu)
    return cert._replace(start=AffineElement.translation(sigma.datum, y.act(cert.mu)) * sigma)


@pytest.mark.parametrize("adjoint", [False, True])
@pytest.mark.parametrize("forge", [_end_one_step_early, _other_epsilon, _other_mu,
                                   _start_at_another_orbit_point])
def test_a_forged_certificate_is_not_a_proof(monkeypatch, forge, adjoint):
    # on an adjoint, base-superbasic trace the certificate is the proof
    # of w <= t^{x(mu)}, so a certificate that is not this answer's is
    # refused, though w and x are unchanged and a walk would accept them
    import bgmu.reduction as reduction
    from bgmu.weyl import superbasic_element

    real = reduction._superbasic_base
    forged = []

    def forging(mu, m, n):
        w, x, cert = real(mu, m, n)
        forged.append((w, x, forge(cert, superbasic_element(m, n))))
        return forged[-1]

    monkeypatch.setattr(reduction, "_superbasic_base", forging)
    mu, fr = (2, 1, 1, 0, 0), Frobenius.superbasic(2, 5, adjoint=adjoint)
    with pytest.raises(InternalCheckFailed, match="not below"):
        solve(mu, fr, strategy="constructive")
    ((w, x, cert),) = forged
    assert cert != real(mu, 2, 5)[2]
    assert bruhat_leq(AffineElement(fr.datum, w.trans, w.perm),
                      AffineElement.translation(fr.datum, x.act(mu)))


def _kappa_seven(adjoint):
    # superbasic 2/5 times the central translation by 1: kappa 7, so the
    # base's central part is 1
    d = GroupDatum.pgl(5) if adjoint else GroupDatum.gl(5)
    return Frobenius.inner(omega_element(d, (7,)))


@pytest.mark.parametrize("adjoint", [False, True])
def test_a_claim_off_by_the_central_part_is_refused(monkeypatch, adjoint):
    # on an adjoint, base-superbasic trace the witness's point is the
    # certificate's slopes plus the base's central part; a claim of the
    # slopes alone is the witness's point under sigma_{2,5}, not under
    # the problem's twist, and is refused
    import bgmu.reduction as reduction

    real = reduction._maximal_state

    def uncentered(frob, bounds):
        d, nums = real(frob, bounds)
        return d, [x - d for x in nums]

    mu, fr = (2, 1, 1, 0, 0), _kappa_seven(adjoint)
    r = solve(mu, fr, strategy="constructive")
    assert [step_json(s) for s in r.trace][1]["central"] == 1
    assert r.nu_raw == tuple(x + 1 for x in r.certificate.slopes)
    monkeypatch.setattr(reduction, "_maximal_state", uncentered)
    with pytest.raises(InternalCheckFailed, match=re.escape(
            f"witness Newton point {_vec_str(r.nu_raw)} differs from claimed"
            f" {_vec_str(x - 1 for x in r.nu_raw)}")):
        solve(mu, fr, strategy="constructive")


@pytest.mark.parametrize("adjoint", [False, True])
def test_a_certificate_with_other_slopes_is_refused(monkeypatch, adjoint):
    # on the certificate route the slopes that the certificate prints,
    # plus the base's central part, must be the claim, which the kernel
    # has found to be the witness's point; so slopes moved by one unit
    # between the first and the last entry (the same total, still
    # decreasing) are refused, though the witness is unchanged
    import bgmu.reduction as reduction

    real = reduction._superbasic_base

    def tampered(mu, m, n):
        w, x, cert = real(mu, m, n)
        slopes = list(cert.slopes)
        slopes[0] += 1
        slopes[-1] -= 1
        return w, x, cert._replace(slopes=tuple(slopes))

    mu, fr = (2, 1, 1, 0, 0), _kappa_seven(adjoint)
    nu_raw = solve(mu, fr, strategy="constructive").nu_raw
    moved = (nu_raw[0] + 1, *nu_raw[1:-1], nu_raw[-1] - 1)
    monkeypatch.setattr(reduction, "_superbasic_base", tampered)
    with pytest.raises(InternalCheckFailed, match=re.escape(
            f"witness Newton point {_vec_str(moved)} differs from claimed {_vec_str(nu_raw)}")):
        solve(mu, fr, strategy="constructive")


def test_a_conjugator_that_leaves_tau_off_the_last_block_is_a_bug(monkeypatch):
    # with the identity for tau0, tau stays on the first block of the
    # gl:2*2 swap and the split reads a trivial sub-twist off the last
    # one; the lifted witness fails the final check, as a bug, not as
    # bad input
    import bgmu.reduction as reduction

    monkeypatch.setattr(reduction, "_conjugator_into_last",
                        lambda frob, orbit: AffineElement.identity(frob.datum))
    fr = swap_frobenius(omega_element(GroupDatum((2, 2)), (1, 0)))
    with pytest.raises(InternalCheckFailed, match="differs from claimed"):
        solve((1, 0, 1, 0), fr, strategy="constructive")


def test_a_descent_that_skips_its_conjugation_is_a_bug(monkeypatch):
    # on GL_4 with kappa 2 the generic direction (-1, 1, -1, 1) is not
    # dominant, so the descent conjugates by z; with z the identity, tau
    # swaps the Levi blocks {1, 2} and {3, 4}, which _sub_twist refuses
    import bgmu.reduction as reduction

    def no_z(datum, vec):
        return dominant_rep(datum, vec)[0], Permutation.identity(datum.n)

    monkeypatch.setattr(reduction, "dominant_rep", no_z)
    fr = Frobenius.inner(omega_element(GroupDatum.gl(4), (2,)))
    with pytest.raises(InternalCheckFailed, match="does not map the sub-blocks"):
        solve((1, 0, 0, 0), fr, strategy="constructive")


def test_a_brute_force_witness_outside_adm_is_a_bug(monkeypatch):
    # the brute force's witness gets x from adm_member, whose refusal is
    # the final check's
    import bgmu.reduction as reduction

    monkeypatch.setattr(reduction, "adm_member", lambda w, mu: (False, None))
    with pytest.raises(InternalCheckFailed, match=re.escape(
            "witness t[0,1,0]*cyc(2,3) is not admissible")):
        solve((1, 0, 0), Frobenius.superbasic(1, 3), strategy="bruteforce")


def test_a_residual_twist_that_is_not_superbasic_is_a_bug(monkeypatch):
    # a generic direction of zero leaves the trivial twist of GL_2
    # undescended: its kappa 0 is no superbasic base
    import bgmu.reduction as reduction

    monkeypatch.setattr(reduction, "_generic_point", lambda frob, den, basis: (0,) * frob.datum.n)
    with pytest.raises(InternalCheckFailed,
                       match="^residual twist kappa=0 is not superbasic on GL_2$"):
        solve((1, 0), Frobenius.trivial(GroupDatum.gl(2)), strategy="constructive")


# --- stages -----------------------------------------------------------------------

def _rotation_33(kappas):
    d = GroupDatum((3, 3))
    return Frobenius(omega_element(d, kappas), Sigma0(d, (1, 0), (False, False)))


def test_equal_twists_share_one_stage():
    # a stage is keyed by the twist's value: two equal twists give one
    # miss, then one hit, and the same trace. Built twice, a twist is one
    # object, so the second is built unchecked, a distinct equal value
    a = _rotation_33((1, 0))
    b = Frobenius._unchecked(a.tau, a.sigma0, a.shift)
    assert _rotation_33((1, 0)) is a and a is not b and a == b
    _stage.cache_clear()
    assert _stage(a) is _stage(b)
    assert _stage.cache_info()[:2] == (1, 1)  # hits, misses
    mu = (2, 1, 0, 1, 0, 0)
    first, second = solve(mu, a, "constructive"), solve(mu, b, "constructive")
    assert first.trace == second.trace and first.w == second.w


def test_a_sub_twist_reached_from_two_parents_is_a_hit():
    # the gl:3*3 rotation with tau on either block conjugates onto the
    # same GL_3 sub-twist: the second solve builds only its own stage
    mu = (2, 1, 0, 1, 0, 0)
    a, b = _rotation_33((1, 0)), _rotation_33((0, 1))
    assert a != b
    assert _stage(a).split(mu)[1] == _stage(b).split(mu)[1]
    _stage.cache_clear()
    solve(mu, a, "constructive")
    misses = _stage.cache_info().misses
    assert misses == 2  # the rotation and its GL_3 sub-twist
    solve(mu, b, "constructive")
    assert _stage.cache_info().misses == misses + 1


def test_a_failed_stage_is_not_cached(monkeypatch):
    # a check that fails on the first build fails again on the next
    # solve of the same twist: lru_cache keeps no exception
    import bgmu.reduction as reduction

    calls = []

    def refused(*args):
        calls.append(args)
        raise InternalCheckFailed("sub-twist refused")

    monkeypatch.setattr(reduction, "_sub_twist", refused)
    fr = _rotation_33((1, 0))
    for _ in range(2):
        with pytest.raises(InternalCheckFailed, match="^sub-twist refused$"):
            solve((2, 1, 0, 1, 0, 0), fr, "constructive")
    assert len(calls) == 2 and reduction._stage.cache_info().currsize == 0


def test_the_certificate_is_the_first_base_steps():
    # kappa 2 on GL_6 descends to two superbasic GL_3 bases, each with
    # its own certificate; the answer reports the first in trace order
    fr = Frobenius.inner(omega_element(GroupDatum.gl(6), (2,)))
    r = solve((2, 1, 1, 0, 0, 0), fr, strategy="constructive")
    certs = [s.certificate for s in r.trace if s.kind == "base-superbasic"]
    assert len(certs) == 2 and certs[0] != certs[1]
    assert r.certificate is certs[0]
    assert all("certificate" not in step_json(s) for s in r.trace)


def test_solve_negative_dominant_entries():
    fr = Frobenius.superbasic(1, 2, normalized=False)
    r = solve((1, -1), fr)
    assert r.nu_raw == (1, 0)
    assert format_element(r.w) == "t[0,0]*cyc(1,2)"
    assert r.checks.get("matches_bruteforce")


def test_solve_non_coprime_twist_gl6():
    d6 = GroupDatum.gl(6)
    fr = Frobenius.inner(omega_element(d6, (2,)))
    r = solve((1, 1, 0, 0, 0, 0), fr)
    assert r.nu_raw == (
        1, 1, 1, Fraction(1, 3), Fraction(1, 3), Fraction(1, 3),
    )
    kinds = [s.kind for s in r.trace]
    assert kinds.count("base-superbasic") == 2
    assert r.checks.get("matches_bruteforce")


def test_solve_central_twist_is_quasi_split_like():
    d3 = GroupDatum.gl(3)
    fr = Frobenius.inner(omega_element(d3, (3,)))
    r = solve((1, 1, 0), fr)
    assert r.nu_raw == (2, 2, 1)  # mu plus the central unit
    assert format_element(r.w) == "t[1,1,0]"


def test_solve_three_block_cycle_with_twist():
    d = GroupDatum((2, 2, 2))
    s0 = Sigma0(d, (1, 2, 0), (False, False, False))
    tau = omega_element(d, (0, 0, 1))
    r = solve((1, 0, 1, 0, 0, 0), Frobenius(tau, s0))
    third = Fraction(1, 3)
    assert r.nu_raw == (2 * third, third, 2 * third, third, 2 * third, third)
    assert r.checks.get("matches_bruteforce")


def test_product_split_three_block_rotation():
    # the norm over a 3-orbit is a twisted conjugate of the parts taken
    # in the order 1, 0, 2; factoring in the order 0, 1, 2 assembles a
    # point that does not spread the factor point
    d = GroupDatum((3, 3, 3))
    s0 = Sigma0(d, (1, 2, 0), (False, False, False))
    for mu, tau in (
        ((3, 0, 0, 3, 0, 0, 3, 3, 0), "t[0,0,0,1,1,0,0,0,0]*cyc(4,6,5)"),
        ((2, 1, 0, 2, 0, 0, 1, 1, 0), "t[1,0,0,0,0,0,1,0,0]*cyc(1,2,3)*cyc(7,8,9)"),
        ((2, 1, 0, 3, 0, 0, 2, 2, 0),
         "t[1,0,0,1,1,0,1,1,0]*cyc(1,2,3)*cyc(4,6,5)*cyc(7,9,8)"),
    ):
        fr = Frobenius(parse_element(tau, d), s0)
        r = solve(mu, fr, strategy="constructive")
        assert r.checks["admissible"] and r.checks["matches_maximal_newton"]
        assert r.nu_raw == maximal_newton_state(mu, fr).nu_raw


def test_twisted_draw_passes_every_internal_check():
    # orbits of odd flip parity included: a flip surviving to the base
    # is the only refusal
    rng = random.Random(0)
    failed = []
    for _ in range(200):
        mu, frob = twisted_draw(rng)
        try:
            solve(mu, frob, strategy="auto")
        except UnsupportedTwist:
            pass
        except InternalCheckFailed as exc:
            failed.append((mu, frob.sigma0, str(exc)))
    assert not failed, failed[:3]


@pytest.mark.parametrize("strategy", ["constructive", "auto", "bruteforce"])
def test_each_solver_fact_is_checked_once(monkeypatch, strategy):
    # gl:2*2*2 with blocks 1, 2 swapped runs a product split down to a
    # superbasic GL_2 and a parabolic descent on block 3; gl:3 with the
    # trivial twist descends to three rank-one bases; the gl:3*3*3
    # rotation splits an orbit of three blocks; superbasic 2/5, and GL_2
    # under a tau of kappa 3 (central part 1), are one superbasic base
    # below the adjoint step. The lifts and the bases carry only
    # witnesses: solve takes the maximal point as the claim, and
    # _verify_solution runs the Newton kernel (_element_kernel) once on
    # every trace and walks w <= t^{x(mu)} once, except on a lone
    # superbasic base, whose certificate is the proof: there it walks
    # nothing. A superbasic base peels and runs no kernel of its own
    # (no superbasic_witness). A product split of m blocks splits its
    # sub-witness m - 1 times and walks nothing else. The brute force's
    # witness comes without x: one adm_member scan looks it up, and its
    # last, successful walk is the Bruhat check, so reduction walks none
    import bgmu.acceptable as acceptable
    import bgmu.reduction as reduction
    import bgmu.superbasic as superbasic

    calls = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    names = ("_maximal_state", "adm_member", "_element_kernel", "bruhat_leq", "_subword_split")
    for name in names:
        monkeypatch.setattr(reduction, name, counted(name, getattr(reduction, name)))
    calls["superbasic_witness"] = 0
    monkeypatch.setattr(superbasic, "superbasic_witness",
                        counted("superbasic_witness", superbasic.superbasic_witness))
    assert not hasattr(reduction, "superbasic_witness")

    d = GroupDatum((2, 2, 2))
    d3 = GroupDatum((3, 3, 3))
    problems = [
        ((1, 0, 1, 0, 1, 0), Frobenius(omega_element(d, (0, 1, 0)), Sigma0(d, (1, 0, 2), (False,) * 3)),
         {"parabolic", "product-split", "base-superbasic"}, 1),
        ((2, 1, 0), Frobenius.trivial(GroupDatum.gl(3)), {"parabolic", "base-rank-one"}, 0),
        ((3, 0, 0, 3, 0, 0, 3, 3, 0),
         Frobenius(parse_element("t[0,0,0,1,1,0,0,0,0]*cyc(4,6,5)", d3), Sigma0(d3, (1, 2, 0), (False,) * 3)),
         {"product-split", "base-superbasic"}, 2),
        ((2, 1, 1, 0, 0), Frobenius.superbasic(2, 5), {"base-superbasic"}, 0),
        ((2, 0), Frobenius.inner(parse_element("t[2,1]*cyc(1,2)", GroupDatum.gl(2))),
         {"base-superbasic"}, 0),
    ]
    for mu, fr, steps, splits in problems:
        calls.update(dict.fromkeys(names, 0))
        small = len(mu) <= acceptable.BRUTE_GUARD_N
        if strategy == "bruteforce":
            if not small:
                with pytest.raises(GuardExceeded):
                    solve(mu, fr, strategy=strategy)
                continue
            r = solve(mu, fr, strategy=strategy)
            assert [s.kind for s in r.trace] == ["bruteforce"]
            assert bruhat_leq(r.w, AffineElement.translation(fr.datum, r.x.act(mu)))
            assert calls == {"_maximal_state": 0, "_element_kernel": 1, "adm_member": 1,
                             "bruhat_leq": 0, "_subword_split": 0, "superbasic_witness": 0}, mu
            continue
        r = solve(mu, fr, strategy=strategy)
        assert steps <= {s.kind for s in r.trace}
        assert splits == sum(len(s.orbit) - 1 for s in r.trace if s.kind == "product-split")
        assert ("matches_bruteforce" in r.checks) == (strategy == "auto" and small)
        walks = int([s.kind for s in r.trace] != ["adjoint", "base-superbasic"])
        assert calls == {"_maximal_state": 1, "_element_kernel": 1, "adm_member": 0,
                         "bruhat_leq": walks, "_subword_split": splits,
                         "superbasic_witness": 0}, mu


# the first parse and stage tree of each twist, with every table
# emptied (``_fresh_stages``): (group, --sigma text, step kinds in tree
# order, counts of each check and checked build)
FIRST_USE = [
    # a swap of two GL_4 blocks: the conjugated twist descends on the
    # last block to two superbasic GL_2 bases
    ("gl:4*4", "tau=t[1,1,0,0,0,0,0,0]*cyc(1,3)*cyc(2,4);sigma0=2,1",
     ["product-split", "parabolic", "orbit-split", "base-superbasic", "base-superbasic"],
     {"_block_map": 4, "_length_zero": 8, "AffineElement": 2, "Permutation": 2,
      "Sigma0._build": 4, "Frobenius._build": 4}),
    # one flip on an orbit of two PGL_3 blocks: the last block carries
    # the flip, which a second product split takes to a rank-one base
    ("pgl:3*3", "tau=t[0,0,0,1,0,0]*cyc(4,5,6);sigma0=2,-1",
     ["product-split", "parabolic", "orbit-split", "product-split", "base-rank-one",
      "base-rank-one"],
     {"_block_map": 6, "_length_zero": 13, "AffineElement": 3, "Permutation": 3,
      "Sigma0._build": 6, "Frobenius._build": 6}),
    # a cycle of three GL_2 blocks
    ("gl:2*2*2", "tau=t[0,0,1,0,1,0]*cyc(3,4)*cyc(5,6);sigma0=2,3,1",
     ["product-split", "parabolic", "orbit-split", "base-rank-one", "base-rank-one"],
     {"_block_map": 4, "_length_zero": 8, "AffineElement": 2, "Permutation": 2,
      "Sigma0._build": 4, "Frobenius._build": 4}),
    # an inner twist of GL_9 (no sigma0 part) descends to a Levi of three
    # GL_3 blocks, one superbasic base each, all three one sub-twist
    ("gl:9", "tau=t[1,1,1,0,0,0,0,0,0]*cyc(1,4,7)*cyc(2,5,8)*cyc(3,6,9)",
     ["parabolic", "orbit-split", "base-superbasic", "base-superbasic", "base-superbasic"],
     {"_block_map": 3, "_length_zero": 5, "AffineElement": 1, "Permutation": 1,
      "Sigma0._build": 3, "Frobenius._build": 3}),
]


@pytest.mark.parametrize("group,text,kinds,want", FIRST_USE, ids=[c[0] for c in FIRST_USE])
def test_each_twist_check_runs_once_on_first_use(monkeypatch, group, text, kinds, want):
    # the first parse and stage tree of a twist checks each fact once per
    # value and builds each checked object once: a sub-twist that is a
    # stored twist is that twist, so an equal restriction met again on
    # the tree adds nothing. The same twist parsed and staged again adds
    # nothing at all. A change that rebuilds or re-checks changes these
    # counts
    import bgmu.cli as cli
    import bgmu.newton as newton
    import bgmu.reduction as reduction
    import bgmu.weyl as weyl

    calls = dict.fromkeys(want, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    checks = {"_block_map": newton._block_map, "_length_zero": weyl._length_zero}
    for module in (weyl, newton, reduction, cli):
        for name, fn in checks.items():
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, fn))
    monkeypatch.setattr(AffineElement, "__init__", counted("AffineElement", AffineElement.__init__))
    monkeypatch.setattr(Permutation, "__init__", counted("Permutation", Permutation.__init__))
    for cls in (Sigma0, Frobenius):
        monkeypatch.setattr(cls, "_build", counted(f"{cls.__name__}._build", cls._build))

    def tree(frob):
        step = _stage(frob)
        subs = {"orbit-split": getattr(step, "subs", ()),
                "product-split": (getattr(step, "sub_frob", None),),
                "parabolic": (getattr(step, "sub_frob", None),)}.get(step.kind, ())
        return [step.kind] + [kind for sub in subs for kind in tree(sub)]

    for first in (True, False):
        frob = cli._parse_sigma(text, cli._parse_group(group), False)
        assert tree(frob) == kinds
        assert calls == (want if first else dict.fromkeys(want, 0)), (group, first)
        calls.update(dict.fromkeys(want, 0))


def _cycle_vector_sum(lin, cycle) -> int:
    total, sign = 0, 1
    for p in cycle:
        total += sign
        sign *= lin.sign[p]
    return total


def test_fixed_direction_basis_is_row_reduced_from_cycles():
    for n in range(1, 13):
        for kind in (GroupDatum.gl, GroupDatum.pgl):
            d = kind(n)
            for k in range(-1, 2 * n):
                for flip in (False, True):
                    fr = Frobenius(omega_element(d, (k,)), Sigma0(d, (0,), (flip,)))
                    lin = fr.affine_map.linear
                    den, basis = _fixed_direction_space(fr)
                    positive = [c for c, sign in lin.cycles() if sign == 1]
                    drop = any(_cycle_vector_sum(lin, c) != 0 for c in positive)
                    assert len(basis) == len(positive) - drop and den > 0
                    lasts = []
                    for v in basis:
                        assert lin.apply(v) == v and sum(v) == 0
                        last = max(p for p in range(n) if v[p] != 0)
                        assert v[last] == den
                        lasts.append(last)
                    assert lasts == sorted(set(lasts))
                    for v, last in zip(basis, lasts):
                        assert all(v[p] == 0 for p in lasts if p != last)


def test_generic_point_refuses_a_tie_off_the_basis():
    # t = n^2 + 1 = 10: v0 = b0 + 10 b1 is 10 at every position, and
    # position 3 differs from the first tied position on b0 and b1
    fr = Frobenius.trivial(GroupDatum.gl(3))
    with pytest.raises(InternalCheckFailed, match=re.escape("direction (10, 10, 10) is not generic")):
        _generic_point(fr, 1, [(0, 0, 10), (1, 1, 0)])
    # a tie that only the later basis vectors tell apart
    with pytest.raises(InternalCheckFailed, match="is not generic"):
        _generic_point(fr, 1, [(0, 0, 0), (10, 0, 0), (0, 1, 0)])
    # a tie of positions 1 and 3, behind an untied position 2
    with pytest.raises(InternalCheckFailed, match="is not generic"):
        _generic_point(fr, 1, [(10, 0, 0), (0, 2, 1)])
    # ties that every basis vector shares are generic
    assert _generic_point(fr, 2, [(1, 1, -2)]) == (1, 1, -2)
    assert _generic_point(fr, 1, []) == (0, 0, 0)


def test_generic_point_checks_each_block_alone():
    # positions 2 and 3 tie off the basis, but in different blocks of GL_2 x GL_1
    fr = Frobenius.trivial(GroupDatum((2, 1)))
    assert _generic_point(fr, 1, [(0, 10, 0), (0, 0, 1)]) == (0, 10, 10)


def test_parabolic_reduce_descends_on_pgl4_kappa_2():
    # kappa 2 is not superbasic on PGL_4: the generic fixed direction
    # (-1, 1, -1, 1) has the dominant representative (1, 1, -1, -1),
    # whose runs of equal entries give the Levi GL_2 x GL_2
    d4 = GroupDatum.pgl(4)
    fr = Frobenius.inner(omega_element(d4, (2,)))
    assert isinstance(_stage(fr), ParabolicStep)
    step, (sub,) = _stage(fr).split((1, 0, 0, 0))
    assert step.sub_frob.datum.blocks == sub.datum.blocks == (2, 2)
    assert sub.mu == (1, 0, 0, 0)


def test_sub_twists_of_the_orbit_and_product_splits():
    # every Sigma0 on GL_k^r, r, k <= 3, against the formulas the splits
    # used before they shared _sub_twist: the orbit split renumbers
    # block_to into the orbit's sorted blocks and keeps each flip, the
    # product split puts the orbit's flip parity on its last block
    for r, k in itertools.product((1, 2, 3), repeat=2):
        d = GroupDatum((k,) * r)
        ranges = d.block_ranges()
        tau = omega_element(d, (1,) * r)
        for block_to in itertools.permutations(range(r)):
            for flip in itertools.product((False, True), repeat=r):
                s0 = Sigma0(d, block_to, flip)
                for orbit in s0.block_orbits:
                    blocks = sorted(orbit)
                    pos = tuple(p for b in blocks for p in range(ranges[b][0], ranges[b][1] + 1))
                    sub = GroupDatum((k,) * len(blocks))
                    renum = {b: i for i, b in enumerate(blocks)}
                    want = Sigma0(sub, tuple(renum[block_to[b]] for b in blocks),
                                  tuple(flip[b] for b in blocks))
                    got = _sub_twist(tau.trans, tau.perm.images, s0.map(), pos, sub)
                    assert got.sigma0 == want
                    assert got.tau == omega_element(sub, (1,) * len(blocks))
                    lo, hi = ranges[orbit[-1]]
                    last = GroupDatum((k,))
                    parity = sum(flip[b] for b in orbit) % 2 == 1
                    power = SignedMap.identity(d.n)
                    for _ in orbit:
                        power = s0.map().after(power)
                    got = _sub_twist(tau.trans, tau.perm.images, power, tuple(range(lo, hi + 1)), last)
                    assert got.sigma0 == Sigma0(last, (0,), (parity,))
                    assert got.tau == omega_element(last, (1,))


# every transitive sigma0 on 2 or 3 blocks, with every flip pattern
ORBIT_TWISTS = [(block_to, flip)
                for block_to in ((1, 0), (1, 2, 0), (2, 0, 1))
                for flip in itertools.product((False, True), repeat=len(block_to))]


@st.composite
def product_split_pieces(draw, r):
    """A block size k of 1-4, kappas for a length-zero twist on r
    blocks of size k, r elements of GL_k and a permutation of k."""
    k = draw(st.integers(1, 4))
    last = GroupDatum.gl(k)
    pieces = [AffineElement(last, draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k)),
                            Permutation(draw(st.permutations(range(1, k + 1)))))
              for _ in range(r)]
    x = Permutation(draw(st.permutations(range(1, k + 1))))
    return k, draw(st.lists(st.integers(-2, 2), min_size=r, max_size=r)), pieces, x


@pytest.mark.parametrize("block_to, flip", ORBIT_TWISTS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_product_split_placements_equal_the_sigma0_powers(block_to, flip, data):
    # the lift places piece i by one _embed call at the product split's
    # placements; that is the product of the sigma0^{i+1}(piece_i), and
    # the overlay of x the product of the sigma0^{i+1}(x)
    r = len(block_to)
    k, kappas, pieces, x = data.draw(product_split_pieces(r))
    d = GroupDatum((k,) * r)
    s0 = Sigma0(d, block_to, flip)
    places = _split_product(Frobenius(omega_element(d, kappas), s0)).places
    assert _embed(d, [(w, pos, sign) for w, (pos, sign) in zip(pieces, places)]) == \
        orbit_spread_reference(s0, pieces)
    x_elt = AffineElement.from_permutation(GroupDatum.gl(k), x)
    assert _embed_perm(d.n, [(x, pos) for pos, _ in places]) == \
        orbit_spread_reference(s0, [x_elt] * r).perm


def conjugator_reference(frob, orbit):
    """The conjugator as a product of whole-datum elements: per orbit
    block b, tau's factor f_b there (the length-zero element of b with
    kappa_b(tau)), g = sigma0(g) f_b^-1 and tau0 = tau0 g."""
    datum = frob.datum
    kappas = datum.block_sums(frob.tau.trans)
    g = tau0 = AffineElement.identity(datum)
    for b in orbit[:-1]:
        factor = omega_element(datum, [kappas[b] if c == b else 0 for c in range(len(kappas))])
        g = frob.sigma0.apply_element(g) * factor.inverse()
        tau0 = tau0 * g
    return tau0


def test_the_conjugator_equals_the_whole_datum_products():
    # 300 cyclic twists of 2-5 blocks of size 1-4, random flips, kappas
    # -3..3: the conjugator built from its kappas is the reference's
    # product, and it puts tau on the last block of the orbit
    rng = random.Random(5)
    for _ in range(300):
        r, k = rng.randint(2, 5), rng.randint(1, 4)
        d = GroupDatum((k,) * r, (rng.random() < 0.5,) * r)
        cycle = rng.sample(range(r), r)
        block_to = [0] * r
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            block_to[a] = b
        flips = tuple(rng.random() < 0.5 for _ in range(r))
        fr = Frobenius(omega_element(d, [rng.randint(-3, 3) for _ in range(r)]),
                       Sigma0(d, tuple(block_to), flips))
        (orbit,) = fr.sigma0.block_orbits
        tau0 = _conjugator_into_last(fr, orbit)
        assert tau0 == conjugator_reference(fr, orbit)
        moved = tau0 * fr.tau * fr.sigma0.apply_element(tau0).inverse()
        lo, hi = d.block_ranges()[orbit[-1]]
        assert all(t == 0 for p, t in enumerate(moved.trans, start=1) if not lo <= p <= hi)


def test_sub_twist_refuses_a_restriction_of_positive_length():
    # t[1,0,0,0] restricts to t[1,0] on the first GL_2 block, of length 1
    d22 = GroupDatum((2, 2))
    tau = AffineElement.translation(d22, (1, 0, 0, 0))
    with pytest.raises(InternalCheckFailed, match=re.escape("restricted twist t[1,0] is not length zero")):
        _sub_twist(tau.trans, tau.perm.images, Sigma0.identity(d22).map(), (1, 2), GroupDatum.gl(2))
    # the other block restricts to length zero
    assert _sub_twist(tau.trans, tau.perm.images, Sigma0.identity(d22).map(), (3, 4), GroupDatum.gl(2)).tau.is_identity()


def test_sub_twist_refuses_a_twist_that_moves_a_sub_block():
    # omega^2 on GL_4 carries {1, 2} onto {3, 4}: it is no twist of
    # GL_2 x GL_2, nor of GL_2 on positions 1, 2
    d4 = GroupDatum.gl(4)
    tau = omega_element(d4, (2,))
    identity = Sigma0.identity(d4).map()
    with pytest.raises(InternalCheckFailed, match=re.escape("does not map the sub-blocks (2, 2)")):
        _sub_twist(tau.trans, tau.perm.images, identity, (1, 2, 3, 4), GroupDatum((2, 2)))
    with pytest.raises(InternalCheckFailed, match=re.escape("does not map the sub-blocks (2,)")):
        _sub_twist(tau.trans, tau.perm.images, identity, (1, 2), GroupDatum.gl(2))
    # it maps GL_4 itself onto itself
    assert _sub_twist(tau.trans, tau.perm.images, identity, (1, 2, 3, 4), d4).tau == tau


def test_sub_twist_refuses_a_map_that_does_not_permute_the_sub_blocks():
    # a flip of GL_4 carries the block {1} of GL_1 x GL_3 onto {4}
    d4 = GroupDatum.gl(4)
    flip = Sigma0(d4, (0,), (True,)).map()
    with pytest.raises(InternalCheckFailed, match="does not permute the sub-blocks"):
        _sub_twist((0,) * 4, (1, 2, 3, 4), flip, (1, 2, 3, 4), GroupDatum((1, 3)))
    # a block swap carries the positions of block 1 outside them
    d22 = GroupDatum((2, 2))
    swap = Sigma0(d22, (1, 0), (False, False)).map()
    with pytest.raises(InternalCheckFailed, match="does not permute the sub-blocks"):
        _sub_twist((0,) * 4, (1, 2, 3, 4), swap, (1, 2), GroupDatum((2,)))
