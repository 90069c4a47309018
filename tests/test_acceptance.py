"""Acceptance criteria, one test per criterion, exact arithmetic only.

Each test appends a PASS line (with its runtime) to the terminal
summary; a failure surfaces as an ordinary pytest failure.
"""

import time
from fractions import Fraction
from math import gcd

from bgmu.acceptable import (
    adjoint_eq,
    adm_enumerate,
    adm_member,
    enumerate_acceptable,
    maximal_newton_state,
    mu_diamond_acceptable,
)
from bgmu.newton import Frobenius, diamond, dominant_rep, newton_point
from bgmu.reduction import BaseStep, _stage, solve
from bgmu.superbasic import _epsilon, chi, euclid_chain, superbasic_witness
from bgmu.weyl import (
    AffineElement,
    GroupDatum,
    Permutation,
    bruhat_leq,
    omega_element,
    superbasic_element,
)
from conftest import (
    adjoint_leq,
    bruhat_lower_set,
    bruhat_lt,
    dominant_coweights,
    expand,
    record_acceptance,
    wa_ball,
)


def coprime_range(n):
    return [m for m in range(1, n) if gcd(m, n) == 1]


def timed(label):
    class _Timer:
        def __enter__(self):
            self.t0 = time.time()
            return self

        def __exit__(self, exc_type, exc, tb):
            dt = time.time() - self.t0
            status = "PASS" if exc_type is None else "FAIL"
            record_acceptance(f"{status} {label} ({dt:.1f}s)")
            return False

    return _Timer()


def test_criterion_1_paper_example_reproduction():
    with timed("criterion 1: worked-example reproduction"):
        n, m = 8, 5
        mu = (1, 1, 1, 0, 0, 0, 0, 0)
        assert chi(m, n) == (0, 1, 0, 1, 1, 0, 1, 1)
        eps = _epsilon(m, n)
        assert eps == Permutation.from_cycles(8, [(1, 6, 7, 4, 5, 2, 3, 8)])
        s = superbasic_element(m, n)
        assert s.perm == Permutation.from_cycles(8, [(6, 3, 8, 5, 2, 7, 4, 1)])
        theta = tuple(a + b for a, b in zip(mu, chi(m, n)))
        assert theta == (1, 2, 1, 1, 1, 0, 1, 1)

        sw = superbasic_witness(mu, m, n)
        chain = sw.certificate.chain
        assert [set(c.cycle_conjugated) for c in chain] == [{8, 3}, {1, 3}, {1, 2}]
        for step in chain:
            assert bruhat_lt(step.after, step.before)

        assert sw.x == eps
        d8 = GroupDatum.gl(8)
        bound = AffineElement.translation(d8, eps.act(mu))
        assert bruhat_lt(sw.w, bound)
        ok, _ = adm_member(sw.w, mu)
        assert ok

        want = (
            Fraction(3, 2), Fraction(3, 2), Fraction(1), Fraction(1), Fraction(1),
            Fraction(2, 3), Fraction(2, 3), Fraction(2, 3),
        )
        assert sw.nu.nu == want
        assert sum(want) == 8
        assert d8.is_dominant(want)
        nd = newton_point(sw.w, Frobenius.superbasic(m, n, normalized=False))
        assert nd.nu_bar.nu == want


def test_criterion_2_oracle_equivalence_sweep():
    with timed("criterion 2: constructive = admissible-set maximum, n <= 5"):
        for n in (2, 3, 4, 5):
            datum = GroupDatum.gl(n)
            zero = (Fraction(0),) * n
            for m in coprime_range(n):
                frob = Frobenius.superbasic(m, n)
                for mu in dominant_coweights(n, 2):
                    result = solve(mu, frob, strategy="constructive")
                    adm = adm_enumerate(mu, datum)
                    attained = {}
                    for w in adm:
                        nd = newton_point(w, frob.with_shift(zero))
                        bar, _ = dominant_rep(datum, nd.nu)
                        attained.setdefault(bar, w)
                    maxima = [
                        p for p in attained
                        if all(adjoint_leq(datum, q, p) for q in attained)
                    ]
                    assert len(maxima) == 1, (n, m, mu)
                    assert maxima[0] == result.nu_raw, (n, m, mu)
                    ok, _ = adm_member(result.w, mu)
                    assert ok, (n, m, mu)


def test_criterion_3_newton_criterion_equals_brute_force():
    with timed("criterion 3: integrality criterion = coset ball, n <= 4"):
        max_len = 12
        for n in (2, 3, 4):
            datum = GroupDatum.gl(n)
            ball_wa = wa_ball(datum, max_len)
            for m in coprime_range(n):
                frob = Frobenius.superbasic(m, n, normalized=False)
                zero = frob.with_shift((Fraction(0),) * n)
                for mu in dominant_coweights(n, 2):
                    omega = omega_element(datum, (sum(mu),))
                    shift = tuple(a - b for a, b in zip(mu, omega.trans))
                    base = AffineElement.translation(datum, shift) * omega
                    brute = set()
                    for a in ball_wa:
                        w = a * base
                        bar, _ = dominant_rep(datum, newton_point(w, zero).nu)
                        brute.add(bar)
                    mu_dia = diamond(mu, frob)
                    brute = {p for p in brute if adjoint_leq(datum, p, mu_dia)}
                    acc = enumerate_acceptable(mu, frob)
                    assert set(acc.raw) == brute, (n, m, mu)


def test_criterion_4_mu_diamond_iff_maximum():
    with timed("criterion 4: diamond acceptability = diamond maximum"):
        for n in (2, 3, 4, 5):
            datum = GroupDatum.gl(n)
            for m in coprime_range(n):
                frob = Frobenius.superbasic(m, n, normalized=False)
                for mu in dominant_coweights(n, 2):
                    top = maximal_newton_state(mu, frob).nu_raw
                    assert mu_diamond_acceptable(mu, frob) == adjoint_eq(
                        datum, top, diamond(mu, frob)
                    ), (n, m, mu)


def test_criterion_5_combinatorial_identities():
    with timed("criterion 5: ranking and reconstruction identities"):
        for n in range(2, 61):
            for m in coprime_range(n):
                c = chi(m, n)
                eps = _epsilon(m, n)
                varpi = tuple(1 if i <= m else 0 for i in range(1, n + 1))
                assert eps.act(c) == varpi, (m, n)
                assert eps(n) == 1, (m, n)
        for n in range(2, 41):
            for m in coprime_range(n):
                chain = euclid_chain(m, n)
                for h in range(len(chain.pairs)):
                    assert expand(chain, h, chain.chis[h]) == chi(m, n), (m, n, h)


def test_criterion_6_bruhat_oracle():
    with timed("criterion 6: Bruhat recursion = subword enumeration"):
        for n, max_len in ((2, 8), (3, 8)):
            datum = GroupDatum.gl(n)
            ball = wa_ball(datum, max_len)
            for k in range(n):
                omega = omega_element(datum, (k,))
                coset = [a * omega for a in ball]
                lower = {w: bruhat_lower_set(w) for w in coset}
                for u in coset:
                    for w in coset:
                        assert bruhat_leq(u, w) == (u in lower[w])


def test_criterion_7_parabolic_reduction_correctness():
    with timed("criterion 7: parabolic descent reproduces the maximum"):
        d4 = GroupDatum.pgl(4)
        frob = Frobenius.inner(omega_element(d4, (2,)))
        for mu in dominant_coweights(4, 2):
            assert not isinstance(_stage(frob), BaseStep)  # twist is not superbasic
            result = solve(mu, frob, strategy="constructive")
            acc = enumerate_acceptable(mu, frob)
            assert acc.raw[acc.maximum] == result.nu_raw, mu
            ok, _ = adm_member(result.w, mu)
            assert ok, mu
