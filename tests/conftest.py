"""Shared brute-force oracles and the acceptance report hook.

The oracles here deliberately avoid the library's fast paths: lengths
come from Cayley-graph breadth-first search, Bruhat order from subword
products, Newton points from alternating affine applications with the
linear part tracked on a basis, or from the k-fold iteration of the
affine map of w o sigma, and the admissible set from the lower Bruhat
intervals of the t^{x(mu)} rather than the vertexwise criterion.
"""

import itertools
from fractions import Fraction

import pytest

from bgmu.acceptable import adjoint_leq
from bgmu.newton import Frobenius, SignedMap, dominant_rep
from bgmu.weyl import AffineElement, GroupDatum, bruhat_lower_set, simple_reflections


def wa_ball(datum: GroupDatum, max_len: int):
    """All affine-Weyl-group elements of length at most max_len."""
    refl = [s for _, s in simple_reflections(datum)]
    out = {AffineElement.identity(datum)}
    frontier = list(out)
    while frontier:
        nxt = []
        for w in frontier:
            for s in refl:
                c = w * s
                if c.length() <= max_len and c not in out:
                    out.add(c)
                    nxt.append(c)
        frontier = nxt
    return out


def coset_ball(datum: GroupDatum, omega: AffineElement, max_len: int):
    """Elements of W_a * omega with length at most max_len."""
    return {a * omega for a in wa_ball(datum, max_len)}


def oracle_length(w: AffineElement, cap: int = 12) -> int:
    """Shortest-word length by breadth-first search."""
    if w.length() == 0:  # sanity cap only; identity-coset reachability
        return 0
    refl = [s for _, s in simple_reflections(w.datum)]
    seen = {w}
    frontier = [w]
    for depth in range(1, cap + 1):
        nxt = []
        for u in frontier:
            for s in refl:
                c = s * u
                if c.length() == 0:
                    return depth
                if c not in seen:
                    seen.add(c)
                    nxt.append(c)
        frontier = nxt
    raise AssertionError(f"no word of length <= {cap} for {w!r}")


def oracle_newton(w: AffineElement, frob: Frobenius):
    """Newton vector by alternating affine application, detecting the
    trivial linear part on a basis of the ambient space."""
    n = w.datum.n
    tau, sigma0 = frob.tau, frob.sigma0

    def step(v):
        return w.apply(tau.apply(sigma0.apply_vector(v)))

    zero = (Fraction(0),) * n
    basis = [
        tuple(Fraction(1) if j == i else Fraction(0) for j in range(n))
        for i in range(n)
    ]
    vz = zero
    vb = list(basis)
    for k in range(1, 20000):
        vz = step(vz)
        vb = [step(b) for b in vb]
        if all(
            tuple(a - c for a, c in zip(vb[i], vz)) == basis[i] for i in range(n)
        ):
            return k, tuple(Fraction(x) / k for x in vz)
    raise AssertionError("oracle Newton iteration failed to close up")


def _compose(outer, inner):
    """outer o inner for affine maps (pos, sign, shift): position p goes
    to pos[p-1] with sign sign[p-1], then the shift is added."""
    pos1, sign1, b1 = outer
    pos2, sign2, b2 = inner
    pos = tuple(pos1[p - 1] for p in pos2)
    sign = tuple(s * sign1[p - 1] for p, s in zip(pos2, sign2))
    shift = list(b1)
    for i, (p, s) in enumerate(zip(pos1, sign1)):
        shift[p - 1] += s * b2[i]
    return pos, sign, tuple(shift)


def iterated_newton(w: AffineElement, frob: Frobenius):
    """The Newton map by k-fold iteration: compose the affine map of
    w o tau o sigma0 with itself until the linear part is the identity.
    Returns (order, translation, nu, nu_bar) with nu_bar the dominant
    representative of nu minus the reporting shift."""
    n = w.datum.n
    ones, zero = (1,) * n, (0,) * n
    s0 = frob.sigma0.map()
    step = _compose(
        _compose((w.perm.images, ones, w.trans), (frob.tau.perm.images, ones, frob.tau.trans)),
        (s0.pos, s0.sign, zero),
    )
    identity = (tuple(range(1, n + 1)), ones)
    acc, k = step, 1
    while acc[:2] != identity:
        acc, k = _compose(acc, step), k + 1
    nu = tuple(Fraction(x, k) for x in acc[2])
    bar, _ = dominant_rep(w.datum, nu)
    return k, acc[2], nu, tuple(a - b for a, b in zip(bar, frob.shift))


def orbit_average(mu, sigma0):
    """The sigma0-average (1/N) sum_{i<N} sigma0^i(mu), with N the order
    of the signed map of sigma0, by N applications of that map."""
    m = sigma0.map()
    identity, power, order = SignedMap.identity(len(m.pos)), m, 1
    while power != identity:
        power, order = m.after(power), order + 1
    total, cur = [Fraction(0)] * len(mu), tuple(Fraction(x) for x in mu)
    for _ in range(order):
        total = [a + b for a, b in zip(total, cur)]
        cur = m.apply(cur)
    return tuple(x / order for x in total)


def oracle_newton_bar(w, frob):
    _, nu = oracle_newton(w, frob)
    bar, _ = dominant_rep(w.datum, nu)
    return bar


def orbit_points(datum: GroupDatum, mu):
    """The distinct W_0-orbit points of mu, descending lexicographically."""
    per_block = [set(itertools.permutations(mu[s])) for s in datum.block_slices()]
    return sorted(
        (tuple(x for part in combo for x in part) for combo in itertools.product(*per_block)),
        reverse=True,
    )


def _by_length(elements):
    return sorted(elements, key=lambda e: (e.length(), e.trans, e.perm.images))


def adm_reference(datum: GroupDatum, mu):
    """Adm(mu) as the union of the lower Bruhat intervals (subword
    products) of every t^{x(mu)}, sorted by (length, trans, images)."""
    tops = [AffineElement.translation(datum, p) for p in orbit_points(datum, mu)]
    return _by_length(bruhat_lower_set(*tops))


def reference_brute_force(mu, frob: Frobenius):
    """(nu_raw, w, x) of the brute force by the slow paths: the
    admissible set from per-point subword intervals, Newton points by
    k-fold iteration, the first element per point (in (length, trans,
    images) order) as its witness, and x from the first orbit point,
    descending lexicographically, whose interval holds the witness."""
    datum = frob.datum
    points = orbit_points(datum, mu)
    lower = [bruhat_lower_set(AffineElement.translation(datum, p)) for p in points]
    zero = frob.with_shift((Fraction(0),) * datum.n)
    attained = {}
    for w in _by_length(set().union(*lower)):
        attained.setdefault(iterated_newton(w, zero)[3], w)
    maxima = [p for p in attained if all(adjoint_leq(datum, q, p) for q in attained)]
    assert len(maxima) == 1, maxima
    w = attained[maxima[0]]
    point = next(p for p, low in zip(points, lower) if w in low)
    return maxima[0], w, dominant_rep(datum, point)[1].inverse()


def dominant_coweights(n: int, max_entry: int):
    """All weakly decreasing vectors with entries in 0..max_entry."""
    return list(
        itertools.combinations_with_replacement(range(max_entry, -1, -1), n)
    )


_acceptance_lines: list[str] = []


def record_acceptance(line: str) -> None:
    _acceptance_lines.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _acceptance_lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in _acceptance_lines:
            terminalreporter.write_line(line)
