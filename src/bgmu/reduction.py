"""Reductions composing the full solver.

A problem (datum, mu, twist) is reduced stage by stage, each stage a
bijection of acceptable sets that builds its sub-problem once: the
blocks split into sigma0-orbits (``OrbitSplitStep``); an orbit of
several blocks is conjugated by a length-zero element that puts the
twist on its last block, and split to that block
(``ProductSplitStep``); a single block descends along the stabilizer of
a generic fixed direction (``ParabolicStep``) until the residual twist
is superbasic (``BaseStep``). The twist's linear part is a signed
permutation, so its fixed directions are read off its cycles, one per
cycle of sign product +1, with no linear algebra.

The stages read the twist only: the orbits, the conjugator and the
sub-twist of a product split, the generic direction and the Levi of a
descent, and a superbasic base's data are chosen from sigma, and mu
only rides along. So a stage is its step record, built from the twist
with every check of the twist once per twist per process by ``_stage``
(an ``lru_cache`` of 256 twists), sub-twists included. ``_solve_orbits``
is one recursion over the steps: a base builds its witness from mu;
any other step's ``split(mu)`` returns the step with what mu decides
(a product split's parts) and the sub-problems, and its ``lift`` takes
their solutions back to one.

A sub-problem lives on some of the parent's positions, renumbered in
their order. ``_sub_twist`` (parent to sub-problem) and ``_embed`` with
``_embed_perm`` for x (sub-problems back to the parent, identity
elsewhere) are the one place where these coordinates are mapped. Every
lift is a placement: a list of parent positions in the sub-problem's
order and one sign, -1 where a piece reaches its block through an odd
number of flips. An orbit split places each orbit on its positions, a
product split each piece on its block of the orbit, and a parabolic
descent the whole sub-witness at the images of z^-1.
``_sub_twist`` builds every sub-problem's twist and is its one check:
the restricted tau must map each sub-block onto itself and have length
zero, or the reduction has a bug (``InternalCheckFailed``). Raw element
formats stay with the modules that own them: the brute force and its
(trans, images) tuples in ``acceptable``, the descent walk's lists
behind the subword split in ``weyl``.

The lifts carry only the witness w and x with the trace, whose
superbasic bases hold their certificates, and check nothing. The point
is claimed, not derived: ``maximal_newton_state``, the unique maximal
acceptable point, for the constructive and auto strategies; the maximum
over the Newton points of the admissible set for the brute force
(``acceptable._brute_force``), whose witness comes without x. Each
fact about the answer is then checked once, in ``_verify_solution``,
for every strategy: w <= t^{x(mu)} for the reported x, the definition
of Adm(mu); and the Newton point of w is the claimed one, read off the
final witness by the one run of the Newton kernel per answer and
compared in integers. The auto strategy also compares the claimed
point with the brute-force maximum whenever the brute force's own
guards let it list Adm(mu). So no step re-checks its own hypotheses: a
conjugation or a descent that broke one lifts to a witness that
``_verify_solution`` refuses.

Two routes prove w <= t^{x(mu)}, chosen by the trace. On a trace of
one superbasic base below the adjoint step, the base's peel
certificate is the proof, read in O(n): its chain descends strictly
from t^{eps(mu)} sigma to its end (``sharp_peel`` checked each step
by one O(1) comparison), and sigma has
length zero, so w = end sigma^-1 is below t^{eps(mu)}; being reached
from it by affine reflections, w also lies in its coset, that of t^mu.
So it suffices that the certificate is this answer's: its mu is mu, x
is its eps, its start is t^{x(mu)} sigma and its end is w sigma; and
the slopes it prints, plus the base's central part, are the claim.
Every other trace walks ``bruhat_leq(w, t^{x(mu)})``, whose first test is
the coset; for the brute force's witness, ``adm_member`` looks up x,
and its last, successful walk is this test.

Where each check runs:

* the caller's mu (its length, and dominance per block): in
  ``Problem``, once per solve: ``bgmu max`` hands its checked problem
  to ``_solve``, which builds the maximal point from the bound table
  unchecked. The splits build their sub-problems with
  ``Problem._unchecked``, as a restriction of mu, mu itself on a Levi
  and a sum of dominant parts are dominant; ``sharp_peel``, a public
  routine, still checks the mu of a superbasic base;
* length zero, of a parsed tau (``Frobenius``, on the first build of
  each twist value, as equal twists are one object), of a conjugator
  (``omega_element``) and of a sub-twist (``_sub_twist``): the one O(n)
  test ``weyl._length_zero``, whose yes the element keeps, so the
  sub-twist's ``Frobenius`` reads it rather than testing again;
* the rest of a twist, once per twist per process in ``_stage``: the
  sub-blocks in ``_sub_twist``, the generic direction in
  ``_generic_point`` and the superbasic residue in ``_descend``;
* the claimed maximal point: its four checks in
  ``acceptable._maximal_state``, in integers, once per build;
* a superbasic base's chain and slopes in ``sharp_peel``, whose end
  times sigma_{m,n}^-1 is the base's witness (``_superbasic_base``),
  relabelled to the problem's datum unchecked. A base runs no Newton
  kernel: its certificate is checked by its peel, and the answer by the
  one kernel run below;
* the answer: in ``_verify_solution``, once, with w <= t^{x(mu)} read
  off the certificate on an ``adjoint, base-superbasic`` trace, whose
  slopes plus the central part must be the claim, and walked on every
  other, and its Newton point read off one kernel run on every trace.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import NamedTuple, Optional, Sequence

from .acceptable import _brute_force, _check_mu, _maximal_state, _orbit_bounds, adm_member
from .errors import (
    DimensionMismatch,
    GuardExceeded,
    InternalCheckFailed,
    ParseError,
    UnsupportedTwist,
)
from .newton import (
    Frobenius,
    NewtonPoint,
    Sigma0,
    _element_kernel,
    _fractions,
    _scaled,
    _vec_str,
    dominant_rep,
    kappa,
)
from .superbasic import PeelCertificate, _twist_data, sharp_peel
from .weyl import (
    AffineElement,
    GroupDatum,
    IntVec,
    Permutation,
    SignedMap,
    _element_text,
    _Frozen,
    _dominant_length,
    _length_zero,
    _product,
    _subword_split,
    _translation_text,
    bruhat_leq,
    format_element,
    omega_element,
)


# the most len(t^mu) * n that a walking solve may cost
# (``_check_walk_cost``); README's Guards section gives its headroom
WALK_BUDGET = 10**7


class Problem(_Frozen):
    """A caller's problem, whose mu ``__init__`` checks against the
    twist's datum. The splits build their sub-problems with
    ``_unchecked``: a sub-problem's mu is dominant by construction."""

    mu: tuple[int, ...]
    frob: Frobenius

    def __init__(self, mu: tuple[int, ...], frob: Frobenius) -> None:
        mu = tuple(mu)
        _check_mu(mu, frob.datum)
        self._set(mu=mu, frob=frob)

    @property
    def datum(self) -> GroupDatum:
        return self.frob.datum


class Solution(NamedTuple):
    """Witness w with x such that w <= t^{x(mu)}, and the reduction
    trace, whose superbasic bases carry their certificates. Its Newton
    point is checked once, by ``_verify_solution``, which also looks up
    x when it is None (the brute force's witness). When the trace is
    one superbasic base below the adjoint step, the certificate proves
    w <= t^{x(mu)}; otherwise w is walked."""

    w: AffineElement
    x: Optional[Permutation]
    trace: tuple = ()


def _verify_solution(problem: Problem, sol: Solution, d: int,
                     nums: Sequence[int]) -> tuple[NewtonPoint, Permutation]:
    """The one check of a final answer: w <= t^{x(mu)} (w in Adm(mu) with
    the reported x, and so in the coset of t^mu, which t^{x(mu)} shares),
    and the Newton point of w, read off one run of the kernel, equal to
    the claimed raw point nums / d. On an ``adjoint, base-superbasic``
    trace the base's certificate proves w <= t^{x(mu)} once it is shown,
    in O(n), to be this answer's (module docstring); w may live on
    PGL_n, so the elements are compared by trans and perm. Its slopes
    plus the base's central part must then be the claim too, as the
    twist is sigma_{m,n} times the central translation by that part.
    Every other trace walks. A solution without x (the brute force's)
    gets it from ``adm_member``, whose last, successful walk is that same
    w <= t^{x(mu)}. The points are compared in integers, and the
    answer's is nums / d minus the reporting shift, built unchecked: the
    claim is dominant by construction and the shift is constant per block.
    Returns that point and x: the answer's."""
    x, cert = sol.x, None
    if x is None:
        ok, x = adm_member(sol.w, problem.mu)
        if not ok:
            raise InternalCheckFailed(f"witness {sol.w!r} is not admissible")
    else:
        bound = AffineElement.translation(problem.datum, x.act(problem.mu))
        if [step.kind for step in sol.trace] == ["adjoint", "base-superbasic"]:
            base = sol.trace[1]
            cert = base.certificate
            sigma_inv = _twist_data(cert.m, cert.n).sigma_inv
            start, end = cert.start * sigma_inv, cert.end * sigma_inv
            below = cert.mu == problem.mu and x == cert.epsilon and (
                (start.trans, start.perm, end.trans, end.perm)
                == (bound.trans, bound.perm, sol.w.trans, sol.w.perm))
        else:
            below = bruhat_leq(sol.w, bound)
        if not below:
            raise InternalCheckFailed(f"witness {sol.w!r} is not below t^{{x(mu)}} = {bound!r}")
    # the witness's point bar / k, and the certificate's slopes plus the
    # base's central part: each must be the claim
    k, _, bar = _element_kernel(sol.w, problem.frob)
    points = [(k, bar)]
    if cert is not None:
        k, bar = _scaled(cert.slopes)
        points.append((k, [y + base.central * k for y in bar]))
    for k, bar in points:
        if [y * d for y in bar] != [y * k for y in nums]:
            raise InternalCheckFailed(
                f"witness Newton point {_vec_str(Fraction(y, k) for y in bar)}"
                f" differs from claimed {_vec_str(_fractions(nums, d))}"
            )
    ds, shift = _scaled(problem.frob.shift)
    point = _fractions([y * ds - s * d for y, s in zip(nums, shift)], d * ds)
    return NewtonPoint._unchecked(problem.datum, point, kappa(sol.w)), x


# --- individual reduction steps ----------------------------------------------

class AdjointStep(NamedTuple):
    """The trace's first record: the per-block coordinate sums of mu."""

    kind: str
    kappas: tuple[int, ...]


class OmegaStep(NamedTuple):
    """The trace record of a product split's conjugation by the
    length-zero tau0, which ``ProductSplitStep.lift`` undoes."""

    kind: str
    tau0: AffineElement


def _conjugator_into_last(frob: Frobenius, orbit: Sequence[int]) -> AffineElement:
    """Length-zero tau0 with (tau0 tau sigma0(tau0)^-1) supported on the
    last block of the orbit: the product of the g_i, with g_{-1} = 1 and
    g_i = sigma0(g_{i-1}) f_i^-1 on the orbit's block b_i, f_i being tau's
    factor there. tau has length zero, so f_i is the unique length-zero
    element of b_i with coordinate sum kappa_{b_i}(tau), and so is each
    g_i with its own kappa: sigma0 carries g_{i-1}'s kappa from b_{i-1}
    to b_i, negated when b_{i-1} flips. The g_i sit on distinct blocks,
    so tau0 is one length-zero element, built from its kappas in O(n)."""
    datum, flip = frob.datum, frob.sigma0.flip
    tau_kappas = datum.block_sums(frob.tau.trans)
    kappas = [0] * datum.num_blocks
    g = 0
    for i, b in enumerate(orbit[:-1]):
        g = (-g if flip[orbit[i - 1]] else g) - tau_kappas[b]  # g is 0 at i = 0
        kappas[b] = g
    return omega_element(datum, kappas)


class ProductSplitStep(NamedTuple):
    kind: str
    orbit: tuple[int, ...]
    parent_frob: Frobenius
    parts: tuple[tuple[int, ...], ...]  # each mu_i carried to the last block; () until split
    sub_frob: Frobenius  # the twist sigma^m on the last block
    places: tuple[tuple[tuple[int, ...], int], ...]  # (positions, sign) per orbit block
    omega: OmegaStep  # tau0 puts the parent twist on the last block

    def split(self, mu: Sequence[int]) -> tuple[ProductSplitStep, list[Problem]]:
        """The orbit reduces to its last factor with coweight
        gamma = mu_{m-1} + sum_{i < m-1} sigma0^{-(i+1)}(mu_i) and the
        sub-twist, once tau is conjugated to tau0 tau sigma0(tau0)^-1 on
        the last block by the length-zero tau0 of
        ``_conjugator_into_last``. The parts are read off mu at the
        placements (see ``_split_product`` for the powers)."""
        parts = tuple(tuple(sign * mu[p - 1] for p in pos) for pos, sign in self.places)
        gamma = tuple(map(sum, zip(*parts)))
        return self._replace(parts=parts), [Problem._unchecked(gamma, self.sub_frob)]

    def lift(self, subs: Sequence[Solution]) -> Solution:
        """Spread the sub-witness over the orbit, then undo the
        conjugation: B(mu, tau0 sigma tau0^-1) = B(mu, sigma) with
        witness w -> tau0^-1 w tau0. ``_factor_witness`` splits the
        sub-witness, unchecked, as piece_{m-2} ... piece_0 piece_{m-1}
        with each piece below its part, and piece i goes on orbit block
        i by its placement (see ``_split_product``). The pieces have
        disjoint supports, so the product of their moved copies is
        their overlay, and so is that of the moved copies of x."""
        (sub,) = subs
        datum = self.parent_frob.datum
        m = len(self.orbit)
        # factor the sub-witness along the parts (already written in
        # last-block coordinates) in the order m-2, ..., 0, m-1
        order = [*range(m - 2, -1, -1), m - 1]
        pieces = dict(zip(order, _factor_witness(sub.w, [
            AffineElement.translation(self.sub_frob.datum, sub.x.act(self.parts[i]))
            for i in order
        ])))
        y = _embed(datum, [(pieces[i], pos, sign) for i, (pos, sign) in enumerate(self.places)])
        x = _embed_perm(datum.n, [(sub.x, pos) for pos, _ in self.places])
        inv = self.omega.tau0.inverse()
        return Solution(inv * y * self.omega.tau0, inv.perm * x, (self.omega, self) + sub.trace)


def _embed_perm(n: int, pieces: Sequence[tuple[Permutation, Sequence[int]]]) -> Permutation:
    """Each permutation x of a (x, positions) pair acting on its
    positions, which are disjoint; the identity elsewhere."""
    images = list(range(1, n + 1))
    for x, positions in pieces:
        for p, j in zip(positions, x.images):
            images[p - 1] = positions[j - 1]
    return Permutation(images)


def _embed(datum: GroupDatum,
           pieces: Sequence[tuple[AffineElement, Sequence[int], int]]) -> AffineElement:
    """Each element w of a (w, positions, sign) placement put on its
    positions, which are disjoint, with its translation times sign; the
    identity elsewhere. With sign +1, the inverse of the restriction in
    ``_sub_twist`` on every piece."""
    trans = [0] * datum.n
    for w, positions, sign in pieces:
        for p, t in zip(positions, w.trans):
            trans[p - 1] = sign * t
    return AffineElement(
        datum, trans, _embed_perm(datum.n, [(w.perm, positions) for w, positions, _ in pieces])
    )


def _sub_twist(trans: IntVec, images: IntVec, smap: SignedMap, positions: Sequence[int],
               sub_datum: GroupDatum) -> Frobenius:
    """The twist of the sub-problem on ``positions``, built and checked
    once: tau = t^trans images restricted to those positions,
    renumbered 1..len(positions) in their order, which must map each
    sub-block onto itself and have length zero, and the diagram
    automorphism of sub_datum whose map is smap on those positions.
    Each sub-block's target block and flip are read off smap at the
    block's first position, and the whole restricted map must be that
    automorphism's. A failure is a bug in the reduction that built tau
    or smap; what passes, or is a stored twist, is not checked again."""
    local = [0] * (len(images) + 1)  # 0: not a position of the sub-problem
    for i, p in enumerate(positions, start=1):
        local[p] = i
    spos, ssign = smap
    sub_map = (tuple([local[spos[p - 1]] for p in positions]),
               tuple([ssign[p - 1] for p in positions]))
    block_of, firsts = sub_datum._block_of, sub_datum.offsets()
    sigma0 = None
    if 0 not in sub_map[0]:
        try:
            sigma0 = Sigma0(sub_datum, tuple([block_of[sub_map[0][o] - 1] for o in firsts]),
                            tuple([sub_map[1][o] < 0 for o in firsts]))
        except ParseError:  # the blocks' targets are no automorphism
            pass
    if sigma0 is None or sigma0.map() != sub_map:
        raise InternalCheckFailed("twist does not permute the sub-blocks")
    sub_images = tuple([local[images[p - 1]] for p in positions])
    if 0 in sub_images or tuple([block_of[j - 1] for j in sub_images]) != block_of:
        raise InternalCheckFailed(
            f"twist {_element_text(_translation_text(trans), images)} does not map the"
            f" sub-blocks {sub_datum.blocks} onto themselves"
        )
    sub_trans = tuple([trans[p - 1] for p in positions])
    twist = Frobenius._stored(sub_datum, sub_trans, sub_images, sigma0.block_to, sigma0.flip)
    if twist is not None:
        return twist
    sub_tau = AffineElement._unchecked(sub_datum, sub_trans, Permutation._unchecked(sub_images))
    if not _length_zero(sub_tau):
        raise InternalCheckFailed(f"restricted twist {sub_tau!r} is not length zero")
    return Frobenius(sub_tau, sigma0)


def _twisted_conjugate(frob: Frobenius, trans: IntVec, images: IntVec) -> tuple[IntVec, IntVec]:
    """x tau sigma0(x)^-1 for x = t^trans u (u = images), by
    ``weyl._product`` on tuples. sigma0(x)^-1, for sigma0's map (pos,
    sign), takes -sign_j trans_j at pos(i) and maps pos(j) to pos(i),
    for j = u(i)."""
    pos, sign = frob.sigma0.map()
    inv_trans, inv_images = [0] * len(pos), [0] * len(pos)
    for i, j in enumerate(images):
        inv_trans[pos[i] - 1] = -sign[j - 1] * trans[j - 1]
        inv_images[pos[j - 1] - 1] = pos[i]
    tau = frob.tau
    return _product(*_product(trans, images, tau.trans, tau.perm.images), inv_trans, inv_images)


def _split_product(frob: Frobenius) -> ProductSplitStep:
    """The product split's step without its parts: the conjugator tau0, the
    sub-twist on the orbit's last block and, per block b_i of the orbit,
    its placement: the positions to which sigma0^{i+1} carries the last
    block's, in order, and the sign it multiplies them by (the last
    block stays put). The lift puts piece_i there, and the part
    sigma0^{-(i+1)}(mu_i) reads mu there: position p of the last block
    holds sign * mu at the image of p.

    Why forwards: let L be the last block, tau the conjugated twist,
    which lives on L, F = sigma0^m on L (a flip when the orbit carries
    an odd number of flips, else 1), and A = piece_{m-2} ... piece_0.
    With piece i < m-1 on orbit block i as sigma0^{i+1}(piece_i) and
    piece_{m-1} on L, the norm of the lift on L is
    piece_{m-1} tau F(A) F, a twisted conjugate of
    (A piece_{m-1}) tau F: the sub-witness under the sub-twist tau F.
    Going backwards, sigma0^{i-m+1}(piece_i), would give the norm
    piece_{m-1} tau A F instead, a twisted conjugate of
    (F(A) piece_{m-1}) tau F, which is the sub-witness only when
    F = 1; for an even flip parity the two powers are the same map.
    sigma0^{i+1} maps the whole of L to one block, with one sign."""
    datum = frob.datum
    orbit = frob.sigma0.block_orbits[0]
    last = orbit[-1]
    lo, hi = datum.block_ranges()[last]
    embed = tuple(range(lo, hi + 1))
    sub_datum = GroupDatum((datum.blocks[last],), (datum.adjoint[last],))
    spos, ssign = frob.sigma0.map()
    # sigma0^{i+1}, i = 0..m-1, followed on the last block's positions
    # only: O(n_L) per power, not O(n). The last power, sigma0^m, maps
    # the last block to itself, and its placement is the identity
    pos, sign = embed, (1,) * len(embed)
    places = []
    for _ in orbit:
        sign = tuple([s * ssign[p - 1] for p, s in zip(pos, sign)])
        pos = tuple([spos[p - 1] for p in pos])
        places.append((pos, sign[0]))
    places[-1] = (embed, 1)
    tau0 = _conjugator_into_last(frob, orbit)
    # sigma0^m is a flip when the orbit carries an odd number of flips;
    # _sub_twist reads the map only on embed, so it is the identity
    # elsewhere
    n = datum.n
    power = SignedMap((*range(1, lo), *pos, *range(hi + 1, n + 1)),
                      (1,) * (lo - 1) + sign + (1,) * (n - hi))
    sub_frob = _sub_twist(*_twisted_conjugate(frob, tau0.trans, tau0.perm.images),
                          power, embed, sub_datum)
    return ProductSplitStep("product-split", orbit, frob, (), sub_frob, tuple(places),
                            OmegaStep("omega-conjugate", tau0))


def _factor_witness(
    w: AffineElement, bounds: Sequence[AffineElement]
) -> tuple[AffineElement, ...]:
    """Split w <= bounds[0] * ... * bounds[-1] (lengths adding) into
    w = w_1 ... w_k with w_i <= bounds[i], by the subword property.
    Nothing is checked: the pieces multiply back to w by construction,
    and a w not below the product lifts to a witness that fails the
    final walk in ``solve``, as Bruhat order on blocks is the product
    order."""
    pieces = []
    for bound in bounds[:-1]:
        piece, w = _subword_split(w, bound)
        pieces.append(piece)
    return (*pieces, w)


class ParabolicStep(NamedTuple):
    kind: str
    parent_frob: Frobenius
    v0: tuple[Fraction, ...]
    z: Permutation
    sub_frob: Frobenius  # the twist on the Levi, conjugated by z

    def split(self, mu: Sequence[int]) -> tuple[ParabolicStep, list[Problem]]:
        """Descend to the stabilizer of the dominant representative
        vbar of the generic direction v0: the Levi whose blocks are the
        runs of equal entries of vbar, with mu as it is."""
        return self, [Problem._unchecked(mu, self.sub_frob)]

    def lift(self, subs: Sequence[Solution]) -> Solution:
        """Undo the conjugation by z: z^-1 w z places w at the images
        of z^-1."""
        (sub,) = subs
        zinv = self.z.inverse()
        w = _embed(self.parent_frob.datum, [(sub.w, zinv.images, 1)])
        return Solution(w, zinv * sub.x, (self,) + sub.trace)


def _fixed_direction_space(frob: Frobenius) -> tuple[int, list[IntVec]]:
    """Basis of the centered directions fixed by the twist on a single
    block, read off the cycles of its linear part, as integer vectors
    over one denominator d.

    The linear part is a signed permutation that maps the block to
    itself up to sign, so it keeps centered vectors centered and the
    fixed directions are its fixed vectors of sum zero. Along a cycle a
    fixed vector is carried from each coordinate to the next with that
    coordinate's sign: it vanishes on a cycle of sign product -1, and a
    cycle of sign product +1 carries one fixed vector, +-1 along the
    cycle and +1 at its last coordinate. Taken in the order of their
    last coordinates, the first of these with a nonzero sum, the pivot,
    absorbs the sums of all later ones and drops out; d is the absolute
    value of its sum. This is the row-reduced basis: each vector is 1
    (d over d) at its last nonzero coordinate, the other vectors are 0
    there, and those coordinates ascend."""
    lin = frob.affine_map.linear
    units = []
    for cycle, sign in lin.cycles():
        if sign != 1:
            continue
        u, s = [0] * len(lin.pos), 1
        for p in cycle:
            u[p] = s
            s *= lin.sign[p]
        last = max(cycle)
        units.append((last, [x * u[last] for x in u]))
    units.sort()
    pivot = next((u for _, u in units if sum(u) != 0), None)
    if pivot is None:
        return 1, [tuple(u) for _, u in units]
    d, sign = abs(sum(pivot)), 1 if sum(pivot) > 0 else -1
    # before the pivot, d u; after it, d u - (d / sum(pivot)) sum(u) pivot
    basis = []
    for _, u in units:
        if u is not pivot:
            f = sign * sum(u)
            basis.append(tuple(d * a - f * b for a, b in zip(u, pivot)))
    return d, basis


def _generic_point(frob: Frobenius, den: int, basis: list[IntVec]) -> IntVec:
    """sum_k t^k basis[k] with t = n^2 + 1, over the basis's denominator
    den, which lies on no root hyperplane that the basis does not: a
    coordinate difference of each integer basis vector is an integer D_k
    of size at most 2n, since the cycles are disjoint, and
    sum_k t^k D_k vanishes only when every D_k does.

    The check is O(n K) for K basis vectors: each position is compared
    with the first position of its block holding the same value, which
    covers every tied pair, as agreeing on every basis vector is
    transitive."""
    datum = frob.datum
    n = datum.n
    v0 = [0] * n
    scale = 1
    for b in basis:
        v0 = [a + scale * c for a, c in zip(v0, b)]
        scale *= n * n + 1
    for sl in datum.block_slices():
        first: dict[int, int] = {}
        for p in range(sl.start, sl.stop):
            q = first.setdefault(v0[p], p)
            if q != p and any(b[p] != b[q] for b in basis):
                raise InternalCheckFailed(
                    f"direction {_vec_str(Fraction(x, den) for x in v0)} is not generic"
                )
    return tuple(v0)


def _descend(frob: Frobenius) -> ParabolicStep | BaseStep:
    """The step of a single block of rank at least two: the parabolic
    step with its sub-twist when the dominant representative vbar of
    the generic direction is not central or, at a superbasic twist, the
    base's m0, n and central part, once the base's twist is checked; a
    superbasic twist with a flip is refused (``UnsupportedTwist``)."""
    datum = frob.datum
    n = datum.n
    den, basis = _fixed_direction_space(frob)
    # with no fixed direction the generic point is 0, which is central
    if basis:
        v0 = _generic_point(frob, den, basis)
        vbar, z = dominant_rep(datum, v0)
        if vbar != v0 and frob.affine_map.linear.apply(vbar) == vbar:
            # the generic point is swapped for vbar, which stays inside
            # the fixed-direction space, and z becomes the identity.
            # vbar stays generic: a fixed vector of sum zero lies in the
            # span of the basis, so it is equal wherever every basis
            # vector is, which is where v0 is; as a rearrangement of v0
            # within blocks it has exactly as many equal pairs as v0
            v0, z = vbar, Permutation.identity(n)
        cut = [i for i in range(1, n) if vbar[i - 1] != vbar[i]]
        if cut:
            sub_datum = GroupDatum(tuple(b - a for a, b in zip([0] + cut, cut + [n])))
            sub_frob = _sub_twist(*_twisted_conjugate(frob, (0,) * n, z.images),
                                  frob.sigma0.map(), tuple(range(1, n + 1)), sub_datum)
            return ParabolicStep("parabolic", frob, _fractions(v0, den), z, sub_frob)
    # superbasic base case
    if not frob.sigma0.is_identity():
        raise UnsupportedTwist(
            "a diagram flip survives to the superbasic base; constructive"
            " witnesses are only built for rotation twists"
        )
    kap = datum.block_sums(frob.tau.trans)[0]
    m0 = kap % n
    if m0 == 0 or gcd(m0, n) != 1:
        raise InternalCheckFailed(f"residual twist kappa={kap} is not superbasic on GL_{n}")
    return BaseStep("base-superbasic", m0, n, (kap - m0) // n)


# --- the solver ---------------------------------------------------------------

class OrbitSplitStep(NamedTuple):
    kind: str
    parent_frob: Frobenius
    orbits: tuple[tuple[int, ...], ...]
    positions: tuple[tuple[int, ...], ...]  # global positions per orbit
    subs: tuple[Frobenius, ...]  # the twist on each orbit

    def split(self, mu: Sequence[int]) -> tuple[OrbitSplitStep, list[Problem]]:
        """mu restricted to each orbit's positions, with its twist."""
        return self, [Problem._unchecked(tuple(mu[p - 1] for p in pos), sub)
                      for pos, sub in zip(self.positions, self.subs)]

    def lift(self, subs: Sequence[Solution]) -> Solution:
        datum = self.parent_frob.datum
        w = _embed(datum, [(sub.w, pos, 1) for pos, sub in zip(self.positions, subs)])
        x = _embed_perm(datum.n, [(sub.x, pos) for pos, sub in zip(self.positions, subs)])
        return Solution(w, x, (self,) + tuple(step for sub in subs for step in sub.trace))


class BaseStep(NamedTuple):
    """A base of the reduction. A superbasic base carries the peeling
    certificate of its witness, which ``step_json`` leaves out; ``solve``
    reports the first one in trace order."""

    kind: str
    m: int
    n: int
    central: int
    certificate: Optional[PeelCertificate] = None


def _split_orbits(frob: Frobenius) -> OrbitSplitStep:
    """One sub-twist per sigma0-orbit of blocks, on the orbit's blocks
    in increasing order."""
    datum, tau, smap = frob.datum, frob.tau, frob.sigma0.map()
    ranges = datum.block_ranges()
    orbits = frob.sigma0.block_orbits
    positions = []
    subs = []
    for orbit in orbits:
        blocks = sorted(orbit)
        pos = tuple([p for b in blocks for p in range(ranges[b][0], ranges[b][1] + 1)])
        positions.append(pos)
        sub_datum = GroupDatum(tuple([datum.blocks[b] for b in blocks]),
                               tuple([datum.adjoint[b] for b in blocks]))
        subs.append(_sub_twist(tau.trans, tau.perm.images, smap, pos, sub_datum))
    return OrbitSplitStep("orbit-split", frob, orbits, tuple(positions), tuple(subs))


@lru_cache(maxsize=256)
def _stage(frob: Frobenius) -> OrbitSplitStep | ProductSplitStep | ParabolicStep | BaseStep:
    """The step that a problem on frob takes, with its sub-twists,
    built and checked once per twist per process: an orbit split when
    sigma0 has several orbits of blocks, a product split on one orbit of
    several blocks, and on a single block a rank-one base, a parabolic
    descent or a superbasic base. The step holds all that mu does not
    decide: a product split lacks its parts, which its ``split`` fills
    in, and a base its central part (rank one) or certificate
    (superbasic), which ``_solve_orbits`` fills in. Every check of the
    twist runs on the first build; a failed one raises on every call,
    as ``lru_cache`` keeps no exception. The bound holds the twists of
    a desk-scale sweep, top-level and sub-problem alike: 181 distinct
    ones over the 811 stages of 220 ``bgmu max`` problems on ranks 6-9,
    where 64 entries would evict and rebuild 113 more."""
    datum = frob.datum
    if len(frob.sigma0.block_orbits) != 1:
        return _split_orbits(frob)
    if datum.num_blocks != 1:
        return _split_product(frob)
    if datum.n == 1:
        return BaseStep("base-rank-one", 0, 1, 0)
    return _descend(frob)


def _solve_orbits(problem: Problem) -> Solution:
    """Solve the problem by its step: at a base build the witness from
    mu; at any other step split mu into the sub-problems, solve each and
    lift their solutions."""
    step = _stage(problem.frob)
    if not isinstance(step, BaseStep):
        step, subs = step.split(problem.mu)
        return step.lift([_solve_orbits(sub) for sub in subs])
    mu = problem.mu
    if step.kind == "base-rank-one":
        w = AffineElement.translation(problem.datum, mu)
        return Solution(w, Permutation.identity(1), (step._replace(central=mu[0]),))
    w, x, cert = _superbasic_base(mu, step.m, step.n)
    # the same single block, PGL or GL as the problem's: relabelled unchecked
    w = AffineElement._unchecked(problem.datum, w.trans, w.perm)
    return Solution(w, x, (step._replace(certificate=cert),))


def _superbasic_base(mu: Sequence[int], m: int, n: int) -> tuple:
    """A superbasic base's witness w = end sigma_{m,n}^-1, its x = epsilon
    and its certificate, all from ``sharp_peel``."""
    cert = sharp_peel(mu, m, n)
    return cert.end * _twist_data(m, n).sigma_inv, cert.epsilon, cert


def step_json(step) -> dict:
    """Serializable record of one reduction step."""
    doc: dict = {"kind": step.kind}
    if isinstance(step, AdjointStep):
        doc["kappa"] = list(step.kappas)
    elif isinstance(step, OmegaStep):
        doc["tau0"] = format_element(step.tau0)
    elif isinstance(step, ProductSplitStep):
        doc["orbit"] = [b + 1 for b in step.orbit]
        doc["parts"] = [list(p) for p in step.parts]
    elif isinstance(step, ParabolicStep):
        doc["z"] = repr(step.z)
        doc["blocks"] = list(step.sub_frob.datum.blocks)
        doc["generic_direction"] = [str(x) for x in step.v0]
    elif isinstance(step, OrbitSplitStep):
        doc["orbits"] = [[b + 1 for b in orbit] for orbit in step.orbits]
    elif isinstance(step, BaseStep):
        doc.update(m=step.m, n=step.n, central=step.central)
    return doc


class SolveResult(NamedTuple):
    problem: Problem
    nu: NewtonPoint
    nu_raw: tuple[Fraction, ...]
    w: AffineElement
    x: Permutation
    trace: tuple
    certificate: Optional[PeelCertificate]
    strategy: str
    checks: dict


def solve(mu: Sequence[int], frob: Frobenius, strategy: str = "auto") -> SolveResult:
    """Maximal acceptable Newton point plus an admissible witness.

    ``constructive`` runs the reduction pipeline; ``bruteforce``
    maximizes over the Newton points of the admissible set (guarded);
    ``auto`` runs the constructive path and compares the maximal point
    with the brute-force maximum, unless the brute force refuses the
    problem (``GuardExceeded``, for rank, entry spread or size). Both
    refuse a problem whose Bruhat walks would cost more than
    ``WALK_BUDGET`` (``_check_walk_cost``).
    """
    if strategy not in ("auto", "constructive", "bruteforce"):
        raise ParseError(f"unknown strategy {strategy!r}")
    return _solve(Problem(tuple(mu), frob), strategy)


def _check_walk_cost(problem: Problem) -> None:
    """Refuse a constructive solve whose Bruhat walks would take too
    long (``GuardExceeded``). Every trace but a lone superbasic base
    walks from t^{x(mu)} down to w at least once, about len(t^mu) steps
    of O(n) each, and len(t^mu) grows with the entries of mu, not with
    their digits. A translation's length depends only on its W-orbit, so
    len(t^{x(mu)}) = len(t^mu), the closed form per block, in O(n)."""
    step = _stage(problem.frob)
    if isinstance(step, BaseStep) and step.kind == "base-superbasic":
        return
    datum = problem.datum
    length = sum(_dominant_length(problem.mu[sl]) for sl in datum.block_slices())
    if length * datum.n > WALK_BUDGET:
        raise GuardExceeded(
            f"walk guard: len(t^mu) * n = {length} * {datum.n} > {WALK_BUDGET}"
        )


def _solve(problem: Problem, strategy: str) -> SolveResult:
    """``solve`` on a checked problem and a known strategy, as ``bgmu
    max`` has them: mu is not checked again. A failed internal check
    leaves with the problem attached, so a caller can replay it."""
    try:
        frob = problem.frob
        checks: dict = {}
        if strategy == "bruteforce":
            # the claimed maximum and a witness; _verify_solution looks up x
            (d, nums), w = _brute_force(problem.mu, frob, witness=True)
            sol = Solution(w, None, (BaseStep("bruteforce", 0, problem.datum.n, 0),))
            checks["bruteforce"] = True
        else:
            # the input is checked above, so these errors are reduction bugs
            try:
                _check_walk_cost(problem)
                sol = _solve_orbits(problem)
            except (ParseError, DimensionMismatch, LookupError) as exc:
                raise InternalCheckFailed(f"reduction failed: {exc!r}") from exc
            ad_step = AdjointStep("adjoint", problem.datum.block_sums(problem.mu))
            sol = sol._replace(trace=(ad_step,) + sol.trace)
            # the claimed point; _verify_solution checks that w realizes it
            d, nums = _maximal_state(frob, _orbit_bounds(problem.mu, frob))
            checks["matches_maximal_newton"] = True
            if strategy == "auto":
                try:
                    (k, lam), _ = _brute_force(problem.mu, frob, witness=False)
                except GuardExceeded:
                    pass  # too large to list: no cross-check
                else:
                    if [y * d for y in lam] != [y * k for y in nums]:
                        raise InternalCheckFailed(
                            f"constructive {_vec_str(_fractions(nums, d))} and brute force"
                            f" {_vec_str(_fractions(lam, k))} disagree"
                        )
                    checks["matches_bruteforce"] = True
        point, x = _verify_solution(problem, sol, d, nums)
        nu_raw = _fractions(nums, d)
        checks["admissible"] = True
        certificate = next((step.certificate for step in sol.trace
                            if isinstance(step, BaseStep) and step.certificate is not None), None)
        return SolveResult(
            problem, point, nu_raw, sol.w, x, sol.trace,
            certificate, strategy, checks,
        )
    except InternalCheckFailed as exc:
        exc.problem = problem
        raise
