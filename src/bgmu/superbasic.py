"""Superbasic witnesses for GL_n: segment combinatorics, the Euclidean
recursion, and the peeling construction of an admissible element whose
Newton point is the maximal acceptable one.

The ingredients, all for coprime 0 < m < n:

* chi_{m,n}(i) = floor(im/n) - floor((i-1)m/n), a 0/1 vector of sum m;
* backward reading sequences a^j(k) = chi(j-k), whose strict
  lexicographic order is total and defines the ranking permutation
  epsilon with epsilon(chi) = varpi_{m,n} = e_1 + ... + e_m, which is
  epsilon(j) = (jm mod n) + 1 in closed form;
* the division step f(m,n) together with two segment templates per
  step, which rebuild chi_{m,n} from a single 0 or 1 seed and grade
  every subsegment of chi by a level, kept as the block-end tables
  ``ends0`` and ``top`` of ``EuclideanChain``, which the peel reads
  itself, two bisects per step;
* the peeling of theta = mu + chi into a sharp decomposition, emitting
  a strictly decreasing Bruhat chain from t^{eps(mu)} sigma_{m,n} down
  to eps t^theta x_c eps^{-1}, each step right multiplication by one
  transposition and each certified as a strict descent.

No Bruhat query is made here, and each fact is checked in one place
(the first two once per (m, n) per process, through ``_twist_data``):

* ``_twist_data``: sigma_{m,n}, built from its closed form, has length
  zero, by the O(n) test of ``weyl._length_zero``;
* ``euclid_chain``: each level's templates rebuild the level above it,
  so every level expands to chi_{m,n} by induction;
* ``sharp_peel``: each chain step is a strict Bruhat descent, by one
  O(1) comparison on the running images (``_transposition_descends``);
  the chain starts at t^{eps(mu)} sigma_{m,n}, so it proves
  w < t^{eps(mu)}; and the decomposition has the hull slopes of theta,
  compared piece by piece with the hull's runs. The start is the
  product rule on sigma_{m,n}'s tuples and the end is the running
  images, which differ from sigma's by swaps inside its one block, so
  both are built unchecked. The lengths along the chain are derived
  where they are read (``PeelCertificate``): the start's is the closed
  form for t^mu, and each step adds one ``_transposition_delta``, in
  O(|a - b|);
* ``superbasic_witness``: the Newton point of w is that slope sequence,
  compared with one integer list, so the point is built from the
  slopes unchecked. ``solve`` builds its bases from ``sharp_peel``
  alone and reads its answer's Newton point by one kernel run;
* ``solve``: the point is the maximal acceptable one and w lies below
  t^{x(mu)}, once for the whole problem. When the problem is this base
  alone (an ``adjoint, base-superbasic`` trace), the certificate is
  that proof: ``solve`` checks in O(n) that its mu, epsilon, start and
  end are the answer's and that its slopes are the claimed point, and
  walks nothing. The test suite checks the first of these for the
  superbasic base directly.

The final witness is w = eps (t^theta x_c) eps^{-1} sigma_{m,n}^{-1};
its Newton point under Ad(sigma_{m,n}) is the slope sequence of the
upper convex hull of theta.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import add, lt
from typing import NamedTuple, Sequence

from .acceptable import _hull, polygon
from .errors import InternalCheckFailed, ParseError
from .newton import AffineMap, NewtonPoint, _linear_part, _newton_kernel, _vec_str, kappa
from .weyl import (
    AffineElement,
    GroupDatum,
    Permutation,
    SignedMap,
    _check_ints,
    _Frozen,
    _dominant_length,
    _element_text,
    _length_zero,
    _omega_tuples,
    _transposition_delta,
    _transposition_descends,
    _translation_text,
)


# --- segments ----------------------------------------------------------------

class Segment(_Frozen):
    """Integer vector supported on an index interval [head, tail]."""

    head: int
    values: tuple[int, ...]

    def __init__(self, head: int, values: tuple[int, ...]) -> None:
        # a peel reads tail, size and total of every piece many times, so
        # they are computed once here; they are not fields, so eq and hash
        # still compare head and values only
        values = tuple(values)
        size = len(values)
        self._set(head=head, values=values, tail=head + size - 1, size=size, total=sum(values))

    @property
    def average(self) -> Fraction:
        if not self.values:
            raise ParseError("empty segment has no average")
        return Fraction(self.total, self.size)

    def __repr__(self) -> str:
        return "(%s)@[%d,%d]" % (",".join(map(str, self.values)), self.head, self.tail)


# --- chi, reading sequences, epsilon ----------------------------------------

def chi(m: int, n: int) -> tuple[int, ...]:
    """chi_{m,n}(i) = floor(im/n) - floor((i-1)m/n), for coprime m < n:
    as 0 < m < n, it is 1 exactly when im mod n < m, and 0 otherwise.

    >>> chi(5, 8)
    (0, 1, 0, 1, 1, 0, 1, 1)
    """
    _check_ints((m, n), "(m, n) =")
    if not (0 < m < n) or gcd(m, n) != 1:
        raise ParseError(f"need coprime 0 < m < n, got ({m}, {n})")
    return tuple([1 if i * m % n < m else 0 for i in range(1, n + 1)])


def _epsilon(m: int, n: int) -> Permutation:
    """The ranking permutation of chi_{m,n}, for coprime 0 < m < n:
    eps(i) < eps(j) iff a^i > a^j. In closed form eps(j) = (j m mod n) + 1:
    the reading sequences are the rotations of one Christoffel word, and
    they descend lexicographically as their intercepts j m mod n ascend.

    >>> _epsilon(5, 8).images
    (6, 3, 8, 5, 2, 7, 4, 1)
    """
    return Permutation._unchecked(tuple([j * m % n + 1 for j in range(1, n + 1)]))


# --- the Euclidean recursion -------------------------------------------------

def division_step(m: int, n: int) -> tuple[int, int]:
    """One step of the recursion on coprime pairs; the second
    coordinate strictly decreases, ending at (1,1) or (0,1)."""
    if n >= 2 * m:
        return (m * (n // m + 1) - n, m)
    return (n - (n - m) * (n // (n - m)), n - m)


def _templates(m: int, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(one, zero) replacement segments for expanding chi of
    division_step(m, n) into chi_{m,n}."""
    if n >= 2 * m:
        q = n // m
        return ((0,) * (q - 1) + (1,), (0,) * q + (1,))
    q = n // (n - m)
    return ((0,) + (1,) * q, (0,) + (1,) * (q - 1))


class EuclideanChain(NamedTuple):
    """Full recursion data for one coprime pair.

    ``chis[h]`` is chi at level h; ``templates[h]`` expands level h+1
    into level h. ``ends0`` is the one block-boundary table:
    ``ends0[h]`` holds the ends of the level-h entries in level-0
    coordinates, so ``ends0[h + 1]``, a subset of ``ends0[h]``, ends the
    level-one blocks of level h. As the tables nest, ``top[p]`` is the
    largest h with p in ``ends0[h]``, for p = 1..n, and ``top[0]`` is the
    top level: position 0 ends every level. ``sharp_peel`` reads both
    tables itself: a segment [a, b]'s level is min(top[a - 1], top[b]),
    and the level-one blocks holding a and b are found in ``ends0``.
    """

    m: int
    n: int
    pairs: tuple[tuple[int, int], ...]
    chis: tuple[tuple[int, ...], ...]
    templates: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    ends0: tuple[tuple[int, ...], ...]
    top: tuple[int, ...]

    @property
    def depth(self) -> int:
        return len(self.pairs) - 1


def euclid_chain(m: int, n: int) -> EuclideanChain:
    chi0 = chi(m, n)
    pairs = [(m, n)]
    chis = [chi0]
    templates: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    ends0: list[tuple[int, ...]] = [tuple(range(1, n + 1))]
    while pairs[-1][1] != 1:
        cm, cn = pairs[-1]
        nm, nn = division_step(cm, cn)
        one, zero = _templates(cm, cn)
        nxt = (nm,) if nn == 1 else chi(nm, nn)
        expanded: list[int] = []
        ends: list[int] = []
        prev = ends0[-1]
        for v in nxt:
            expanded += one if v == 1 else zero
            # the level-0 end of the last level-h entry this one expands to
            ends.append(prev[len(expanded) - 1])
        if tuple(expanded) != chis[-1]:
            raise InternalCheckFailed(
                f"template expansion of chi{(nm, nn)} does not rebuild chi{(cm, cn)}"
            )
        pairs.append((nm, nn))
        chis.append(nxt)
        templates.append((one, zero))
        ends0.append(tuple(ends))
    top = [0] * (n + 1)  # level 0 ends at every position
    for h in range(1, len(ends0)):
        for p in ends0[h]:
            top[p] = h
    top[0] = len(ends0) - 1  # position 0 ends every level
    return EuclideanChain(m, n, tuple(pairs), tuple(chis), tuple(templates), tuple(ends0), tuple(top))


# --- the twist's data --------------------------------------------------------

class _TwistData(NamedTuple):
    """What a witness reads from the twist Ad(sigma_{m,n}) alone."""

    chain: EuclideanChain
    eps: Permutation
    eps_text: str
    sigma: AffineElement
    sigma_text: str  # "*cyc(...)" per cycle, as it follows a translation
    sigma_inv: AffineElement
    affine_map: AffineMap


@lru_cache(maxsize=64)
def _twist_data(m: int, n: int) -> _TwistData:
    """The (m, n) data of a witness, built and checked once per pair per
    process from closed forms on plain tuples, with no ``Frobenius`` or
    ``Sigma0`` interned and no element validated:

    * the Euclidean chain, whose chi(m, n) checks m and n, and whose
      template check runs once per level;
    * sigma_{m,n} = t^{varpi_{m,n}} u with u(k) = k + m mod n, from
      ``omega_element``'s tuples, built unchecked and proved length zero
      by ``weyl._length_zero``; a no raises ``omega_element``'s error;
    * sigma^-1 = t^{(0^(n-m), (-1)^m)} u^-1 with u^-1(k) = k - m mod n;
    * the affine map of Ad(sigma_{m,n}): u's images with no signs and
      sigma's translation, which is ``Frobenius.affine_map`` for sigma0 =
      1; the length-zero proof is all that ``Frobenius`` would check;
    * the cycle texts of epsilon and of sigma_{m,n}, whose one cycle is
      1, 1 + m, 1 + 2m, ... mod n: every certificate prints both, and
      sigma's permutation starts every chain.

    sigma_{m,n} carries the GL_n datum that every element of a peel
    lives on. An invalid pair raises ParseError, which is not cached.

    >>> data = _twist_data(3, 8)
    >>> data.sigma, data.sigma_text
    (t[1,1,1,0,0,0,0,0]*cyc(1,4,7,2,5,8,3,6), '*cyc(1,4,7,2,5,8,3,6)')
    >>> data.sigma_inv
    t[0,0,0,0,0,-1,-1,-1]*cyc(1,6,3,8,5,2,7,4)
    """
    chain = euclid_chain(m, n)
    eps = _epsilon(m, n)
    datum = GroupDatum.gl(n)
    trans, images = _omega_tuples(datum, (m,))
    sigma = AffineElement._unchecked(datum, trans, Permutation._unchecked(images))
    if not _length_zero(sigma):
        raise InternalCheckFailed("omega element is not length zero")
    inverse = AffineElement._unchecked(
        datum, (0,) * (n - m) + (-1,) * m,
        Permutation._unchecked((*range(n - m + 1, n + 1), *range(1, n - m + 1))),
    )
    sigma_text = "*cyc(%s)" % ",".join([str(j * m % n + 1) for j in range(n)])
    return _TwistData(
        chain, eps, repr(eps), sigma, sigma_text, inverse,
        AffineMap(SignedMap(images, (1,) * n), trans),
    )


# --- the peeling construction ------------------------------------------------

class ChainStep(NamedTuple):
    """One step of a peel's chain with its elements and lengths, as
    ``PeelCertificate.chain`` derives it."""

    block: int
    kind: str  # "zeta" | "xi" | "final"
    cycle: tuple[int, int]
    cycle_conjugated: tuple[int, int]
    before: AffineElement
    after: AffineElement
    length_before: int
    length_after: int


class PeelCertificate(NamedTuple):
    """A peel's result. Its chain is stored as ``steps``, one (block,
    kind, cycle, cycle_conjugated) per step: from ``start``, each step
    multiplies on the right by the transposition cycle_conjugated, and
    the last reaches ``end``. The elements and lengths along the chain
    are derived where they are read, by one replay of the steps:
    ``to_json_dict`` prints them, and ``chain`` returns them as
    ``ChainStep`` records, built afresh on each read."""

    m: int
    n: int
    mu: tuple[int, ...]
    chi: tuple[int, ...]
    theta: tuple[int, ...]
    epsilon: Permutation
    breakpoints: tuple[int, ...]
    decomposition: tuple[Segment, ...]
    slopes: tuple[Fraction, ...]
    steps: tuple[tuple[int, str, tuple[int, int], tuple[int, int]], ...]
    start: AffineElement
    end: AffineElement

    def _replay(self):
        """(step, images, length before, length after) per step, where
        images is the running one-line list of the permutation after the
        step, valid until the next one. The start has the length of t^mu,
        the closed form (sigma has length zero and eps permutes mu), and
        each step adds its ``_transposition_delta``, in O(|c - d|)."""
        lam, images = self.start.trans, list(self.start.perm.images)
        length = _dominant_length(self.mu)
        for step in self.steps:
            c, d = step[3]
            after = length + _transposition_delta(lam, images, c, d)
            images[c - 1], images[d - 1] = images[d - 1], images[c - 1]
            yield step, images, length, after
            length = after

    @property
    def chain(self) -> tuple[ChainStep, ...]:
        """The chain's records, by the replay, in O(n) per step."""
        datum, lam = self.start.datum, self.start.trans
        out, before = [], self.start
        for step, images, length, after_length in self._replay():
            # two images swapped inside the one block of GL_n are still
            # a block-preserving permutation
            after = AffineElement._unchecked(datum, lam, Permutation._unchecked(tuple(images)))
            out.append(ChainStep(*step, before, after, length, after_length))
            before = after
        return tuple(out)

    def to_json_dict(self) -> dict:
        # every element of the chain shares the start's translation, whose
        # text is joined once; the start's permutation is sigma's, whose
        # text is kept per (m, n), and each step's after is one cycle walk
        twist = _twist_data(self.m, self.n)
        t = _translation_text(self.start.trans)
        start = before = t + twist.sigma_text
        chain = []
        for (block, kind, cycle, conjugated), images, length, after_length in self._replay():
            after = _element_text(t, images)
            chain.append({
                "block": block,
                "kind": kind,
                "cycle": list(cycle),
                "cycle_conjugated": list(conjugated),
                "before": before,
                "after": after,
                "length_before": length,
                "length_after": after_length,
                "verified": True,  # sharp_peel raises before recording an unverified step
            })
            before = after
        # the pieces tile 1..n and each shares one slope along its
        # positions, which is written once per piece
        slopes: list[str] = []
        for s in self.decomposition:
            slopes += [str(self.slopes[s.head - 1])] * s.size
        return {
            "schema": "bgmu/1",
            "m": self.m,
            "n": self.n,
            "mu": list(self.mu),
            "chi": list(self.chi),
            "theta": list(self.theta),
            "epsilon": twist.eps_text,
            "breakpoints": list(self.breakpoints),
            "decomposition": [
                {"head": s.head, "tail": s.tail, "values": list(s.values)}
                for s in self.decomposition
            ],
            "slopes": slopes,
            "chain": chain,
            "start": start,
            "end": before,
        }


def sharp_peel(mu: Sequence[int], m: int, n: int) -> PeelCertificate:
    """Peel theta = mu + chi_{m,n} block by block into a sharp
    decomposition, certifying each emitted transposition (conjugated by
    epsilon) as a strict Bruhat descent by one O(1) comparison on the
    chain's running images, which the certificate records as its steps;
    no element of the chain is built but its end, and no length is
    counted (``PeelCertificate`` derives them). The peel
    runs in level-0 coordinates: each piece is a range of positions of
    theta, split at the block ends ``ends0`` of the Euclidean chain, at
    the level that ``top`` gives; a step does two bisects and builds a
    ``Segment`` only for each piece it peels. The
    Euclidean chain, epsilon and sigma_{m,n} come from ``_twist_data``,
    built once per (m, n); mu is checked before them, so its errors come
    first.

    The slopes are checked piece by piece, not position by position:
    the pieces, with equal-slope neighbours merged, must be the runs of
    the upper convex hull of theta, as ``_hull`` gives them."""
    mu = tuple(mu)
    _check_ints((m, n), "(m, n) =")  # before _twist_data's cache, where 1.0 finds 1
    if len(mu) != n:
        raise ParseError(f"mu must have length {n}")
    _check_ints(mu)
    if any(map(lt, mu, mu[1:])):
        raise ParseError(f"mu {mu} is not dominant")
    twist = _twist_data(m, n)
    chain_data, eps, sigma = twist.chain, twist.eps, twist.sigma
    chi0 = chain_data.chis[0]
    theta = tuple(map(add, mu, chi0))
    breaks = [j for j in range(1, n) if mu[j - 1] != mu[j]]
    bounds = [0] + breaks + [n]
    # t^{eps(mu)} sigma by the product rule with u = 1: the translation
    # eps(mu) + sigma's, on sigma's permutation, valid as sigma is
    lam = tuple(map(add, eps.act(mu), sigma.trans))
    start = AffineElement._unchecked(sigma.datum, lam, sigma.perm)

    steps: list[tuple[int, str, tuple[int, int], tuple[int, int]]] = []
    decomposition: list[Segment] = []
    # the chain's element t^lam u, as u's images: a step w -> w (c d)
    # keeps lam, and u(c), u(d) trade places
    images = list(sigma.perm.images)

    def emit(block_i: int, kind: str, a: int, b: int) -> None:
        c, d = eps(a), eps(b)
        # (c d) is a reflection r, and wr < w iff l(wr) < l(w)
        if not _transposition_descends(lam, images, c, d):
            raise InternalCheckFailed(
                f"chain step {kind} cyc{(a, b)} is not a strict Bruhat descent"
                f" at {_element_text(_translation_text(lam), images)}"
            )
        images[c - 1], images[d - 1] = images[d - 1], images[c - 1]
        steps.append((block_i, kind, (a, b), (c, d)))

    def theta_seg(a: int, b: int) -> Segment:
        return Segment(a, theta[a - 1 : b])

    top, ends0, depth = chain_data.top, chain_data.ends0, chain_data.depth
    for i in range(1, len(bounds)):
        lo, hi = bounds[i - 1] + 1, bounds[i]
        zetas: list[Segment] = []
        xis: list[Segment] = []
        a, b = lo, hi
        while True:
            if not lo <= a <= b <= hi:
                raise InternalCheckFailed(f"segment [{a},{b}] is not aligned with block [{lo},{hi}]")
            # a level-h entry starts at a when one ends at a - 1, and the
            # tables nest, so the largest level at which a starts and b
            # ends an entry is the lower of their tops
            level = min(top[a - 1], top[b])
            if level == depth:  # case II: [a, b] is the last piece
                break
            # [a, b] lies in the level-one blocks p <= q of that level,
            # which end at outer[p] and outer[q]
            outer = ends0[level + 1]
            p, q = bisect_left(outer, a), bisect_left(outer, b)
            if p == q:  # case II, inside one level-one block
                break
            # case I: zeta is a's block from a on, unless a starts it, and
            # xi is b's block up to b, unless b ends it
            a_end, b_start = outer[p], outer[q - 1] + 1
            zeta, xi = a > (outer[p - 1] + 1 if p else 1), b < outer[q]
            next_a, next_b = (a_end + 1 if zeta else a), (b_start - 1 if xi else b)
            if next_a > next_b:
                # both partial blocks meet: peel only the head piece and
                # keep the rest as the next gamma (it is then case II)
                xi, next_a, next_b = False, b_start, b
            if zeta:
                emit(i, "zeta", n, a_end)
                zetas.append(theta_seg(a, a_end))
            if xi:
                emit(i, "xi", b_start - 1, b)
                xis.append(theta_seg(b_start, b))
            a, b = next_a, next_b
        if b != n:
            emit(i, "final", b, n)
        gamma_final = theta_seg(a, b)
        block_pieces = zetas + [gamma_final] + list(reversed(xis))
        pos = lo
        for s in block_pieces:
            if s.head != pos:
                raise InternalCheckFailed("decomposition pieces are not contiguous")
            pos = s.tail + 1
        if pos != hi + 1:
            raise InternalCheckFailed("decomposition does not cover the block")
        decomposition.extend(block_pieces)

    # equal-slope neighbours of the decomposition merge into one hull run
    runs: list[tuple[int, int]] = []
    slope_list: list[Fraction] = []
    for s in decomposition:
        slope_list += [s.average] * s.size
        if runs and runs[-1][1] * s.size == s.total * runs[-1][0]:
            width, rise = runs.pop()
            runs.append((width + s.size, rise + s.total))
        else:
            runs.append((s.size, s.total))
    slopes = tuple(slope_list)
    if runs != _hull(theta):
        raise InternalCheckFailed(
            f"peeled decomposition slopes {_vec_str(slopes)} differ from hull"
            f" {_vec_str(polygon(theta).slopes)}"
        )
    # the running images differ from sigma's by swaps inside its one
    # block, so the end is built unchecked, once
    end = AffineElement._unchecked(sigma.datum, lam, Permutation._unchecked(tuple(images)))
    return PeelCertificate(
        m, n, mu, chi0, theta, eps, tuple(breaks),
        tuple(decomposition), slopes, tuple(steps), start, end,
    )


class SuperbasicWitness(NamedTuple):
    nu: NewtonPoint
    w: AffineElement
    x: Permutation
    certificate: PeelCertificate


def superbasic_witness(mu: Sequence[int], m: int, n: int) -> SuperbasicWitness:
    """Admissible witness for the twist Ad(sigma_{m,n}): an element
    w < t^{eps(mu)} (equality only for central mu) whose Newton point
    is the hull slope sequence of mu + chi_{m,n}.

    The strict chain from t^{eps(mu)} sigma, followed by right
    multiplication with the length-zero sigma^{-1}, proves
    w < t^{eps(mu)} whenever the chain is not empty. That the slopes
    are the maximal point is checked by ``solve``, not here.

    The Newton point of w is compared with the slopes in integers: the
    kernel's blockwise sorted lam over the order k against one integer
    list, each piece's total times k over its size, repeated along the
    piece. Once they agree, the certificate's slopes are the point.

    sigma_{m,n}^{-1} and the affine map of Ad(sigma_{m,n}) come from
    ``_twist_data``, as do the chain, epsilon and sigma_{m,n} that
    ``sharp_peel`` reads: all of them are built and checked once per
    (m, n) per process, and read here after ``sharp_peel`` has checked
    mu."""
    cert = sharp_peel(mu, m, n)
    twist = _twist_data(m, n)
    w = cert.end * twist.sigma_inv
    part = _linear_part(w.perm.images, twist.affine_map)
    _, bar = _newton_kernel(part, w.trans, w.datum.block_slices())
    k = part.order
    expected: list[int] = []
    for s in cert.decomposition:
        q, r = divmod(s.total * k, s.size)
        if r:  # no entry of bar over k makes this slope: the lists differ
            break
        expected += [q] * s.size
    if bar != expected:
        raise InternalCheckFailed(
            f"witness Newton point {_vec_str(Fraction(x, k) for x in bar)} is not"
            f" the hull slope sequence {_vec_str(cert.slopes)}"
        )
    # the slopes are Fractions that decrease, as the hull's do, and they
    # have just been read off w: the point is built unchecked
    point = NewtonPoint._unchecked(w.datum, cert.slopes, kappa(w))
    return SuperbasicWitness(point, w, cert.epsilon, cert)
