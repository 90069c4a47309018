"""Shared brute-force oracles, reference implementations that only the
tests use, the acceptance report hook, and ``_fresh_stages``, which
empties the reduction's stage cache, the CLI's parsed twists and the
interned twists around a test that patches the package.

The oracles here deliberately avoid the library's fast paths: lengths
come from Cayley-graph breadth-first search, Bruhat order from subword
products, Newton points from alternating affine applications with the
linear part tracked on a basis, or from the k-fold iteration of the
affine map of w o sigma, and the admissible set from the lower Bruhat
intervals of the t^{x(mu)} rather than the vertexwise criterion.

The references below are what the tests compare the solver against;
nothing in the package calls them:

* lengths: ``im_length``, the O(n^2) Iwahori-Matsumoto count that
  ``AffineElement.length``'s window formula is tested against;
* group arithmetic: ``num_inversions``, ``apply_affine`` (the affine
  action on the ambient space), ``element_power``,
  ``orbit_spread_reference``, a product split's pieces moved round
  their orbit by repeated sigma0, and ``from_cycles_reference``, a
  product of cycles as one checked permutation per cycle;
* the text form: ``format_element_reference`` and
  ``permutation_repr_reference``, built on ``Permutation.cycles``;
* reduced words and the Bruhat order: ``simple_reflections``,
  ``ReducedWord``, ``reduced_word`` (the greedy left-descent word, one
  letter per step of ``weyl._walk`` on the window), ``bruhat_lt`` and
  ``bruhat_lower_set``, the subword products that define Adm(mu);
* the candidates of the acceptable set: ``candidates_reference``, the
  enumeration's first formulation, with ``knot_rises_reference``;
* the maximal point: ``orbit_bounds_reference`` and
  ``maximal_state_reference``, the bound table and the maximal point
  with its checks as first built, per node and in fractions;
* acceptable points: ``adjoint_leq``, ``nu_reference``, and the
  integrality criterion ``newton_criterion`` with its witness
  ``newton_witness`` (``_defect_heights``, ``coroot_vector``);
* the hull and the heights in fractions: ``polygon_reference``, the
  greedy longest-prefix search, and ``heights_reference``;
* the Euclidean recursion: ``reading_sequence``, ``a_sequence_less``
  and ``expand``, and ``level_decompose_reference``, the grading of a
  segment by a scan of every level, as a ``LevelSplit``;
* the peel's chain built eagerly: ``eager_peel_chain``, each step's
  elements by a checked product and its lengths by ``im_length``;
* the admissible set and its Newton points: ``adm_reference``,
  ``reference_attained`` and ``reference_brute_force``,
  ``brute_keys_reference``, the brute force's keying one element at a
  time, with ``same_keys``, and ``grow_block_adm_reference``, the
  table's search for one block shape run once per lattice point;
* the byte-identity gate: ``twisted_draw``, the fixed-seed problem
  draw, ``pinned_twisted_problems``, a fixed list of twisted problems,
  and ``outcome_line``, the canonical line of one outcome.
"""

import itertools
import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import NamedTuple

import pytest

from bgmu.acceptable import (
    MaximalSolverState,
    PolygonData,
    _conjugate,
    _distinct_permutations,
    _hull_sums,
    _in_hull,
    support_nodes,
)
from bgmu.cli import _parse_sigma, _twist_header
from bgmu.errors import BgmuError, DimensionMismatch, GuardExceeded, InternalCheckFailed, ParseError
from bgmu.newton import (
    Frobenius,
    LinearPart,
    Sigma0,
    SignedMap,
    _newton_kernel,
    _vec_str,
    dominant_rep,
    heights,
    kappa,
    newton_point,
    simple_nodes,
)
from bgmu.reduction import SolveResult, _stage, step_json
from bgmu.superbasic import (
    ChainStep,
    Segment,
    SuperbasicWitness,
    _epsilon,
    euclid_chain,
    superbasic_element,
)
from bgmu.weyl import (
    AffineElement,
    GroupDatum,
    Permutation,
    _from_window,
    _product,
    _walk,
    _window,
    bruhat_leq,
    format_element,
    omega_element,
)


# --- lengths ------------------------------------------------------------------

def im_length(w: AffineElement) -> int:
    """The Iwahori-Matsumoto count, summed over blocks: for positions
    i < j of one block of t^lam u, |lam_i - lam_j| when u^-1(i) <
    u^-1(j), else |lam_i - lam_j - 1|."""
    lam, inv = w.trans, w.perm.inverse().images
    total = 0
    for lo, hi in w.datum.block_ranges():
        for i in range(lo - 1, hi):
            for j in range(i + 1, hi):
                d = lam[i] - lam[j]
                total += abs(d) if inv[i] < inv[j] else abs(d - 1)
    return total


# --- group arithmetic ---------------------------------------------------------

def num_inversions(perm: Permutation) -> int:
    im = perm.images
    return sum(
        1 for i in range(len(im)) for j in range(i + 1, len(im)) if im[i] > im[j]
    )


def apply_affine(w: AffineElement, vec) -> tuple:
    """Affine action on the ambient vector space: u(v) + trans."""
    if len(vec) != w.datum.n:
        raise DimensionMismatch("vector has wrong length")
    acted = w.perm.act(vec)
    return tuple(x + t for x, t in zip(acted, w.trans))


def element_power(w: AffineElement, k: int) -> AffineElement:
    if k < 0:
        return element_power(w.inverse(), -k)
    result = AffineElement.identity(w.datum)
    base = w
    while k:
        if k & 1:
            result = result * base
        base = base * base
        k >>= 1
    return result


def orbit_spread_reference(sigma0: Sigma0, pieces) -> AffineElement:
    """The product of sigma0^{i+1}(piece_i) over the pieces of a
    product split on the one orbit of sigma0, piece_{m-1} left as it
    is: each piece, an element of the orbit's last block, is put on
    that block and moved forwards round the orbit by i + 1 repeated
    applications of sigma0."""
    datum = sigma0.datum
    lo, hi = datum.block_ranges()[sigma0.block_orbits[0][-1]]
    m = len(pieces)
    result = AffineElement.identity(datum)
    for i, piece in enumerate(pieces):
        trans = [0] * datum.n
        trans[lo - 1 : hi] = piece.trans
        images = list(range(1, datum.n + 1))
        images[lo - 1 : hi] = [lo - 1 + j for j in piece.perm.images]
        moved = AffineElement(datum, trans, Permutation(images))
        for _ in range(i + 1 if i < m - 1 else 0):
            moved = sigma0.apply_element(moved)
        result = result * moved
    return result


def from_cycles_reference(n: int, cycles) -> Permutation:
    """``Permutation.from_cycles`` as first written: per cycle, one
    n-length permutation that maps each index to the next, checked by
    ``Permutation``, multiplied onto the product left to right. An index
    past n raises IndexError, and 0 or a negative index writes from the
    end of the list."""
    result = Permutation.identity(n)
    for cyc in cycles:
        images = list(range(1, n + 1))
        for a, b in zip(cyc, cyc[1:]):
            images[a - 1] = b
        if len(cyc) > 1:
            images[cyc[-1] - 1] = cyc[0]
        result = result * Permutation(images)
    return result


def permutation_repr_reference(perm: Permutation) -> str:
    """``repr`` of a permutation through its cycle list."""
    cycs = perm.cycles()
    return "".join("cyc(%s)" % ",".join(map(str, c)) for c in cycs) or "id"


def format_element_reference(w: AffineElement) -> str:
    """The canonical literal through ``Permutation.cycles``."""
    t = "t[%s]" % ",".join(str(x) for x in w.trans)
    return t + "".join("*cyc(%s)" % ",".join(map(str, c)) for c in w.perm.cycles())


# --- simple reflections, reduced words, Bruhat order ---------------------------

@lru_cache(maxsize=None)
def simple_reflections(datum: GroupDatum):
    """Affine simple reflections per block, in (block, node) order.

    Node 0 of a block of size n is t^{e_lo - e_hi} (lo hi); nodes
    1..n-1 are the adjacent transpositions. Size-1 blocks contribute
    nothing.
    """
    out = []
    for b, (lo, hi) in enumerate(datum.block_ranges()):
        nb = hi - lo + 1
        if nb < 2:
            continue
        trans = [0] * datum.n
        trans[lo - 1], trans[hi - 1] = 1, -1
        out.append(
            ((b, 0), AffineElement(datum, trans, Permutation.from_cycles(datum.n, [(lo, hi)])))
        )
        for i in range(1, nb):
            p = lo + i - 1
            out.append(
                ((b, i), AffineElement.from_permutation(datum, Permutation.from_cycles(datum.n, [(p, p + 1)])))
            )
    return tuple(out)


@dataclass(frozen=True)
class ReducedWord:
    """Greedy left-descent factorization: w = letters * omega."""

    datum: GroupDatum
    letters: tuple
    omega: AffineElement

    def product(self) -> AffineElement:
        table = dict(simple_reflections(self.datum))
        acc = AffineElement.identity(self.datum)
        for letter in self.letters:
            acc = acc * table[letter]
        return acc * self.omega

    def __len__(self) -> int:
        return len(self.letters)


def reduced_word(w: AffineElement) -> ReducedWord:
    g = _window(w)
    letters = tuple(node[0] for node, _ in _walk(w.datum, g))
    omega = _from_window(w.datum, g)
    if omega.length() != 0:
        raise InternalCheckFailed(f"descent search stalled at {omega!r}")
    return ReducedWord(w.datum, letters, omega)


def bruhat_lt(w1: AffineElement, w2: AffineElement) -> bool:
    return w1 != w2 and bruhat_leq(w1, w2)


def bruhat_lower_set(*tops: AffineElement) -> frozenset:
    """All elements u <= w for some w in tops: the subword products of
    one reduced word per top. The products run on plain (trans, images)
    tuples, and each distinct element of the union is validated once,
    as it is built. Over the orbit of mu this is Adm(mu) by definition:
    the reference the vertexwise ``adm_enumerate`` is tested against."""
    datum = tops[0].datum
    if any(w.datum != datum for w in tops):
        raise DimensionMismatch("different group data")
    table = dict(simple_reflections(datum))
    identity = ((0,) * datum.n, tuple(range(1, datum.n + 1)))
    raw = set()
    for w in tops:
        rw = reduced_word(w)
        elems = {identity}
        for letter in rw.letters:
            s = table[letter]
            st, sp = s.trans, s.perm.images
            elems |= {_product(t, p, st, sp) for t, p in elems}
        ot, op = rw.omega.trans, rw.omega.perm.images
        raw |= {_product(t, p, ot, op) for t, p in elems}
    return frozenset(AffineElement(datum, t, Permutation(p)) for t, p in raw)


# --- the hull and the heights in fractions --------------------------------------

def polygon_reference(eta) -> PolygonData:
    """Greedy sharp decomposition: repeatedly take the longest prefix
    of maximal average, all in fractions. The block averages, repeated
    blockwise, form the weakly decreasing slope sequence of the hull."""
    rest = list(eta)
    x = 0
    y = Fraction(0)
    vertices = [(x, y)]
    slopes = []
    while rest:
        best_k, best_av, acc = 1, Fraction(rest[0]), 0
        for k in range(1, len(rest) + 1):
            acc += rest[k - 1]
            av = Fraction(acc, k)
            if av >= best_av:
                best_av, best_k = av, k
        slopes.extend([best_av] * best_k)
        x += best_k
        y += best_av * best_k
        vertices.append((x, y))
        rest = rest[best_k:]
    return PolygonData(tuple(vertices), tuple(slopes))


def heights_reference(datum: GroupDatum, vec) -> dict:
    """<omega_i, v> per node in fractions: the running sum of the first
    i entries of the block minus (i/n_b) times the block total."""
    out = {}
    for b, s in enumerate(datum.block_slices()):
        part = vec[s]
        nb = len(part)
        total = Fraction(sum(part))
        head = Fraction(0)
        for i in range(1, nb):
            head += part[i - 1]
            out[(b, i)] = head - Fraction(i, nb) * total
    return out


# --- the candidates of the acceptable set ----------------------------------------

def knot_rises_reference(datum: GroupDatum, prescribed: dict, sums) -> list:
    """Per block, (width, rise) between consecutive knots of the running
    sums: (0, 0), then (i, h_i + (i/n_b) s_b) at each node (b, i) with a
    prescribed centered height h_i, then (n_b, s_b); numerators over the
    bound table's denominator, in which n_b divides i s_b."""
    out = []
    for b, nb in enumerate(datum.blocks):
        total = sums[b]
        knots = [(0, 0)]
        knots += [(i, prescribed[b, i] + i * total // nb) for i in range(1, nb) if (b, i) in prescribed]
        knots.append((nb, total))
        out.append([(i1 - i0, p1 - p0) for (i0, p0), (i1, p1) in zip(knots, knots[1:])])
    return out


def candidates_reference(datum: GroupDatum, bounds, m: int) -> list:
    """The candidates of ``acceptable._candidates``, built as the
    enumeration once built them: per choice of the orbits' heights, a
    dict of the prescribed nodes, every block's knot runs, then one test
    that the slopes strictly decrease in every block."""
    den, _, sums, table = bounds
    node_at = {datum.offsets()[b] + i - 1: (b, i) for b, i in simple_nodes(datum)}
    options = [[None, *((rep + j * den) // len(orbit) for j in offsets)]
               for orbit, rep, offsets in table]
    found = []
    for combo in itertools.product(*options):
        prescribed = {node_at[p]: q for (orbit, _, _), q in zip(table, combo) if q is not None
                      for p in orbit}
        blocks = knot_rises_reference(datum, prescribed, sums)
        if all(r0 * w1 > r1 * w0 for runs in blocks for (w0, r0), (w1, r1) in zip(runs, runs[1:])):
            found.append(tuple(r * (m // w) for runs in blocks for w, r in runs for _ in range(w)))
    return found


# --- the maximal point in fractions -----------------------------------------------

def orbit_bounds_reference(mu, frob: Frobenius) -> tuple:
    """The bound table of ``acceptable._orbit_bounds`` as it was first
    built, in fractions and per node: the heights of mu_diamond as a
    dict, the block sums of mu_diamond + lam_diamond, and per
    ``node_orbits`` orbit c (c, rep, offsets), rep = <omega_c,
    mu_diamond + lam_diamond> summed over the orbit's nodes and rep + j,
    j in offsets, the coset in [0, <omega_c, mu_diamond>]. The averages
    come from ``orbit_average``."""
    datum, sigma0 = frob.datum, frob.sigma0
    mu_dia = orbit_average(mu, sigma0)
    both = tuple(map(sum, zip(mu_dia, orbit_average(frob.lam, sigma0))))
    h_mu, h_both = heights_reference(datum, mu_dia), heights_reference(datum, both)
    table = []
    for orbit in sigma0.node_orbits:
        rep = sum(h_both[nd] for nd in orbit)
        upper = sum(h_mu[nd] for nd in orbit)
        table.append((orbit, rep, range(-(rep // 1), (upper - rep) // 1 + 1)))
    return h_mu, datum.block_sums(both), tuple(table)


def maximal_state_reference(frob: Frobenius, bounds) -> MaximalSolverState:
    """The maximal point on ``orbit_bounds_reference``'s table with the
    checks ``acceptable._maximal_state`` first ran, in fractions: the
    tent of every orbit at the top of its range, per block the hull of
    the knots (0, 0), (i, tent + (i/n_b) s_b) and (n_b, s_b) by
    ``polygon_reference``, then sigma0-invariance, the bound by
    mu_diamond, the tents and the integrality criterion on the support
    (``support_nodes``)."""
    datum = frob.datum
    h_mu, sums, table = bounds
    targets = {nd: Fraction(rep + offsets[-1] if offsets else 0, len(orbit))
               for orbit, rep, offsets in table for nd in orbit}
    nu = []
    for b, (nb, total) in enumerate(zip(datum.blocks, sums)):
        knots = [0, *(targets[b, i] + Fraction(i, nb) * total for i in range(1, nb)), total]
        nu += polygon_reference([y1 - y0 for y0, y1 in zip(knots, knots[1:])]).slopes
    nu = tuple(nu)
    active = support_nodes(datum, nu)
    h = heights_reference(datum, nu)
    if not frob.sigma0.is_invariant(nu):
        raise InternalCheckFailed("maximal point is not sigma0-invariant")
    if any(h[nd] > h_mu[nd] for nd in h):
        raise InternalCheckFailed("maximal point exceeds mu_diamond")
    if any(h[nd] < t for nd, t in targets.items()):
        raise InternalCheckFailed("maximal point drops below a tent")
    if any(orbit[0] in active and (rep - sum(h[nd] for nd in orbit)).denominator != 1
           for orbit, rep, _ in table):
        raise InternalCheckFailed("maximal point fails the integrality criterion")
    return MaximalSolverState(datum, targets, active, nu)


# --- acceptable points: the integrality criterion and its witness --------------

def adjoint_leq(datum: GroupDatum, v, w) -> bool:
    """v <= w modulo block centers: all fundamental pairings compare."""
    hw = heights(datum, w)
    return all(h <= hw[nd] for nd, h in heights(datum, v).items())


def nu_reference(mu, frob: Frobenius):
    """Newton vector of t^mu itself; every w in t^mu W_a has a Newton
    vector with the same per-block coordinate sums, namely those of
    mu_diamond + lam_diamond."""
    return newton_point(AffineElement.translation(frob.datum, mu), frob).nu


def coroot_vector(datum: GroupDatum, node) -> tuple:
    b, i = node
    lo, _ = datum.block_ranges()[b]
    out = [0] * datum.n
    out[lo - 1 + i - 1] = 1
    out[lo - 1 + i] = -1
    return tuple(out)


def _defect_heights(v, mu, frob: Frobenius) -> dict:
    """Heights <omega_i, mu_diamond + lam_diamond - v> of a dominant,
    sigma0-invariant v with the central coordinates of the coset."""
    datum = frob.datum
    if not datum.is_dominant(v):
        raise ValueError("v must be dominant per block")
    if not frob.sigma0.is_invariant(v):
        raise ValueError("v must be sigma0-invariant")
    both = tuple(map(sum, zip(orbit_average(mu, frob.sigma0), orbit_average(frob.lam, frob.sigma0))))
    if datum.block_sums(v) != datum.block_sums(both):
        raise ValueError(
            f"central coordinates {_vec_str(datum.block_sums(v))} do not match"
            f" the coset profile {_vec_str(datum.block_sums(both))}"
        )
    return heights(datum, tuple(a - c for a, c in zip(both, v)))


def _integral_on(frob: Frobenius, support: frozenset, h: dict) -> bool:
    """Whether every orbit pairing sum_{i in c} h_i is an integer on the
    sigma0-orbits c of simple roots inside the support."""
    return all(
        sum(h[nd] for nd in orbit).denominator == 1
        for orbit in frob.sigma0.node_orbits
        if orbit[0] in support
    )


def newton_criterion(v, mu, frob: Frobenius) -> bool:
    """Whether v occurs as the Newton vector of some w in t^mu W_a."""
    v = tuple(Fraction(x) for x in v)
    return _integral_on(frob, support_nodes(frob.datum, v), _defect_heights(v, mu, frob))


def newton_witness(v, mu, frob: Frobenius) -> AffineElement:
    """Construct w = t^beta x tau^{-1} in t^mu W_a with Newton vector v.

    x is the twisted Coxeter element of the stabilizer of v (one
    representative per sigma0-orbit of J(v), ascending), and beta
    subtracts the integrality defects along one coroot per orbit of
    I(v). The result is checked against the Newton map before return.
    """
    datum = frob.datum
    v = tuple(Fraction(x) for x in v)
    defect = _defect_heights(v, mu, frob)
    I = support_nodes(datum, v)
    if not _integral_on(frob, I, defect):
        raise ValueError(f"{_vec_str(v)} fails the integrality criterion")
    beta = [a + b for a, b in zip(mu, frob.lam)]
    for orbit in frob.sigma0.node_orbits:
        if orbit[0] not in I:
            continue
        a_c = int(sum(defect[nd] for nd in orbit))
        cor = coroot_vector(datum, min(orbit))
        beta = [x - a_c * y for x, y in zip(beta, cor)]
    x = Permutation.identity(datum.n)
    for orbit in frob.sigma0.node_orbits:
        if orbit[0] in I:
            continue
        b, i = min(orbit)
        lo, _ = datum.block_ranges()[b]
        p = lo - 1 + i
        x = x * Permutation.from_cycles(datum.n, [(p, p + 1)])
    w = (
        AffineElement.translation(datum, beta)
        * AffineElement.from_permutation(datum, x)
        * frob.tau.inverse()
    )
    got = newton_point(w, frob)
    got_bar = tuple(a + b for a, b in zip(got.nu_bar.nu, frob.shift))
    if got_bar != v:  # v is dominant, so it is its own representative
        raise InternalCheckFailed(
            f"witness Newton vector {_vec_str(got.nu)} does not match target {_vec_str(v)}"
        )
    if kappa(w) != kappa(AffineElement.translation(datum, mu)):
        raise InternalCheckFailed("witness leaves the translation coset")
    return w


# --- the Euclidean recursion --------------------------------------------------

def reading_sequence(chi_vals, j: int) -> tuple:
    """a^j(k) = chi(j - k) over one full period, indices mod n."""
    r = len(chi_vals)
    return tuple(chi_vals[(j - k - 1) % r] for k in range(r))


def a_sequence_less(chi_vals, i: int, j: int) -> bool:
    """Strict lexicographic comparison a^i < a^j."""
    return reading_sequence(chi_vals, i) < reading_sequence(chi_vals, j)


def expand(chain, level: int, values) -> tuple:
    """Apply the template maps of an ``EuclideanChain`` from the given
    level all the way down to level 0 (phi applied deepest-first)."""
    out = tuple(values)
    for h in range(level - 1, -1, -1):
        one, zero = chain.templates[h]
        out = tuple(
            x for v in out for x in (one if v == 1 else zero)
        )
    return out


class LevelSplit(NamedTuple):
    """The grading of a subsegment [a, b] of chi by the recursion."""

    level: int
    iota: Segment
    inside_elementary: bool


def level_decompose_reference(chain, gamma) -> LevelSplit:
    """The maximal level h at which the positions gamma = (a, b) are the
    image of a subsegment iota of chi at level h, and whether iota sits
    inside one elementary block, by a scan of the levels from the top,
    two bisects each: the first level at which a starts an entry (a is 1,
    or a - 1 ends one) and b ends one. A segment off positions 1..n is a
    ParseError."""
    a, b = gamma
    if not (1 <= a <= b <= chain.n):
        raise ParseError(f"segment [{a},{b}] is not aligned with positions 1..{chain.n}")
    for level in range(chain.depth, -1, -1):
        ends = chain.ends0[level]
        i1, j1 = bisect_left(ends, a) + 1, bisect_right(ends, b)
        if (a == 1 or (i1 > 1 and ends[i1 - 2] == a - 1)) and j1 and ends[j1 - 1] == b:
            break
    iota = Segment(i1, chain.chis[level][i1 - 1 : j1])
    inside = level == chain.depth or (
        bisect_left(chain.ends0[level + 1], a) == bisect_left(chain.ends0[level + 1], b)
    )
    return LevelSplit(level, iota, inside)


def eager_peel_chain(mu, m: int, n: int) -> tuple:
    """The chain of ``sharp_peel(mu, m, n)`` built eagerly, one
    ``ChainStep`` per step: the same transpositions, chosen by the same
    peel of each block of mu with ``level_decompose_reference``, the
    after element the checked product of the before one with the
    transposition, and both lengths counted by ``im_length``. The pieces
    themselves are not built: only their ends choose the steps."""
    chain = euclid_chain(m, n)
    eps, sigma = _epsilon(m, n), superbasic_element(m, n)
    datum = sigma.datum
    current = AffineElement.translation(datum, eps.act(mu)) * sigma
    steps = []

    def emit(block_i, kind, a, b):
        nonlocal current
        c, d = eps(a), eps(b)
        nxt = current * AffineElement.from_permutation(datum, Permutation.from_cycles(n, [(c, d)]))
        steps.append(ChainStep(block_i, kind, (a, b), (c, d), current, nxt,
                               im_length(current), im_length(nxt)))
        current = nxt

    bounds = [0] + [j for j in range(1, n) if mu[j - 1] != mu[j]] + [n]
    for i in range(1, len(bounds)):
        cur = (bounds[i - 1] + 1, bounds[i])
        while not (split := level_decompose_reference(chain, cur)).inside_elementary:
            # zeta runs from a to the end of a's block, unless a starts
            # it; xi from the start of b's block to b, unless b ends it
            a, b = cur
            outer = chain.ends0[split.level + 1]
            p, q = bisect_left(outer, a), bisect_left(outer, b)
            a_start, b_start = (outer[p - 1] + 1 if p else 1), outer[q - 1] + 1
            zeta, xi = a > a_start, b < outer[q]
            cur = (outer[p] + 1 if zeta else a, b_start - 1 if xi else b)
            if cur[0] > cur[1]:
                xi, cur = False, (b_start, b)
            if zeta:
                emit(i, "zeta", n, outer[p])
            if xi:
                emit(i, "xi", b_start - 1, b)
        if cur[1] != n:
            emit(i, "final", cur[1], n)
    return tuple(steps)


# --- brute-force oracles ---------------------------------------------------------

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
        return apply_affine(w, apply_affine(tau, sigma0.apply_vector(v)))

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


def _reference_adm(mu, frob: Frobenius):
    """By the slow paths: the orbit points of mu, descending
    lexicographically, their lower intervals (subword products), whose
    union is Adm(mu), and ``attained``, each raw Newton point of Adm(mu)
    (k-fold iteration) with its first element in (length, trans,
    images) order."""
    datum = frob.datum
    points = orbit_points(datum, mu)
    lower = [bruhat_lower_set(AffineElement.translation(datum, p)) for p in points]
    zero = frob.with_shift((Fraction(0),) * datum.n)
    attained = {}
    for w in _by_length(set().union(*lower)):
        attained.setdefault(iterated_newton(w, zero)[3], w)
    return points, lower, attained


def reference_attained(mu, frob: Frobenius) -> set:
    """The raw Newton points of Adm(mu), by the slow paths
    (``_reference_adm``)."""
    return set(_reference_adm(mu, frob)[2])


def reference_brute_force(mu, frob: Frobenius):
    """(nu_raw, w, x) of the brute force by the slow paths
    (``_reference_adm``): the maximum of the Newton points of Adm(mu),
    the first element attaining it as its witness, and x from the first
    orbit point whose interval holds the witness."""
    datum = frob.datum
    points, lower, attained = _reference_adm(mu, frob)
    maxima = [p for p in attained if all(adjoint_leq(datum, q, p) for q in attained)]
    assert len(maxima) == 1, maxima
    w = attained[maxima[0]]
    point = next(p for p, low in zip(points, lower) if w in low)
    return maxima[0], w, dominant_rep(datum, point)[1].inverse()


def grow_block_adm_reference(mu, limit=None):
    """``acceptable._grow_block_adm`` as first built: u is grown one
    position at a time separately for each lattice point lam, a vertex
    is looked up in a set of tuples, and each (lam, u) leaf is compared
    with the conjugates whose first image ties with its own, the
    conjugate's translation built only when its images equal u's."""
    n = len(mu)
    whole = ((1, n),)
    sums = _hull_sums(mu)
    lams = [lam for dom in itertools.combinations_with_replacement(range(max(mu), min(mu) - 1, -1), n)
            if sum(dom) == sums[-1] and _in_hull(dom, sums)
            for lam in _distinct_permutations(dom)]
    points = set(lams)
    groups, found = [], []
    images, used = [0] * n, [False] * n
    size = 0

    def leaf(lam):
        nonlocal size
        u, first = tuple(images), images[0] - 1
        orbit = n
        for k in range(1, n):
            if (u[n - k] + k - 1) % n == first:
                v = tuple([(x + k - 1) % n + 1 for x in u[n - k:] + u[:n - k]])
                if v < u:
                    return
                if v == u:
                    t = _conjugate((lam, u), ((0, k),), whole)[0]
                    if t < lam:
                        return
                    if t == lam:
                        orbit = k
                        break
        found.append(u)
        size += orbit
        if limit is not None and size > limit:
            raise GuardExceeded(f"admissible set too large: more than {limit}")

    def grow(lam, vec, k):
        if k == n:
            leaf(lam)
            return
        first = images[0] - 1
        vec[k] -= 1
        for j in range(n):
            if used[j] or (k and (j - k) % n < first):
                continue
            vec[j] += 1
            if k + 1 == n or tuple(vec) in points:  # omega_n's vertex is lam itself
                used[j], images[k] = True, j + 1
                grow(lam, vec, k + 1)
                used[j] = False
            vec[j] -= 1
        vec[k] += 1

    for lam in lams:
        grow(lam, list(lam), 0)
        if found:
            groups.append((lam, tuple(found)))
            found.clear()
    return tuple(groups), size


def _linear_part_reference(images, twist) -> LinearPart:
    """The linear part of t^trans u under the twist's affine map, read
    off the ``SignedMap`` of u o A and its ``cycles``."""
    tpos, tsign = twist.linear
    lin = SignedMap(tuple([images[p - 1] for p in tpos]), tsign)
    moved = [0] * len(tpos)
    for j, b in zip(images, twist.shift):
        moved[j - 1] += b
    cycles = lin.cycles()
    order = lcm(*(len(c) if s == 1 else 2 * len(c) for c, s in cycles))
    return LinearPart(order, lin.sign, tuple(c for c, s in cycles if s == 1), moved)


def brute_keys_reference(raw, twist, slices) -> dict:
    """The brute force's keys one element at a time: the kernel's
    blockwise sorted lam and the order k, divided by their gcd, with the
    linear part built once per distinct permutation."""
    parts, keyed = {}, {}
    for trans, images in raw:
        if images not in parts:
            parts[images] = _linear_part_reference(images, twist)
        part = parts[images]
        _, bar = _newton_kernel(part, trans, slices)
        g = gcd(part.order, *bar)
        key = part.order // g, tuple([x // g for x in bar])
        keyed.setdefault(key, []).append((trans, images))
    return keyed


def same_keys(keyed, reference) -> bool:
    """Two keyings agree: the same keys, each with the same members."""
    return keyed.keys() == reference.keys() and all(
        sorted(keyed[key]) == sorted(members) for key, members in reference.items()
    )


def dominant_coweights(n: int, max_entry: int):
    """All weakly decreasing vectors with entries in 0..max_entry."""
    return list(
        itertools.combinations_with_replacement(range(max_entry, -1, -1), n)
    )


# --- the byte-identity gate -----------------------------------------------------

def twisted_draw(rng):
    """One problem of the fixed-seed twisted draw: 1-3 equal blocks of
    size 1-3, each GL or PGL, a random block permutation with random
    flips, omega kappas in -2..3 and mu entries in 0..2, sorted per
    block."""
    r, nb = rng.randint(1, 3), rng.randint(1, 3)
    datum = GroupDatum((nb,) * r, tuple(rng.random() < 0.5 for _ in range(r)))
    block_to = list(range(r))
    rng.shuffle(block_to)
    flips = tuple(rng.random() < 0.5 for _ in range(r))
    kappas = [rng.randint(-2, 3) for _ in range(r)]
    frob = Frobenius(omega_element(datum, kappas), Sigma0(datum, tuple(block_to), flips))
    mu = tuple(
        x for _ in range(r)
        for x in sorted((rng.randint(0, 2) for _ in range(nb)), reverse=True)
    )
    return mu, frob


def pinned_twisted_problems():
    """Block rotations and fixed blocks, every flip pattern, GL and PGL
    blocks, three twist kappas, two dominant mu each, and the canonical
    shift on every other problem: 180 problems."""
    cases = [
        ((2, 2), (False, True), (1, 0), ((1, 0, 2, 0), (3, 1, 1, 0))),
        ((3, 3), (False, False), (1, 0), ((2, 1, 0, 1, 0, 0), (3, 3, 0, 2, 1, 1))),
        ((2, 2, 1), (True, False, False), (1, 0, 2), ((2, 0, 1, 1, 3), (3, 0, 2, -1, 0))),
        ((2, 2, 2), (False, False, True), (1, 2, 0), ((1, 0, 1, 0, 2, 1), (3, 0, 0, 0, 1, -1))),
        ((4,), (True,), (0,), ((3, 2, 0, 0), (2, 2, 1, -1))),
        ((3, 1), (False, False), (0, 1), ((3, 1, 0, 2), (1, 1, -1, 0))),
    ]
    count = 0
    for blocks, adjoint, block_to, mus in cases:
        datum = GroupDatum(blocks, adjoint)
        for flips in itertools.product((False, True), repeat=len(blocks)):
            for k in (-1, 1, 2):
                kappas = (k,) + (1,) * (len(blocks) - 1)
                frob = Frobenius(omega_element(datum, kappas), Sigma0(datum, block_to, flips))
                for mu in mus:
                    count += 1
                    yield mu, frob.with_shift(frob.canonical_shift()) if count % 2 else frob


def outcome_line(run, *args) -> str:
    """The canonical line of one problem's outcome, run(*args) with run
    ``solve``, ``superbasic_witness`` or ``enumerate_acceptable``: the
    answer as sorted compact JSON, or for a refusal the error type and
    message. A solve gives nu_raw, nu, kappa, the witness, x, the
    checks, the trace (``step_json``) and the certificate."""
    try:
        out = run(*args)
    except BgmuError as exc:
        return f"{type(exc).__name__}: {exc}"
    if isinstance(out, SolveResult):
        doc = {
            "nu_raw": [str(x) for x in out.nu_raw],
            "nu": list(out.nu.strings()),
            "kappa": list(out.nu.kappa.values),
            "witness": format_element(out.w),
            "x": repr(out.x),
            "checks": out.checks,
            "trace": [step_json(step) for step in out.trace],
            "certificate": out.certificate and out.certificate.to_json_dict(),
        }
    elif isinstance(out, SuperbasicWitness):
        doc = {
            "nu": list(out.nu.strings()),
            "witness": format_element(out.w),
            "x": repr(out.x),
            "certificate": out.certificate.to_json_dict(),
        }
    else:
        doc = out.to_json_dict()
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


@pytest.fixture(autouse=True)
def _fresh_stages(request):
    """Empty the reduction's stage cache, the CLI's parsed twists and
    the interned twists before and after every test that takes
    ``monkeypatch``, and so every test that patches a name of the
    package: a stage, or a twist with the attributes it derives on first
    read, built by the real code must not answer a mutated run, nor one
    built by a mutant outlive its test. Set up before ``monkeypatch``,
    this fixture is torn down after it, once the patches are undone."""
    patches = "monkeypatch" in request.fixturenames
    if patches:
        _forget_twists()
    yield
    if patches:
        _forget_twists()


def _forget_twists() -> None:
    """Empty every table that keeps a twist or what it derived: the
    reduction's stages, the CLI's parsed twists and twist headers, and
    the interned twists, automorphisms and data themselves."""
    _stage.cache_clear()
    _parse_sigma.cache_clear()
    _twist_header.cache_clear()
    for cls in (Frobenius, Sigma0, GroupDatum):
        cls._interned.clear()


_acceptance_lines: list[str] = []


def record_acceptance(line: str) -> None:
    _acceptance_lines.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _acceptance_lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in _acceptance_lines:
            terminalreporter.write_line(line)
