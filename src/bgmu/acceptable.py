"""The acceptable set B(W, mu, sigma) and the admissible set Adm(mu).

Membership of a dominant sigma0-invariant vector v is an integrality
condition: for every sigma0-orbit c of simple roots moved by v,
<omega_c, mu_diamond + lam_diamond - v> must be an integer, so each
orbit pairing ranges over a coset of Z in [0, <omega_c, mu_diamond>]
(``_orbit_bounds``). The unique maximal point takes the top of every
range and is the upper convex hull of the tents, one ``_hull`` per
block (the hull behind ``polygon``, which certifies the superbasic
peel); the
enumeration makes every choice per orbit. Both are cross-checked
against brute-force enumeration in the test suite.

Every pairing <omega_i, v> is read off one running sum per block
(``_scaled_heights``), and an orbit pairing is the sum of the heights over the
orbit. Heights kill block centers; the central coordinates are pinned
separately by the block sums of mu_diamond + lam_diamond. Those are the
block sums of every Newton vector in t^mu W_a: the twist's linear part
permutes the blocks up to sign exactly as sigma0 does, so its average
over a period and the sigma0-average of mu + lam have equal block sums.

All of it runs on integers: the bound table, the tents and the
candidates are numerators over one denominator built from the order
of sigma0, the block sizes, the orbit lengths and the hull widths, so
ceilings and floors are integer divisions and every comparison of two
points cross-multiplies. ``_hull`` finds the upper convex hull with a
monotone stack in O(n). ``_knot_runs`` places the knots of the
maximal point and of every candidate, on one node plan per block
(``_node_plans``). ``Fraction`` is built only for the results:
``PolygonData``, ``AcceptableSet`` and, in ``maximal_newton_state``
alone, ``MaximalSolverState``; ``_maximal_state`` returns (d, nums).

The admissible set Adm(mu) is the other half of the theorem, and this
module owns its raw (trans, images) tuples: ``adm_enumerate`` lists it,
and ``_brute_force``, the maximum of the Newton points over it, checks
that it attains the maximal acceptable point. Both expand orbits under
conjugation by length-zero elements through one closure,
``_omega_closure``.
"""

from __future__ import annotations

import itertools
import os
from bisect import bisect_right
from fractions import Fraction
from math import lcm, prod
from operator import add, itemgetter, le, mul
from typing import NamedTuple, Optional, Sequence

from .errors import DimensionMismatch, GuardExceeded, InternalCheckFailed, ParseError
from .newton import (
    Frobenius,
    NewtonPoint,
    RatVec,
    Sigma0,
    _diamond,
    _fractions,
    _newton_keys,
    _scaled,
    _scaled_heights,
    _vec_str,
    dominant_rep,
    kappa,
    simple_nodes,
)
from .weyl import (
    AffineElement,
    GroupDatum,
    IntVec,
    Permutation,
    _check_ints,
    _read_int,
    _same_wa_coset,
    _tuple_length,
    bruhat_leq,
)

DEFAULT_ENUM_GUARD = 8
DEFAULT_ADM_GUARD_N = 5
DEFAULT_ADM_GUARD_SPREAD = 2
BRUTE_GUARD_N = 6
BRUTE_GUARD_SIZE = 200_000


def guard_limit(default: int) -> int:
    """A rank guard: default, or BGMU_GUARD's one value, which replaces
    every rank limit, lowering it as well as raising it."""
    env = os.environ.get("BGMU_GUARD")
    if not env:
        return default
    return _read_int(env, f"BGMU_GUARD must be an integer, got {env!r}")


def support_nodes(datum: GroupDatum, vec: Sequence) -> frozenset:
    """I(v): simple roots (b, i) with <alpha_i, v> != 0, entry i of block
    b unequal to the next; the rest, J(v), fix v, and both are
    sigma0-stable for invariant v."""
    off = datum.offsets()
    return frozenset((b, i) for b, i in simple_nodes(datum) if vec[off[b] + i - 1] != vec[off[b] + i])


def adjoint_eq(datum: GroupDatum, v: Sequence, w: Sequence) -> bool:
    """Whether v and w have equal ``heights``: v - w is constant per block, in integers."""
    if len(v) != datum.n or len(w) != datum.n:
        raise DimensionMismatch("vector has wrong length")
    (dv, nv), (dw, nw) = _scaled(v), _scaled(w)
    diff = [a * dw - b * dv for a, b in zip(nv, nw)]
    return all(len(set(diff[sl])) == 1 for sl in datum.block_slices())


def _check_mu(mu: Sequence[int], datum: GroupDatum) -> None:
    """The caller's mu: one int per position (``_check_ints``), dominant
    per block."""
    if len(mu) != datum.n:
        raise DimensionMismatch("mu has wrong length")
    _check_ints(mu)
    if not datum.is_dominant(mu):
        raise ParseError(f"mu {tuple(mu)} is not dominant per block")


_Bounds = tuple[int, list[int], tuple[int, ...], tuple[tuple[tuple[int, ...], int, range], ...]]


def _orbit_bounds(mu: Sequence[int], frob: Frobenius) -> _Bounds:
    """The bound table of the acceptable set: the heights of mu_diamond
    (``_scaled_heights``), the block sums s_b of mu_diamond +
    lam_diamond, and per sigma0-orbit c of simple roots (c, rep,
    offsets) with rep / den = <omega_c, mu_diamond + lam_diamond>: the
    values rep / den + j, j in offsets, are those of the coset in [0,
    <omega_c, mu_diamond>]. All are numerators over den = k s o (k the
    order of sigma0's map, s and o the lcms of the block sizes and orbit
    lengths), in which n_b divides i s_b and an orbit's length divides
    its pairings. The orbits and o are sigma0's ``_bound_plan``,
    lam_diamond's share the twist's ``_lam_diamond``; an invariant
    vector's heights are equal over an orbit. The callers check mu."""
    datum = frob.datum
    k, mu_dia = _diamond(mu, frob)
    orbits, o, _ = frob.sigma0._bound_plan
    lam_reps, lam_sums = frob._lam_diamond
    s, h_mu = _scaled_heights(datum, [x * o for x in mu_dia])
    den = k * s * o
    table = []
    for orbit, lam_rep in zip(orbits, lam_reps):
        upper = len(orbit) * h_mu[orbit[0]]
        rep = upper + lam_rep
        table.append((orbit, rep, range(-(rep // den), -lam_rep // den + 1)))
    sums = tuple(t * s * o + t_lam for t, t_lam in zip(datum.block_sums(mu_dia), lam_sums))
    return den, h_mu, sums, tuple(table)


def _tops(bounds: _Bounds) -> list[int]:
    """Per orbit of the table, its tent: the top of its range over the orbit's length."""
    den, _, _, table = bounds
    return [(rep + offsets[-1] * den if offsets else 0) // len(orbit)
            for orbit, rep, offsets in table]


def _integral(bounds: _Bounds, h: list[int], f: int) -> bool:
    """Whether the invariant point of heights h / (den f) has |c| h_i in
    rep's coset on each orbit c of its support, 2 h_i != h_{i-1} + h_{i+1}."""
    den, _, _, table = bounds
    return all((rep * f - len(c) * h[c[0]]) % (den * f) == 0
               for c, rep, _ in table if 2 * h[c[0]] != h[c[0] - 1] + h[c[0] + 1])


_Plan = list[list[tuple[int, Optional[int], int]]]


def _node_plans(frob: Frobenius, sums: Sequence[int]) -> _Plan:
    """Per block, the knots that ``_knot_runs`` may place, in order: one
    (i, c, (i/n_b) s_b) per node i, c the index in table of the node's
    orbit and s_b the block sum of the bound table, then the block's end
    (n_b, None, s_b), which is always placed."""
    return [[*((i, c, i * total // nb) for i, c in nodes), (nb, None, total)]
            for (nb, nodes), total in zip(frob.sigma0._bound_plan[2], sums)]


def _knot_runs(plans: _Plan, heights: Sequence[Optional[int]],
               strict: bool) -> Optional[list[list[tuple[int, int]]]]:
    """Per block, (width, rise) between consecutive knots of the running
    sums: (0, 0), then (i, h + (i/n_b) s_b) at each node i whose orbit c
    has a centered height h = heights[c] (None: no knot there), then
    (n_b, s_b); all numerators over one denominator in which n_b divides
    i s_b. A vector through the knots is constant between them, with
    slope rise / width. With strict, None as soon as a run's slope is
    not below the one before it in its block."""
    out = []
    for plan in plans:
        runs = []
        x0 = y0 = 0
        w0, r0 = 0, 1  # an infinite slope before the block's first run
        for x, c, base in plan:
            h = 0 if c is None else heights[c]
            if h is None:
                continue
            w, r = x - x0, h + base - y0
            if strict and r0 * w <= r * w0:
                return None
            runs.append((w, r))
            x0, y0, w0, r0 = x, h + base, w, r
        out.append(runs)
    return out


# --- the maximal point -------------------------------------------------------

class PolygonData(NamedTuple):
    """Upper convex hull of the running sums of a sequence."""

    vertices: tuple[tuple[int, Fraction], ...]
    slopes: tuple[Fraction, ...]

    def hull_value(self, k: int) -> Fraction:
        """Hull height after the first k steps, off the last vertex at or before k."""
        if not (0 <= k <= len(self.slopes)):
            raise ParseError(f"abscissa {k} outside 0..{len(self.slopes)}")
        x, y = self.vertices[bisect_right(self.vertices, k, key=itemgetter(0)) - 1]
        return y + (k - x) * self.slopes[k - 1] if k > x else y


def _hull(nums: Sequence[int]) -> list[tuple[int, int]]:
    """The upper convex hull of the running sums of nums as (width,
    rise) per segment, by a monotone stack: a step enters as a segment
    of width 1 and merges with the one before while that one's slope is
    at most its own, so no vertex is collinear with others and the
    slopes strictly decrease."""
    runs: list[tuple[int, int]] = []
    for rise in nums:
        width = 1
        while runs and runs[-1][1] * width <= rise * runs[-1][0]:
            w0, r0 = runs.pop()
            width, rise = width + w0, rise + r0
        runs.append((width, rise))
    return runs


def polygon(eta: Sequence) -> PolygonData:
    """Upper convex hull of the running sums of eta: its vertices, and
    the segment slopes repeated per step, a weakly decreasing sequence."""
    _check_ints(eta, "eta", fractions=True)
    den, nums = _scaled(eta)
    x, y = 0, 0
    vertices: list[tuple[int, Fraction]] = [(x, Fraction(y))]
    slopes: list[Fraction] = []
    for width, rise in _hull(nums):
        x, y = x + width, y + rise
        vertices.append((x, Fraction(y, den)))
        slopes += [Fraction(rise, width * den)] * width
    return PolygonData(tuple(vertices), tuple(slopes))


class MaximalSolverState(NamedTuple):
    """Hull solve for the maximal point: per-node tent heights e, the
    sigma0-stable support of the solution, and the solution."""

    datum: GroupDatum
    targets: dict
    active: frozenset
    nu_raw: RatVec


def maximal_newton_state(mu: Sequence[int], frob: Frobenius) -> MaximalSolverState:
    """``_maximal_state`` with its tents and support, in fractions."""
    _check_mu(mu, frob.datum)
    bounds = _orbit_bounds(mu, frob)
    d, nums = _maximal_state(frob, bounds)
    nu_raw = _fractions(nums, d)
    targets = {nd: Fraction(t, bounds[0])
               for orbit, t in zip(frob.sigma0.node_orbits, _tops(bounds)) for nd in orbit}
    return MaximalSolverState(frob.datum, targets, support_nodes(frob.datum, nu_raw), nu_raw)


def _maximal_state(frob: Frobenius, bounds: _Bounds) -> tuple[int, list[int]]:
    """The maximal point and its checks, on the bound table of
    ``_orbit_bounds``: the top of every orbit's range, then the hull.
    The tents are numerators over den, the point is (d, nums) with nums
    over d = den w, w the lcm of the hull's widths."""
    den, h_mu, sums, table = bounds
    tops = _tops(bounds)
    # per block, the least concave majorant of the tents: the hull of
    # the knots at every node, which are a unit apart; _hull's slopes
    # decrease by construction, so nu is dominant
    runs = _knot_runs(_node_plans(frob, sums), tops, strict=False)
    hulls = [_hull([rise for _, rise in block]) for block in runs]
    w = lcm(*(width for runs in hulls for width, _ in runs))
    nu = [rise * (w // width) for runs in hulls for width, rise in runs for _ in range(width)]

    if not frob.sigma0.is_invariant(nu):
        raise InternalCheckFailed("maximal point is not sigma0-invariant")
    # heights of nu are numerators over den f
    s, h_nu = _scaled_heights(frob.datum, nu)
    f = w * s
    if any(h > u * f for h, u in zip(h_nu, h_mu)):
        raise InternalCheckFailed("maximal point exceeds mu_diamond")
    if any(h_nu[j] < t * f for (orbit, _, _), t in zip(table, tops) for j in orbit):
        raise InternalCheckFailed("maximal point drops below a tent")
    if not _integral(bounds, h_nu, f):
        raise InternalCheckFailed("maximal point fails the integrality criterion")
    return den * w, nu


def maximal_newton(mu: Sequence[int], frob: Frobenius) -> NewtonPoint:
    """The unique maximal acceptable Newton point (raw central scale,
    reporting shift applied)."""
    state = maximal_newton_state(mu, frob)
    shifted = tuple(a - b for a, b in zip(state.nu_raw, frob.shift))
    return NewtonPoint(
        frob.datum, shifted, kappa(AffineElement.translation(frob.datum, mu))
    )


def mu_diamond_acceptable(mu: Sequence[int], frob: Frobenius) -> bool:
    """Whether mu_diamond itself is an acceptable point: the defect
    pairings <omega_c, lam_diamond> = rep - <omega_c, mu_diamond> of
    ``_orbit_bounds`` are integers on the support of mu_diamond, read off
    the table's heights of mu_diamond (``_integral``)."""
    _check_mu(mu, frob.datum)
    bounds = _orbit_bounds(mu, frob)
    return _integral(bounds, bounds[1], 1)


# --- enumeration -------------------------------------------------------------

class AcceptableSet(NamedTuple):
    """All acceptable points, their dominance covers and the maximum.

    ``points`` carry the reporting shift; ``raw`` are the unshifted
    vectors actually produced by the Newton map.
    """

    datum: GroupDatum
    points: tuple[NewtonPoint, ...]
    raw: tuple[RatVec, ...]
    hasse: tuple[tuple[int, int], ...]
    maximum: int

    def to_json_dict(self) -> dict:
        return {
            "schema": "bgmu/1",
            "points": [list(p.strings()) for p in self.points],
            "hasse": [list(pair) for pair in self.hasse],
            "max": self.maximum,
        }


def _candidates(frob: Frobenius, bounds: _Bounds, m: int) -> list[tuple[int, ...]]:
    """Every acceptable point of ``enumerate_acceptable`` as numerators
    over den m, in the order of ``itertools.product`` over the orbits'
    choices: for each choice, ``_knot_runs`` places the knots and drops
    the choice at the first slope that fails to decrease."""
    den, _, sums, table = bounds
    plans = _node_plans(frob, sums)
    options = [[None, *((rep + j * den) // len(orbit) for j in offsets)]
               for orbit, rep, offsets in table]
    found = []
    for combo in itertools.product(*options):
        blocks = _knot_runs(plans, combo, strict=True)
        if blocks is not None:
            vec: list[int] = []
            for runs in blocks:
                for w, r in runs:
                    vec += [r * (m // w)] * w
            found.append(tuple(vec))
    return found


def enumerate_acceptable(mu: Sequence[int], frob: Frobenius) -> AcceptableSet:
    """Every acceptable point: per orbit c of ``_orbit_bounds``, c is
    outside the support or its pairing takes one value of its range,
    spread evenly over c. A candidate is constant between these knots,
    so it is dominant with support the chosen orbits exactly when its
    knot slopes strictly decrease in every block. No test is needed for
    sigma0-invariance or for lying below mu_diamond: its heights are equal
    on each orbit and linear between knots, where mu_diamond's are concave.
    Candidates are numerators over den m, m the lcm of 1..max n_b,
    which every width divides (``_candidates``).

    The points are built from those integers unchecked: each is
    dominant, and the reporting shift is constant per block (checked by
    ``Frobenius``). All candidates have the same block sums, so their
    running sums compare as their heights do. Covers come from bitmasks: up[i] holds the points at or above i,
    down[j] those at or below j, and a cover has up[i] & down[j] = {i, j}."""
    datum = frob.datum
    _check_mu(mu, datum)  # bad input is refused before the guard
    bounds = _orbit_bounds(mu, frob)
    limit = guard_limit(DEFAULT_ENUM_GUARD)
    if datum.n > limit:
        raise GuardExceeded(f"enumeration guard: n={datum.n} > {limit}")
    m = lcm(*range(1, max(datum.blocks) + 1))
    found = _candidates(frob, bounds, m)
    found.sort(reverse=True)
    dm = bounds[0] * m
    raw = tuple(_fractions(v, dm) for v in found)
    d, shift = _scaled(frob.shift)
    kap = kappa(AffineElement.translation(datum, mu))
    points = tuple(
        NewtonPoint._unchecked(datum, _fractions([x * d - s * dm for x, s in zip(v, shift)], dm * d), kap)
        for v in found
    )
    hs = [list(itertools.accumulate(v)) for v in found]
    size = len(raw)
    up, down = [0] * size, [0] * size
    for i, j in itertools.product(range(size), repeat=2):
        if all(map(le, hs[i], hs[j])):
            up[i] |= 1 << j
            down[j] |= 1 << i
    maxima = [j for j in range(size) if down[j] == (1 << size) - 1]
    if len(maxima) != 1:
        raise InternalCheckFailed(f"acceptable set has {len(maxima)} maxima")
    hasse = tuple((i, j) for i, j in itertools.product(range(size), repeat=2)
                  if i != j and up[i] & down[j] == (1 << i | 1 << j))
    result = AcceptableSet(datum, points, raw, hasse, maxima[0])
    dn, nums = _maximal_state(frob, bounds)
    if [x * dn for x in found[result.maximum]] != [y * dm for y in nums]:
        raise InternalCheckFailed(
            f"enumerated maximum {_vec_str(raw[result.maximum])} differs from"
            f" solver {_vec_str(_fractions(nums, dn))}"
        )
    return result


# --- admissible set ----------------------------------------------------------

def _hull_sums(part: Sequence[int]) -> list[int]:
    """Running sums of the decreasing rearrangement of one block of mu."""
    return list(itertools.accumulate(sorted(part, reverse=True)))


def _in_hull(vec: Sequence[int], mu_sums: Sequence[int]) -> bool:
    """Whether vec, with the same total as one block of mu, lies in
    Conv(W_0 mu): the running sums of its decreasing rearrangement stay
    at or below those of mu (``mu_sums``, from ``_hull_sums``)."""
    acc = 0
    for x, bound in zip(sorted(vec, reverse=True), mu_sums):
        acc += x
        if acc > bound:
            return False
    return True


def _permissible(w: AffineElement, mu: Sequence[int]) -> bool:
    """The vertexwise test of ``adm_enumerate`` on every block of w,
    whose block sums are those of mu."""
    images = w.perm.images
    for lo, hi in w.datum.block_ranges():
        sums = _hull_sums(mu[lo - 1 : hi])
        vec = list(w.trans[lo - 1 : hi])
        for k in range(hi - lo + 1):
            if k:  # from omega_{k-1} to omega_k: add e_{u(k)}, drop e_k
                vec[images[lo + k - 2] - lo] += 1
                vec[k - 1] -= 1
            if not _in_hull(vec, sums):
                return False
    return True


# Adm(mu) of one GL_n block per dominant shape mu - min(mu), grown by one
# search over all translations when a problem first meets the shape
# (``_grow_block_adm``). An entry holds the members of Adm(mu) that are
# least by (images, trans) in their orbit under conjugation by omega_1
# (``_conjugate``), grouped by translation as (lam, (images, ...)) pairs;
# and |Adm(mu)|, the sum of their orbit sizes. ``_full_set`` expands the
# whole set from them on each call.
# Adm(mu + c*1) is t^{c*1} Adm(mu), and t^{c*1} commutes with omega_1 and
# keeps that order, so all of it moves by c. The guards admit entry
# spreads of at most 2, so a rank has at most C(n + 2, 2) shapes.
_Groups = tuple[tuple[IntVec, tuple[IntVec, ...]], ...]


class _BlockEntry(NamedTuple):
    reps: _Groups
    size: int


_BLOCK_ADM: dict[IntVec, _BlockEntry] = {}


def _block_entry(mu: Sequence[int], limit: Optional[int] = None) -> tuple[int, _BlockEntry]:
    """(c, entry): the table entry of mu's shape, which c = min(mu)
    moves to mu's. A shape whose set is larger than limit is refused,
    and one refused while it grows is not stored."""
    c = min(mu)
    shape = tuple(sorted((x - c for x in mu), reverse=True))
    entry = _BLOCK_ADM.get(shape)
    if entry is None:
        entry = _BLOCK_ADM[shape] = _BlockEntry(*_grow_block_adm(shape, limit))
    if limit is not None and entry.size > limit:
        raise GuardExceeded(f"admissible set too large: more than {limit}")
    return c, entry


def _flatten(c: int, groups: _Groups) -> list[tuple[IntVec, IntVec]]:
    """(trans, images) of every element of groups, each translation
    moved by c. A fresh list on every call."""
    out: list[tuple[IntVec, IntVec]] = []
    for lam, ims in groups:
        lam = tuple(x + c for x in lam) if c else lam
        out += [(lam, im) for im in ims]
    return out


def _full_set(reps: list[tuple[IntVec, IntVec]]) -> list[tuple[IntVec, IntVec]]:
    """The whole of one block's Adm(mu) from its omega_1-orbit
    representatives: their orbits, built afresh on every call."""
    return _omega_closure(reps, [((0, 1),)], [(1, len(reps[0][0]))])


def _omega_blocks(sigma0: Sigma0) -> list[list[tuple[int, int]]]:
    """Per sigma0-orbit of blocks with an even number of flips, the
    blocks of omega_O in the orbit's cyclic order from its least block,
    each with its kappa: +1 on the first, the sign flipping after each
    flipped block. sigma0 carries kappa_b to block_to[b] negated on a
    flip, so the signs close up around the orbit exactly when its
    number of flips is even."""
    out = []
    for orbit in sigma0.block_orbits:
        blocks, sign = [], 1
        for b in orbit:
            blocks.append((b, sign))
            sign = -sign if sigma0.flip[b] else sign
        if sign == 1:
            out.append(blocks)
    return out


def _conjugate(elem: tuple[IntVec, IntVec], orbit: Sequence[tuple[int, int]],
               ranges: Sequence[tuple[int, int]]) -> tuple[IntVec, IntVec]:
    """omega_O (t^trans u) omega_O^{-1} on raw tuples elem = (trans,
    images), where orbit lists (b, kappa_b) pairs: omega_O has kappa
    kappa_b on block b, at ranges[b], and 0 elsewhere. On each such block
    that is conjugation by omega_1^k of GL_{n_b}, k = kappa_b mod n_b, as
    omega_1^{n_b} is central. For omega_1 = t^{e_1} r, the length-zero
    element of kappa 1 (r(i) = i + 1 mod n), and 0 <= k < n: omega_1^k =
    t^{E_k} r^k with E_k = e_1 + ... + e_k, so the conjugate is
    t^{E_k + r^k(trans) - v(E_k)} v with v = r^k u r^{-k}, v(i) =
    u(i - k) + k mod n."""
    trans, images = list(elem[0]), list(elem[1])
    for b, kappa in orbit:
        lo, hi = ranges[b]
        nb = hi - lo + 1
        k = kappa % nb
        cut = hi - k  # r^k moves the block's last k positions to its front
        trans[lo - 1 : hi] = trans[cut:hi] + trans[lo - 1 : cut]
        images[lo - 1 : hi] = [(x - lo + k) % nb + lo for x in images[cut:hi] + images[lo - 1 : cut]]
        for i in range(lo - 1, lo - 1 + k):
            trans[i] += 1
            trans[images[i] - 1] -= 1
    return tuple(trans), tuple(images)


def _omega_closure(elems: Sequence[tuple[IntVec, IntVec]], orbits: Sequence[Sequence[tuple[int, int]]],
                   ranges: Sequence[tuple[int, int]]) -> list[tuple[IntVec, IntVec]]:
    """elems and everything they reach under conjugation by the omega_O
    of orbits (``_conjugate``), in the order first found: one generator
    at a time, as they commute, each walk stopping at a tuple already
    found."""
    found = dict.fromkeys(elems)
    for orbit in orbits:
        for elem in list(found):
            while (elem := _conjugate(elem, orbit, ranges)) not in found:
                found[elem] = None
    return list(found)


def _grow_block_adm(mu: Sequence[int], limit: Optional[int] = None) -> tuple[_Groups, int]:
    """The omega_1-orbit representatives of Adm(mu) of GL_n, grouped by
    translation, and |Adm(mu)|, refused (``_block_entry``'s message) as
    soon as the count passes limit. One search builds u position by
    position for all lattice points lam of Conv(W_0 mu) with mu's sum,
    the set P: a branch carries, as the bits of one int, the vertices
    lam + 1_{u(1..k)} - 1_{1..k} of the points whose vertices so far lie
    in P (the test of ``adm_enumerate``). A vertex's bit is its first
    n - 1 entries less min(mu), read in base B = max(mu) - min(mu) + 2:
    a point's digits lie in 0..B - 2, a vertex's in -1..B - 1, and a -1
    borrows and leaves a B - 1, so a vertex reads as a point only when
    it is one. Then u(k) = j is one shift, by B^(j-1) - B^(k-1) with
    B^(n-1) read as 0, and one AND.
    A representative has no conjugate by omega_1^k with smaller images
    v, v(i) = u(i - k) + k mod n, and v(1..i) is known from position
    n - k + i on: a branch is cut once one such prefix falls below u's,
    and carries the k that tie. At a leaf, a k whose v is u leaves it
    to the translations, r^k(lam) + E_k - u(E_k) (``_conjugate``)
    against lam, once per u; the first k where they are equal gives the
    orbit size. Found by u in lexicographic order, the representatives
    are grouped by lam in P's order.

    >>> _grow_block_adm((1, 0))
    ((((1, 0), ((2, 1),)), ((0, 1), ((1, 2),))), 3)
    >>> _grow_block_adm((2, 0))
    ((((0, 2), ((1, 2),)), ((1, 1), ((1, 2), (2, 1)))), 5)
    """
    n = len(mu)
    sums = _hull_sums(mu)
    lams = [lam for dom in itertools.combinations_with_replacement(range(max(mu), min(mu) - 1, -1), n)
            if sum(dom) == sums[-1] and _in_hull(dom, sums)
            for lam in _distinct_permutations(dom)]
    low, base = min(mu), max(mu) - min(mu) + 2
    place = [base ** i for i in range(n - 1)] + [0]
    index = {sum(map(mul, lam, place)) - low * sum(place): i for i, lam in enumerate(lams)}
    points = sum(1 << code for code in index)
    rotations = [itemgetter(*range(n - k, n), *range(n - k)) for k in range(n)]  # r^k
    found: list[tuple[int, IntVec]] = []  # (index of lam, u), by u
    images, used, size = [0] * n, [False] * n, 0

    def leaf(mask: int, live: tuple[int, ...]) -> None:
        nonlocal size
        u = tuple(images)
        ties = []
        for k in live:
            v = tuple([(x + k - 1) % n + 1 for x in rotations[k](u)])
            if v < u:
                return
            if v == u:
                ties.append((k, _conjugate(((0,) * n, u), ((0, k),), ((1, n),))[0]))
        while mask:
            code = mask.bit_length() - 1
            mask ^= 1 << code
            lam = lams[i := index[code]]
            for k, off in ties:
                t = tuple(map(add, rotations[k](lam), off))
                if t <= lam:
                    orbit = k if t == lam else 0
                    break
            else:
                orbit = n
            if orbit:
                found.append((i, u))
                size += orbit
        if limit is not None and size > limit:
            raise GuardExceeded(f"admissible set too large: more than {limit}")

    def grow(mask: int, p: int, live: tuple[int, ...]) -> None:
        if p == n:
            return leaf(mask, live)
        first = images[0] - 1 if p else -1  # v(1) - 1 for k = n - p must reach it
        want = [(k, images[p - n + k] - 1) for k in live] if live else live
        for j in range(n):
            s = (j - p) % n
            if used[j] or s < first or live and any((j + k) % n < w for k, w in want):
                continue
            e = place[j] - place[p]
            if sub := points & (mask << e if e >= 0 else mask >> -e):
                ties = tuple([k for k, w in want if (j + k) % n == w]) if live else live
                used[j], images[p] = True, j + 1
                grow(sub, p + 1, (n - p, *ties) if s == first else ties)
                used[j] = False

    grow(points, 0, ())
    grow = None  # it refers to itself: free what it holds now, not at the next collection
    found.sort(key=itemgetter(0))
    return tuple((lams[i], tuple([u for _, u in group]))
                 for i, group in itertools.groupby(found, itemgetter(0))), size


def _distinct_permutations(part: Sequence[int]) -> list[tuple[int, ...]]:
    """Distinct permutations of a multiset, descending lexicographically:
    repeated predecessor steps from the largest arrangement."""
    a = sorted(part, reverse=True)
    out = [tuple(a)]
    while True:
        i = len(a) - 2
        while i >= 0 and a[i] <= a[i + 1]:
            i -= 1
        if i < 0:
            return out
        j = len(a) - 1
        while a[j] >= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1 :] = reversed(a[i + 1 :])
        out.append(tuple(a))


def _orbit_points(datum: GroupDatum, mu: Sequence[int]) -> list[tuple[int, ...]]:
    """Distinct W_0-orbit points of mu, descending lexicographically
    (the product of per-block descending lists, blocks of fixed width)."""
    per_block = [
        _distinct_permutations(mu[lo - 1 : hi]) for lo, hi in datum.block_ranges()
    ]
    return [
        tuple(x for block in combo for x in block)
        for combo in itertools.product(*per_block)
    ]


def adm_member(
    w: AffineElement, mu: Sequence[int]
) -> tuple[bool, Optional[Permutation]]:
    """Whether w lies in Adm(mu), with a witness x on success: the first
    orbit point of mu, descending lexicographically, with
    w <= t^{x(mu)}. The vertexwise test of ``adm_enumerate``, after the
    same central shift on adjoint blocks that the Bruhat order applies,
    rejects a non-member without a Bruhat walk; the walks only pick x
    for a member."""
    _check_ints(mu)
    datum = w.datum
    shifted = _same_wa_coset(w, AffineElement.translation(datum, mu))
    if shifted is None or not _permissible(shifted, mu):
        return False, None
    for point in _orbit_points(datum, mu):
        if bruhat_leq(w, AffineElement.translation(datum, point)):
            # x(mu) = point, matching equal entries in order
            return True, dominant_rep(datum, point)[1].inverse() * dominant_rep(datum, mu)[1]
    return False, None


def _adm_refusal(mu: Sequence[int], datum: GroupDatum, guard_n: int) -> Optional[str]:
    """Why Adm(mu) is too large to list under the rank guard guard_n
    (see ``guard_limit``) and the entry-spread guard, or None."""
    limit = guard_limit(guard_n)
    if datum.n > limit:
        return f"admissible-set guard: n={datum.n} > {limit}"
    for lo, hi in datum.block_ranges():
        part = mu[lo - 1 : hi]
        if part and max(part) - min(part) > DEFAULT_ADM_GUARD_SPREAD:
            return f"admissible-set guard: entry spread exceeds {DEFAULT_ADM_GUARD_SPREAD}"
    return None


def _adm_raw(
    mu: Sequence[int], datum: GroupDatum, guard_n: int, max_size: Optional[int] = None,
    reduced: Sequence[int] = (),
) -> list[tuple[IntVec, IntVec]]:
    """The elements of ``adm_enumerate`` as (trans, images), unsorted,
    before they are validated as elements: one block's set as it is,
    else the product of the blocks' sets, each moved to its offset.
    A block in ``reduced`` contributes only its omega_1-orbit
    representatives. With max_size, a set whose full size is larger
    than that is refused before the product is built, and a block's set
    larger than that before it is grown in full."""
    refusal = _adm_refusal(mu, datum, guard_n)
    if refusal:
        raise GuardExceeded(refusal)
    entries = [_block_entry(mu[lo - 1 : hi], max_size) for lo, hi in datum.block_ranges()]
    size = prod(entry.size for _, entry in entries)
    if max_size is not None and size > max_size:
        raise GuardExceeded(f"admissible set too large: {size}")
    per_block = [reps if b in reduced else _full_set(reps)
                 for b, reps in enumerate(_flatten(c, entry.reps) for c, entry in entries)]
    if len(per_block) == 1:
        return per_block[0]
    moved = [
        [(t, tuple(j + lo - 1 for j in im)) for t, im in block]
        for (lo, _), block in zip(datum.block_ranges(), per_block)
    ]
    return [
        (sum((e[0] for e in combo), ()), sum((e[1] for e in combo), ()))
        for combo in itertools.product(*moved)
    ]


def _adm_order(w: AffineElement) -> tuple:
    """The order in which ``adm_enumerate`` lists Adm(mu):
    (length, trans, images)."""
    return w.length(), w.trans, w.perm.images


def adm_enumerate(mu: Sequence[int], datum: GroupDatum) -> tuple[AffineElement, ...]:
    """Adm(mu), the union of the lower Bruhat intervals of all
    t^{x(mu)}, built vertexwise. By Adm(mu) = Perm(mu) (Kottwitz-Rapoport,
    Manuscripta Math. 2000, for minuscule mu; Haines-Ngo, Amer. J. Math.
    2002, for GL_n), w = t^lam u lies in Adm(mu) exactly when it lies in
    the W_a coset of t^mu and, in every block,

        w(omega_k) - omega_k = lam + e_{u(1)} + ... + e_{u(k)} - (e_1 + ... + e_k)

    lies in Conv(W_0 mu) for each base-alcove vertex
    omega_k = (1^k, 0^{n_b-k}), k = 0, ..., n_b - 1. The order of the
    vertices matters: (0^{n_b-k}, 1^k) gives a different set already on
    GL_2. ``_grow_block_adm`` builds each block's omega_1-orbit
    representatives and ``_full_set`` their orbits, the result is the
    blocks' product, so the work is about the size of the output; it is
    sorted by (length, trans, images), and every element is validated
    once, through ``AffineElement``. The test suite holds it to an independent
    reference: the subword products of reduced words of every t^{x(mu)}
    (``bruhat_lower_set`` in ``tests/conftest.py``)."""
    _check_ints(mu)
    raw = _adm_raw(mu, datum, DEFAULT_ADM_GUARD_N)
    elements = (AffineElement(datum, t, Permutation(im)) for t, im in raw)
    return tuple(sorted(elements, key=_adm_order))


def _brute_force(mu: Sequence[int], frob: Frobenius, witness: bool
                 ) -> tuple[tuple[int, tuple[int, ...]], Optional[AffineElement]]:
    """The maximum of the Newton points over Adm(mu), the set that the
    paper's theorem says attains the maximal acceptable point, as its key
    (k, lam), the point being lam / k in lowest terms, and, with
    ``witness``, the first element of Adm(mu) in (length, trans, images)
    order that attains it (else None).

    ``_adm_raw`` lists Adm(mu) as ``adm_enumerate`` does, by the
    vertexwise criterion (w(omega_k) - omega_k in Conv(W_0 mu) for
    omega_k = (1^k, 0^{n-k}); Kottwitz-Rapoport 2000 for minuscule mu,
    Haines-Ngo 2002 for GL_n), but unsorted and as raw tuples; the
    subword products over the orbit of mu (``bruhat_lower_set`` in
    ``tests/conftest.py``) are the independent reference the tests hold
    it to.

    Only one element per orbit of a group H of length-zero elements is
    keyed: omega_O per sigma0-orbit O of blocks with an even number of
    flips (``_omega_blocks``). It is sigma0-fixed, and Omega is abelian,
    so sigma-conjugation by it is plain conjugation, which keeps Adm(mu)
    and every Newton point. On O's first block it is conjugation by
    omega_1, so that block's omega_1-orbit representatives times the
    other blocks' full sets meet every H-orbit and give every key. The
    size guard still counts all of Adm(mu).

    A key is the pair (order, blockwise sorted translation) of the
    Newton map in lowest terms, and ``_newton_keys`` keys the tuples in
    one batch: one plan per (twist, u), built once per process, two
    ``itemgetter`` sums per cycle of u o A per translation, and one gcd
    per distinct point. Over the lcm of the orders the heights are
    integers, and the maximal key is the one at the componentwise
    maximum. No Fraction is built but in a message, and lengths only for
    its class, the union of the H-orbits of its keyed tuples, on raw
    tuples (``_tuple_length``): its least one is the witness, the one
    element validated."""
    datum = frob.datum
    omegas = _omega_blocks(frob.sigma0)
    raw = _adm_raw(mu, datum, BRUTE_GUARD_N, BRUTE_GUARD_SIZE,
                   reduced=[orbit[0][0] for orbit in omegas])
    keyed = _newton_keys(raw, frob.affine_map, datum.block_slices())
    # a key (k, lam) is the point lam / k, with heights h * (m / k) over m
    m = lcm(*(k for k, _ in keyed))
    hs = {(k, lam): [h * (m // k) for h in _scaled_heights(datum, lam)[1]]
          for k, lam in keyed}
    top = [max(col) for col in zip(*hs.values())]
    maxima = [key for key, h in hs.items() if h == top]
    if len(maxima) != 1:
        attained = sorted(tuple(Fraction(x, k) for x in lam) for k, lam in keyed)
        raise InternalCheckFailed(
            f"admissible Newton points have {len(maxima)} maxima:"
            f" {', '.join(map(_vec_str, attained))}"
        )
    if not witness:
        return maxima[0], None
    found = _omega_closure(keyed[maxima[0]], omegas, datum.block_ranges())
    trans, images = min(found, key=lambda e: (_tuple_length(datum, *e), *e))
    return maxima[0], AffineElement(datum, trans, Permutation(images))
