"""Newton points, Kottwitz invariants and dominance order.

The twist is a pair sigma = Ad(tau) o sigma0 with tau a length-zero
element and sigma0 a diagram automorphism: a permutation of equal-size
blocks, optionally composed with the flip of a GL factor, which acts
on coweights as lam -> -reverse(lam). The Newton point of w is read
off the cycles of the affine map v -> A v + b of w o sigma, where A is
a signed coordinate permutation. With k the order of A, the k-th power
is the translation by lam = b + A b + ... + A^{k-1} b, and nu = lam / k;
the Newton point is its block-dominant representative. Cycle by cycle:
a cycle whose sign product is -1 adds nothing to lam (each lap flips
the sign of the last), and on a cycle of length L with sign product +1
coordinate q receives (k / L) sum_c sign(c -> q) b_c, the signs met on
the way from c to q. The sigma0-average mu_diamond is the Newton
vector of t^mu under sigma0 alone, so it is read off the same cycles,
as are the sigma0-orbits of blocks and of simple roots.

For w = t^trans u and the twist v -> A_s v + b_s, the linear part of
w o sigma is u o A_s and its translation is trans + u(b_s). So the map
is read in two steps: ``_linear_part`` takes what depends on u alone
(the order k, the signs, the cycles of u o A_s of sign product +1, and
u(b_s)) in one walk of u o A_s, and ``_newton_kernel`` walks those
cycles over trans. ``newton_point``, ``diamond`` and
``superbasic_witness`` go through both. The brute force keys Adm(mu)
in one batch, ``_newton_keys``, on one plan per permutation u, which
turns each cycle's value into one or two ``itemgetter`` sums over
trans, and one gcd per distinct point. A plan reads the twist, u and
the block bounds but not mu, so ``_keying_plan`` builds it, with u's
linear part, once per (twist, u) per process.

Everything is exact and, below the output boundary, integral: the
kernel returns (k, lam), and a rational vector is carried as one
common denominator with integer numerators (``_scaled``), heights
included (``_scaled_heights``). ``Fraction`` is built only where a
value leaves for a caller: in the records the package returns
(``NewtonPoint``, ``NewtonData`` and the results of ``acceptable`` and
``reduction``), in the public ``heights`` and ``diamond``, in JSON
strings and in check messages.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate
from math import gcd, lcm
from operator import itemgetter
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import DimensionMismatch, ParseError
from .weyl import (
    AffineElement,
    GroupDatum,
    IntVec,
    Permutation,
    SignedMap,
    _check_ints,
    _check_superbasic,
    _Frozen,
    _Interned,
    _length_zero,
    _omega_tuples,
    superbasic_element,
)

RatVec = tuple[Fraction, ...]
Node = tuple[int, int]  # (block, i) finite simple root, 1 <= i <= n_b - 1


class AffineMap(NamedTuple):
    """v -> linear(v) + shift, with integral shift."""

    linear: SignedMap
    shift: tuple[int, ...]


class Sigma0(_Interned, _Frozen):
    """Diagram automorphism: block_to[b] is the image block of block b,
    flip[b] whether the map b -> block_to[b] composes with the flip.
    One object per value (``weyl._Interned``)."""

    datum: GroupDatum
    block_to: tuple[int, ...]
    flip: tuple[bool, ...]

    _interned = {}  # not annotated, so not a field

    @staticmethod
    def _intern_key(datum: GroupDatum, block_to: tuple[int, ...], flip: tuple[bool, ...]) -> tuple:
        return datum.blocks, datum.adjoint, tuple(block_to), tuple(flip)

    def _build(self, datum: GroupDatum, block_to: tuple[int, ...], flip: tuple[bool, ...]) -> None:
        block_to, flip = tuple(block_to), tuple(flip)
        r = datum.num_blocks
        if sorted(block_to) != list(range(r)) or len(flip) != r:
            raise ParseError("block_to must permute blocks, one flip flag each")
        sizes = datum.blocks
        for b, tb in enumerate(block_to):
            if sizes[b] != sizes[tb]:
                raise ParseError("sigma0 maps blocks of different sizes")
        # the map is read by every twist built on this automorphism, so it
        # is computed once here; it is not a field, so eq and hash still
        # compare datum, block_to and flip only
        self._set(datum=datum, block_to=block_to, flip=flip,
                  _map=_block_map(datum, block_to, flip))

    @staticmethod
    def identity(datum: GroupDatum) -> "Sigma0":
        r = datum.num_blocks
        return Sigma0(datum, tuple(range(r)), (False,) * r)

    def is_identity(self) -> bool:
        return all(tb == b for b, tb in enumerate(self.block_to)) and not any(self.flip)

    def map(self) -> SignedMap:
        return self._map

    def apply_vector(self, vec: Sequence) -> tuple:
        return self.map().apply(vec)

    def is_invariant(self, vec: Sequence) -> bool:
        return self.apply_vector(vec) == tuple(vec)

    def apply_element(self, w: AffineElement) -> AffineElement:
        """sigma0 of an element of the datum: its signed map on the
        translation and, as the signs cancel, conjugation by the map's
        positions on the permutation. It is not checked again: sigma0
        maps blocks to blocks of equal size, so the conjugated
        permutation preserves the blocks."""
        if w.datum != self.datum:
            raise DimensionMismatch("element and sigma0 live in different data")
        lin = self.map()
        rho = Permutation._unchecked(lin.pos)
        return AffineElement._unchecked(w.datum, lin.apply(w.trans), rho * w.perm * rho.inverse())

    @cached_property
    def block_orbits(self) -> tuple[tuple[int, ...], ...]:
        """Orbits of the block permutation, each listed in cyclic order
        starting from its smallest block index."""
        to = SignedMap(tuple([b + 1 for b in self.block_to]), (1,) * len(self.block_to))
        return tuple([c for c, _ in to.cycles()])

    @cached_property
    def node_orbits(self) -> tuple[tuple[Node, ...], ...]:
        """Orbits on the finite simple roots, sorted by least node:
        (b, i) goes to (block_to[b], n_b - i) on a flip, else to
        (block_to[b], i)."""
        nodes = simple_nodes(self.datum)
        # node (b, i) is number before[b] + i, counting from 1
        before = [o - b for b, o in enumerate(self.datum.offsets())]
        sizes = self.datum.blocks
        images = tuple([before[self.block_to[b]] + (sizes[b] - i if self.flip[b] else i)
                        for b, i in nodes])
        to = SignedMap(images, (1,) * len(nodes))
        return tuple([tuple([nodes[k] for k in sorted(c)]) for c, _ in to.cycles()])

    @cached_property
    def _average(self) -> "LinearPart":
        """The identity's linear part under the map; ``_diamond`` reads the average off it."""
        n = self.datum.n
        return _linear_part(range(1, n + 1), AffineMap(self._map, (0,) * n))

    @cached_property
    def _bound_plan(self) -> tuple:
        """What every bound table reads: the node orbits at their
        ``_scaled_heights`` positions, o the lcm of their lengths, and
        per block n_b and (i, c) per node i of orbit c."""
        off = self.datum.offsets()
        orbit_of = {nd: c for c, orbit in enumerate(self.node_orbits) for nd in orbit}
        orbits = tuple([tuple([off[b] + i - 1 for b, i in orbit]) for orbit in self.node_orbits])
        knots = tuple([(nb, tuple([(i, orbit_of[b, i]) for i in range(1, nb)]))
                       for b, nb in enumerate(self.datum.blocks)])
        return orbits, lcm(*map(len, orbits)), knots


def _block_map(datum: GroupDatum, block_to: Sequence[int], flip: Sequence[bool]) -> SignedMap:
    """The signed map of the diagram automorphism (block_to, flip):
    block b goes to block block_to[b] in order, or reversed with sign -1
    on a flip."""
    offsets = datum.offsets()
    pos: list[int] = []
    sign: list[int] = []
    for b, nb in enumerate(datum.blocks):
        start = offsets[block_to[b]]
        if flip[b]:
            pos.extend(range(start + nb, start, -1))
        else:
            pos.extend(range(start + 1, start + nb + 1))
        sign.extend([-1 if flip[b] else 1] * nb)
    return SignedMap(tuple(pos), tuple(sign))


def simple_nodes(datum: GroupDatum) -> tuple[Node, ...]:
    return tuple(
        (b, i) for b, nb in enumerate(datum.blocks) for i in range(1, nb)
    )


def _scaled(vec: Sequence) -> tuple[int, list[int]]:
    """A vector of integers and fractions as (d, nums), entry i being
    nums[i] / d with d the least common denominator: the form in which
    rational vectors are carried below the output boundary.

    >>> _scaled((Fraction(1, 2), 2, Fraction(-1, 3)))
    (6, [3, 12, -2])
    """
    d = lcm(*(x.denominator for x in vec))
    return d, [x.numerator * (d // x.denominator) for x in vec]


def _scaled_heights(datum: GroupDatum, nums: Sequence[int]) -> tuple[int, list[int]]:
    """(s, h) with the heights of the integer vector nums equal to h / s,
    s the lcm of the block sizes: node (b, i) at entry i of block b, 0
    at a block's end."""
    s = lcm(*datum.blocks)
    out: list[int] = []
    for sl in datum.block_slices():
        part = nums[sl]
        nb, total = len(part), sum(part)
        f = s // nb
        out += [(nb * head - i * total) * f for i, head in enumerate(accumulate(part), start=1)]
    return s, out


def heights(datum: GroupDatum, vec: Sequence) -> dict[Node, Fraction]:
    """<omega_i, v> at every simple node: per block, the running sum of
    the first i entries minus (i/n_b) times the block total, which kills
    the block's center.

    >>> heights(GroupDatum.gl(3), (1, 0, 0))
    {(0, 1): Fraction(2, 3), (0, 2): Fraction(1, 3)}
    """
    if len(vec) != datum.n:
        raise DimensionMismatch("vector has wrong length")
    d, nums = _scaled(vec)
    s, h = _scaled_heights(datum, nums)
    off = datum.offsets()
    return {(b, i): Fraction(h[off[b] + i - 1], d * s) for b, i in simple_nodes(datum)}


def _twist_key(datum: GroupDatum, trans: IntVec, images: IntVec, sigma0_datum: GroupDatum,
               block_to: tuple[int, ...], flip: tuple[bool, ...], shift: Sequence) -> tuple:
    """A twist's key in ``Frobenius._interned``: both data's blocks and
    adjoint flags, tau's translation and images, sigma0's targets and
    flips, and the shift as (numerator, denominator) pairs, zero if empty."""
    return (datum.blocks, datum.adjoint, trans, images,
            sigma0_datum.blocks, sigma0_datum.adjoint, block_to, flip,
            tuple([x.as_integer_ratio() for x in shift]) if shift else ((0, 1),) * datum.n)


class Frobenius(_Interned, _Frozen):
    """Twist descriptor sigma = Ad(tau) o sigma0 with an optional
    central shift subtracted from reported Newton points only.

    One object per value (``weyl._Interned``, keyed by ``_twist_key``),
    so an equal twist built anywhere shares its hash, its derived
    attributes and the reduction's stage, and its checks run once. The
    builders below look their key up before they build tau or sigma0."""

    tau: AffineElement
    sigma0: Sigma0
    shift: RatVec

    _interned = {}  # not annotated, so not a field

    @staticmethod
    def _intern_key(tau: AffineElement, sigma0: Sigma0, shift: Sequence = ()) -> tuple:
        return _twist_key(tau.datum, tau.trans, tau.perm.images, sigma0.datum,
                          sigma0.block_to, sigma0.flip, shift)

    def _build(self, tau: AffineElement, sigma0: Sigma0, shift: Sequence = ()) -> None:
        datum = tau.datum
        if not _length_zero(tau):
            raise ParseError("tau must have length zero")
        if sigma0.datum != datum:
            raise DimensionMismatch("sigma0 and tau live in different data")
        # Fractions whatever the caller passed, so that equal twists,
        # which are one object, print alike
        shift = (tuple([x if type(x) is Fraction else Fraction(x) for x in shift]) if shift
                 else (Fraction(0),) * datum.n)
        if len(shift) != datum.n:
            raise DimensionMismatch("shift has wrong length")
        for lo, hi in datum.block_ranges():
            part = shift[lo - 1 : hi]
            if part.count(part[0]) != len(part):
                raise ParseError("shift must be central (constant per block)")
        self._set(tau=tau, sigma0=sigma0, shift=shift)

    @staticmethod
    def _stored(datum: GroupDatum, trans: IntVec, images: IntVec, block_to: tuple[int, ...],
                flip: tuple[bool, ...], shift: Sequence = ()) -> Optional["Frobenius"]:
        """The stored twist of tau = t^trans images and sigma0 = (block_to,
        flip) on datum, or None: it passed its checks when first built."""
        return Frobenius._interned.get(
            _twist_key(datum, trans, images, datum, block_to, flip, shift))

    @staticmethod
    def _under_identity(datum: GroupDatum, trans: IntVec, images: IntVec, shift: Sequence,
                        make_tau) -> "Frobenius":
        """The twist of tau = t^trans images, sigma0 = 1, looked up before make_tau()."""
        r = datum.num_blocks
        twist = Frobenius._stored(datum, trans, images, tuple(range(r)), (False,) * r, shift)
        return twist if twist is not None else Frobenius(make_tau(), Sigma0.identity(datum), shift)

    @property
    def datum(self) -> GroupDatum:
        return self.tau.datum

    @property
    def lam(self) -> tuple[int, ...]:
        """Dominant translation part of tau."""
        return self.tau.trans

    @staticmethod
    def trivial(datum: GroupDatum) -> "Frobenius":
        n = datum.n
        return Frobenius._under_identity(datum, (0,) * n, tuple(range(1, n + 1)), (),
                                         lambda: AffineElement.identity(datum))

    @staticmethod
    def inner(tau: AffineElement) -> "Frobenius":
        return Frobenius._under_identity(tau.datum, tau.trans, tau.perm.images, (), lambda: tau)

    @staticmethod
    def superbasic(m: int, n: int, normalized: bool = True,
                   adjoint: bool = False) -> "Frobenius":
        """Ad(sigma_{m,n}) on a single GL_n (or PGL_n) block, with the
        canonical central shift (m/n) d so reported points are basic
        of slope zero when mu = 0."""
        datum = GroupDatum.pgl(n) if adjoint else GroupDatum.gl(n)
        _check_superbasic(m, n)  # before the lookup: another pair may name another twist
        shift = (Fraction(m, n),) * n if normalized else ()
        return Frobenius._under_identity(datum, *_omega_tuples(datum, (m,)), shift,
                                         lambda: superbasic_element(m, n, datum))

    @cached_property
    def affine_map(self) -> AffineMap:
        """Action of tau o sigma0 on the ambient space, built once per
        twist (the instance is frozen, so the value cannot go stale)."""
        # u o A for the signed map A of sigma0: u has no signs, so A's are kept
        u, (pos, sign) = self.tau.perm.images, self.sigma0.map()
        return AffineMap(SignedMap(tuple([u[p - 1] for p in pos]), sign), self.tau.trans)

    @cached_property
    def _lam_diamond(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The twist's share of every bound table: lam_diamond's pairings
        with the omega_c and its block sums, over the table's k s o."""
        orbits, o, _ = self.sigma0._bound_plan
        k, lam = _diamond(self.lam, self)
        s, h = _scaled_heights(self.datum, lam)
        return (tuple([len(orbit) * h[orbit[0]] * o for orbit in orbits]),
                tuple([t * s * o for t in self.datum.block_sums(lam)]))

    def with_shift(self, shift: Sequence) -> "Frobenius":
        return Frobenius(self.tau, self.sigma0, tuple(shift))

    def canonical_shift(self) -> RatVec:
        """Central shift (kappa_b(tau)/n_b) d per block."""
        sums = self.datum.block_sums(self.tau.trans)
        out: list[Fraction] = []
        for nb, s in zip(self.datum.blocks, sums):
            out.extend([Fraction(s, nb)] * nb)
        return tuple(out)


class KappaValue(_Frozen):
    """Per-block Kottwitz coordinate; reduced mod n_b on PGL blocks."""

    datum: GroupDatum
    values: tuple[int, ...]

    def __init__(self, datum: GroupDatum, values: tuple[int, ...]) -> None:
        if len(values) != datum.num_blocks:
            raise DimensionMismatch("one kappa per block required")
        reduced = tuple(
            v % nb if adj else v for v, nb, adj in zip(values, datum.blocks, datum.adjoint)
        )
        self._set(datum=datum, values=reduced)


def kappa(w: AffineElement) -> KappaValue:
    return KappaValue(w.datum, w.kappa_raw())


def _vec_str(vec: Sequence) -> str:
    """A vector for messages, each entry by ``str``: "(3/4, 0, -3/4)"."""
    return "(" + ", ".join(map(str, vec)) + ")"


class NewtonPoint(_Frozen):
    """Dominant rational vector with its Kottwitz coordinate."""

    datum: GroupDatum
    nu: RatVec
    kappa: KappaValue

    def __init__(self, datum: GroupDatum, nu: RatVec, kappa: KappaValue) -> None:
        nu = tuple(x if type(x) is Fraction else Fraction(x) for x in nu)
        if len(nu) != datum.n:
            raise DimensionMismatch("vector has wrong length")
        if not datum.is_dominant(nu):
            raise ParseError(f"Newton point {_vec_str(nu)} is not dominant per block")
        if kappa.datum != datum:
            raise DimensionMismatch("kappa from a different datum")
        self._set(datum=datum, nu=nu, kappa=kappa)

    def strings(self) -> tuple[str, ...]:
        return tuple(str(x) for x in self.nu)

    def __repr__(self) -> str:
        return _vec_str(self.nu)


class NewtonData(NamedTuple):
    """The Newton map of one element: the order k of the linear part of
    w o sigma, the translation lam of its k-th power, nu = lam / k, and
    the dominant representative of nu minus the reporting shift."""

    order: int
    translation: tuple[int, ...]
    nu: RatVec
    nu_bar: NewtonPoint


class LinearPart(NamedTuple):
    """What the Newton map of w = t^trans u under a twist reads off u
    alone: the order k of the linear part u o A of w o sigma (A the
    twist's), its signs, its cycles of sign product +1 (the others add
    nothing to lam), and u(b), the share of the twist's translation b."""

    order: int
    sign: tuple[int, ...]
    cycles: tuple[tuple[int, ...], ...]
    moved: list[int]


def _linear_part(images: Sequence[int], twist: AffineMap) -> LinearPart:
    """The part of the Newton map of t^trans u (u in one-line form
    ``images``) under the twist's affine map that does not depend on
    trans: one walk over the cycles of u o A, the order accumulating
    along it."""
    # w o sigma = (t^trans u) o (v -> A v + b): linear part u o A, with
    # A's signs as u has none, and translation trans + u(b)
    tpos, sign = twist.linear
    n = len(tpos)
    seen = [False] * n
    order, cycles = 1, []
    for start in range(n):
        if seen[start]:
            continue
        cycle, prod, cur = [], 1, start
        while not seen[cur]:
            seen[cur] = True
            cycle.append(cur)
            prod *= sign[cur]
            cur = images[tpos[cur] - 1] - 1
        if prod == 1:
            cycles.append(tuple(cycle))
            order = lcm(order, len(cycle))
        else:
            order = lcm(order, 2 * len(cycle))
    moved = [0] * n
    for j, b in zip(images, twist.shift):
        moved[j - 1] += b
    return LinearPart(order, sign, tuple(cycles), moved)


def _newton_kernel(
    part: LinearPart, trans: Sequence[int], slices: Sequence[slice]
) -> tuple[list[int], list[int]]:
    """The integer part of the Newton map of t^trans u from u's linear
    part: the translation lam of the k-th power of w o sigma, and lam
    sorted decreasingly inside each block slice. One linear part serves
    every translation over the same u."""
    k, sign, moved = part.order, part.sign, part.moved
    lam = [0] * len(sign)
    for cycle in part.cycles:
        # sum_c sign(c -> q) b_c at the first coordinate q of the cycle;
        # the fixed vector lam carries it along the cycle with the signs
        total, carry = 0, 1
        for c in reversed(cycle):
            carry *= sign[c]
            total += carry * (trans[c] + moved[c])
        value = k // len(cycle) * total
        for c in cycle:
            lam[c] = value
            value *= sign[c]
    return lam, [x for block in slices for x in sorted(lam[block], reverse=True)]


def _getter(idx: Sequence[int]) -> itemgetter:
    """A getter of the entries at idx as a sequence, also for one index
    i, which ``itemgetter`` would return bare: that is read as the slice
    i:i+1, or -1: for the last entry."""
    if len(idx) > 1:
        return itemgetter(*idx)
    i = idx[0]
    return itemgetter(slice(i, i + 1 or None))


@lru_cache(maxsize=1024)
def _keying_plan(twist: AffineMap, images: IntVec, bounds: tuple[tuple[int, int], ...]) -> tuple:
    """The plan on which ``_newton_keys`` keys every translation over the
    permutation u (one-line form ``images``) under the twist's affine
    map, with blocks at the 0-based bounds (start, stop):
    (k, cycles, negated, padded, getters). k is the order of u o A, each
    cycle of sign product +1 contributes (k / L, const, plus, minus),
    plus and minus the ``itemgetter`` of its coordinates of carry +1 and
    -1 (minus None when there are none), negated tells whether some
    value is read negated, padded whether some coordinate reads the
    trailing 0, and getters holds one slot ``itemgetter`` per block.

    A plan reads the whole affine map (a cycle's constant reads u(b)),
    u and the bounds, never mu, so it is built once per (twist, u) per
    process and shared by every problem on the twist; the bound holds
    the 414 plans of a verify sweep up to n = 6 and entry 2. The plan
    is immutable."""
    k, sign, cycles, moved = _linear_part(images, twist)
    m = len(cycles)
    # the slot of each coordinate in [v_1..v_m, -v_1..-v_m, 0]: its
    # cycle's value, that value negated, or -1, the 0 at the end
    slot = [-1] * len(sign)
    plan, negated = [], False
    for i, cycle in enumerate(cycles):
        plus, minus, const, carry = [], [], 0, 1
        for c in cycle:
            # the carry is also the product of the signs before c, as
            # the cycle's product is +1
            if carry == 1:
                plus.append(c)
                slot[c] = i
                const += moved[c]
            else:
                minus.append(c)
                slot[c] = m + i
                const -= moved[c]
            carry *= sign[c]
        negated = negated or bool(minus)
        plan.append((k // len(cycle), const, _getter(plus), _getter(minus) if minus else None))
    getters = tuple(_getter(slot[lo:hi]) for lo, hi in bounds)
    return k, tuple(plan), negated, -1 in slot, getters


def _newton_keys(
    raw: Iterable[tuple[IntVec, IntVec]], twist: AffineMap, slices: Sequence[slice]
) -> dict[tuple[int, tuple[int, ...]], list[tuple[IntVec, IntVec]]]:
    """The (trans, images) pairs of raw grouped by the Newton map of
    t^trans u under the twist, in lowest terms: (k, bar) divided by
    their gcd, bar the translation lam of the k-th power of w o sigma
    sorted decreasingly inside each block slice. Two elements share a
    key exactly when their Newton points have the same dominant
    representative, bar / k.

    The pairs are keyed one permutation u at a time, on u's plan,
    ``_keying_plan``, built once per (twist, u) per process. On a cycle
    of u o A of length L and sign product +1, lam is +-v at each
    coordinate c, the sign being sign(c -> first coordinate), the
    kernel's carry, and v = k / L (sum_c carry_c moved_c + sum_c
    carry_c trans_c); on a cycle of sign product -1 it is 0. So a
    cycle's plan is k / L, the constant and two ``itemgetter`` over
    trans, the coordinates of carry +1 and -1, and each coordinate gets
    a slot in the values [v, -v, 0]. A translation then costs one sum
    or two per cycle; the slot ``itemgetter`` and sort per block run
    once per distinct values over u, and the gcd reduction once per
    distinct unreduced (k, bar).

    A flip of PGL_3 under u = 1 fixes the middle coordinate with sign
    -1 (its slot is the 0) and swaps the outer two, the last reading
    the first negated; both translations give lam = (2, 0, -2) over
    k = 2:

    >>> d = GroupDatum.pgl(3)
    >>> flip = Frobenius(AffineElement.identity(d), Sigma0(d, (0,), (True,)))
    >>> raw = [((2, 0, 0), (1, 2, 3)), ((2, 1, 0), (1, 2, 3))]
    >>> _newton_keys(raw, flip.affine_map, d.block_slices())
    {(1, (1, 0, -1)): [((2, 0, 0), (1, 2, 3)), ((2, 1, 0), (1, 2, 3))]}
    """
    by_perm: dict[IntVec, list[tuple[IntVec, IntVec]]] = {}
    for elem in raw:
        by_perm.setdefault(elem[1], []).append(elem)
    bounds = tuple((sl.start, sl.stop) for sl in slices)
    unreduced: dict[tuple[int, tuple[int, ...]], list[tuple[IntVec, IntVec]]] = {}
    for images, group in by_perm.items():
        k, plan, negated, padded, getters = _keying_plan(twist, images, bounds)
        # the members of each (k, bar) met over u, by the cycles' values
        seen: dict[tuple[int, ...], list[tuple[IntVec, IntVec]]] = {}
        for elem in group:
            t = elem[0]
            vals = [f * (c + sum(p(t)) - (sum(q(t)) if q else 0)) for f, c, p, q in plan]
            key = tuple(vals)
            members = seen.get(key)
            if members is None:
                if negated:
                    vals += [-v for v in vals]
                if padded:
                    vals.append(0)
                bar: list[int] = []
                for g in getters:
                    bar += sorted(g(vals), reverse=True)
                members = seen[key] = unreduced.setdefault((k, tuple(bar)), [])
            members.append(elem)
    keyed: dict[tuple[int, tuple[int, ...]], list[tuple[IntVec, IntVec]]] = {}
    for (k, bar), members in unreduced.items():
        g = gcd(k, *bar)
        keyed.setdefault((k // g, tuple([x // g for x in bar])), []).extend(members)
    return keyed


def newton_point(w: AffineElement, frob: Frobenius) -> NewtonData:
    """Read the Newton point off the cycles of the linear part of
    w o sigma (see the module docstring); nu_bar sorts lam blockwise
    before the one division by the order.

    >>> nd = newton_point(AffineElement.identity(GroupDatum.gl(2)),
    ...                   Frobenius.superbasic(1, 2, normalized=False))
    >>> nd.order, nd.translation, nd.nu_bar
    (2, (1, 1), (1/2, 1/2))
    """
    k, lam, bar = _element_kernel(w, frob)
    d, shift = _scaled(frob.shift)
    nu_bar = _fractions([x * d - k * sh for x, sh in zip(bar, shift)], k * d)
    return NewtonData(
        k, tuple(lam), _fractions(lam, k), NewtonPoint(w.datum, nu_bar, kappa(w))
    )


def _element_kernel(w: AffineElement, frob: Frobenius) -> tuple[int, list[int], list[int]]:
    """The integer part of the Newton map of the element w under frob,
    with no reporting shift: (k, lam, bar), k the order of the linear
    part of w o sigma and (lam, bar) the ``_newton_kernel`` of it, lam
    sorted blockwise. The Newton point is bar / k."""
    datum = w.datum
    if datum != frob.datum:
        raise DimensionMismatch("element and twist live in different data")
    part = _linear_part(w.perm.images, frob.affine_map)
    lam, bar = _newton_kernel(part, w.trans, datum.block_slices())
    return part.order, lam, bar


def _fractions(nums: Sequence[int], den: int) -> RatVec:
    """nums / den, one ``Fraction`` per run of equal numerators: a sorted
    or cycle-constant vector has few distinct entries."""
    out: list[Fraction] = []
    last: Optional[int] = None
    for x in nums:
        if x != last:
            value, last = Fraction(x, den), x
        out.append(value)
    return tuple(out)


def dominant_rep(datum: GroupDatum, vec: Sequence) -> tuple[tuple, Permutation]:
    """Blockwise weakly decreasing representative and the minimal
    length permutation z with z(vec) = rep (stable on ties)."""
    vec = tuple(vec)
    if len(vec) != datum.n:
        raise DimensionMismatch("vector has wrong length")
    images = [0] * datum.n
    rep = list(vec)
    for lo, hi in datum.block_ranges():
        idx = sorted(range(lo, hi + 1), key=lambda p: (-vec[p - 1], p))
        for slot, p in enumerate(idx):
            images[p - 1] = lo + slot
            rep[lo + slot - 1] = vec[p - 1]
    return tuple(rep), Permutation(images)


def _diamond(vec: Sequence[int], frob: Frobenius) -> tuple[int, list[int]]:
    """The sigma0-orbit average of an integer vector as (k, nums) with
    nums / k the average and k the order of sigma0's signed map."""
    datum = frob.datum
    if len(vec) != datum.n:
        raise DimensionMismatch("vector has wrong length")
    part = frob.sigma0._average
    return part.order, _newton_kernel(part, vec, ())[0]  # no blockwise sort


def diamond(mu: Sequence, frob: Frobenius) -> RatVec:
    """sigma0-orbit average (1/N) sum sigma0^i(mu): the Newton vector
    of t^mu under sigma0 alone, read off the same cycles, for entries
    that are ints or Fractions."""
    _check_ints(mu, fractions=True)
    k, nums = _diamond(mu, frob)
    return tuple(Fraction(x, k) for x in nums)
