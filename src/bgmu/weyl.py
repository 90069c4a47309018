"""Extended affine Weyl groups of GL_n type and block products.

An element is written t^lam * u with lam an integer vector of length n
and u a permutation of {1,...,n} preserving the blocks of the datum.
The permutation acts on the lattice by u(e_i) = e_{u(i)}, so the
product rule is (t^a u)(t^b v) = t^{a + u(b)} uv, with uv meaning
function composition: (uv)(i) = u(v(i)).

Lengths, descents and the Bruhat walk read one raw form, the window of
an affine permutation (Bjorner-Brenti, Combinatorics of Coxeter Groups,
8.3): on a block [lo, hi] of size n_b, t^lam u has the window

    g_p = u^-1(p) - n_b lam_p        (lo <= p <= hi),

a left descent compares two of its entries (a datum's ``_nodes``), and the length
is Shi's formula (J.-Y. Shi, LNM 1179, 1986), summed over blocks:

    len(t^lam u) = sum_{lo <= i < j <= hi} |floor((g_j - g_i) / n_b)|,

whose term for a pair i < j is |lam_i - lam_j| when u^-1(i) < u^-1(j)
and |lam_i - lam_j - 1| otherwise. The Bruhat order extends from the
affine Weyl group W_a to the full group: elements are comparable only
inside one W_a coset, detected through the per-block coordinate sums.

Elements are checked once, where they enter the program: the public
constructors of ``Permutation`` and ``AffineElement`` check that the
images are a permutation and that it preserves the blocks, and so do
``parse_element`` and ``with_datum``. Operations whose result is valid
by construction (products and inverses, and the twists of
``newton.Sigma0``) build it through ``_Frozen._unchecked``, which sets
the fields and runs no ``__init__``, so they do not repeat those checks.
Length zero, which ``omega_element``, a twist and a sub-problem's twist
require, is tested by one O(n) routine, ``_length_zero``, which keeps
its yes as the element's length.
"""

from __future__ import annotations

import re
import threading
from fractions import Fraction
from itertools import accumulate
from math import gcd
from operator import add, attrgetter
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import DimensionMismatch, InternalCheckFailed, ParseError

IntVec = tuple[int, ...]
RatVec = tuple[Fraction, ...]


class _Frozen:
    """An immutable value that checks its input. A subclass annotates its
    fields in the class body and sets them, and any attributes derived
    from them, through ``_set`` in ``__init__`` (in ``_build`` for an
    ``_Interned`` class, which returns one object per value);
    ``_unchecked`` sets the fields, in order, and skips those checks,
    for input that is valid by construction. Equality, hash and repr read the fields alone, so
    derived attributes do not count. The hash, that of ``_hash_key()``,
    is computed on first use and kept, as ``_hash``, beside them: a
    value that keys a cache is looked up many times, while most elements
    are built, read and dropped unhashed."""

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(cls.__annotations__)
        cls._key = property(attrgetter(*cls._fields))

    @classmethod
    def _unchecked(cls, *fields):
        value = object.__new__(cls)
        # one whole dict, as ``_set``'s update from its keywords makes:
        # under CPython 3.11 a __dict__ filled key by key (by update
        # from pairs) reads its attributes about three times slower
        object.__setattr__(value, "__dict__", dict(zip(cls._fields, fields)))
        return value

    def _set(self, **attrs) -> None:
        self.__dict__.update(attrs)

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._key == other._key

    def __hash__(self) -> int:
        try:
            return self.__dict__["_hash"]
        except KeyError:
            h = self.__dict__["_hash"] = hash(self._hash_key())
            return h

    def _hash_key(self) -> tuple:
        return self._key

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


# the most values that each ``_Interned`` class keeps; README's
# Concurrency section gives the traffic the tables hold
_INTERN_BOUND = 1024


class _Interned:
    """One live object per value, for a ``_Frozen`` class that lists
    this first among its bases: the constructor returns what the class's
    own ``_interned`` table keeps under ``_intern_key(*args)``, plain ints
    and bools, and only on a miss runs ``_build``, which checks and sets
    the fields, so a refused value is never stored. Misses are stored
    under one lock with ``setdefault``; a full table is emptied first.
    The hash is that of the key, so equal values hash alike however
    they were built, ``_unchecked`` included, and hashing a twist reads
    plain tuples (its shift as integer pairs), not its element, its
    automorphism and its Fractions. Pickling and copying rebuild through
    the constructor."""

    _interning = threading.Lock()

    def __new__(cls, *args, **kwargs):
        key = cls._intern_key(*args, **kwargs)
        value = cls._interned.get(key)
        if value is None:
            value = object.__new__(cls)
            value._build(*args, **kwargs)
            with _Interned._interning:
                if len(cls._interned) >= _INTERN_BOUND:
                    cls._interned.clear()
                value = cls._interned.setdefault(key, value)
        return value

    def _hash_key(self) -> tuple:
        return self._intern_key(*self._key)

    def __reduce__(self):
        return type(self), self._key


class GroupDatum(_Interned, _Frozen):
    """Block structure: an ordered tuple of GL factors.

    ``adjoint[b]`` marks the factor as a PGL quotient; arithmetic stays
    in the GL lattice and the flag only changes how Kottwitz values and
    Newton points are compared and reported.
    """

    blocks: tuple[int, ...]
    adjoint: tuple[bool, ...]

    _interned = {}  # not annotated, so not a field

    @staticmethod
    def _intern_key(blocks: tuple[int, ...], adjoint: tuple[bool, ...] = ()) -> tuple:
        return tuple(blocks), tuple(adjoint) or (False,) * len(blocks)

    def _build(self, blocks: tuple[int, ...], adjoint: tuple[bool, ...] = ()) -> None:
        blocks, adjoint = self._intern_key(blocks, adjoint)
        if not blocks or any(n < 1 for n in blocks):
            raise ParseError(f"invalid block sizes {blocks}")
        if len(adjoint) != len(blocks):
            raise ParseError("adjoint flags do not match blocks")
        # the layout is read for every element built, so it is computed
        # once here, the rank n and num_blocks included; these attributes
        # are not fields, so eq and hash still compare blocks and adjoint
        # only
        offsets = tuple(accumulate(blocks[:-1], initial=0))
        ranges = tuple((o + 1, o + n) for o, n in zip(offsets, blocks))
        self._set(
            blocks=blocks, adjoint=adjoint, n=sum(blocks), num_blocks=len(blocks),
            _offsets=offsets, _ranges=ranges,
            _slices=tuple(slice(o, o + n) for o, n in zip(offsets, blocks)),
            # the block of each 0-based position, and the simple
            # reflections that ``_length_zero`` and ``_walk`` read
            _block_of=tuple(b for b, n in enumerate(blocks) for _ in range(n)),
            _nodes=_simple_reflections(ranges, blocks),
        )

    @staticmethod
    def gl(n: int) -> "GroupDatum":
        return GroupDatum((n,))

    @staticmethod
    def pgl(n: int) -> "GroupDatum":
        return GroupDatum((n,), (True,))

    def offsets(self) -> tuple[int, ...]:
        return self._offsets

    def block_ranges(self) -> tuple[tuple[int, int], ...]:
        """1-based inclusive (start, end) per block."""
        return self._ranges

    def block_slices(self) -> tuple[slice, ...]:
        return self._slices

    def block_sums(self, vec: Sequence) -> tuple:
        return tuple([sum(vec[s]) for s in self._slices])

    def is_dominant(self, vec: Sequence) -> bool:
        """Weakly decreasing inside every block. Neighbours that are one
        object are equal, so only the others are compared: a vector of
        Fractions shared along runs costs one comparison per run."""
        for s in self.block_slices():
            part = vec[s]
            if any(a < b for a, b in zip(part, part[1:]) if a is not b):
                return False
        return True


class Permutation(_Frozen):
    """Permutation of {1,...,n} in one-line notation.

    ``images[i-1] = u(i)``. Products compose as functions applied on
    the left: (u * v)(i) = u(v(i)).

    >>> u = Permutation.from_cycles(3, [(1, 2)])
    >>> v = Permutation.from_cycles(3, [(2, 3)])
    >>> (u * v)(2)
    3
    """

    images: tuple[int, ...]

    def __init__(self, images: Iterable[int]):
        images = tuple(images)
        n = len(images)
        if sorted(images) != list(range(1, n + 1)):
            raise ParseError(f"not a permutation of 1..{n}: {images}")
        self._set(images=images)

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation._unchecked(tuple(range(1, n + 1)))

    @staticmethod
    def from_cycles(n: int, cycles: Iterable[Sequence[int]]) -> "Permutation":
        """Product of the given cycles, multiplied left to right. A cycle
        of two or more indices must hold distinct ones in 1..n; a shorter
        one is the identity."""
        cycles = [tuple(c) for c in cycles if len(c) > 1]
        for cyc in cycles:
            if len(set(cyc)) != len(cyc) or min(cyc) < 1 or max(cyc) > n:
                raise ParseError(f"not a permutation of 1..{n}: cycle {cyc}")
        return Permutation._unchecked(_cycle_product(n, cycles))

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        # a composition of permutations is one, so it is not checked again
        a, b = self.images, other.images
        return Permutation._unchecked(tuple([a[b[i] - 1] for i in range(len(a))]))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images, start=1):
            inv[j - 1] = i
        return Permutation._unchecked(tuple(inv))

    def act(self, vec: Sequence) -> tuple:
        """u(e_i) = e_{u(i)}: entry at position u(i) is vec[i-1]."""
        out = [0] * len(self.images)
        for i, j in enumerate(self.images):
            out[j - 1] = vec[i]
        return tuple(out)

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Nontrivial cycles, each starting at its least element,
        sorted by least element."""
        walk = SignedMap(self.images, (1,) * len(self.images)).cycles()
        return tuple(tuple(p + 1 for p in c) for c, _ in walk if len(c) > 1)

    def is_identity(self) -> bool:
        return all(j == i + 1 for i, j in enumerate(self.images))

    def preserves_blocks(self, datum: GroupDatum) -> bool:
        im = self.images
        return all(
            lo <= min(im[lo - 1 : hi]) and max(im[lo - 1 : hi]) <= hi
            for lo, hi in datum.block_ranges()
        )

    def __repr__(self) -> str:
        return "".join(_cycle_texts(self.images)) or "id"


class SignedMap(NamedTuple):
    """Signed coordinate permutation: position p carries vec[p-1] to
    position pos[p-1] with sign sign[p-1]."""

    pos: tuple[int, ...]
    sign: tuple[int, ...]

    @staticmethod
    def identity(n: int) -> "SignedMap":
        return SignedMap(tuple(range(1, n + 1)), (1,) * n)

    def after(self, inner: "SignedMap") -> "SignedMap":
        """self o inner."""
        pos = tuple(self.pos[p - 1] for p in inner.pos)
        sign = tuple(s * self.sign[p - 1] for p, s in zip(inner.pos, inner.sign))
        return SignedMap(pos, sign)

    def apply(self, vec: Sequence) -> tuple:
        out = [0] * len(self.pos)
        for i, (p, s) in enumerate(zip(self.pos, self.sign)):
            out[p - 1] = s * vec[i]
        return tuple(out)

    def cycles(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """The cycles of the position permutation, each as its 0-based
        coordinates in visiting order (from its least one) and the
        product of the signs met along it."""
        seen = [False] * len(self.pos)
        out = []
        for start in range(len(self.pos)):
            if seen[start]:
                continue
            cycle, sign, cur = [], 1, start
            while not seen[cur]:
                seen[cur] = True
                cycle.append(cur)
                sign *= self.sign[cur]
                cur = self.pos[cur] - 1
            out.append((tuple(cycle), sign))
        return tuple(out)


def _cycle_product(n: int, cycles: Iterable[Sequence[int]]) -> IntVec:
    """The images of the product, left to right, of cycles of distinct
    indices in 1..n, on one list: a cycle (a_1 ... a_m) on the right
    moves the images at a_2, ..., a_m, a_1 to a_1, ..., a_m."""
    images = list(range(1, n + 1))
    for cyc in cycles:
        first = images[cyc[0] - 1]
        for a, b in zip(cyc, cyc[1:]):
            images[a - 1] = images[b - 1]
        images[cyc[-1] - 1] = first
    return tuple(images)


def _product(a: IntVec, u: IntVec, b: IntVec, v: IntVec) -> tuple[IntVec, IntVec]:
    """(t^a u)(t^b v) = t^{a + u(b)} uv on plain tuples: translations
    and one-line images, unvalidated. The one product rule; callers
    that hand out elements validate them through ``AffineElement``."""
    acted = [0] * len(u)
    for j, x in zip(u, b):
        acted[j - 1] = x
    return tuple(map(add, a, acted)), tuple([u[j - 1] for j in v])


def _window(w: AffineElement) -> list[int]:
    """The window of w (module docstring), 0-based: r - n_b lam_{u(r)}
    at the position u(r)."""
    return _tuple_window(w.datum, w.trans, w.perm.images)


def _tuple_window(datum: GroupDatum, trans: IntVec, images: IntVec) -> list[int]:
    """The window of t^trans u from its raw tuples, unvalidated."""
    g = [0] * len(trans)
    for s, nb in zip(datum.block_slices(), datum.blocks):
        for r in range(s.start, s.stop):
            p = images[r] - 1
            g[p] = r + 1 - nb * trans[p]
    return g


def _from_window(datum: GroupDatum, g: Sequence[int]) -> AffineElement:
    """The element whose window is g, built checked: inv_p = lo + (g_p -
    lo) mod n_b and lam_p = (inv_p - g_p) / n_b."""
    trans, inv = [], []
    for (lo, _), nb, s in zip(datum.block_ranges(), datum.blocks, datum.block_slices()):
        for x in g[s]:
            i = lo + (x - lo) % nb
            inv.append(i)
            trans.append((i - x) // nb)
    return AffineElement(datum, trans, Permutation(inv).inverse())


def _window_length(part: Sequence[int], nb: int) -> int:
    """Shi's formula on the window part of one block of size nb: the sum
    of |(g_j - g_i) // nb| over its pairs i < j, in O(nb^2)."""
    total = 0
    for i, a in enumerate(part):
        for b in part[i + 1:]:
            total += abs((b - a) // nb)
    return total


def _tuple_length(datum: GroupDatum, trans: IntVec, images: IntVec) -> int:
    """The length of t^trans u from its raw tuples, unvalidated: Shi's
    formula on each block of its window."""
    g = _tuple_window(datum, trans, images)
    return sum(_window_length(g[s], nb) for s, nb in zip(datum.block_slices(), datum.blocks))


def _length_zero(w: AffineElement) -> bool:
    """Whether w has length zero: the kept ``_len`` if w has one, else
    whether no simple reflection is a left descent of its window, in
    O(n) (Bjorner-Brenti, 8.3), a yes being kept as ``_len = 0``. The
    one length-zero test: ``omega_element``, ``Frobenius`` and the
    reduction's ``_sub_twist`` each raise their own error on a no."""
    known = w.__dict__.get("_len")
    if known is not None:
        return known == 0
    g = _window(w)
    for _, a, c, k in w.datum._nodes:
        if g[a] - k > g[c]:
            return False
    w.__dict__["_len"] = 0
    return True


def _simple_reflections(ranges: Sequence[tuple[int, int]],
                        blocks: Sequence[int]) -> tuple[tuple[tuple[int, int], int, int, int], ...]:
    """A datum's ``_nodes``: the simple reflections in (block, node)
    order, each as (letter, a, c, k): letter is (block, node), and a, c
    are 0-based window positions. s is a left descent of w when
    g_a - k > g_c, and s w swaps the two entries: g_a becomes g_c + k
    and g_c becomes g_a - k. Node i >= 1 of a block [lo, hi] has
    a = lo + i - 1 and c = lo + i (1-based) and k = 0; node 0 has a = hi,
    c = lo and k = n_b. A block of size one has no node."""
    out = []
    for b, ((lo, hi), nb) in enumerate(zip(ranges, blocks)):
        if nb > 1:
            out.append(((b, 0), hi - 1, lo - 1, nb))
            out += [((b, i), lo + i - 2, lo + i - 1, 0) for i in range(1, nb)]
    return tuple(out)


def _swap(g: list[int], node: tuple[tuple[int, int], int, int, int]) -> None:
    """g -> the window of s w, in place, for the simple reflection s at
    ``node`` of a datum's ``_nodes``."""
    _, a, c, k = node
    g[a], g[c] = g[c] + k, g[a] - k


def _dominant_length(mu: Sequence[int]) -> int:
    """len(t^mu) for a dominant mu of one block, in O(n): with u = 1
    every pair i < j of Shi's formula adds mu_i - mu_j, so the sum is
    sum_i mu_i (n + 1 - 2 i).

    >>> _dominant_length((2, 1, 0)), AffineElement.translation(GroupDatum.gl(3), (2, 1, 0)).length()
    (4, 4)
    """
    n = len(mu)
    return sum(x * (n + 1 - 2 * i) for i, x in enumerate(mu, 1))


def _transposition_delta(lam: Sequence[int], images: Sequence[int], a: int, b: int) -> int:
    """len(w (a b)) - len(w) for w = t^lam u, given images = u in
    one-line form and a transposition (a b) inside one block.

    The product swaps the entries a and b of u^-1, which sit at the
    positions p = u(a) and q = u(b). So only the terms of Shi's formula
    (module docstring) of pairs at p or q change, and of those only the
    pair (p, q) and the pairs with a position k whose entry u^-1(k) lies
    between a and b.
    Each such term changes by one, up or down as (lam, position) orders
    the pair, so the delta is +-(1 + 2 c), with c the number of such k
    ordered strictly between p and q. It costs O(|a - b|).

    >>> lam, u, d = (2, 0, 1), (1, 2, 3), GroupDatum.gl(3)
    >>> AffineElement(d, lam, Permutation(u)).length()
    4
    >>> _transposition_delta(lam, u, 1, 3), AffineElement(d, lam, Permutation((3, 2, 1))).length()
    (-1, 3)
    """
    if a > b:
        a, b = b, a
    p, q = images[a - 1], images[b - 1]
    kp, kq = (lam[p - 1], p), (lam[q - 1], q)
    low, high = min(kp, kq), max(kp, kq)
    between = 0
    for k in images[a : b - 1]:
        if low < (lam[k - 1], k) < high:
            between += 1
    return (1 if kp < kq else -1) * (1 + 2 * between)


def _transposition_descends(lam: Sequence[int], images: Sequence[int], a: int, b: int) -> bool:
    """Whether w (a b) < w for w = t^lam u, in O(1): the sign of
    ``_transposition_delta``, which is negative exactly when (lam_p, p) >
    (lam_q, q) for p = u(min(a, b)) and q = u(max(a, b)). On a block of
    size n_b that is f(a) > f(b) for the affine permutation f(r) = u(r) +
    n_b lam_{u(r)}, the descent criterion of Bjorner-Brenti, 8.3.

    >>> _transposition_descends((2, 0, 1), (1, 2, 3), 3, 1)
    True
    """
    if a > b:
        a, b = b, a
    p, q = images[a - 1], images[b - 1]
    return (lam[p - 1], p) > (lam[q - 1], q)


class AffineElement(_Frozen):
    """t^trans * perm in the extended affine Weyl group of a datum."""

    datum: GroupDatum
    trans: tuple[int, ...]
    perm: Permutation

    def __init__(self, datum: GroupDatum, trans: Iterable[int], perm: Permutation):
        trans = tuple(trans)
        if len(trans) != datum.n or perm.n != datum.n:
            raise DimensionMismatch(
                f"rank mismatch: datum n={datum.n}, trans {len(trans)}, perm {perm.n}"
            )
        if not perm.preserves_blocks(datum):
            raise ParseError(f"permutation {perm!r} does not preserve blocks {datum.blocks}")
        self._set(datum=datum, trans=trans, perm=perm)

    @staticmethod
    def identity(datum: GroupDatum) -> "AffineElement":
        return AffineElement(datum, (0,) * datum.n, Permutation.identity(datum.n))

    @staticmethod
    def translation(datum: GroupDatum, coords: Iterable[int]) -> "AffineElement":
        return AffineElement(datum, coords, Permutation.identity(datum.n))

    @staticmethod
    def from_permutation(datum: GroupDatum, perm: Permutation) -> "AffineElement":
        return AffineElement(datum, (0,) * datum.n, perm)

    def __mul__(self, other: "AffineElement") -> "AffineElement":
        if self.datum != other.datum:
            raise DimensionMismatch("different group data")
        # both permutations preserve the blocks, so their product does
        trans, images = _product(
            self.trans, self.perm.images, other.trans, other.perm.images
        )
        return AffineElement._unchecked(self.datum, trans, Permutation._unchecked(images))

    def inverse(self) -> "AffineElement":
        uinv = self.perm.inverse()
        return AffineElement._unchecked(
            self.datum, tuple([-x for x in uinv.act(self.trans)]), uinv
        )

    def length(self) -> int:
        """Computed on first use and kept, as ``_len``, beside the fields.
        A translation t^lam adds |lam_i - lam_j| for each pair of a block,
        whatever their order, so its length is the closed form of its
        blocks sorted dominant, in O(n log n); any other element pays
        Shi's O(n^2) sum."""
        try:
            return self.__dict__["_len"]
        except KeyError:
            datum = self.datum
            if self.perm.is_identity():
                total = sum(_dominant_length(sorted(self.trans[s], reverse=True))
                            for s in datum.block_slices())
            else:
                total = _tuple_length(datum, self.trans, self.perm.images)
            self.__dict__["_len"] = total
            return total

    def kappa_raw(self) -> tuple[int, ...]:
        """Per-block coordinate sums (no adjoint reduction)."""
        return self.datum.block_sums(self.trans)

    def is_identity(self) -> bool:
        return self.perm.is_identity() and all(x == 0 for x in self.trans)

    def with_datum(self, datum: GroupDatum) -> "AffineElement":
        """Same underlying map, reinterpreted in a finer or coarser
        block structure of the same rank."""
        return AffineElement(datum, self.trans, self.perm)

    def __repr__(self) -> str:
        return format_element(self)


# --- the descent walk and the Bruhat order ----------------------------------

def _walk(datum: GroupDatum, top: list[int], low: Optional[list[int]] = None):
    """The descent walk (Bjorner-Brenti, 8.3) on windows, in place: while
    top has a left descent, take the first s in (block, node) order,
    replace top by s top, and low by s low when s is also a descent of
    low. Yields (node, whether low moved), node as the datum's ``_nodes``
    gives it.
    The order fixes only the letters of the test suite's ``reduced_word``:
    ``bruhat_leq`` returns a bool, and ``_subword_split``'s u1 was the
    same under every order on each pair of GL_2..GL_4 that the test
    ``test_subword_split_does_not_depend_on_the_descent_order`` tries.
    Callers validate only the elements they build from the windows."""
    nodes = datum._nodes
    while True:
        for node in nodes:
            _, a, c, k = node
            if top[a] - k > top[c]:
                break
        else:
            return
        _swap(top, node)
        moved = low is not None and low[a] - k > low[c]
        if moved:
            _swap(low, node)
        yield node, moved


def _same_wa_coset(w1: AffineElement, w2: AffineElement) -> Optional[AffineElement]:
    """If w1 and w2 can be compared, return w1 adjusted by central
    translations on adjoint blocks so its kappa matches w2; else None."""
    datum = w1.datum
    k1, k2 = w1.kappa_raw(), w2.kappa_raw()
    shift = [0] * datum.n
    for b, (lo, hi) in enumerate(datum.block_ranges()):
        d = k2[b] - k1[b]
        if d == 0:
            continue
        nb = datum.blocks[b]
        if not datum.adjoint[b] or d % nb != 0:
            return None
        q = d // nb
        for p in range(lo - 1, hi):
            shift[p] = q
    if all(x == 0 for x in shift):
        return w1
    return AffineElement(datum, tuple(a + s for a, s in zip(w1.trans, shift)), w1.perm)


def bruhat_leq(w1: AffineElement, w2: AffineElement) -> bool:
    """Bruhat order on the extended group: comparable only inside a
    W_a coset, then the lifting walk. While len(w1) < len(w2), take the
    first left descent s of w2 and replace w2 by s w2, and w1 by s w1
    when s is also a descent of w1; then w1 <= w2 iff the two meet."""
    if w1.datum != w2.datum:
        raise DimensionMismatch("different group data")
    w1 = _same_wa_coset(w1, w2)
    if w1 is None:
        return False
    gap = w2.length() - w1.length()
    top, low = _window(w2), _window(w1)
    steps = _walk(w1.datum, top, low)
    while gap > 0:  # w2 has a descent; a step that leaves w1 closes the gap
        gap -= not next(steps)[1]
    return gap == 0 and top == low


def _subword_split(u: AffineElement, v: AffineElement) -> tuple[AffineElement, AffineElement]:
    """u <= v v' length-additively: u = u1 u2 with u1 <= v, by the
    subword property. Walk v down its left descents to length zero,
    lifting u by each descent it shares; those letters, in reverse,
    applied to the bottom of v rebuild u1."""
    bottom = _window(v)
    moved = [node for node, hit in _walk(v.datum, bottom, _window(u)) if hit]
    for node in reversed(moved):
        _swap(bottom, node)
    u1 = _from_window(v.datum, bottom)
    return u1, u1.inverse() * u


# --- distinguished length-zero elements -------------------------------------

def superbasic_element(m: int, n: int, datum: Optional[GroupDatum] = None) -> AffineElement:
    """The length-zero element t^{varpi_{m,n}} u_{m,n} of GL_n, with
    varpi = e_1 + ... + e_m and u(k) = k + m mod n. Superbasic exactly
    because gcd(m, n) = 1, which is required here.

    >>> superbasic_element(1, 2)
    t[1,0]*cyc(1,2)
    """
    _check_superbasic(m, n)
    if datum is None:
        datum = GroupDatum.gl(n)
    if datum.blocks != (n,):
        raise DimensionMismatch("superbasic element lives in a single GL_n block")
    return omega_element(datum, (m,))


def _check_superbasic(m: int, n: int) -> None:
    _check_ints((m, n), "(m, n) =")
    if not 0 < m < n:
        raise ParseError(f"need 0 < m < n, got ({m}, {n})")
    if gcd(m, n) != 1:
        raise ParseError(f"({m}, {n}) are not coprime")


def _omega_tuples(datum: GroupDatum, kappas: Sequence[int]) -> tuple[IntVec, IntVec]:
    """The translation and the images of ``omega_element(datum, kappas)``."""
    if len(kappas) != datum.num_blocks:
        raise DimensionMismatch("one kappa per block required")
    trans: list[int] = []
    images: list[int] = []
    for (lo, _), nb, kap in zip(datum.block_ranges(), datum.blocks, kappas):
        q, m = divmod(kap, nb)
        trans += [q + 1] * m + [q] * (nb - m)
        images += range(lo + m, lo + nb)
        images += range(lo, lo + m)
    return tuple(trans), tuple(images)


def omega_element(datum: GroupDatum, kappas: Sequence[int]) -> AffineElement:
    """The length-zero element with the given per-block coordinate sums.
    Write kappa = q n_b + m with 0 <= m < n_b for a block of size n_b:
    the block gets the translation ((q+1)^m, q^(n_b-m)) and the rotation
    k -> k + m mod n_b.

    >>> omega_element(GroupDatum((2, 3)), (1, -1))
    t[1,0,0,0,-1]*cyc(1,2)*cyc(3,5,4)
    """
    trans, images = _omega_tuples(datum, kappas)
    w = AffineElement(datum, trans, Permutation(images))
    if not _length_zero(w):
        raise InternalCheckFailed("omega element is not length zero")
    return w


# --- text form ---------------------------------------------------------------

_LITERAL_RE = re.compile(r"^t\[([^\]]*)\]((?:\*cyc\([^)]*\))*)$")
_CYCLE_RE = re.compile(r"\*cyc\(([^)]*)\)")
_INT = r"\s*[+-]?[0-9]+\s*"
_INT_RE = re.compile(_INT, re.ASCII)
# a list of such integers between one separator, checked by one match
_INT_LISTS = {sep: re.compile(rf"{_INT}(?:\{sep}{_INT})*", re.ASCII) for sep in ",*"}


def _check_ints(values: Sequence, name: str = "mu", fractions: bool = False) -> None:
    """Refuse with ``ParseError``, never convert, an entry of a caller's values
    that is not an int, or with fractions an int or a Fraction: one C-level pass."""
    if not set(map(type, values)) <= ({int, Fraction} if fractions else {int}):
        kinds = "an int or a Fraction" if fractions else "an int"
        raise ParseError(f"{name} {tuple(values)} has an entry that is not {kinds}")


def _read_int(text: str, error: str) -> int:
    """The integer that text writes as an optional sign and ASCII digits,
    with optional whitespace around them, or ``ParseError(error)``: int()
    alone would also read underscores and non-ASCII digits."""
    try:
        if _INT_RE.fullmatch(text):
            return int(text)
    except ValueError:  # more digits than int() converts
        pass
    raise ParseError(error)


def _read_ints(text: str, error: str, sep: str = ",") -> IntVec:
    """The integers of ``_read_int`` that text lists between sep ("," or
    "*"), checked by one match, or ``ParseError(error)``."""
    try:
        if _INT_LISTS[sep].fullmatch(text):
            return tuple(map(int, text.split(sep)))
    except ValueError:  # more digits than int() converts
        pass
    raise ParseError(error)


def format_element(w: AffineElement) -> str:
    """Canonical literal: translation, then cycles sorted by least
    element, each starting at its least element.

    >>> d = GroupDatum.gl(2)
    >>> format_element(AffineElement(d, (1, 0), Permutation.from_cycles(2, [(1, 2)])))
    't[1,0]*cyc(1,2)'
    """
    return _element_text(_translation_text(w.trans), w.perm.images)


def _translation_text(trans: Sequence[int]) -> str:
    return "t[%s]" % ",".join(map(str, trans))


def _element_text(translation_text: str, images: Sequence[int]) -> str:
    """``format_element``'s text of t^lam u from the text of lam and the
    images of u: elements that share one translation join it once."""
    return translation_text + "".join(["*" + c for c in _cycle_texts(images)])


def _cycle_texts(images: Sequence[int]) -> list[str]:
    """``cyc(...)`` per nontrivial cycle of the one-line permutation
    images, each from its least element, in order of least element:
    one walk over images."""
    nxt = (0, *images)  # nxt[i] = u(i), 1-based
    seen = [False] * len(nxt)
    out = []
    for start in range(1, len(nxt)):
        if seen[start] or nxt[start] == start:
            continue
        cycle, cur = [start], nxt[start]
        while cur != start:
            seen[cur] = True
            cycle.append(cur)
            cur = nxt[cur]
        out.append("cyc(%s)" % ",".join(map(str, cycle)))
    return out


def parse_element(text: str, datum: GroupDatum) -> AffineElement:
    """Parse ``t[a1,...,an]`` followed by optional ``*cyc(...)`` factors.

    Cycle factors multiply left to right with function-composition
    semantics, matching the canonical output of :func:`format_element`.
    """
    text = text.strip().replace(" ", "")
    m = _LITERAL_RE.match(text)
    if not m:
        raise ParseError(f"malformed element literal: {text!r}")
    body, cycles_part = m.group(1), m.group(2)
    coords = _read_ints(body, f"bad translation entries in {text!r}") if body else ()
    n = datum.n
    if len(coords) != n:
        raise ParseError(f"expected {n} coordinates, got {len(coords)}")
    cycles, error = [], f"bad cycle entries in {text!r}"
    for spec in _CYCLE_RE.findall(cycles_part):
        cyc = _read_ints(spec, error)
        if len(set(cyc)) != len(cyc):
            raise ParseError(f"repeated index inside a cycle in {text!r}")
        if min(cyc) < 1 or max(cyc) > n:
            raise ParseError(f"cycle index out of range 1..{n} in {text!r}")
        cycles.append(cyc)
    # the cycles are checked above, so their product is a permutation
    perm = Permutation._unchecked(_cycle_product(n, cycles))
    return AffineElement(datum, coords, perm)
