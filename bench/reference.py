"""The reference kernel: a fixed piece of pure-Python work, timed
between the benchmark's problems to read the machine's speed.

On a shared host the same Python loop runs up to twice as slow in one
ten-second phase as in the next, and the CPU time of the process moves
with it, so neither wall nor CPU time of a run says how fast the
program is. The kernel is shaped like the solver's inner loop (small
immutable objects of tuples multiplied, their length summed, kept in a
dict keyed by them) but uses nothing of ``bgmu``, so a change to the
package never changes it. Dividing a problem's wall time by the
kernel's time measured around it gives the problem's time in kernel
units; ``REFERENCE_S`` turns that back into seconds at a fixed speed:
the speed at which one kernel run takes ``REFERENCE_S``.

Interleaved with a fixed set of max-desk problems for 90 s on a 2-vCPU
x86 VM, the per-3 s median of the problems' wall time moved with a
coefficient of variation of 8.5 % and their time in kernel units with
2.0 %.
"""

from __future__ import annotations

import gc
import time

# One kernel run's time at the reference speed, in seconds: the median
# over 49 benchmark runs of the kernel's median on a 2-vCPU x86 VM with
# Python 3.11 (the runs' own medians ranged from 1.13 to 2.02 ms).
REFERENCE_S = 0.0017
STEPS = 140
RANK = 8


class _Element:
    __slots__ = ("trans", "perm", "_hash")

    def __init__(self, trans: tuple, perm: tuple) -> None:
        self.trans, self.perm, self._hash = trans, perm, None

    def __mul__(self, other: "_Element") -> "_Element":
        p = self.perm
        acted = tuple(other.trans[p.index(i)] for i in range(len(p)))
        return _Element(tuple(x + y for x, y in zip(self.trans, acted)),
                        tuple(p[j] for j in other.perm))

    def length(self) -> int:
        t, p, total = self.trans, self.perm, 0
        for i in range(len(t)):
            for j in range(i + 1, len(t)):
                d = t[i] - t[j]
                total += abs(d) if p[i] < p[j] else abs(d - 1)
        return total

    def __eq__(self, other) -> bool:
        return self.trans == other.trans and self.perm == other.perm

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.trans, self.perm))
        return self._hash


def _generators() -> list[_Element]:
    gens = []
    for i in range(RANK - 1):
        p = list(range(RANK))
        p[i], p[i + 1] = p[i + 1], p[i]
        gens.append(_Element((0,) * RANK, tuple(p)))
    t, p = [0] * RANK, list(range(RANK))
    t[0], t[-1] = 1, -1
    p[0], p[-1] = p[-1], p[0]
    gens.append(_Element(tuple(t), tuple(p)))
    return gens


_GENERATORS = _generators()


def kernel() -> int:
    """One run of the fixed work; returns a checksum so that nothing of
    it can be skipped."""
    seen: dict[_Element, int] = {}
    w = _Element((0,) * RANK, tuple(range(RANK)))
    for k in range(STEPS):
        w = _GENERATORS[k * 7 % len(_GENERATORS)] * w
        seen[w] = seen.get(w, 0) + w.length()
    return sum(seen.values())


CHECKSUM = kernel()


def sample() -> float:
    """The wall time of one kernel run, in seconds. The garbage collector
    is off meanwhile, so that a collection of the program's heap is not
    read as a slow machine; the kernel leaves no garbage behind."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        got = kernel()
        elapsed = time.perf_counter() - t0
    finally:
        gc.enable()
    if got != CHECKSUM:
        raise RuntimeError("the reference kernel computed a different checksum")
    return elapsed
