"""Byte-identity gate: the outcome line of every problem of eight fixed
corpora, against one short digest per problem committed in
``outcome_digests.txt``.

The corpora:

* ``constructive`` and ``bruteforce``: ``solve`` on the 1,000 problems
  of the seed-0 twisted draw (``twisted_draw``);
* ``auto``: every fifth of the 1,000 problems of the seed-7 draw;
* ``enumerate``: ``enumerate_acceptable`` on the seed-0 draw;
* ``witness``: ``superbasic_witness`` for every coprime m < n <= 40,
  with two fixed mu per n;
* ``n6``: single blocks of rank 6, where the brute force is the largest
  it gets on one block: ``auto`` on gl:6 and pgl:6 with superbasic m in
  {1, 5}, for the 21 dominant mu with entries 0..2 and least entry 0;
  and ``bruteforce`` on block swaps of gl:3*3, whose second block reads
  the whole of its Adm(mu) rather than only its omega_1-orbit
  representatives;
* ``large``: the superbasic base at rank n in {48, 64, 96, 128}, with
  the ``witness`` corpus's two mu per n: ``superbasic_witness`` for
  every coprime m < n, and the ``constructive`` solve at
  m = n // 2 + 1; then that solve at n in {256, 512} for the two
  families of ``_steps`` and ``_distinct``, whose certificates prove
  w <= t^{x(mu)} without a walk;
* ``traces``: constructive solves whose reduction traces run above
  rank 9: gl:2k and pgl:2k with kappa 2 at 2k in {32, 64} (parabolic
  descent, orbit split, two superbasic bases), block swaps gl:k*k and
  3-cycles gl:k*k*k at k in {8, 16, 32} (omega conjugation and product
  split, the 3-cycles at kappa sum 2 with a parabolic descent after
  it; the swaps that flip one block only lift through a last-block
  sub-twist that itself carries a flip), the superbasic base with distinct entries mu = (n-1, ..., 0) at
  n in {16, 32, 48}, (10^4, 0) under superbasic 1/2, and a cyclic
  sigma0 on 64 blocks (``_many_blocks``: rank one without and with an
  odd flip, and rank two without), whose product split conjugates by
  a tau0 with 63 nonzero block factors.

A line is ``outcome_line``'s: the answer's JSON bytes, or the refusal.
A failure names the first problem whose line changed and prints that
line. A change that alters output bytes on purpose rewrites the file
with

    PYTHONPATH=src python3 tests/test_outcome_digests.py

and says how many lines changed, and why.

The file's ``split`` rows pin, on the product-split problems of
``traces``, each pair (u1, u2) that ``_subword_split`` hands to the
lift, one row per call: the outcome lines do not show the pieces, and
which pieces the split picks depends on the order of the descent walk.
"""

import hashlib
import random
from math import gcd
from pathlib import Path

import pytest

from bgmu import reduction
from bgmu.acceptable import enumerate_acceptable
from bgmu.newton import Frobenius, Sigma0
from bgmu.reduction import solve
from bgmu.superbasic import superbasic_witness
from bgmu.weyl import GroupDatum, _subword_split, format_element, omega_element
from conftest import dominant_coweights, outcome_line, twisted_draw

DIGESTS = Path(__file__).resolve().parent / "outcome_digests.txt"
CORPORA = ("constructive", "bruteforce", "auto", "enumerate", "witness", "n6", "large", "traces")
SPLIT = "split"
LARGE_N = (48, 64, 96, 128)
LARGE_SOLVE_N = (256, 512)
DRAW_SIZE = 1000


def _draw(seed: int) -> list:
    rng = random.Random(seed)
    return [twisted_draw(rng) for _ in range(DRAW_SIZE)]


def _describe(mu, frob) -> str:
    datum, s0 = frob.datum, frob.sigma0
    return (f"mu={mu} blocks={datum.blocks} adjoint={datum.adjoint}"
            f" block_to={s0.block_to} flip={s0.flip} tau={format_element(frob.tau)}")


def _witness_mus(n: int) -> tuple:
    """(2^a, 1^b, 0^c) with a, b, c as equal as n allows, and
    (3, 1^(n/2 - 1), 0^(n - n/2))."""
    return (
        tuple(sorted((i % 3 for i in range(n)), reverse=True)),
        (3,) + (1,) * (n // 2 - 1) + (0,) * (n - n // 2),
    )


# (mu, kappas) of the gl:3*3 block swaps in the n6 corpus
_SWAPS = (
    ((2, 1, 0, 2, 1, 0), (0, 0)),
    ((2, 1, 0, 2, 1, 0), (1, 1)),
    ((2, 1, 0, 1, 1, 0), (1, 0)),
    ((1, 1, 0, 2, 1, 0), (0, 1)),
    ((2, 2, 0, 1, 0, 0), (1, 2)),
    ((2, 0, 0, 2, 2, 1), (2, -1)),
    ((1, 0, 0, 2, 1, 0), (-1, 0)),
    ((2, 1, 1, 1, 0, 0), (3, 1)),
)


def _n6() -> list:
    out = []
    for adjoint in (False, True):
        group = "pgl" if adjoint else "gl"
        for m in (1, 5):
            fr = Frobenius.superbasic(m, 6, adjoint=adjoint)
            out += [(f"{group}:6 {m}/6 {','.join(map(str, mu))}", _describe(mu, fr),
                     solve, (mu, fr, "auto"))
                    for mu in dominant_coweights(6, 2) if mu[-1] == 0]
    d = GroupDatum((3, 3))
    for mu, kappas in _SWAPS:
        fr = Frobenius(omega_element(d, kappas), Sigma0(d, (1, 0), (False, False)))
        out.append((f"gl:3*3 swap {','.join(map(str, kappas))} {','.join(map(str, mu))}",
                    _describe(mu, fr), solve, (mu, fr, "bruteforce")))
    return out


def _witnesses(ns) -> list:
    return [
        (f"{m}/{n} {','.join(map(str, mu))}", f"m={m} n={n} mu={mu}",
         superbasic_witness, (mu, m, n))
        for n in ns for m in range(1, n) if gcd(m, n) == 1
        for mu in _witness_mus(n)
    ]


def _large() -> list:
    out = _witnesses(LARGE_N)
    for n in LARGE_N:
        fr = Frobenius.superbasic(n // 2 + 1, n)
        out += [(f"solve {n // 2 + 1}/{n} {','.join(map(str, mu))}", _describe(mu, fr),
                 solve, (mu, fr, "constructive"))
                for mu in _witness_mus(n)]
    for n in LARGE_SOLVE_N:
        fr = Frobenius.superbasic(n // 2 + 1, n)
        out += [(f"solve {n // 2 + 1}/{n} {family.__name__[1:]}", _describe(family(n), fr),
                 solve, (family(n), fr, "constructive"))
                for family in (_steps, _distinct)]
    return out


def _steps(n: int) -> tuple:
    """(4^q, 2^q, 1^q, 0^(n - 3q)) with q = n // 4."""
    q = n // 4
    return (4,) * q + (2,) * q + (1,) * q + (0,) * (n - 3 * q)


def _distinct(n: int) -> tuple:
    return tuple(range(n - 1, -1, -1))


def _product_splits() -> list:
    """The block swaps and 3-cycles of ``traces``, as (key, mu, frob):
    the blocks' mu are ``_steps``, then the two ``_witness_mus``."""
    out = []
    for k in (8, 16, 32):
        thirds, hook = _witness_mus(k)
        d = GroupDatum((k, k))
        for kappas, flip in (((1, 0), (False, False)), ((1, 0), (True, True)),
                             ((0, 3), (False, False)), ((1, 1), (False, True)),
                             ((2, 0), (False, True))):
            fr = Frobenius(omega_element(d, kappas), Sigma0(d, (1, 0), flip))
            name = {0: "swap", 1: "swap odd-flipped", 2: "swap flipped"}[sum(flip)]
            out.append((f"gl:{k}*{k} {name} {','.join(map(str, kappas))}",
                        _steps(k) + thirds, fr))
        d = GroupDatum((k, k, k))
        for kappas in ((1, 0, 0), (1, 1, 0)):
            fr = Frobenius(omega_element(d, kappas), Sigma0(d, (1, 2, 0), (False,) * 3))
            out.append((f"gl:{k}*{k}*{k} cycle {','.join(map(str, kappas))}",
                        _steps(k) + thirds + hook, fr))
    return out


def _traces() -> list:
    rows = []
    for n in (32, 64):
        for group, adjoint in (("gl", False), ("pgl", True)):
            fr = Frobenius.inner(omega_element(GroupDatum((n,), (adjoint,)), (2,)))
            rows.append((f"{group}:{n} kappa 2 steps", _steps(n), fr))
            if n == 32:  # distinct entries at n = 64 take 0.5 s each
                rows.append((f"{group}:{n} kappa 2 distinct", _distinct(n), fr))
    rows += _product_splits()
    for n in (16, 32, 48):
        for m in (1, n // 2 + 1):
            rows.append((f"{m}/{n} distinct", _distinct(n), Frobenius.superbasic(m, n)))
    rows.append(("1/2 10000,0", (10**4, 0), Frobenius.superbasic(1, 2)))
    rows += _many_blocks(64)
    return [(key, _describe(mu, fr), solve, (mu, fr, "constructive")) for key, mu, fr in rows]


def _many_blocks(k: int) -> list:
    """(key, mu, frob) of the cyclic sigma0 b -> b + 1 on k blocks, the
    twist tau the length-zero element with kappas -1, 0, 1, -1, ...:
    on rank-one blocks without and with a flip on block 0, and on
    rank-two blocks without. mu cycles through 0, 1, 2 per block."""
    out = []
    for size, flips, name in ((1, 0, "cycle"), (1, 1, "cycle odd-flipped"), (2, 0, "cycle")):
        d = GroupDatum((size,) * k)
        flip = (True,) * flips + (False,) * (k - flips)
        fr = Frobenius(omega_element(d, [i % 3 - 1 for i in range(k)]),
                       Sigma0(d, (*range(1, k), 0), flip))
        mu = tuple(x for i in range(k) for x in (i % 3,) + (0,) * (size - 1))
        out.append((f"{k} blocks of {size} {name}", mu, fr))
    return out


def corpus(name: str) -> list:
    """The problems of one corpus as (key, description, run, args)."""
    if name == "n6":
        return _n6()
    if name == "large":
        return _large()
    if name == "traces":
        return _traces()
    if name == "witness":
        return _witnesses(range(2, 41))
    if name == "auto":
        draw = list(enumerate(_draw(7)))[::5]
    else:
        draw = list(enumerate(_draw(0)))
    if name == "enumerate":
        return [(str(i), _describe(mu, fr), enumerate_acceptable, (mu, fr)) for i, (mu, fr) in draw]
    return [(str(i), _describe(mu, fr), solve, (mu, fr, name)) for i, (mu, fr) in draw]


def digest(line: str) -> str:
    return hashlib.sha256(line.encode()).hexdigest()[:16]


def subword_splits() -> list:
    """(key, line) for each ``_subword_split`` call of the constructive
    solves of ``_product_splits``: the row's key with the call's index,
    and the pieces u1 and u2."""
    calls: list = []

    def record(w, v):
        u1, u2 = _subword_split(w, v)
        calls.append(f"{format_element(u1)} {format_element(u2)}")
        return u1, u2

    rows = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reduction, "_subword_split", record)
        for key, mu, fr in _product_splits():
            start = len(calls)
            solve(mu, fr, "constructive")
            rows += [(f"{key} #{i}", line) for i, line in enumerate(calls[start:])]
    return rows


def committed() -> dict:
    """corpus (or ``SPLIT``) -> [(key, digest)] in file order."""
    out: dict = {name: [] for name in (*CORPORA, SPLIT)}
    for row in DIGESTS.read_text().splitlines():
        name, key, value = row.split("\t")
        out[name].append((key, value))
    return out


@pytest.mark.parametrize("name", CORPORA)
def test_outcomes_match_committed_digests(name):
    want = committed()[name]
    problems = corpus(name)
    assert [key for key, *_ in problems] == [key for key, _ in want], \
        f"the {name} corpus lists other problems than {DIGESTS.name}"
    for (key, description, run, args), (_, value) in zip(problems, want):
        line = outcome_line(run, *args)
        if digest(line) != value:
            pytest.fail(f"{name} problem {key} changed ({description}); new line:\n{line}")


def test_subword_splits_match_committed_digests():
    want = committed()[SPLIT]
    got = subword_splits()
    assert [key for key, _ in got] == [key for key, _ in want], \
        f"the product-split rows make other _subword_split calls than {DIGESTS.name} lists"
    for (key, line), (_, value) in zip(got, want):
        assert digest(line) == value, f"_subword_split changed its pieces on {key}: {line}"


def write() -> None:
    rows = [
        f"{name}\t{key}\t{digest(outcome_line(run, *args))}\n"
        for name in CORPORA for key, _, run, args in corpus(name)
    ] + [f"{SPLIT}\t{key}\t{digest(line)}\n" for key, line in subword_splits()]
    DIGESTS.write_text("".join(rows))
    print(f"wrote {len(rows)} digests to {DIGESTS}")


if __name__ == "__main__":
    write()
