"""Byte-identity gate: the outcome line of every problem of seven fixed
corpora (4,566 lines), against one short digest per problem committed in
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
  m = n // 2 + 1.

A line is ``outcome_line``'s: the answer's JSON bytes, or the refusal.
A failure names the first problem whose line changed and prints that
line. A change that alters output bytes on purpose rewrites the file
with

    PYTHONPATH=src python3 tests/test_outcome_digests.py

and says how many lines changed, and why.
"""

import hashlib
import random
from math import gcd
from pathlib import Path

import pytest

from bgmu.acceptable import enumerate_acceptable
from bgmu.newton import Frobenius, Sigma0
from bgmu.reduction import solve
from bgmu.superbasic import superbasic_witness
from bgmu.weyl import GroupDatum, format_element, omega_element
from conftest import dominant_coweights, outcome_line, twisted_draw

DIGESTS = Path(__file__).resolve().parent / "outcome_digests.txt"
CORPORA = ("constructive", "bruteforce", "auto", "enumerate", "witness", "n6", "large")
LARGE_N = (48, 64, 96, 128)
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
    return out


def corpus(name: str) -> list:
    """The problems of one corpus as (key, description, run, args)."""
    if name == "n6":
        return _n6()
    if name == "large":
        return _large()
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


def committed() -> dict:
    """corpus -> [(key, digest)] in file order."""
    out: dict = {name: [] for name in CORPORA}
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


def write() -> None:
    rows = [
        f"{name}\t{key}\t{digest(outcome_line(run, *args))}\n"
        for name in CORPORA for key, _, run, args in corpus(name)
    ]
    DIGESTS.write_text("".join(rows))
    print(f"wrote {len(rows)} digests to {DIGESTS}")


if __name__ == "__main__":
    write()
