"""Byte-identity gate: the outcome line of every problem of five fixed
corpora, against one short digest per problem committed in
``outcome_digests.txt``.

The corpora:

* ``constructive`` and ``bruteforce``: ``solve`` on the 1,000 problems
  of the seed-0 twisted draw (``twisted_draw``);
* ``auto``: every fifth of the 1,000 problems of the seed-7 draw;
* ``enumerate``: ``enumerate_acceptable`` on the seed-0 draw;
* ``witness``: ``superbasic_witness`` for every coprime m < n <= 40,
  with two fixed mu per n.

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
from bgmu.reduction import solve
from bgmu.superbasic import superbasic_witness
from bgmu.weyl import format_element
from conftest import outcome_line, twisted_draw

DIGESTS = Path(__file__).resolve().parent / "outcome_digests.txt"
CORPORA = ("constructive", "bruteforce", "auto", "enumerate", "witness")
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


def corpus(name: str) -> list:
    """The problems of one corpus as (key, description, run, args)."""
    if name == "witness":
        return [
            (f"{m}/{n} {','.join(map(str, mu))}", f"m={m} n={n} mu={mu}",
             superbasic_witness, (mu, m, n))
            for n in range(2, 41) for m in range(1, n) if gcd(m, n) == 1
            for mu in _witness_mus(n)
        ]
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
