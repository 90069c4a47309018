"""Seeded problem corpora for the benchmark workloads.

A workload is a tuple of strata, each with a weight in problems per
round. A stratum's i-th problem sits at ``(i + 0.5) / weight`` rounds,
and a run of ``count`` problems takes the first ``count`` places, so
every run holds each stratum in proportion, up to one problem. No
problem occurs twice in a corpus.

Every stratum is a finite set of problems: a list of base coweights,
sorted by the size of their Weyl orbit (which sets the cost of the
Bruhat and ``adm_member`` work), each with a list of twists. The
stratum's i-th problem takes the coweight at quantile ``u0 + i * A1
(mod 1)`` and the twist at ``v0 + i * A2 (mod 1)``: a two-dimensional
low-discrepancy (R2) sequence, so that any number of problems covers
the stratum evenly, cheap and costly alike, with every coweight and
every twist of it equally likely to be reached.

The problems of a run of ``count`` problems are the same for every
seed; the seed draws the order in which they run. Problem costs are
long-tailed (a rank-9 ``adm_member`` scan takes from 0.05 to 3 s). When
the seed also moved the starts ``(u0, v0)``, 235 max-desk problems per
run gave problems_per_s, op_p90_ms and peak_rss_mb spreads (IQR over
median, ten seeds) of 28, 41 and 16 %, against 15, 15 and 0.1 % over
repeats of one seed (Python 3.11, 2-vCPU x86 VM). With the same problems
on every seed, two runs differ by machine noise and problem order only,
and the committed output digests check every seed's outputs.

A problem is a plain JSON-able dict. ``group``, ``mu`` and ``sigma``
are the command-line strings that replay it (``bgmu max --group ...
--mu ... --sigma ...``); ``kappas`` and ``sigma0`` are the same twist
in structured form, ``stratum`` and ``id`` are bookkeeping.
"""

from __future__ import annotations

import json
import random
from itertools import combinations_with_replacement, product
from math import factorial, gcd, prod

from bgmu import GroupDatum, format_element, omega_element

# Steps of the R2 sequence: 1/g and 1/g^2 for the plastic number g.
A1, A2 = 1 / 1.324717957244746, 1 / 1.324717957244746 ** 2


def _orbit_size(mu) -> int:
    """The number of distinct rearrangements of ``mu``."""
    return factorial(len(mu)) // prod(factorial(mu.count(v)) for v in set(mu))


def _coweights(n: int, spreads) -> list[list[int]]:
    """Every weakly decreasing mu in [0, s]^n reaching 0 and s, for s in
    ``spreads``, sorted by orbit size."""
    out = []
    for s in spreads:
        # the n - 2 entries between the forced s and 0, as a multiset
        for inner in combinations_with_replacement(range(s, -1, -1), n - 2):
            out.append([s, *inner, 0])
    return sorted(out, key=lambda mu: (_orbit_size(mu), mu))


def _block_coweights(shapes, spreads=(1, 2, 3)) -> list[tuple]:
    """Every ``(blocks, mu)`` whose mu is dominant per block with an
    entry spread in ``spreads`` on each block, sorted by orbit size."""
    keyed = []
    for blocks in shapes:
        per_block = [[(_orbit_size(mu), mu) for mu in _coweights(k, spreads)] for k in blocks]
        for parts in product(*per_block):
            mu = [x for _, part in parts for x in part]
            keyed.append((prod(size for size, _ in parts), blocks, mu))
    keyed.sort()
    return [(blocks, mu) for _, blocks, mu in keyed]


def _twisted(kind: str, blocks: tuple[int, ...], mu: list[int], kappas, sigma0) -> dict:
    """A problem with twist tau = omega(kappas) and block map sigma0
    (1-based targets, negative for a flip), as ``bgmu max`` takes it."""
    datum = GroupDatum(blocks, (kind == "pgl",) * len(blocks))
    tau = format_element(omega_element(datum, tuple(kappas)))
    return {"group": kind + ":" + "*".join(map(str, blocks)), "mu": mu,
            "sigma": f"tau={tau};sigma0=" + ",".join(map(str, sigma0)),
            "kappas": list(kappas), "sigma0": list(sigma0)}


def _superbasic_problem(kind: str, n: int, mu: list[int], m: int) -> dict:
    return {"group": f"{kind}:{n}", "mu": mu, "sigma": f"superbasic:{m}/{n}",
            "kappas": [m], "sigma0": [1]}


def _units(n: int) -> list[int]:
    return [m for m in range(1, n) if gcd(m, n) == 1]


def _stratum(bases: list, twists, make):
    """The draw of a stratum: ``twists(base)`` lists the twists of a base
    and ``make(base, twist)`` builds the problem. A draw that repeats an
    earlier problem is retried with ``attempt`` one higher, which moves
    to the next base, and after every base to the next twist."""
    def draw(u: float, v: float, attempt: int) -> dict:
        base = bases[(int(u * len(bases)) + attempt) % len(bases)]
        ts = twists(base)
        return make(base, ts[(int(v * len(ts)) + attempt // len(bases)) % len(ts)])
    return draw


def _kappas(blocks) -> list[tuple]:
    return list(product(*(range(k) for k in blocks)))


# --- max-desk: `bgmu max --strategy constructive` at ranks 6-9 ----------------
#
# One stratum per family and rank, all of the same weight. Single-block
# families take entry spreads 1-2, multi-block families 1-3 per block.

def _superbasic(n):
    units = _units(n)
    return _stratum(_coweights(n, (1, 2)), lambda mu: units,
                    lambda mu, m: _superbasic_problem("gl", n, mu, m))


def _inner(n):
    twists = [(kind, k) for kind in ("gl", "pgl") for k in range(1, n) if gcd(k, n) > 1]
    return _stratum(_coweights(n, (1, 2)), lambda mu: twists,
                    lambda mu, t: _twisted(t[0], (n,), mu, (t[1],), (1,)))


def _rotation(shapes):
    def make(base, kappas):
        blocks, mu = base
        r = len(blocks)
        return _twisted("gl", blocks, mu, kappas, [(b + 1) % r + 1 for b in range(r)])
    return _stratum(_block_coweights(shapes), lambda base: _kappas(base[0]), make)


def _flip(k):
    return _stratum(_block_coweights([(k, k)]), lambda base: _kappas(base[0]),
                    lambda base, kappas: _twisted("pgl", base[0], base[1], kappas, (-2, -1)))


def _two_orbit(n):
    shapes = [(a, n - a) for a in range(2, n - 1)]
    return _stratum(_block_coweights(shapes), lambda base: _kappas(base[0]),
                    lambda base, kappas: _twisted("gl", base[0], base[1], kappas, (1, 2)))


def _max_desk() -> tuple:
    return tuple(
        # (stratum, problems per round, draw)
        [(f"superbasic-{n}", 1, _superbasic(n)) for n in (6, 7, 8, 9)]
        + [(f"inner-{n}", 1, _inner(n)) for n in (6, 8, 9)]
        + [("rotation-6", 1, _rotation([(3, 3), (2, 2, 2)])),
           ("rotation-8", 1, _rotation([(4, 4), (2, 2, 2, 2)])),
           ("rotation-9", 1, _rotation([(3, 3, 3)]))]
        + [("flip-6", 1, _flip(3)), ("flip-8", 1, _flip(4))]
        + [(f"two-orbit-{n}", 1, _two_orbit(n)) for n in (6, 7, 8, 9)]
    )


# --- witness-scale: superbasic_witness on GL_n at ranks 12-32 ----------------

def _witness(n, spread):
    units = _units(n)
    return _stratum(_coweights(n, (spread,)), lambda mu: units,
                    lambda mu, m: _superbasic_problem("gl", n, mu, m))


# The one weight per rank, shared equally by the entry spreads 1, 2, 3:
# a problem takes ~40 ms at n = 12 and ~2 s at n = 32, so equal weights
# would run ~1.5 problems per second, and the 150 that a steady p90
# needs would take ~100 s. These weights run ~3.7 per second.
WITNESS_WEIGHTS = {12: 6, 16: 6, 20: 3, 24: 1, 32: 1}


def _witness_scale() -> tuple:
    return tuple((f"n{n}-s{s}", weight / 3, _witness(n, s))
                 for n, weight in WITNESS_WEIGHTS.items() for s in (1, 2, 3))


# --- verify-sweep: the body of `bgmu verify` on desk-scale problems ----------

def _verify_sweep() -> tuple:
    """Every problem of the sweep, one stratum per group: superbasic
    twists on gl:n and pgl:n for n in 3..5 with entries in {0,1,2}, and
    pgl:4 with the kappa=2 inner twist. Each stratum is weighted by its
    number of problems, so the sweep is uniform over all of them."""
    strata = []
    for n in (3, 4, 5):
        coweights = sorted((list(mu) for mu in combinations_with_replacement((2, 1, 0), n)),
                           key=lambda mu: (_orbit_size(mu), mu))
        units = _units(n)
        for kind in ("gl", "pgl"):
            strata.append((f"{kind}-{n}", len(coweights) * len(units), _stratum(
                coweights, lambda mu, units=units: units,
                lambda mu, m, kind=kind, n=n: _superbasic_problem(kind, n, mu, m))))
        if n == 4:
            strata.append(("pgl-4-inner", len(coweights), _stratum(
                coweights, lambda mu: [2],
                lambda mu, kappa: _twisted("pgl", (4,), mu, (kappa,), (1,)))))
    return tuple(strata)


def problem_key(problem: dict) -> str:
    """The replayable identity of a problem, used for de-duplication
    and as the key of the committed output digests."""
    return json.dumps([problem["group"], problem["mu"], problem["sigma"]],
                      separators=(",", ":"))


def _fill(strata, count: int) -> list[dict]:
    """The first ``count`` places of the strata, ``count`` distinct
    problems, or fewer if a stratum runs out of problems first. A
    stratum's i-th problem sits at ``(i + 0.5) / weight`` rounds, ties
    broken by a fixed draw, so a longer corpus starts with the shorter
    one."""
    rounds = count / sum(weight for _, weight, _ in strata) + 1
    slots = sorted(
        ((i + 0.5) / weight, random.Random(f"{k}:{i}").random(), k, i)
        for k, (_, weight, _) in enumerate(strata)
        for i in range(int(rounds * weight) + 1)
    )[:count]
    starts = [random.Random(k) for k in range(len(strata))]
    starts = [(r.random(), r.random()) for r in starts]
    seen: set[str] = set()
    out = []
    for _, _, k, i in slots:
        name, _, draw = strata[k]
        u0, v0 = starts[k]
        u, v = (u0 + i * A1) % 1.0, (v0 + i * A2) % 1.0
        for attempt in range(10000):
            p = draw(u, v, attempt)
            if problem_key(p) not in seen:
                break
        else:  # every problem of this stratum is in the corpus already
            break
        seen.add(problem_key(p))
        out.append(dict(p, stratum=name))
    return out


def build(workload: str, seed: int, count: int) -> list[dict]:
    """The ``count`` problems of a workload, in the run order the seed
    draws; fewer once a stratum has run out (verify-sweep has 283
    problems, max-desk about 650)."""
    strata = {"max-desk": _max_desk, "witness-scale": _witness_scale,
              "verify-sweep": _verify_sweep}
    if workload not in strata:
        raise ValueError(f"unknown workload {workload!r}")
    problems = _fill(strata[workload](), count)
    random.Random(seed).shuffle(problems)
    for i, p in enumerate(problems):
        p["id"] = i
    return problems
