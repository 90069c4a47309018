"""How one problem of each workload runs, what bytes it outputs, and
how those outputs are checked.

``run`` is the timed call. ``output`` turns its result into bytes
right after the call: the bytes whose digest is committed, holding
everything the check needs, so no result object
outlives its problem. ``check`` verifies those bytes independently of
the solver's own self-checks after the loop. Neither is timed.
"""

from __future__ import annotations

import contextlib
import io
import json
from fractions import Fraction

import bgmu.cli
from bgmu import (
    AffineElement,
    Frobenius,
    GroupDatum,
    Permutation,
    Sigma0,
    bruhat_leq,
    chi,
    dominant_rep,
    enumerate_acceptable,
    format_element,
    maximal_newton,
    maximal_newton_state,
    mu_diamond_acceptable,
    newton_point,
    omega_element,
    parse_element,
    polygon,
    solve,
    superbasic_element,
    superbasic_witness,
)
from bgmu.acceptable import adjoint_eq
from bgmu.newton import diamond


class ProblemFailed(Exception):
    """The program exited non-zero on a problem."""


class CheckFailed(Exception):
    """A produced output failed the benchmark's check."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def datum(problem: dict) -> GroupDatum:
    kind, spec = problem["group"].split(":")
    blocks = tuple(int(b) for b in spec.split("*"))
    return GroupDatum(blocks, (kind == "pgl",) * len(blocks))


def twist(problem: dict) -> Frobenius:
    """The twist exactly as ``bgmu max --sigma`` builds it: superbasic
    twists carry the canonical central shift, ``tau=`` twists none."""
    d = datum(problem)
    sigma0 = Sigma0(d, tuple(abs(t) - 1 for t in problem["sigma0"]),
                    tuple(t < 0 for t in problem["sigma0"]))
    frob = Frobenius(omega_element(d, tuple(problem["kappas"])), sigma0)
    if problem["sigma"].startswith("superbasic:"):
        frob = frob.with_shift(frob.canonical_shift())
    return frob


def _raw_dominant(w: AffineElement, frob: Frobenius) -> tuple:
    nd = newton_point(w, frob.with_shift((Fraction(0),) * frob.datum.n))
    return dominant_rep(frob.datum, nd.nu)[0]


def _parse_perm(text: str, n: int) -> Permutation:
    if text == "id":
        return Permutation.identity(n)
    cycles = [tuple(int(i) for i in c.split(","))
              for c in text.replace("cyc(", "").split(")") if c]
    return Permutation.from_cycles(n, cycles)


def _dumps(doc) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


class MaxDesk:
    """``bgmu max --strategy constructive`` through ``bgmu.cli.main``
    with stdout captured; the output is the stdout bytes."""

    warmup = {"group": "gl:5", "mu": [2, 1, 1, 0, 0], "sigma": "superbasic:2/5",
              "kappas": [2], "sigma0": [1]}

    @staticmethod
    def run(problem: dict) -> str:
        argv = ["max", "--group", problem["group"],
                "--mu", ",".join(map(str, problem["mu"])),
                "--sigma", problem["sigma"], "--strategy", "constructive"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = bgmu.cli.main(argv)
        if code != 0:
            raise ProblemFailed(f"exit {code}: {err.getvalue().strip()}")
        return out.getvalue()

    @staticmethod
    def output(problem: dict, raw: str) -> bytes:
        return raw.encode()

    @staticmethod
    def check(problem: dict, out: bytes) -> None:
        doc = json.loads(out)
        frob = twist(problem)
        d, mu = frob.datum, tuple(problem["mu"])
        nu_raw = tuple(Fraction(x) for x in doc["nu_raw"])
        _require(nu_raw == maximal_newton_state(mu, frob).nu_raw,
                 "nu_raw is not the maximal acceptable point")
        w = parse_element(doc["witness"], d)
        _require(_raw_dominant(w, frob) == nu_raw,
                 "the witness's Newton point is not nu_raw")
        x = _parse_perm(doc["x"], d.n)
        _require(bruhat_leq(w, AffineElement.translation(d, x.act(mu))),
                 "the witness is not below t^{x(mu)}")


class WitnessScale:
    """``superbasic_witness(mu, m, n)`` and the certificate's JSON form
    on GL_n."""

    warmup = {"group": "gl:10", "mu": [2, 2, 1, 1, 1, 0, 0, 0, 0, 0],
              "sigma": "superbasic:3/10", "kappas": [3], "sigma0": [1]}

    @staticmethod
    def run(problem: dict):
        sw = superbasic_witness(problem["mu"], problem["kappas"][0], len(problem["mu"]))
        return sw, sw.certificate.to_json_dict()

    @staticmethod
    def output(problem: dict, raw) -> bytes:
        sw, cert = raw
        return _dumps({"witness": format_element(sw.w), "x": repr(sw.x),
                       "nu": [str(v) for v in sw.nu.nu], "certificate": cert})

    @staticmethod
    def check(problem: dict, out: bytes) -> None:
        doc = json.loads(out)
        cert = doc["certificate"]
        mu, m = tuple(problem["mu"]), problem["kappas"][0]
        n = len(mu)
        d = GroupDatum.gl(n)
        w = parse_element(doc["witness"], d)
        chain = cert["chain"]
        for step, nxt in zip(chain, chain[1:] + [None]):
            _require(step["length_after"] < step["length_before"],
                     "certificate lengths do not strictly decrease")
            if nxt is not None:
                _require(nxt["before"] == step["after"], "certificate chain is broken")
        end = parse_element(cert["end"], d)
        _require(end * superbasic_element(m, n).inverse() == w,
                 "end * sigma^-1 is not the witness")
        slopes = polygon(tuple(a + b for a, b in zip(mu, chi(m, n)))).slopes
        _require(_raw_dominant(w, Frobenius.superbasic(m, n)) == slopes,
                 "the witness's Newton point is not the hull slope sequence")
        normalized = tuple(s - Fraction(m, n) for s in slopes)
        _require(normalized == maximal_newton(mu, Frobenius.superbasic(m, n)).nu,
                 "the normalized point is not maximal_newton")


class VerifySweep:
    """The body of ``bgmu verify`` for one problem: constructive solve
    with the brute-force cross-check, the enumerated acceptable set and
    the mu-diamond criterion."""

    warmup = {"group": "gl:2", "mu": [2, 0], "sigma": "superbasic:1/2",
              "kappas": [1], "sigma0": [1]}

    @staticmethod
    def run(problem: dict):
        frob = twist(problem)
        mu = tuple(problem["mu"])
        result = solve(mu, frob, strategy="auto")
        acc = enumerate_acceptable(mu, frob)
        want = mu_diamond_acceptable(mu, frob)
        got = adjoint_eq(frob.datum, result.nu_raw, diamond(mu, frob))
        return result, acc, want, got

    @staticmethod
    def output(problem: dict, raw) -> bytes:
        result, acc, want, got = raw
        return _dumps({"nu_raw": [str(v) for v in result.nu_raw],
                       "witness": format_element(result.w),
                       "acceptable": acc.to_json_dict(),
                       "acceptable_max_raw": [str(v) for v in acc.raw[acc.maximum]],
                       "mu_diamond_acceptable": want,
                       "max_is_mu_diamond": got})

    @staticmethod
    def check(problem: dict, out: bytes) -> None:
        doc = json.loads(out)
        _require(doc["acceptable_max_raw"] == doc["nu_raw"],
                 "enumerated maximum differs from the constructive one")
        _require(doc["mu_diamond_acceptable"] == doc["max_is_mu_diamond"],
                 "mu_diamond criterion mismatch")


WORKLOADS = {"max-desk": MaxDesk, "witness-scale": WitnessScale,
             "verify-sweep": VerifySweep}
