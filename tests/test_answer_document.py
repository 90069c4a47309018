"""The answer documents: their bytes, and a judge that reads only them.

Every JSON document the CLI prints goes through ``cli._emit``'s one
writer, which must write exactly what ``json.dumps(doc, indent=2)``
writes. The writer corpus runs ``cli.main`` in process on the ``max``
problems of the ``n6`` rows and of the seed-0 twisted draw (every
trace kind), and on the other commands of tests/test_cli.py. A stdout
equals ``json.dumps(json.loads(stdout), indent=2) + "\\n"`` exactly
when the writer wrote json.dumps's bytes for a document of JSON's own
types. Hypothesis-built documents are compared with json.dumps
directly, and every other type is refused.

``judge`` checks a ``bgmu max`` document's Bruhat certificate from its
text alone, with ``parse_element``, ``AffineElement.length``,
multiplication, ``superbasic_element`` and ``newton_point``: each
chain step is a reflection whose length, counted from scratch, drops
strictly, so the chain proves end <= start (Björner-Brenti,
*Combinatorics of Coxeter Groups*, §1.4 and §2.2), and start is
t^{eps(mu)} sigma_{m,n}. On a trace of one superbasic base below the
adjoint step it also checks that the certificate is the answer's
proof: witness = end sigma^-1, x = epsilon, and the witness's Newton
point is nu_raw.
"""

import contextlib
import enum
import functools
import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bgmu import cli
from bgmu.cli import _format_group, _format_sigma0, main
from bgmu.errors import BgmuError
from bgmu.newton import Frobenius, newton_point
from bgmu.reduction import Problem
from bgmu.weyl import GroupDatum, format_element, parse_element, superbasic_element
from test_outcome_digests import _distinct, _steps, corpus

TRACE_KINDS = {"adjoint", "omega-conjugate", "product-split", "parabolic", "orbit-split",
               "base-rank-one", "base-superbasic", "bruteforce"}

# the commands of tests/test_cli.py that print JSON, other than max
OTHER_COMMANDS = [
    ["newton", "--group", "gl:2", "--w", "t[1,0]*cyc(1,2)", "--sigma", "superbasic:1/2"],
    ["newton", "--group", "gl:3", "--w", "t[2,1,0]*cyc(1,2)",
     "--sigma", "tau=t[1,0,0]*cyc(1,2,3);sigma0=-1", "--normalize"],
    ["enumerate", "--group", "gl:2", "--mu", "2,0", "--sigma", "superbasic:1/2"],
    ["enumerate", "--group", "gl:2", "--mu", "-1,-1", "--sigma", "superbasic:1/2"],
    ["adm", "--group", "gl:2", "--mu", "1,0", "--w", "t[1,0]*cyc(1,2)"],
    ["adm", "--group", "gl:2", "--mu", "1,0", "--w", "t[2,-1]"],
    ["adm", "--group", "pgl:2", "--mu", "0,0", "--w", "t[1,1]"],
    ["adm", "--group", "gl:5", "--mu", "2,2,1,0,0"],
    ["adm", "--group", "pgl:2*3", "--mu", "2,0,2,1,0"],
    ["adm", "--group", "gl:4", "--mu", "2,1,1,0"],
    ["adm", "--group", "gl:2", "--mu", "-1,-2"],
    ["verify", "--max-n", "3", "--max-entry", "2"],
]


def run(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def max_argv(mu, frob, strategy) -> list[str]:
    return ["max", "--group", _format_group(frob.datum), "--mu", ",".join(map(str, mu)),
            "--sigma", f"tau={format_element(frob.tau)};sigma0={_format_sigma0(frob.sigma0)}",
            "--strategy", strategy]


@functools.cache
def max_documents() -> tuple:
    """(problem, stdout) for each ``max`` problem of the ``n6`` rows
    and the seed-0 draw that the CLI answers; the draw's problems that
    mix GL and PGL blocks have no ``--group`` text and are left out."""
    out = []
    for name in ("n6", "constructive"):
        for _, _, _, (mu, frob, strategy) in corpus(name):
            if len(set(frob.datum.adjoint)) != 1:
                continue
            code, text = run(max_argv(mu, frob, strategy))
            if code == 0:
                out.append((Problem(mu, frob), text))
    return tuple(out)


def emitted(doc) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(doc)
    return out.getvalue()


# --- the writer --------------------------------------------------------------

def test_max_documents_cover_every_trace_kind():
    docs = max_documents()
    assert len(docs) >= 500
    assert {step["kind"] for _, text in docs for step in json.loads(text)["trace"]} == TRACE_KINDS


def test_every_max_document_is_json_dumps_indent_2():
    for problem, text in max_documents():
        assert text == json.dumps(json.loads(text), indent=2) + "\n", problem


@pytest.mark.parametrize("argv", OTHER_COMMANDS, ids=lambda argv: " ".join(argv[:4]))
def test_every_other_document_is_json_dumps_indent_2(argv):
    code, text = run(argv)
    assert code == 0
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


def test_the_verify_failure_document_is_json_dumps_indent_2(monkeypatch):
    def broken(mu, frob, strategy="auto"):
        raise BgmuError('forced "mismatch" \\ é')

    monkeypatch.setattr(cli, "solve", broken)
    code, text = run(["verify", "--max-n", "2", "--max-entry", "1"])
    assert code == 2
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


texts = st.one_of(st.text(), st.sampled_from(['"', "\\", '\\"', "\x00\x1f\x7f", "é \U0001f600",
                                              "\ud800", ""]))
leaves = st.one_of(st.none(), st.booleans(), st.integers(), st.integers(-10**20, 10**20), texts)
documents = st.recursive(
    leaves,
    lambda kids: st.one_of(st.lists(kids, max_size=4), st.dictionaries(texts, kids, max_size=4)),
    max_leaves=30,
)


@settings(max_examples=200, deadline=None)
@given(documents)
@example({"a": [], "b": {}, "c": [[], {}, [[{}]]], "": {"": []}})
@example([-10**20, 10**20 - 1, 0, -1, True, False, None])
@example({"q\"uote": "back\\slash", "ctl\x01": "\x1f\t\n", "ü": "\U0001f600"})
def test_the_writer_writes_json_dumps_bytes(doc):
    assert emitted(doc) == json.dumps(doc, indent=2) + "\n"


class Level(enum.IntEnum):
    ONE = 1


@pytest.mark.parametrize("doc", [
    {"x": 1.5}, {"x": (1, 2)}, {1: "a"}, {True: "a"}, [Level.ONE], {"a": [{"b": [0.0]}]},
], ids=["float", "tuple", "int-key", "bool-key", "int-subclass", "nested-float"])
def test_the_writer_refuses_other_types(doc):
    # json.dumps would write each of them; the writer raises rather
    # than risk other bytes
    with pytest.raises(TypeError):
        emitted(doc)


# --- the judge ---------------------------------------------------------------

def judge(problem: Problem, stdout: str) -> None:
    """Raise AssertionError unless the certificate of a ``bgmu max``
    document proves its Bruhat fact, and, on a trace of one superbasic
    base below the adjoint step, that it is the answer's proof."""
    doc = json.loads(stdout)
    cert = doc["certificate"]
    m, n, mu = cert["m"], cert["n"], cert["mu"]
    gl = GroupDatum.gl(n)
    sigma = superbasic_element(m, n)
    zero = "t[%s]" % ",".join(["0"] * n)
    cycles = "" if cert["epsilon"] == "id" else "*" + cert["epsilon"].replace(")cyc(", ")*cyc(")
    eps = parse_element(zero + cycles, gl)
    # eps t^mu = t^{eps(mu)} eps
    eps_mu = (eps * parse_element("t[%s]" % ",".join(map(str, mu)), gl)).trans
    start = parse_element(cert["start"], gl)
    assert start == parse_element("t[%s]" % ",".join(map(str, eps_mu)), gl) * sigma
    current = start
    for step in cert["chain"]:
        before, after = parse_element(step["before"], gl), parse_element(step["after"], gl)
        assert before == current
        c, d = step["cycle_conjugated"]
        assert after == before * parse_element(f"{zero}*cyc({c},{d})", gl)
        assert (before.length(), after.length()) == (step["length_before"], step["length_after"])
        assert step["length_after"] < step["length_before"]
        current = after
    end = parse_element(cert["end"], gl)
    assert end == current
    if [step["kind"] for step in doc["trace"]] != ["adjoint", "base-superbasic"]:
        return
    assert mu == list(problem.mu)
    assert parse_element(doc["witness"], gl) * sigma == end
    assert doc["x"] == cert["epsilon"]
    point = newton_point(parse_element(doc["witness"], problem.datum), problem.frob).nu_bar
    assert [str(a + b) for a, b in zip(point.nu, problem.frob.shift)] == doc["nu_raw"]


def certified() -> list:
    return [(problem, text) for problem, text in max_documents() if '"certificate"' in text]


def test_the_judge_accepts_every_certificate_of_the_corpus():
    docs = certified()
    base = [text for _, text in docs
            if [s["kind"] for s in json.loads(text)["trace"]] == ["adjoint", "base-superbasic"]]
    assert len(docs) >= 200 and len(base) >= 100
    for problem, text in docs:
        judge(problem, text)


def _swap_two_steps(cert):
    chain = cert["chain"]
    chain[0], chain[1] = chain[1], chain[0]


def _length_off_by_one(cert):
    cert["chain"][-1]["length_after"] += 1


def _end_changed(cert):
    cert["end"] = cert["chain"][-1]["before"]


@pytest.mark.parametrize("mutate", [_swap_two_steps, _length_off_by_one, _end_changed])
def test_the_judge_refuses_a_mutated_certificate(mutate):
    problem, text = next((p, t) for p, t in certified()
                         if len(json.loads(t)["certificate"]["chain"]) >= 2)
    judge(problem, text)
    doc = json.loads(text)
    mutate(doc["certificate"])
    with pytest.raises(AssertionError):
        judge(problem, json.dumps(doc, indent=2))


@pytest.mark.parametrize("n", [64, 128])
@pytest.mark.parametrize("family", [_steps, _distinct], ids=["steps", "distinct"])
def test_the_judge_accepts_large_superbasic_answers(family, n):
    # the certificate is the solver's only proof of w <= t^{x(mu)} on
    # these traces, so the judge re-checks it from the text at scale
    mu, frob = family(n), Frobenius.superbasic(n // 2 + 1, n)
    code, text = run(max_argv(mu, frob, "constructive"))
    assert code == 0
    assert [s["kind"] for s in json.loads(text)["trace"]] == ["adjoint", "base-superbasic"]
    judge(Problem(mu, frob), text)


def test_a_twenty_digit_entry_is_answered_and_judged():
    # the certificate's cost does not grow with the entries, as a walk's
    # does, whose length is about the larger entry
    argv = ["max", "--group", "gl:2", "--mu", "99999999999999999999,0", "--sigma", "superbasic:1/2"]
    code, text = run(argv)
    assert code == 0
    assert json.loads(text)["witness"] == "t[1,99999999999999999998]*cyc(1,2)"
    judge(cli._problem_from_args(cli.build_parser().parse_args(argv)), text)
