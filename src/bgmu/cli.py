"""Command-line front end.

Subcommands:

    newton     Newton point of one element under a twist
    max        maximal acceptable point with admissible witness
    enumerate  the full acceptable set as JSON
    adm        admissible-set membership or listing
    polygon    TSV of running sums and their upper hull
    verify     oracle sweep; exit 2 with a replayable problem on mismatch

Groups are written ``gl:8``, ``pgl:4`` or ``gl:2*2``; twists either
``superbasic:m/n`` or ``tau=<element>;sigma0=<targets>`` where targets
is a comma list of 1-based block numbers, negative for a flip (for
example ``sigma0=2,-1``). All fractions are printed exactly.

Every JSON document is printed by ``_emit``, with the bytes that
``json.dumps(doc, indent=2)`` would print, but without the pure-Python
encoder that ``indent`` selects: one recursive writer, which refuses
any type outside JSON's own. The help text is the docstring above this
paragraph.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
from math import comb, gcd
from typing import Optional, Sequence

from .acceptable import (
    DEFAULT_ENUM_GUARD,
    adjoint_eq,
    adm_enumerate,
    adm_member,
    enumerate_acceptable,
    guard_limit,
    mu_diamond_acceptable,
)
from .acceptable import polygon as make_polygon
from .errors import BgmuError, GuardExceeded, InternalCheckFailed, ParseError
from .newton import Frobenius, Sigma0, diamond, kappa, newton_point
from .reduction import Problem, _solve, solve, step_json
from .superbasic import chi as chi_vec
from .weyl import (
    AffineElement,
    GroupDatum,
    _read_int,
    _read_ints,
    format_element,
    parse_element,
)

SCHEMA = "bgmu/1"

# the most problems that one ``bgmu verify`` sweep may run
# (``cmd_verify``); README's Guards section gives its headroom
VERIFY_BUDGET = 10**4


def _parse_group(text: str) -> GroupDatum:
    text = text.strip().lower()
    try:
        kind, spec = text.split(":", 1)
    except ValueError as exc:
        raise ParseError(f"group must look like gl:8 or pgl:2*2, got {text!r}") from exc
    if kind not in ("gl", "pgl"):
        raise ParseError(f"unknown group kind {kind!r}")
    blocks = _read_ints(spec, f"bad block sizes in {text!r}", "*")
    return GroupDatum(blocks, (kind == "pgl",) * len(blocks))


def _format_group(datum: GroupDatum) -> str:
    kind = "pgl" if all(datum.adjoint) and any(datum.adjoint) else "gl"
    return kind + ":" + "*".join(str(b) for b in datum.blocks)


def _format_sigma0(s: Sigma0) -> str:
    return ",".join(
        ("-" if f else "") + str(t + 1) for t, f in zip(s.block_to, s.flip)
    )


def _parse_sigma0(text: str, datum: GroupDatum) -> Sigma0:
    entries = _read_ints(text, f"bad sigma0 spec {text!r}")
    if len(entries) != datum.num_blocks:
        raise ParseError(
            f"sigma0 needs {datum.num_blocks} targets, got {len(entries)}"
        )
    return Sigma0(
        datum,
        tuple(abs(e) - 1 for e in entries),
        tuple(e < 0 for e in entries),
    )


@functools.lru_cache(maxsize=256)
def _parse_sigma(text: str, datum: GroupDatum, normalize: bool) -> Frobenius:
    """The twist that ``--sigma`` names on datum, kept per (text, datum,
    normalize). An equal twist is one object however it is built
    (``Frobenius``), so what this memo saves is the parse of repeated
    text: the element and the automorphism read and built before the
    twist's lookup. A refused text raises on every call, since no
    exception is cached."""
    text = text.strip()
    if text.startswith("superbasic:"):
        frac = text[len("superbasic:"):]
        error = f"superbasic twist must be m/n, got {frac!r}"
        m_s, _, n_s = frac.partition("/")
        m, n = _read_int(m_s, error), _read_int(n_s, error)
        if datum.blocks != (n,):
            raise ParseError(
                f"superbasic:{m}/{n} needs a single block of size {n},"
                f" got {_format_group(datum)}"
            )
        if not (0 < m < n) or gcd(m, n) != 1:
            raise ParseError(f"superbasic twist needs coprime 0 < m < n, got {m}/{n}")
        return Frobenius.superbasic(m, n, adjoint=datum.adjoint[0])
    tau = sigma0 = None
    for part in filter(None, (p.strip() for p in text.split(";"))):
        if part.startswith("tau="):
            tau = parse_element(part[4:], datum)
        elif part.startswith("sigma0="):
            sigma0 = _parse_sigma0(part[7:], datum)
        else:
            raise ParseError(f"unknown twist component {part!r}")
    if tau is None:
        tau = AffineElement.identity(datum)
    if sigma0 is None:
        sigma0 = Sigma0.identity(datum)
    frob = Frobenius(tau, sigma0)
    if normalize:
        frob = frob.with_shift(frob.canonical_shift())
    return frob


def _parse_mu(text: str, n: int) -> tuple[int, ...]:
    mu = _read_ints(text, f"bad mu {text!r}")
    if len(mu) != n:
        raise ParseError(f"mu must have {n} entries")
    return mu


def _problem_from_args(args) -> Problem:
    """The checked problem of ``--group``, ``--mu`` and ``--sigma``."""
    datum = _parse_group(args.group)
    mu = _parse_mu(args.mu, datum.n)
    return Problem(mu, _parse_sigma(args.sigma, datum, args.normalize))


@functools.lru_cache(maxsize=256)
def _twist_header(frob: Frobenius) -> tuple[str, str, str, tuple[str, ...]]:
    """The group, tau, sigma0 and shift texts of a problem on frob, kept
    per twist: only mu differs between the problems on one twist. The
    shift is central, one value per block, which is formatted once and
    repeated along the block."""
    datum, shift = frob.datum, frob.shift
    texts: list[str] = []
    for offset, nb in zip(datum.offsets(), datum.blocks):
        texts += [str(shift[offset])] * nb
    return (_format_group(datum), format_element(frob.tau), _format_sigma0(frob.sigma0),
            tuple(texts))


def _problem_json(problem: Problem) -> dict:
    """The problem as ``max``, ``enumerate``, ``verify`` and the replay
    line report it."""
    group, tau, sigma0, shift = _twist_header(problem.frob)
    return {"group": group, "mu": list(problem.mu), "tau": tau, "sigma0": sigma0,
            "shift": list(shift)}


_escape = json.encoder.encode_basestring_ascii  # the C escaper of json.dumps


def _write(o, depth: int, newlines: list[str], out: list[str]) -> None:
    """Append to out the text of o as ``json.dumps(o, indent=2)`` writes
    it at nesting depth ``depth``, where newlines[d] is "\\n" and 2d
    spaces, grown as deeper containers are reached. Only dicts with str
    keys, lists, str, int, bool and None are written: anything else (a
    float, a tuple, an int subclass or a non-str key) raises TypeError
    rather than risk other bytes than json.dumps's."""
    kind = type(o)
    if kind is str:
        out.append(_escape(o))
    elif kind is int:
        out.append(int.__repr__(o))
    elif kind is list or kind is dict:
        if not o:
            out.append("[]" if kind is list else "{}")
            return
        if len(newlines) == depth + 1:
            newlines.append(newlines[depth] + "  ")
        sep = "," + newlines[depth + 1]
        out.append("[" if kind is list else "{")
        first = len(out)
        if kind is list:
            for v in o:
                out.append(sep)
                _write(v, depth + 1, newlines, out)
        else:
            for k, v in o.items():
                if type(k) is not str:
                    raise TypeError(f"the JSON writer writes only str keys, got {k!r}")
                out.append(sep)
                out.append(_escape(k))
                out.append(": ")
                _write(v, depth + 1, newlines, out)
        out[first] = newlines[depth + 1]  # no comma before the first item
        out.append(newlines[depth])
        out.append("]" if kind is list else "}")
    elif o is True:
        out.append("true")
    elif o is False:
        out.append("false")
    elif o is None:
        out.append("null")
    else:
        raise TypeError(f"the JSON writer does not write {kind.__name__} {o!r}")


def _emit(doc: dict) -> None:
    """Print doc exactly as ``json.dumps(doc, indent=2)`` would, without
    its pure-Python encoder (``indent`` turns the C one off). The pieces
    are joined once, so each byte is copied once however deep it sits."""
    out: list[str] = []
    _write(doc, 0, ["\n"], out)
    out.append("\n")
    sys.stdout.write("".join(out))


def cmd_newton(args) -> int:
    datum = _parse_group(args.group)
    frob = _parse_sigma(args.sigma, datum, args.normalize)
    w = parse_element(args.w, datum)
    nd = newton_point(w, frob)
    normalized = nd.nu_bar.nu
    bar = tuple(a + b for a, b in zip(normalized, frob.shift))
    _emit(
        {
            "schema": SCHEMA,
            "element": format_element(w),
            "order": nd.order,
            "translation": list(nd.translation),
            "nu": [str(x) for x in nd.nu],
            "nu_bar": [str(x) for x in bar],
            "normalized": [str(x) for x in normalized],
            "kappa": list(kappa(w).values),
        }
    )
    return 0


def _replayable(cmd):
    """Run cmd(problem, args) on the parsed problem; after a failed
    internal check (a bug), print the problem on stderr as compact JSON
    to replay: the one the check carries (``reduction._solve`` attaches
    its problem), or the parsed one when it carries none."""

    def run(args) -> int:
        problem = _problem_from_args(args)
        try:
            return cmd(problem, args)
        except InternalCheckFailed as exc:
            replay = json.dumps(_problem_json(exc.problem or problem), separators=(",", ":"))
            sys.stderr.write(f"bgmu: {exc}\nbgmu: problem {replay}\n")
            return 1

    return run


@_replayable
def cmd_max(problem: Problem, args) -> int:
    result = _solve(problem, args.strategy)
    doc = {
        "schema": SCHEMA,
        "problem": _problem_json(problem),
        "nu": [str(x) for x in result.nu.nu],
        "nu_raw": [str(x) for x in result.nu_raw],
        "kappa": list(result.nu.kappa.values),
        "witness": format_element(result.w),
        "x": repr(result.x),
        "strategy": result.strategy,
        "checks": result.checks,
        "trace": [step_json(step) for step in result.trace],
    }
    if result.certificate is not None:
        doc["certificate"] = result.certificate.to_json_dict()
    _emit(doc)
    return 0


@_replayable
def cmd_enumerate(problem: Problem, args) -> int:
    acc = enumerate_acceptable(problem.mu, problem.frob)
    doc = acc.to_json_dict()
    doc["problem"] = _problem_json(problem)
    doc["mu_diamond_acceptable"] = mu_diamond_acceptable(problem.mu, problem.frob)
    _emit(doc)
    return 0


def cmd_adm(args) -> int:
    datum = _parse_group(args.group)
    mu = _parse_mu(args.mu, datum.n)
    if args.w is not None:
        w = parse_element(args.w, datum)
        ok, x = adm_member(w, mu)
        _emit(
            {
                "schema": SCHEMA,
                "element": format_element(w),
                "member": ok,
                "x": repr(x) if x is not None else None,
            }
        )
        return 0
    elements = adm_enumerate(mu, datum)
    _emit(
        {
            "schema": SCHEMA,
            "size": len(elements),
            "elements": [format_element(e) for e in elements],
        }
    )
    return 0


def cmd_polygon(args) -> int:
    n = args.n
    mu = _parse_mu(args.mu, n)
    theta = tuple(a + b for a, b in zip(mu, chi_vec(args.m, n)))
    hull = make_polygon(theta)
    out = ["k\tpartial_sum\thull"]
    partial = 0
    for k in range(n + 1):
        if k > 0:
            partial += theta[k - 1]
        out.append(f"{k}\t{partial}\t{hull.hull_value(k)}")
    sys.stdout.write("\n".join(out) + "\n")
    return 0


def cmd_verify(args) -> int:
    if args.max_n < 2 or args.max_entry < 0:
        raise ParseError("verify needs --max-n >= 2 and --max-entry >= 0")
    # the sweep reaches every rank from 2 to --max-n, so the first rank
    # that the enumeration guard refuses is refused before the sweep runs
    limit = guard_limit(DEFAULT_ENUM_GUARD)
    if args.max_n > max(limit, 1):
        raise GuardExceeded(f"enumeration guard: n={max(limit + 1, 2)} > {limit}")
    # and its size is counted before it runs: rank n has phi(n) twists,
    # each with C(max_entry + n, n) dominant mu, so the count grows like
    # max_entry^n; it stops at the first rank that passes the budget
    count = 0
    for n in range(2, args.max_n + 1):
        count += sum(gcd(m, n) == 1 for m in range(1, n)) * comb(args.max_entry + n, n)
        if count > VERIFY_BUDGET:
            raise GuardExceeded(f"verify guard: {count} problems up to n={n} > {VERIFY_BUDGET}")
    failures = []
    checked = 0
    # one superbasic twist per coprime pair m < n, built as it is reached
    twists = (Frobenius.superbasic(m, n) for n in range(2, args.max_n + 1)
              for m in range(1, n) if gcd(m, n) == 1)
    problems = ((frob, mu) for frob in twists for mu in
                itertools.combinations_with_replacement(range(args.max_entry, -1, -1), frob.datum.n))
    for frob, mu in problems:
        checked += 1
        problem = Problem(mu, frob)
        try:
            # solve checks its witness's Newton point, and
            # enumerate_acceptable its maximum, against the maximal
            # point, and each raises on a mismatch
            result = solve(mu, frob, strategy="auto")
            enumerate_acceptable(mu, frob)
            want_diamond = mu_diamond_acceptable(mu, frob)
            is_diamond = adjoint_eq(frob.datum, result.nu_raw, diamond(mu, frob))
            if want_diamond != is_diamond:
                raise BgmuError("mu_diamond criterion mismatch")
        except GuardExceeded:
            raise  # a refusal, not a mismatch: main reports it
        except BgmuError as exc:
            failures.append((problem, str(exc)))
            if not args.keep_going:
                break
    if failures:
        problem, message = failures[0]
        _emit(
            {
                "schema": SCHEMA,
                "verified": checked,
                "failures": len(failures),
                "first_failure": {
                    "problem": _problem_json(problem),
                    "error": message,
                },
            }
        )
        return 2
    _emit({"schema": SCHEMA, "verified": checked, "failures": 0})
    return 0


def _int_option(text: str) -> int:
    """An integer option's value, read as every number of the input is
    (``weyl._read_int``), refused with argparse's own message."""
    try:
        return _read_int(text, "")
    except ParseError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bgmu", description=__doc__.split("\nEvery JSON document")[0],
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, need_mu=True):
        p.add_argument("--group", required=True, help="gl:8, pgl:4 or gl:2*2")
        if need_mu:
            p.add_argument("--mu", required=True, help="comma separated integers")
        p.add_argument("--sigma", required=True,
                       help="superbasic:m/n or tau=...;sigma0=...")
        p.add_argument("--normalize", action="store_true",
                       help="report Newton points with the canonical central shift")

    p = sub.add_parser("newton", help="Newton point of one element")
    add_common(p, need_mu=False)
    p.add_argument("--w", required=True, help="element literal t[...]*cyc(...)")
    p.set_defaults(func=cmd_newton)

    p = sub.add_parser("max", help="maximal point with admissible witness")
    add_common(p)
    p.add_argument("--strategy", choices=("auto", "constructive", "bruteforce"),
                   default="auto")
    p.set_defaults(func=cmd_max)

    p = sub.add_parser("enumerate", help="the full acceptable set")
    add_common(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("adm", help="admissible set membership or listing")
    p.add_argument("--group", required=True)
    p.add_argument("--mu", required=True)
    p.add_argument("--w", help="element literal; omit to list the whole set")
    p.set_defaults(func=cmd_adm)

    p = sub.add_parser("polygon", help="running sums of mu + chi and their hull")
    p.add_argument("--mu", required=True)
    p.add_argument("--m", type=_int_option, required=True)
    p.add_argument("--n", type=_int_option, required=True)
    p.set_defaults(func=cmd_polygon)

    p = sub.add_parser("verify", help="oracle sweep over small problems")
    p.add_argument("--max-n", type=_int_option, default=3)
    p.add_argument("--max-entry", type=_int_option, default=2)
    p.add_argument("--keep-going", action="store_true")
    p.set_defaults(func=cmd_verify)
    parser.commands = sub.choices  # each command's own parser, by name (``_parse``)
    return parser


def _glue_mu(argv: Sequence[str]) -> list[str]:
    """Rewrite ``--mu -1,0`` as ``--mu=-1,0``: argparse reads a separate
    value that starts with '-' as an option unless it is one number."""
    out: list[str] = []
    for tok in argv:
        if out and out[-1] == "--mu" and tok[:1] == "-" and tok[1:2].isdigit():
            out[-1] = "--mu=" + tok
        else:
            out.append(tok)
    return out


_parser = functools.cache(build_parser)  # one parser per process


def _parse(argv: list[str]) -> argparse.Namespace:
    """argv parsed once: a command goes straight to its own parser. The
    top-level parser runs only when the first token is not a command or
    tokens are left unread, and prints its usage error or help."""
    parser = _parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is not None:
        args, rest = command.parse_known_args(argv[1:])
        if not rest:
            return args
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parse(_glue_mu(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except GuardExceeded as exc:
        sys.stderr.write(f"bgmu: guard exceeded: {exc}\n")
        return 1
    except BgmuError as exc:
        sys.stderr.write(f"bgmu: {exc}\n")
        return 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
