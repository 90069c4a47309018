"""The input parsers, fuzzed: each returns or raises a ``BgmuError``.

``parse_element``, ``cli._parse_group``, ``cli._parse_mu`` and
``cli._parse_sigma`` read every text the command line hands on. On any
text they return a value or refuse it with a ``BgmuError`` subclass,
which ``cli.main`` prints as one line; anything else would reach the
user as a traceback. An element that ``parse_element`` returns
re-parses from its ``format_element`` text to an equal element. Every
number is read as an optional sign and ASCII digits, so no accepted
text holds an underscore or a non-ASCII digit, both of which int()
alone would read.

Group ranks stay at most 64, so no example builds more than a
desk-scale element; on the command line a larger rank is refused by
``_parse_mu`` (mu has one entry per coordinate) before any twist is
built. Everything runs in process.
"""

import re

from hypothesis import example, given, settings
from hypothesis import strategies as st

from bgmu.cli import _parse_group, _parse_mu, _parse_sigma
from bgmu.errors import BgmuError
from bgmu.weyl import GroupDatum, format_element, omega_element, parse_element

MAX_RANK = 64

# the characters of the texts the parsers read, and some they do not:
# a near-miss is likelier to reach deep than arbitrary unicode
SYNTAX = "tcy[]()*,;=:/-+_ 0123456789glpsuperbasicsigmatau\u0663\u00b2\x00"
small_ints = st.integers(-3, MAX_RANK)


def joined(items, seps=(",",)):
    return st.builds(lambda xs, sep: sep.join(map(str, xs)), items, st.sampled_from(seps))


near_text = st.text(alphabet=SYNTAX, max_size=24)


ARABIC_INDIC = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))


def misread(texts):
    """Each text with an underscore in its first number, or with all its
    digits Arabic-Indic: int() alone would read both."""
    return st.one_of(
        texts.map(lambda t: re.sub(r"[0-9]", lambda m: m.group() + "_0", t, count=1)),
        texts.map(lambda t: t.translate(ARABIC_INDIC)),
    )


group_texts = st.one_of(
    near_text,
    st.builds("{}:{}".format,
              st.sampled_from(["gl", "pgl", "GL", " pgl", "sl", ""]),
              joined(st.lists(small_ints, max_size=4), ("*", "**", ","))),
)

def _datum(blocks, adjoint):
    return GroupDatum(tuple(blocks), (adjoint,) * len(blocks))


# a GL or PGL datum of 1-4 blocks of size 1-16: rank at most 64
data_strategy = st.builds(_datum, st.lists(st.integers(1, 16), min_size=1, max_size=4),
                          st.booleans())


@st.composite
def element_texts(draw, datum):
    """A literal with about the datum's number of coordinates and
    cycles of indices near 1..n, a length-zero element's literal, or a
    near-miss text."""
    n = datum.n
    kappas = st.lists(st.integers(-3, 3), min_size=datum.num_blocks, max_size=datum.num_blocks)
    omega = st.builds(lambda ks: format_element(omega_element(datum, ks)), kappas)
    coords = draw(st.lists(st.integers(-5, 5), min_size=max(n - 1, 0), max_size=n + 1))
    cycles = draw(st.lists(st.lists(st.integers(-1, n + 1), max_size=4), max_size=3))
    text = "t[%s]" % ",".join(map(str, coords)) + "".join(
        "*cyc(%s)" % ",".join(map(str, c)) for c in cycles)
    return draw(st.one_of(st.just(text), omega, near_text, misread(st.just(text)),
                          st.builds(lambda a, b: a + b, st.just(text), near_text)))


def returns_or_refuses(parse, text, *args):
    """parse(text, *args), or None after a BgmuError; a text that int()
    alone would misread is refused."""
    try:
        value = parse(text, *args)
    except BgmuError:
        return None
    assert "_" not in text and all(c.isascii() for c in text if c.isdigit()), text
    return value


@settings(max_examples=300, deadline=None)
@given(group_texts)
@example("gl:0")
@example("pgl:")
@example("gl:3*-1")
@example("gl:1_0")
@example("gl:\u0663")
def test_parse_group_returns_or_refuses(text):
    datum = returns_or_refuses(_parse_group, text)
    assert datum is None or datum.n <= 4 * MAX_RANK


@settings(max_examples=300, deadline=None)
@given(st.one_of(near_text, joined(st.lists(st.integers(-10**20, 10**20), max_size=8))),
       st.integers(1, MAX_RANK))
@example("9" * 5000, 1)
@example("", 1)
@example("1_0", 1)
@example("\u0663,0", 2)
def test_parse_mu_returns_or_refuses(text, n):
    mu = returns_or_refuses(_parse_mu, text, n)
    assert mu is None or len(mu) == n


@settings(max_examples=250, deadline=None)
@given(data=st.data())
def test_parse_element_returns_or_refuses_and_round_trips(data):
    datum = data.draw(data_strategy)
    w = returns_or_refuses(parse_element, data.draw(element_texts(datum)), datum)
    if w is not None:
        assert parse_element(format_element(w), datum) == w


@st.composite
def twist_texts(draw, datum):
    """A twist text for the datum: superbasic m/n, or tau and sigma0
    parts with targets near 1..#blocks (a signed permutation of them
    among others), or a near-miss."""
    k, n = datum.num_blocks, datum.n
    targets = st.one_of(
        st.lists(st.integers(-k - 1, k + 1), min_size=max(k - 1, 1), max_size=k + 1),
        st.builds(lambda perm, signs: [s * (b + 1) for b, s in zip(perm, signs)],
                  st.permutations(range(k)), st.lists(st.sampled_from((1, -1)), min_size=k,
                                                      max_size=k)),
    )
    parts = [
        st.builds("superbasic:{}/{}".format, st.integers(-1, n + 1), st.sampled_from((n, 9, 0))),
        st.builds("tau={}".format, element_texts(datum)),
        st.builds("sigma0={}".format, joined(targets)),
        near_text,
    ]
    return draw(joined(st.lists(st.one_of(*parts, misread(st.one_of(*parts[:3]))), max_size=3),
                       (";", "; ", "")))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_parse_sigma_returns_or_refuses(data):
    datum = data.draw(data_strategy)
    text = data.draw(twist_texts(datum))
    frob = returns_or_refuses(_parse_sigma, text, datum, data.draw(st.booleans()))
    assert frob is None or frob.datum == datum


def _parsed(parse, *args):
    """parse(*args), or the type and message of the BgmuError it raises."""
    try:
        return parse(*args)
    except BgmuError as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_the_twist_memo_returns_what_a_fresh_parse_returns(data):
    # the kept twist equals a fresh parse of the same text, a refusal is
    # the same refusal, and a repeat returns the kept object itself
    datum = data.draw(data_strategy)
    args = (data.draw(twist_texts(datum)), datum, data.draw(st.booleans()))
    kept = _parsed(_parse_sigma, *args)
    assert kept == _parsed(_parse_sigma.__wrapped__, *args)
    again = _parsed(_parse_sigma, *args)
    if type(kept) is tuple:  # refused, and refused again
        assert again == kept
    else:
        assert again is kept
