"""The text formats: whatever a writer writes, its reader gives back.

A writer either raises ``FormatError`` or writes a document its reader
turns into an equal value.  It raises exactly when a token it would
write is one the reader would split or drop.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fiskit.errors import FiskitError, FormatError, InvalidLetter
from fiskit.fis import FIS, Transition, format_fis, parse_fis
from fiskit.grids import BORDER
from fiskit.pcp import PcpInstance, format_pcp, parse_pcp
from fiskit.tiles import LocalLanguage, TileSystem, format_tiles, parse_tiles

# punctuation, the key separator, comment and key look-alikes, and
# tokens that whitespace splits or that are empty
ODD = ["a", "b", "#", "#a", ":", "a:b", "alphabet:", "alphabet:b", "trans:",
       "/", ",", "(", "$", "\\", "a b", " a", "a\n", "\t", "x y", ""]
TOKENS = st.one_of(st.sampled_from(ODD), st.text("ab#:/$ \t\n", max_size=4))
# half of the values are drawn from tokens only, so that most of those
# are written and read back
GOOD = st.text("ab#:/$,(\\", min_size=1, max_size=4)
POOLS = st.sampled_from([GOOD, TOKENS])


def token(t: object) -> bool:
    """The reader keeps ``t`` as one token: written independently of
    the package's own rule."""
    return isinstance(t, str) and t != "" and not any(c.isspace() for c in t)


def round_trip(value, write, read, tokens) -> None:
    try:
        text = write(value)
    except FormatError:
        assert not all(map(token, tokens))
        return
    assert all(map(token, tokens))
    assert read(text) == value


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_fis_writer_round_trips(data):
    tokens = data.draw(POOLS)
    fields = {key: data.draw(st.lists(tokens, max_size=3)) for key in (
        "alphabet", "states", "classes", "initial_states", "initial_classes",
        "final_states", "final_classes")}
    # a quarter of the systems declare only tokens while their transitions
    # may name undeclared non-tokens, which only the transitions show
    pool = data.draw(st.sampled_from([tokens, TOKENS]))
    trans = data.draw(st.lists(st.builds(Transition, *[pool] * 5), max_size=3))
    f = FIS(transitions=trans, **fields)
    round_trip(f, format_fis, parse_fis, [*sum(fields.values(), []), *sum(trans, ())])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_tiles_writer_round_trips(data):
    tokens = data.draw(POOLS)
    local = data.draw(st.lists(GOOD.filter(lambda t: t != BORDER), max_size=3))
    target = data.draw(st.lists(tokens, min_size=1, max_size=3))
    cell = st.sampled_from([BORDER, *local])
    delta = data.draw(st.lists(st.tuples(st.tuples(cell, cell), st.tuples(cell, cell)),
                               max_size=4))
    mapping = [(a, data.draw(st.sampled_from(target))) for a in local]
    try:
        ts = TileSystem(LocalLanguage(local, delta), target, mapping)
    except (ValueError, FiskitError):
        return  # not a tile system; LocalLanguage checks its letters
    round_trip(ts, format_tiles, parse_tiles, [*local, *target])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_pcp_writer_round_trips(data):
    words = st.one_of(st.sampled_from(ODD), st.text("ab:/,", min_size=1, max_size=5))
    x = data.draw(st.lists(words, min_size=1, max_size=3))
    y = data.draw(st.lists(words, min_size=len(x), max_size=len(x)))
    # inferred, or the letters of the words in any order with odd extras
    extra = data.draw(st.lists(TOKENS, max_size=2))
    alphabet = data.draw(st.one_of(st.just([]), st.permutations(
        sorted(set("".join(x + y))) + extra)))
    try:
        p = PcpInstance(x, y, alphabet)
    except (ValueError, FiskitError):
        return  # not an instance
    round_trip(p, format_pcp, parse_pcp, [*p.alphabet, *p.x, *p.y])


def test_writers_raise_on_what_their_readers_would_split():
    f = FIS(alphabet=("a",), states=("1",), classes=("A",),
            transitions=(Transition("1", "A a", "A", "1", "2"),),
            initial_states=("1",), initial_classes=("A",),
            final_states=("1",), final_classes=("A",))
    with pytest.raises(FormatError):
        format_fis(f)  # a transition token, not a declared name
    ll = LocalLanguage(alphabet=("v",), delta=((("#", "#"), ("#", "v")),))
    with pytest.raises(FormatError):
        format_tiles(TileSystem(local=ll, target=("x y",), mapping=(("v", "x y"),)))


def test_only_the_first_pcp_line_is_the_alphabet_line():
    p = PcpInstance(x=("alphabet:b",), y=("alphabet:b",))
    assert parse_pcp(format_pcp(p)) == p
    assert parse_pcp("# a comment\n\nalphabet: b a\n# another\nab a\n").alphabet == ("b", "a")


def test_pcp_instance_checks_an_explicit_alphabet():
    with pytest.raises(ValueError):
        PcpInstance(x=("ab",), y=("a",), alphabet=("a", "a", "b"))
    with pytest.raises(InvalidLetter):
        PcpInstance(x=("ab",), y=("a",), alphabet=("a", "b", "c d"))
    with pytest.raises(FormatError):
        parse_pcp("alphabet: a a b\nab a\n")


@pytest.mark.parametrize("read, text", [
    (parse_pcp, "a# a\n"),
    (parse_pcp, "alphabet: a # b\nab a\n"),
    (parse_tiles, "alphabet: # v\ntarget: x\nmap: v x\n"),
    (parse_fis, "trans: 1 A a B\n"),
    (parse_tiles, "alphabet: v\ntile: v v v v v\n"),
], ids=["pcp-word", "pcp-alphabet", "tiles-alphabet", "fis-trans", "tiles-slash"])
def test_every_reader_raises_format_error_on_a_malformed_document(read, text):
    with pytest.raises(FormatError):
        read(text)
