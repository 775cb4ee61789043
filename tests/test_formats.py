"""The text formats: whatever a writer writes, its reader gives back.

A value's constructor refuses a name that the reader would split or
drop, so every value built is written as a document its reader turns
into an equal value.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fiskit.errors import FormatError
from fiskit.fis import FIS, Transition, format_fis, parse_fis
from fiskit.grids import BORDER, Grid, grid, h_compose, v_compose
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
    assert all(map(token, tokens))
    assert read(write(value)) == value


def well_formed(f: dict) -> bool:
    """The rules of a system file, written independently of the
    package's own check: names are tokens, each declared once per kind,
    ``#`` is no letter, every other name is declared, and no transition
    repeats."""
    kinds = [f[key] for key in ("alphabet", "states", "classes", "transitions")]
    north, west, letter, east, south = zip(*f["transitions"]) if f["transitions"] else [()] * 5
    return (all(map(token, [*f["alphabet"], *f["states"], *f["classes"]]))
            and BORDER not in f["alphabet"] and all(len(set(k)) == len(k) for k in kinds)
            and {*f["initial_states"], *f["final_states"], *north, *south} <= set(f["states"])
            and {*f["initial_classes"], *f["final_classes"], *west, *east} <= set(f["classes"])
            and set(letter) <= set(f["alphabet"]))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_fis_writer_round_trips(data):
    # most systems declare tokens, each once, and name declared names
    # only, so most are built; a field naming any tokens mostly is not
    tokens = data.draw(st.sampled_from([GOOD, GOOD, GOOD, TOKENS]))
    unique = data.draw(st.integers(0, 3)) < 3
    f = {key: data.draw(st.lists(tokens, max_size=3, unique=unique))
         for key in ("alphabet", "states", "classes")}

    def draw(*kinds: str) -> list[tuple]:
        """Up to three tuples of names, one of each of ``kinds``; nine
        draws in ten take declared names only, the others any tokens."""
        own = data.draw(st.integers(0, 9)) < 9
        if own and not all(f[k] for k in kinds):
            return []
        parts = [st.sampled_from(f[k]) if own else tokens for k in kinds]
        return data.draw(st.lists(st.tuples(*parts), max_size=3))

    for key, kind in (("initial_states", "states"), ("initial_classes", "classes"),
                      ("final_states", "states"), ("final_classes", "classes")):
        f[key] = [name for name, in draw(kind)]
    f["transitions"] = [Transition(*t) for t in draw(
        "states", "classes", "alphabet", "classes", "states")]
    try:
        system = FIS(**f)
    except ValueError:
        assert not well_formed(f)
        return
    assert well_formed(f)
    round_trip(system, format_fis, parse_fis, [*f["alphabet"], *f["states"], *f["classes"]])


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
    except ValueError:
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
    except ValueError:
        return  # not an instance
    round_trip(p, format_pcp, parse_pcp, [*p.alphabet, *p.x, *p.y])


def test_only_the_first_pcp_line_is_the_alphabet_line():
    p = PcpInstance(x=("alphabet:b",), y=("alphabet:b",))
    assert parse_pcp(format_pcp(p)) == p
    assert parse_pcp("# a comment\n\nalphabet: b a\n# another\nab a\n").alphabet == ("b", "a")


def test_pcp_instance_checks_an_explicit_alphabet():
    with pytest.raises(ValueError, match="repeats a letter"):
        PcpInstance(x=("ab",), y=("a",), alphabet=("a", "a", "b"))
    with pytest.raises(ValueError, match="letter 'c d' is not a non-empty string"):
        PcpInstance(x=("ab",), y=("a",), alphabet=("a", "b", "c d"))
    with pytest.raises(FormatError):
        parse_pcp("alphabet: a a b\nab a\n")


# one rule for every constructor: a value that cannot be built is a ValueError
LETTER_USERS = {
    "grid": lambda a: grid([["b", a]]),
    "fis-alphabet": lambda a: FIS((a,), ("s",), ("c",), (), (), (), (), ()),
    "local-alphabet": lambda a: LocalLanguage((a,), ()),
    "tiles-target": lambda a: TileSystem(LocalLanguage(("v",), ()), (a,), (("v", a),)),
    "pcp-alphabet": lambda a: PcpInstance(("b",), ("b",), ("b", a)),
}


@pytest.mark.parametrize("letter", [BORDER, "x y", "", ["a"]],
                         ids=["border", "space", "empty", "unhashable"])
@pytest.mark.parametrize("build", LETTER_USERS.values(), ids=LETTER_USERS)
def test_every_constructor_refuses_a_bad_letter_with_a_value_error(build, letter):
    with pytest.raises(ValueError, match="[Ll]etter"):
        build(letter)


@pytest.mark.parametrize("build, message", [
    (lambda: grid([]), "^grids must have at least one row and one column$"),
    (lambda: grid([["a", "b"], ["a"]]), "^grid rows must all have the same length$"),
    (lambda: Grid(((["a"],),)), r"^letter \['a'\] is not a non-empty string"),
    (lambda: v_compose(grid([["a"]]), grid([["a", "b"]])), "^1 columns vs 2$"),
    (lambda: h_compose(grid([["a"]]), grid([["a"], ["b"]])), "^1 rows vs 2$"),
    (lambda: PcpInstance(("a$",), ("a",)), r"^the marker '\$' cannot be an instance letter$"),
    (lambda: TileSystem(LocalLanguage(("v",), ()), ("x",), ((["v"], "x"),)),
     r"^letter \['v'\] is not a non-empty string"),
], ids=["empty-grid", "ragged-grid", "unhashable-cell", "v-compose", "h-compose",
        "pcp-marker", "unhashable-map-source"])
def test_every_constructor_refuses_a_malformed_value_with_a_value_error(build, message):
    with pytest.raises(ValueError, match=message):
        build()


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
