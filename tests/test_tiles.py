"""Tile model, local membership, the two conversions and the text format."""

from __future__ import annotations

import gc
import hashlib
import random
from collections import namedtuple
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import diagonal, make_f1, make_trivial
from generators import random_fis, random_tile_system
from fiskit import cli
from fiskit.errors import FormatError, UnknownLetter
from fiskit.fis import (
    FIS,
    Transition,
    Engine,
    check_scenario,
    enumerate_language,
    format_fis,
    parse_fis,
    recognize,
)
from fiskit.grids import BORDER, grid, sizes
from fiskit.pcp import PcpInstance, compile_pcp, witness_from_solution
from fiskit.tiles import (
    LocalLanguage,
    Tile,
    TileSystem,
    _PairTable,
    fis_to_tiles,
    format_tiles,
    parse_tiles,
    quote,
    tiles_to_fis,
    ts_language,
    ts_recognize,
)

B = BORDER
DATA = Path(__file__).resolve().parent.parent / "demos" / "data"
# the largest conversion of the benchmark: 32,567 tiles
P_BIG = PcpInstance(x=("a", "ab", "bba"), y=("baa", "aa", "bb"))


Row = namedtuple("Row", "west east")
Window = namedtuple("Window", "top bottom")


def corner_tiles(v: str) -> tuple[Tile, ...]:
    return (((B, B), (B, v)), ((B, B), (v, B)), ((B, v), (B, B)), ((v, B), (B, B)))


@pytest.fixture
def single_cell() -> TileSystem:
    # the four bordered windows of the 1x1 grid [v], nothing else
    ll = LocalLanguage(alphabet=("v",), delta=corner_tiles("v"))
    return TileSystem(local=ll, target=("x",), mapping=(("v", "x"),))


def test_quote_escapes_the_token_separators():
    assert quote("a") == "a"
    assert quote("a,b/c\\d") == "a\\,b\\/c\\\\d"
    # the escape itself is escaped: unescaped, both pairs would join to a\,b\,c
    assert ",".join(map(quote, ("a\\", "b,c"))) != ",".join(map(quote, ("a,b\\", "c")))
    assert ",".join(map(quote, ("a,b", "c"))) != ",".join(map(quote, ("a", "b,c")))
    assert "/".join(map(quote, ("a/b", "c"))) != "/".join(map(quote, ("a", "b/c")))


def test_local_language_dedups_and_checks_letters():
    t = ((B, B), (B, "v"))
    ll = LocalLanguage(alphabet=("v",), delta=(t, ((B, B), (B, "v")), t))
    assert ll.delta == (t,) and type(ll.delta[0]) is tuple
    # a tile is a tuple of tuples, never nested lists
    with pytest.raises(ValueError, match="tiles are 2x2 tuples"):
        LocalLanguage(alphabet=("v",), delta=(t, [[B, B], [B, "v"]]))
    with pytest.raises(ValueError):
        LocalLanguage(alphabet=("v",), delta=(((B, B), (B, "w")),))
    with pytest.raises(ValueError):
        LocalLanguage(alphabet=("v",), delta=(t, ((B, "v"), (B, "w"))))
    # a local letter spelled like the border would stand in for the frame
    with pytest.raises(ValueError, match="letter '#' is the reserved border symbol"):
        LocalLanguage(alphabet=(B,), delta=(((B, B), (B, B)),))


@pytest.mark.parametrize("cells", [
    (("v", "v"),),
    (("v",), ("v",)),
    (("v", "v", "v"), ("v", "v", "v")),
    ((B, B), B + "v"),
    Window((B, B), ("v", B)),
    ((B, B), Row("v", B)),
    ((B, B), [B, "v"]),
    "vv",
    7,
], ids=["1x2", "2x1", "2x3", "string-row", "namedtuple-tile", "namedtuple-row",
        "list-row", "string-tile", "int-tile"])
def test_local_language_rejects_tiles_not_2x2(cells):
    with pytest.raises(ValueError, match="tiles are 2x2 tuples"):
        LocalLanguage(alphabet=("v",), delta=(((B, B), (B, "v")), cells))


@pytest.mark.parametrize("first", [True, False], ids=["plain-first", "subclass-first"])
@pytest.mark.parametrize("subclass", [
    Window((B, B), (B, "v")),
    ((B, B), Row(B, "v")),
], ids=["namedtuple-tile", "namedtuple-row"])
def test_a_repeated_tile_is_checked_in_either_order(subclass, first):
    # the tile index keeps the first of equal tiles; a tuple subclass
    # equal to a plain tile is refused before it as after it
    t = ((B, B), (B, "v"))
    with pytest.raises(ValueError, match="tiles are 2x2 tuples"):
        LocalLanguage(alphabet=("v",), delta=(t, subclass) if first else (subclass, t))


@pytest.mark.parametrize("target", [B, "x y", ""], ids=["border", "space", "empty"])
def test_a_tile_system_checks_its_target_letters(target):
    ll = LocalLanguage(alphabet=("v",), delta=corner_tiles("v"))
    with pytest.raises(ValueError, match=f"^letter {target!r} is "):
        TileSystem(local=ll, target=(target,), mapping=(("v", target),))


def test_a_target_letter_spelled_like_the_border_is_a_format_error():
    # the only one of those targets a document spells as one token
    with pytest.raises(FormatError, match="reserved border symbol"):
        parse_tiles("alphabet: v\ntarget: #\nmap: v #\n")


def test_tile_system_requires_total_projection():
    ll = LocalLanguage(alphabet=("v", "w"), delta=corner_tiles("v"))
    with pytest.raises(ValueError):
        TileSystem(local=ll, target=("x",), mapping=(("v", "x"),))
    with pytest.raises(ValueError):
        TileSystem(local=ll, target=("x",),
                   mapping=(("v", "x"), ("w", "z")))
    with pytest.raises(ValueError, match="projection defined on unknown letter 'w'"):
        TileSystem(local=LocalLanguage(alphabet=("v",), delta=corner_tiles("v")),
                   target=("x",), mapping=(("v", "x"), ("w", "x")))


def test_local_member_single_cell():
    # the local language is the tile system projecting each letter to itself
    ll = LocalLanguage(alphabet=("v",), delta=corner_tiles("v"))
    ident = TileSystem(local=ll, target=ll.alphabet, mapping=[(a, a) for a in ll.alphabet])
    assert oracles.local_accepts(ll.delta, grid(["v"])) and ts_recognize(ident, grid(["v"]))
    # the vertical pair needs interior edge tiles the set lacks
    assert not oracles.local_accepts(ll.delta, grid(["v", "v"]))
    assert not ts_recognize(ident, grid(["v", "v"]))
    with pytest.raises(UnknownLetter):
        ts_recognize(ident, grid(["w"]))


def test_ts_recognize_single_cell(single_cell):
    assert ts_recognize(single_cell, grid(["x"]))
    assert not ts_recognize(single_cell, grid(["x", "x"]))
    assert not ts_recognize(single_cell, grid(["xx"]))
    with pytest.raises(UnknownLetter):
        ts_recognize(single_cell, grid(["y"]))


def test_ts_language_single_cell(single_cell):
    assert [g.cells for g in ts_language(single_cell, 2, 2)] == [(("x",),)]


def test_two_preimages_one_needed():
    # u tiles cannot close the east border, v tiles can; h merges them
    ll = LocalLanguage(
        alphabet=("u", "v"),
        delta=(((B, B), (B, "u")),) + corner_tiles("v"),
    )
    ts = TileSystem(local=ll, target=("x",),
                    mapping=(("u", "x"), ("v", "x")))
    assert ts_recognize(ts, grid(["x"]))


def test_missing_corner_window_rejects():
    # without the bottom-right corner tile no bordered picture completes
    ll = LocalLanguage(alphabet=("v",), delta=corner_tiles("v")[:3])
    ts = TileSystem(local=ll, target=("x",), mapping=(("v", "x"),))
    g = grid(["x"])
    assert not oracles.local_accepts(ll.delta, grid(["v"]))
    assert not ts_recognize(ts, g)
    assert recognize(tiles_to_fis(ts), g) is None


def test_fis_to_tiles_f1_shape(f1):
    ts = fis_to_tiles(f1)
    assert len(ts.local.alphabet) == 3
    assert len(ts.local.delta) == 20
    assert ((B, B), (B, B)) in ts.local.delta
    assert ts.target == ("a", "b", "c")
    assert dict(ts.mapping) == {
        "(1,A,a,B,2)": "a", "(1,B,b,B,1)": "b", "(2,A,c,A,2)": "c",
    }


def test_fis_to_tiles_f1_recognition(f1, diag1, diag2, diag3):
    ts = fis_to_tiles(f1)
    for g in (diag1, diag2, diag3):
        assert ts_recognize(ts, g)
    for g in (grid(["ab"]), grid(["ba"]), grid(["a", "a"])):
        assert not ts_recognize(ts, g)


def test_fis_to_tiles_f1_language(f1):
    ts = fis_to_tiles(f1)
    assert ts_language(ts, 3, 3) == enumerate_language(f1, 3, 3)


def test_round_trip_preserves_language(f1):
    back = tiles_to_fis(fis_to_tiles(f1))
    assert enumerate_language(back, 3, 3) == enumerate_language(f1, 3, 3)


def test_fis_to_tiles_matches_oracle_on_random_systems():
    rng = random.Random(915)
    for _ in range(20):
        f = random_fis(rng)
        ts = fis_to_tiles(f)
        delta = set(ts.local.delta)
        for g in oracles.all_grids(f.alphabet, 2, 2):
            want = oracles.accepts(f, g)
            assert ts_recognize(ts, g) == want
            assert oracles.ts_accepts_by_preimages(
                ts.local.alphabet, dict(ts.mapping), delta, g) == want


def test_tiles_to_fis_matches_oracle_on_random_systems():
    rng = random.Random(916)
    for _ in range(20):
        ts = random_tile_system(rng)
        f = tiles_to_fis(ts)
        delta = set(ts.local.delta)
        for g in oracles.all_grids(ts.target, 2, 2):
            want = oracles.ts_accepts_by_preimages(
                ts.local.alphabet, dict(ts.mapping), delta, g)
            assert ts_recognize(ts, g) == want
            assert (recognize(f, g) is not None) == want


def test_fis_to_tiles_names_transitions_apart():
    # without quoting both transitions are the local letter (1,A,a,B,E,s)
    f = FIS(alphabet=("a,B", "B"), states=("1", "s"), classes=("A", "A,a", "E"),
            transitions=(Transition("1", "A", "a,B", "E", "s"),
                         Transition("1", "A,a", "B", "E", "s")),
            initial_states=("1",), initial_classes=("A",),
            final_states=("s",), final_classes=("E",))
    ts = fis_to_tiles(f)
    assert ts.local.alphabet == ("(1,A,a\\,B,E,s)", "(1,A\\,a,B,E,s)")
    assert recognize(f, grid([["B"]])) is None
    assert not ts_recognize(ts, grid([["B"]]))
    assert ts_recognize(ts, grid([["a,B"]]))


def test_fis_to_tiles_matches_oracle_with_punctuated_names():
    rng = random.Random(1)
    for i in range(200):
        f = random_fis(rng, states=("x", "x,y", "y"), classes=("x", "y,x", "y"),
                       alphabet=("x", "x,y", "y,x"))
        ts = fis_to_tiles(f)
        assert len(set(ts.local.alphabet)) == len(ts.local.alphabet), i
        for g in oracles.all_grids(f.alphabet, 2, 2):
            assert ts_recognize(ts, g) == oracles.accepts(f, g), (i, g.cells)


def test_tiles_to_fis_matches_oracle_with_punctuated_letters():
    rng = random.Random(1)
    for i in range(200):
        ts = random_tile_system(rng, sources=("p", "p,p", "p/p"))
        f = tiles_to_fis(ts)
        table = _PairTable(ts)
        for flag in "FC":  # distinct pairs get distinct names
            assert len({table.name(p, flag) for p in range(2 * table.kk)}) == 2 * table.kk, i
        delta = set(ts.local.delta)
        for g in oracles.all_grids(ts.target, 2, 2):
            want = oracles.ts_accepts_by_preimages(
                ts.local.alphabet, dict(ts.mapping), delta, g)
            assert (recognize(f, g) is not None) == want, (i, g.cells)


def test_ts_language_matches_tiles_to_fis_enumeration():
    rng = random.Random(917)
    for _ in range(20):
        ts = random_tile_system(rng)
        assert ts_language(ts, 3, 2) == enumerate_language(tiles_to_fis(ts), 3, 2)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.sampled_from("abc"), min_size=1, max_size=3),
                min_size=1, max_size=3).filter(
                    lambda rows: len({len(r) for r in rows}) == 1))
def test_conversion_agrees_on_arbitrary_grids(rows):
    f = make_f1()
    g = grid(rows)
    assert ts_recognize(fis_to_tiles(f), g) == (recognize(f, g) is not None)


def test_text_round_trip(single_cell):
    text = format_tiles(single_cell)
    assert parse_tiles(text) == single_cell
    assert format_tiles(parse_tiles(text)) == text


def test_conversion_bytes_are_pinned():
    text = format_tiles(fis_to_tiles(compile_pcp(P_BIG)))
    assert text.count("\n") == 32810
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "3ed8f762ce90a0b0af1f386040d08dd0912c4d6083557c6b05ce355cf0eb4a6e")
    text = format_tiles(fis_to_tiles(parse_fis((DATA / "diagonal.fis").read_text())))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "a628e08d3fc8f40a1869ebdb52b98f5ac99c95980d66f69f9c640ab867611213")


def test_reverse_conversion_bytes_are_pinned():
    # entries in first-tile order, each entry's moves in tile order, and
    # final states and classes declared in tile order
    diag = fis_to_tiles(parse_fis((DATA / "diagonal.fis").read_text()))
    text = format_fis(tiles_to_fis(diag))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "9ca263bf55aa0a68ac94fcda3d9c724de361a75f778466910a8e08931f21a9c2")
    rng = random.Random(1)
    digest = hashlib.sha256()
    for _ in range(200):
        ts = random_tile_system(rng, sources=("p", "p,p", "p/p"))
        digest.update(format_fis(tiles_to_fis(ts)).encode())
    assert digest.hexdigest() == (
        "36f0eb4f00da808085a58589b755fc264bbdbe584cdea5cc251f965ce53bc68b")


def test_conversion_leaves_the_cyclic_collector_nothing_to_track():
    # tiles are tuples of strings, which the collector stops tracking,
    # so a large tile set adds no work to any later collection; nor do
    # the tile index, the distinct rows and the engine built from them
    f = compile_pcp(P_BIG)
    gc.collect()
    before = len(gc.get_objects())
    ts = fis_to_tiles(f)
    gc.collect()
    assert len(ts.local.delta) == 32567
    assert len(gc.get_objects()) - before < 1000
    assert ts_recognize(ts, witness_from_solution(P_BIG, (3, 2, 3, 1)))
    gc.collect()
    assert len(gc.get_objects()) - before < 1000


def test_tile_engine_never_reads_the_tile_list():
    # compiling reads the distinct rows, and a search looks windows up
    # in the tile index: neither walks the 32,567 tiles
    ts = fis_to_tiles(compile_pcp(P_BIG))
    reads = []

    class Watched(tuple):
        def __iter__(self):
            reads.append("iter")
            return super().__iter__()

        def __getitem__(self, i):
            reads.append("getitem")
            return super().__getitem__(i)

        def __contains__(self, t):
            reads.append("contains")
            return super().__contains__(t)

    object.__setattr__(ts.local, "delta", Watched(ts.local.delta))
    assert ts._engine.k == 242
    assert ts_recognize(ts, witness_from_solution(P_BIG, (3, 2, 3, 1)))
    assert reads == []


def test_parse_rejects_malformed():
    with pytest.raises(FormatError):
        parse_tiles("alphabet: v\nnonsense line\n")
    with pytest.raises(FormatError):
        parse_tiles("alphabet: v\ntarget: x\nmap: v x\ntile: v v / v\n")
    with pytest.raises(FormatError, match="^line 3: map needs 2 tokens"):
        parse_tiles("# a tile system\n\nmap: v\nalphabet: v\ntarget: x\n")
    with pytest.raises(FormatError):
        parse_tiles("alien: v\n")
    # projection not total on the alphabet
    with pytest.raises(FormatError):
        parse_tiles("alphabet: v\ntarget: x\ntile: # # / # v\n")


def test_ts_language_depth_is_not_limited_by_recursion():
    # the bordered 1x700 grid has 2106 cells, one walk level each
    got = ts_language(fis_to_tiles(make_trivial()), 1, 700)
    assert len(got) == 700
    assert got[-1] == grid([["a"] * 700])


def test_ts_recognize_deep_grid():
    ts = fis_to_tiles(make_trivial())
    assert ts_recognize(ts, grid([["a"] * 700]))
    # rejected only at the south frame, after the walk crossed every cell
    assert not ts_recognize(fis_to_tiles(make_f1()), grid([["a"] + ["b"] * 699]))


def test_each_tile_system_is_compiled_once(monkeypatch):
    built = []
    init = Engine.__init__

    def counting_init(self, *args):
        built.append(type(self))
        init(self, *args)

    monkeypatch.setattr(Engine, "__init__", counting_init)
    f = make_f1()
    ts = fis_to_tiles(f)
    for n in range(1, 6):
        assert ts_recognize(ts, diagonal(n))
    assert ts_language(ts, 3, 3) == enumerate_language(f, 3, 3)
    # one engine for the tile system, then one for f
    assert built == [_PairTable, Engine]
    assert type(ts._engine) is _PairTable
    # a dict subclass reads four attributes 2x slower: 0.207 vs 0.104 s per million (CPython 3.11.7)
    assert not issubclass(type(ts._engine), dict)


@pytest.mark.parametrize("sources", [("p", "q", "r"), ("p", "p,p", "p/p")],
                         ids=["default", "punctuated"])
def test_tile_engine_scenarios_replay_on_tiles_to_fis(sources):
    # the engine derives the transitions of tiles_to_fis on request, so
    # its canonical run, spelled, is the scenario of the eager system
    rng = random.Random(918)
    accepted = 0
    for i in range(60):
        ts = random_tile_system(rng, sources=sources)
        f = tiles_to_fis(ts)
        eng = ts._engine
        delta = set(ts.local.delta)
        for m, q in sizes(2, 2):
            for g in oracles.all_grids(ts.target, m, q):
                run = eng.run(g, None)
                want = oracles.ts_accepts_by_preimages(
                    ts.local.alphabet, dict(ts.mapping), delta, g)
                assert (run is not None) == want, (i, g.cells)
                if run is not None:
                    spell = {ti: eng.spell(n, w, e, s) for (n, w), moves in eng.entries.items()
                             for _letter, e, s, ti in moves}
                    spelled = [spell[t] for t in run]
                    sc = recognize(f, g)
                    assert check_scenario(f, sc) == [], (i, g.cells)
                    assert spelled == [t for row in sc.cell_runs for t in row], (i, g.cells)
                    accepted += 1
    assert accepted >= 50


def test_tile_engine_searches_name_no_transition():
    # an engine holds numbers only: recognition and enumeration derive
    # moves of four ints, numbered in the order of derivation, which is
    # the order in which tiles_to_fis walks the entries to spell them
    rng = random.Random(919)
    derived = 0
    for _ in range(20):
        ts = random_tile_system(rng)
        for g in oracles.all_grids(ts.target, 2, 2):
            ts_recognize(ts, g)
        ts_language(ts, 2, 3)
        for eng in ts._engine, tiles_to_fis(ts)._engine:
            assert not any(hasattr(eng, a) for a in ("names", "track", "scenario"))
        moves = [move for moves in ts._engine.entries.values() for move in moves]
        assert all(type(move) is tuple and len(move) == 4
                   and all(type(x) is int for x in move) for move in moves)
        assert [move[3] for move in moves] == list(range(ts._engine.derived))
        derived += len(moves)
    assert derived > 0


def test_conflicting_map_lines_are_rejected(tmp_path, capsys):
    ll = LocalLanguage(alphabet=("v",), delta=corner_tiles("v"))
    with pytest.raises(ValueError):
        TileSystem(local=ll, target=("x", "y"), mapping=(("v", "x"), ("v", "y")))
    # the same entry twice is no conflict
    TileSystem(local=ll, target=("x",), mapping=(("v", "x"), ("v", "x")))
    text = format_tiles(TileSystem(local=ll, target=("x", "y"), mapping=(("v", "x"),)))
    text += "map: v y\n"
    with pytest.raises(FormatError):
        parse_tiles(text)
    path = tmp_path / "conflict.tiles"
    path.write_text(text)
    assert cli.main(["convert", "--tiles", str(path), "--out", str(tmp_path / "out.fis")]) == 2
    assert "error:" in capsys.readouterr().err


def oracle_language(ts: TileSystem, max_rows: int, max_cols: int) -> list:
    delta = set(ts.local.delta)
    return [g for m, q in sizes(max_rows, max_cols)
            for g in oracles.all_grids(list(dict.fromkeys(ts.target)), m, q)
            if oracles.ts_accepts_by_preimages(ts.local.alphabet, dict(ts.mapping), delta, g)]


def test_repeated_target_letters_list_each_grid_once():
    ts = parse_tiles("alphabet: v\ntarget: x x\nmap: v x\n" + "".join(
        f"tile: {nw} {ne} / {sw} {se}\n" for (nw, ne), (sw, se) in corner_tiles("v")))
    assert ts_language(ts, 2, 2) == oracle_language(ts, 2, 2) == [grid(["x"])]
    assert ts_language(ts, 2, 2) == enumerate_language(tiles_to_fis(ts), 2, 2)


def test_repeated_local_letters_are_one_letter():
    # the windows of the grid v w / v w: its language is every grid whose rows are all v w
    text = "alphabet: v w v\ntarget: x y\nmap: v x\nmap: w y\n"
    g = grid([["v", "w"], ["v", "w"]])
    for window in dict.fromkeys(oracles.bordered_windows(g)):
        (nw, ne), (sw, se) = window
        text += f"tile: {nw} {ne} / {sw} {se}\n"
    ts = parse_tiles(text)
    assert ts_language(ts, 3, 3) == oracle_language(ts, 3, 3)
    assert ts_language(ts, 3, 3) == enumerate_language(tiles_to_fis(ts), 3, 3)
    assert ts_recognize(ts, grid([["x", "y"]]))
    assert not ts_recognize(ts, grid([["y", "x"]]))
