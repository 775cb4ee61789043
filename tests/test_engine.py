"""The frontier engine against the oracles: first grids and their
scenarios, the canonical scenario of every small grid, languages at the
bit-field width boundaries, wide profiles, the cost and depth of the
recognizer's search and of the determinized letter walk, and the one
engine each system keeps across searches."""

from __future__ import annotations

import gc
import itertools
import random
import tracemalloc
import weakref

import pytest

import oracles
from conftest import diagonal, make_f1, make_trivial
from generators import dense_fis, random_fis
from fiskit.fis import (
    FIS,
    Transition,
    Engine,
    check_scenario,
    enumerate_language,
    first_accepted,
    format_fis,
    iter_accepted,
    parse_fis,
    recognize,
    recognize_with_transition,
)
from fiskit.grids import grid, sizes
from fiskit.pcp import PcpInstance, compile_pcp, witness_from_solution
from fiskit.tiles import fis_to_tiles, ts_language, ts_recognize

# every state and class initial and final, all 72 transitions: every
# grid is accepted, and all prefixes of one length reach the same set
UNIVERSAL = FIS(
    alphabet=("a", "b"), states=("1", "2", "3"), classes=("A", "B"),
    transitions=tuple(itertools.product("123", "AB", "ab", "AB", "123")),
    initial_states=("1", "2", "3"), initial_classes=("A", "B"),
    final_states=("1", "2", "3"), final_classes=("A", "B"),
)


def oracle_first(f: FIS, max_rows: int, max_cols: int, using=None):
    """The first grid in canonical order with an oracle scenario (one
    firing ``using`` when given)."""
    for m, q in oracles.sizes(max_rows, max_cols):
        for g in oracles.all_grids(f.alphabet, m, q):
            for sc in oracles.all_scenarios(f, g):
                if using is None or any(using in row for row in sc["cells"]):
                    return g
    return None


def test_first_accepted_matches_oracle_on_random_systems():
    rng = random.Random(9041)
    tracked = 0
    for _ in range(60):
        f = random_fis(rng)
        for using in (None, rng.choice(f.transitions) if f.transitions else None):
            found = first_accepted(f, 2, 2, using=using)
            want = oracle_first(f, 2, 2, using)
            if want is None:
                assert found is None
                continue
            g, sc = found
            assert g == want
            if using is None:
                assert sc == recognize(f, g)
            else:
                tracked += 1
                assert sc == recognize_with_transition(f, g, using)
                assert any(using in row for row in sc.cell_runs)
            assert check_scenario(f, sc) == []
    assert tracked >= 10


def complete_system(rng: random.Random, n_states: int, n_classes: int) -> FIS:
    """A random system with one or two moves for every north, west and
    letter, so that its languages are neither empty nor everything."""
    states = tuple(f"s{i}" for i in range(n_states))
    classes = tuple(f"c{i}" for i in range(n_classes))
    alphabet = ("a", "b")
    trans = []
    for n, w, a in itertools.product(states, classes, alphabet):
        for _ in range(rng.randint(1, 2)):
            t = Transition(n, w, a, rng.choice(classes), rng.choice(states))
            if t not in trans:
                trans.append(t)
    # the last state and class, stored in the widest field values, are
    # always initial
    two = lambda pool: tuple(dict.fromkeys((rng.choice(pool), pool[-1])))
    half = lambda pool: tuple(x for x in pool if rng.random() < 0.5) or (pool[-1],)
    return FIS(
        alphabet=alphabet, states=states, classes=classes, transitions=tuple(trans),
        initial_states=two(states), initial_classes=two(classes),
        final_states=half(states), final_classes=half(classes),
    )


@pytest.mark.parametrize("n_states", [1, 2, 3, 4, 7, 8])
@pytest.mark.parametrize("n_classes", [1, 3, 4])
def test_language_at_field_width_boundaries(n_states, n_classes):
    rng = random.Random(100 * n_states + n_classes)
    for _ in range(2):
        f = complete_system(rng, n_states, n_classes)
        for rows, cols in ((2, 3), (3, 2)):
            assert enumerate_language(f, rows, cols) == oracles.language(f, rows, cols)


def test_profile_wider_than_a_machine_word():
    f, g = make_f1(), diagonal(70)
    eng = f._engine
    assert eng.shift0 + g.cols * eng.field_bits > 64
    sc = recognize(f, g)
    assert sc is not None and check_scenario(f, sc) == []
    probe = Transition("2", "A", "c", "A", "2")
    sc = recognize_with_transition(f, g, probe)
    assert sc is not None and check_scenario(f, sc) == []


def boundary_rows(f: FIS, q: int, rows: int, using=None) -> list[set]:
    """The forward pass of ``f`` at width ``q`` decoded at each row
    boundary: ``(fired, souths)`` per frontier, the south states named.
    A boundary frontier holds one field per column in column order and
    no east class."""
    eng = f._engine
    track = eng.track(using)
    layers = eng.run_exist(rows, q, track, [{0}])
    names, fb = list(dict.fromkeys(f.states)), eng.field_bits
    out = []
    for r in range(1, rows + 1):
        decoded = set()
        for fr in layers[r * q]:
            assert fr & eng.east_mask == 0 and fr >> eng.shift0 + q * fb == 0
            fields = fr >> eng.shift0
            decoded.add((bool(fr & 1), tuple(
                names[(fields >> j * fb & (1 << fb) - 1) - 1] for j in range(q))))
        out.append(decoded)
    return out


def test_row_boundary_layers_are_the_reachable_rows():
    # the cursor's field is always the lowest, so a row's q steps bring
    # the fields back into column order at every row boundary
    rng = random.Random(3301)
    tracked = nonempty = 0
    for _ in range(40):
        f = random_fis(rng)
        for using in (None, rng.choice(f.transitions) if f.transitions else None):
            for q in (1, 2, 3):
                got = boundary_rows(f, q, 3, using)
                assert got == oracles.reachable_rows(f, q, 3, using), (f, q, using)
                tracked += using is not None and any(fired for fired, _ in got[-1])
                nonempty += bool(got[-1])
    assert tracked >= 20 and nonempty >= 60


def test_row_boundary_layers_of_a_profile_wider_than_a_machine_word():
    f, q = make_f1(), 70
    eng = f._engine
    assert eng.shift0 + q * eng.field_bits > 64
    for using in (None, Transition("2", "A", "c", "A", "2")):
        got = boundary_rows(f, q, 3, using)
        assert got == oracles.reachable_rows(f, q, 3, using)
        assert [len(rows) for rows in got] == [1, 1, 1]


def test_step_tables_are_kept_per_kind_of_frontier():
    # a tracked search used to leave one table per column and row kind
    # (1,088 on this grid); now one per last column or not, last row or
    # not, tracked transition and width
    rng = random.Random(1)
    f = dense_fis(rng, 0.9)
    g = grid([[rng.choice(f.alphabet) for _ in range(8)] for _ in range(2)])
    eng = f._engine
    assert recognize(f, g) is not None
    for t in f.transitions:
        recognize_with_transition(f, g, t)
    tracks, widths = ({kind[k] for kind in eng.tables} for k in (2, 3))
    assert len(tracks) == len(f.transitions) + 1 == 68 and len(widths) == 1
    assert len(eng.tables) <= 4 * len(tracks) * len(widths)


class CountingTable:
    """One cell's view of a step table: it counts the lookups made
    through it, and a search looks up the moves of each frontier it
    expands once."""

    def __init__(self, table: dict):
        self.table, self.lookups = table, 0

    def get(self, key):
        self.lookups += 1
        return self.table.get(key)


class CellTables(dict):
    """An engine's tables that give each cell of a run its own counting
    view.  ``run`` asks for the table of each column of the rows above
    the last, then of each column of the last row; ``views`` keeps the
    views in that order by ``(bottom, track)``, so on a grid of two rows
    or fewer each view serves one cell.  Set passes read the tables
    themselves."""

    def __init__(self, tables: dict):
        super().__init__(tables)
        self.views: dict[tuple, list[CountingTable]] = {}

    def setdefault(self, kind, default=None):
        table = super().setdefault(kind, default)
        _last, bottom, track, top = kind
        if top is None:
            return table
        view = CountingTable(table)
        self.views.setdefault((bottom, track), []).append(view)
        return view

    @property
    def lookups(self) -> int:
        return sum(v.lookups for views in self.views.values() for v in views)


def lookups(monkeypatch, eng: Engine, search) -> tuple[object, CellTables]:
    """What ``search()`` returns, and ``eng``'s tables with the lookups
    it made counted per cell."""
    tables = CellTables(eng.tables)
    monkeypatch.setattr(eng, "tables", tables)
    return search(), tables


def test_recognize_stops_at_the_first_accepting_run(monkeypatch):
    # every grid is accepted, so the search follows one run down and
    # never expands every frontier of every cell
    g = grid(["abbabaab", "babbaaba"])
    for _warm in range(2):
        sc, tables = lookups(monkeypatch, UNIVERSAL._engine, lambda: recognize(UNIVERSAL, g))
        assert sc is not None and check_scenario(UNIVERSAL, sc) == []
        assert 0 < tables.lookups <= g.rows * g.cols * len(UNIVERSAL.transitions)


def test_dense_recognition_does_not_backtrack_through_the_last_row(monkeypatch):
    # the first-declared state is not final, so a search that tests the
    # bottom border only after the last cell tries almost every last-row
    # run before an accepting one (3,275 frontiers on this 2x8 grid);
    # with the last-row rule it expands one frontier per cell, on a
    # fresh engine and on a warm one
    rng = random.Random(501)
    f = dense_fis(rng, 0.9)
    for rows in (2, 1, 2):  # on one row, the first row is the last
        g = grid([[rng.choice(f.alphabet) for _ in range(8)] for _ in range(rows)])
        sc, tables = lookups(monkeypatch, f._engine, lambda: recognize(f, g))
        assert sc is not None and check_scenario(f, sc) == []
        assert_one_lookup_per_cell(tables, g, None)
        probe = sc.cell_runs[-1][4]
        got, tables = lookups(monkeypatch, f._engine,
                              lambda: recognize_with_transition(f, g, probe))
        assert got == sc
        assert_one_lookup_per_cell(tables, g, f._engine.track(probe))


def assert_one_lookup_per_cell(tables: CellTables, g, track):
    """Each cell of ``g``, of two rows or fewer, looked up one frontier."""
    views = tables.views
    assert set(views) <= {(False, track), (True, track)}
    counts = [v.lookups for bottom in (False, True) for v in views.get((bottom, track), ())]
    assert len(counts) == 2 * g.cols and sum(counts) == g.rows * g.cols
    assert max(counts) == 1


def forward_sets(eng: Engine, g, track) -> list[set[int]]:
    """The frontiers before each cell of ``g`` over its letters,
    without the last-row rule: a superset of those the search expands."""
    q, out = g.cols, [{0}]
    letters = [eng.letter_id[a] for row in g.cells for a in row]
    for p, letter in enumerate(letters[:-1]):
        out.append(eng._layer(out[-1], p, q, letter, track))
    return out


def assert_expands_each_frontier_once(eng: Engine, tables: CellTables, g, track):
    """Each view serves one column of the last row or of the rows above
    it; it is looked up at most as often as those cells' forward sets
    hold frontiers, per cell on a grid of two rows or fewer."""
    sets, m, q = forward_sets(eng, g, track), g.rows, g.cols
    for (bottom, tracked), views in tables.views.items():
        assert tracked == track and len(views) == q
        rows = [m - 1] if bottom else range(m - 1)
        for j, view in enumerate(views):
            assert view.lookups <= sum(len(sets[r * q + j]) for r in rows), (j, bottom)


@pytest.mark.parametrize("seed", range(5))
def test_a_backtracking_search_expands_each_frontier_once_per_cell(monkeypatch, seed):
    # the first transition that cannot fire on the grid: the tracked
    # search fails only after trying every run of the first row (about
    # 38,000 lookups), and it expands no frontier twice at one cell
    rng = random.Random(seed)
    f = dense_fis(rng, 0.9)
    eng = f._engine
    g = grid([[rng.choice(f.alphabet) for _ in range(8)] for _ in range(2)])
    for t in f.transitions:
        found, tables = lookups(monkeypatch, eng, lambda: recognize_with_transition(f, g, t))
        if found is None:
            assert tables.lookups > 100 * g.rows * g.cols
            assert_expands_each_frontier_once(eng, tables, g, eng.track(t))
            break
    else:
        pytest.fail("every transition fires on the grid")


def test_pcp_near_misses_expand_each_frontier_once_per_cell(monkeypatch):
    # every one-letter flip of a witness, on the compiled system and on
    # its tile system
    p = PcpInstance(x=("ab", "b"), y=("a", "bb"))
    w = witness_from_solution(p, (1, 2))
    f = compile_pcp(p)
    ts = fis_to_tiles(f)
    rejected = 0
    for i, j in itertools.product(range(w.rows), range(w.cols)):
        for a in f.alphabet:
            cells = [list(row) for row in w.cells]
            cells[i][j] = a
            g = grid(cells)
            for search, eng in ((lambda: recognize(f, g), f._engine),
                                (lambda: ts_recognize(ts, g), ts._engine)):
                found, tables = lookups(monkeypatch, eng, search)
                if found in (None, False):
                    rejected += 1
                    assert_expands_each_frontier_once(eng, tables, g, None)
    assert rejected >= 40


def test_recognize_depth_is_not_limited_by_recursion():
    f, g = make_f1(), diagonal(80)
    sc = recognize(f, g)
    assert sc is not None and check_scenario(f, sc) == []
    cells = [list(row) for row in g.cells]
    cells[-1][0] = "b"
    assert recognize(f, grid(cells)) is None
    sc = recognize(make_trivial(), grid(["a" * 1100]))
    assert sc is not None and len(sc.cell_runs[0]) == 1100


def traced_peak(search) -> int:
    """The peak of memory ``search()`` allocates, on a warm engine."""
    search()
    tracemalloc.start()
    try:
        search()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_deterministic_rejection_does_not_unwind():
    # no cell of the diagonal system has a second move, so a grid that
    # fails in its last row is rejected as soon as its search gets
    # there, without recording its path's frontiers dead on the way
    # back, which peaked at 4.6 times the accepted grid's scenario
    f, g = make_f1(), diagonal(40)
    cells = [list(row) for row in g.cells]
    cells[-1][0] = "b"
    bad = grid(cells)
    probe = f.transitions[2]
    for search in (lambda w: recognize(f, w),
                   lambda w: recognize_with_transition(f, w, probe)):
        assert search(g) is not None and search(bad) is None
        assert traced_peak(lambda: search(bad)) <= traced_peak(lambda: search(g))


def test_letter_walk_is_determinized(monkeypatch):
    # all prefixes of one length hold the same frontier set, so the walk
    # computes one successor set per cell and letter, not one per prefix
    steps = [0]
    per_size = {}
    layer, iter_size = Engine._layer, Engine.iter_size

    def counting_layer(self, fset, p, q, slot, track):
        if slot != -1:
            steps[0] += 1
        return layer(self, fset, p, q, slot, track)

    def counted_size(self, m, q, track, layers):
        before = steps[0]
        yield from iter_size(self, m, q, track, layers)
        per_size[m, q] = steps[0] - before

    monkeypatch.setattr(Engine, "_layer", counting_layer)
    monkeypatch.setattr(Engine, "iter_size", counted_size)
    got = enumerate_language(UNIVERSAL, 2, 5)
    assert len(got) == sum(2 ** (m * q) for m, q in sizes(2, 5))
    assert set(per_size) == set(sizes(2, 5))
    for (m, q), count in per_size.items():
        assert count <= m * q * len(UNIVERSAL.alphabet), (m, q)


def oracle_scenario(sc) -> dict | None:
    """A scenario in the oracle's shape, for comparison."""
    if sc is None:
        return None
    return {"cells": [list(row) for row in sc.cell_runs],
            "b_n": list(sc.b_n), "b_w": list(sc.b_w)}


def punctuated_fis(rng: random.Random) -> FIS:
    return random_fis(rng, states=("x", "x,y", "y"), classes=("x", "y,x", "y"),
                      alphabet=("x", "x,y", "y,x"))


def pruned_dense_fis(rng: random.Random) -> FIS:
    """A system of the dense shape whose final states are a strict
    subset, so the last-row rule drops moves; at density 0.2 the
    oracle's full enumeration of scenarios stays quick."""
    finals = tuple(sorted(rng.sample(("1", "2", "3"), rng.randint(1, 2))))
    return dense_fis(rng, 0.2, finals)


@pytest.mark.parametrize("draw, seed, systems", [
    (random_fis, 5417, 25), (punctuated_fis, 5420, 25), (pruned_dense_fis, 7121, 6),
], ids=["default", "punctuated", "last-row"])
def test_recognize_is_the_oracles_first_scenario(draw, seed, systems):
    # the oracle backtracks in declaration order, so its first scenario
    # is the lexicographically least one: the canonical scenario
    rng = random.Random(seed)
    shapes = sorted(set(oracles.sizes(2, 3)) | set(oracles.sizes(3, 2)))
    accepted = tracked = 0
    for _ in range(systems):
        f = draw(rng)
        for m, q in shapes:
            for g in oracles.all_grids(f.alphabet, m, q):
                scenarios = oracles.all_scenarios(f, g)
                want = scenarios[0] if scenarios else None
                assert oracle_scenario(recognize(f, g)) == want, g.cells
                accepted += want is not None
                first = {}  # each transition's first scenario firing it
                for sc in scenarios:
                    for t in itertools.chain.from_iterable(sc["cells"]):
                        first.setdefault(t, sc)
                for t in f.transitions:
                    got = recognize_with_transition(f, g, t)
                    assert oracle_scenario(got) == first.get(t), (g.cells, t)
                    tracked += t in first
    assert accepted >= 100 and tracked >= 100


def test_each_system_is_compiled_once(monkeypatch):
    built = []
    init = Engine.__init__

    def counting_init(self, *args):
        built.append(type(self))
        init(self, *args)

    monkeypatch.setattr(Engine, "__init__", counting_init)
    f, g = make_f1(), diagonal(3)
    probe = Transition("2", "A", "c", "A", "2")
    assert recognize(f, g) is not None
    assert recognize_with_transition(f, g, probe) is not None
    assert first_accepted(f, 3, 3, using=probe)[0] == diagonal(2)
    assert list(iter_accepted(f, 3, 3)) == [diagonal(1), diagonal(2), g]
    assert built == [Engine]
    # a dict subclass reads four attributes 2x slower: 0.207 vs 0.104 s per million (CPython 3.11.7)
    assert not issubclass(type(f._engine), dict)


def test_a_warm_engine_answers_as_a_fresh_one():
    rng = random.Random(9041)
    for _ in range(60):
        f = random_fis(rng)
        fresh = lambda: parse_fis(format_fis(f))
        eng = f._engine
        first = first_accepted(f, 2, 3)
        partial = iter_accepted(f, 2, 3)
        head = next(partial, None)
        # searches stopped early leave nothing but step tables on the
        # engine
        kept = lambda e: {k: v for k, v in vars(e).items() if k != "tables"}
        assert kept(eng) == kept(Engine.of(f))
        assert first == first_accepted(fresh(), 2, 3)
        lang = enumerate_language(f, 2, 3)
        assert lang == enumerate_language(fresh(), 2, 3)
        assert ([head] if head else []) + list(partial) == lang
        for t in f.transitions:
            assert first_accepted(f, 2, 2, using=t) == first_accepted(fresh(), 2, 2, using=t)
        for g in lang:
            assert recognize(f, g) == recognize(fresh(), g)
            for t in f.transitions[:2]:
                assert recognize_with_transition(f, g, t) == \
                    recognize_with_transition(fresh(), g, t)
        assert f._engine is eng


def tiles_f1():
    return fis_to_tiles(make_f1())


@pytest.mark.parametrize("make, search", [
    (make_f1, lambda f: recognize(f, diagonal(3))),
    (make_f1, lambda f: recognize_with_transition(f, diagonal(3), ("2", "A", "c", "A", "2"))),
    (make_f1, lambda f: first_accepted(f, 3, 3)),
    (tiles_f1, lambda ts: ts_recognize(ts, diagonal(3))),
    (tiles_f1, lambda ts: ts_language(ts, 2, 2)),
], ids=["recognize", "recognize_with_transition", "first_accepted", "ts_recognize",
        "ts_language"])
def test_a_dropped_system_frees_its_engine_without_the_collector(make, search):
    # no table refers back to its engine, so reference counting alone
    # frees the engine with its system: a large system must not wait
    # for a full collection
    system = make()
    gc.disable()
    try:
        assert search(system)
        engine = weakref.ref(system._engine)
        del system
        assert engine() is None
    finally:
        gc.enable()
