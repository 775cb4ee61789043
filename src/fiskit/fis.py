"""Finite interactive systems over rectangular grids.

A finite interactive system is an automaton whose control is carried by
two kinds of memory: states flow north to south, one per column, and
classes flow west to east, one per row.  A transition

    (north, west, letter, east, south)

reads ``letter`` in a cell whose incoming state is ``north`` and whose
incoming class is ``west``, and emits ``south`` below and ``east`` to
the right.  A grid is accepted when every cell can be labelled by a
transition such that the top border uses initial states, the left
border initial classes, and the bottom and right borders are final.

The engine moves frontiers cell by cell in row-major order.  A
frontier is one int: low bits hold whether a tracked transition fired
and the class crossing the current cell border, and one field per
column holds the row profile, rotated so that the cursor's pending
north state is always the lowest field.  A step drops that field,
shifts the rest down and writes the new south state into the top
field, so after a row's last cell the fields are in column order
again, and the moves of a frontier are found by its low bits alone.
Border nondeterminism is resolved lazily: a first-row cell draws its
north state from the initial states and a first-column cell draws its
west class from the initial classes when the cell is parsed.

A grid with fixed letters is recognized by a depth-first search that
tries each frontier's moves in declaration order, each found with one
int lookup in a step table of its kind of cell, and remembers, per cell,
the frontiers whose search failed, so each (cell, frontier) pair is
expanded at most once.  As a last-column move must emit a final class,
a last-row move must emit a final state, so the search never
backtracks over a bottom border that cannot accept.  A cell out of
moves sends the search back to the last cell on its path with a move
left, and ends it at once when there is none, so a deterministic
system rejects a grid after one pass down and one scan back.  The first
accepting run it completes is the canonical scenario; on an accepted
grid it is often found after one expansion per cell.  The
bounded searches choose letters inside the propagation instead: the
set of frontiers after a prefix depends only on the set before its
last letter, so the letter walk memoizes each step per distinct set,
an on-the-fly subset construction.  The scenario on a grid they find
comes from the same depth-first search.  The engine works on numbers
only: a run is one transition index per cell, which the system names.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import FormatError, UnknownLetter, UnknownTransition
from .grids import Grid
from . import grids


class Transition(NamedTuple):
    north: str
    west: str
    letter: str
    east: str
    south: str


_FIS_KEYS = ("alphabet", "states", "classes", "initial_states",
             "initial_classes", "final_states", "final_classes")


@dataclass(frozen=True)
class FIS:
    """A finite interactive system, well formed by construction.

    Its names are tokens, each declared once per kind, and ``#`` is no
    letter; every initial, final and transition name is declared, and
    no transition repeats.  Otherwise, and for an unhashable name or a
    transition not of five names (a string is not), construction raises
    ``ValueError``, one tagged diagnostic quoting the offending element
    per broken rule.  Declaration order of letters, states, classes,
    initial sets and transitions is preserved; every search in this
    package breaks ties by declaration order, so equal inputs give
    byte-equal outputs.
    """

    alphabet: tuple[str, ...]
    states: tuple[str, ...]
    classes: tuple[str, ...]
    transitions: tuple[Transition, ...]
    initial_states: tuple[str, ...]
    initial_classes: tuple[str, ...]
    final_states: tuple[str, ...]
    final_classes: tuple[str, ...]

    def __post_init__(self) -> None:
        for name in (*_FIS_KEYS, "transitions"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        # one set pass decides; the diagnostics are built for a malformed system only
        try:  # an unhashable name, or a transition not of five names
            ts = tuple(t if isinstance(t, Transition) else _transition(t)
                       for t in self.transitions)
            letters, states, classes = set(self.alphabet), set(self.states), set(self.classes)
            north, west, letter, east, south = zip(*ts) if ts else ((),) * 5
            ok = (all(map(grids.is_letter, self.alphabet))
                  and all(map(grids.is_token, chain(self.states, self.classes)))
                  and len(letters) == len(self.alphabet) and len(states) == len(self.states)
                  and len(classes) == len(self.classes) and letters.issuperset(letter)
                  and states.issuperset(chain(self.initial_states, self.final_states,
                                              north, south))
                  and classes.issuperset(chain(self.initial_classes, self.final_classes,
                                               west, east))
                  and len(set(ts)) == len(ts))
        except TypeError:
            ok = False
        if not ok:
            raise ValueError("; ".join(_diagnostics(self)))
        object.__setattr__(self, "transitions", ts)

    @cached_property
    def _engine(self) -> Engine:
        """The system compiled once; every search on it reads this.  A
        cached property lives in the instance ``__dict__``, so the frozen
        fields, equality and hashing are untouched."""
        return Engine.of(self)


def _transition(t: object) -> Transition:
    """``t`` as a ``Transition``: five names, and not a string, whose
    characters would pass for one-character names; else ``TypeError``.
    The constructor, its diagnostics and tracking read transitions so."""
    if isinstance(t, str):
        raise TypeError("a transition is five names, not a string")
    return Transition(*t)


def _hashable(x: object) -> bool:
    try:
        hash(x)
    except TypeError:
        return False
    return True


def _diagnostics(f: FIS) -> list[str]:
    """Why ``f`` is not well formed: one diagnostic per broken rule,
    starting with a tag naming the rule and quoting the offending element.
    An unhashable name is a bad name declared nowhere, and a transition
    not of five names is a ``BadTransition``."""
    out: list[str] = []

    def check_names(kind: str, names: tuple[str, ...], ok=grids.is_token) -> None:
        seen = set()
        for name in names:
            if not ok(name):
                out.append(f'Bad{kind} "{name}"')
            if _hashable(name):
                if name in seen:
                    out.append(f'Duplicate{kind} "{name}"')
                seen.add(name)

    check_names("Letter", f.alphabet, grids.is_letter)
    check_names("State", f.states)
    check_names("Class", f.classes)

    states, classes, letters = (set(filter(_hashable, names))
                                for names in (f.states, f.classes, f.alphabet))
    undeclared = lambda name, names: not (_hashable(name) and name in names)
    for role, names, declared, tag in (
        ("initial_states", f.initial_states, states, "UndeclaredState"),
        ("final_states", f.final_states, states, "UndeclaredState"),
        ("initial_classes", f.initial_classes, classes, "UndeclaredClass"),
        ("final_classes", f.final_classes, classes, "UndeclaredClass"),
    ):
        for name in names:
            if undeclared(name, declared):
                out.append(f'{tag} "{name}" in {role}')

    seen_trans = set()
    for t in f.transitions:
        try:
            t = _transition(t)
        except TypeError:
            out.append(f"BadTransition {t!r}")
            continue
        if undeclared(t.north, states):
            out.append(f'UndeclaredState "{t.north}" in {t}')
        if undeclared(t.south, states):
            out.append(f'UndeclaredState "{t.south}" in {t}')
        if undeclared(t.west, classes):
            out.append(f'UndeclaredClass "{t.west}" in {t}')
        if undeclared(t.east, classes):
            out.append(f'UndeclaredClass "{t.east}" in {t}')
        if undeclared(t.letter, letters):
            out.append(f'UndeclaredLetter "{t.letter}" in {t}')
        if _hashable(t):
            if t in seen_trans:
                out.append(f"DuplicateTransition {t}")
            seen_trans.add(t)
    return out


@dataclass(frozen=True)
class Scenario:
    """An accepted parse: one transition per cell, row by row.

    The borders are read off the runs: ``b_n`` and ``b_s`` hold one
    state per column, ``b_w`` and ``b_e`` one class per row.
    """

    grid: Grid
    cell_runs: tuple[tuple[Transition, ...], ...]

    @property
    def b_n(self) -> tuple[str, ...]:
        return tuple(t.north for t in self.cell_runs[0])

    @property
    def b_w(self) -> tuple[str, ...]:
        return tuple(row[0].west for row in self.cell_runs)

    @property
    def b_s(self) -> tuple[str, ...]:
        return tuple(t.south for t in self.cell_runs[-1])

    @property
    def b_e(self) -> tuple[str, ...]:
        return tuple(row[-1].east for row in self.cell_runs)


def check_scenario(f: FIS, sc: Scenario) -> list[str]:
    """Replay a scenario against a system, independently of the search.

    Returns a list of problems; empty exactly when ``sc`` is a valid
    accepting scenario of ``f`` on ``sc.grid``.
    """
    out: list[str] = []
    g = sc.grid
    m, q = g.rows, g.cols
    if len(sc.cell_runs) != m or any(len(r) != q for r in sc.cell_runs):
        return [f"cell_runs shape is not {m}x{q}"]

    declared = set(f.transitions)
    above = sc.b_n  # the borders are the runs' own, so only inner edges can disagree
    for i, (run, letters) in enumerate(zip(sc.cell_runs, g.cells)):
        west = run[0].west
        for j, (t, letter) in enumerate(zip(run, letters)):
            if t not in declared:
                out.append(f"cell ({i},{j}) uses undeclared transition {t}")
            if t.letter != letter:
                out.append(f"cell ({i},{j}) letter {t.letter!r} != grid {letter!r}")
            if t.north != above[j]:
                out.append(f"cell ({i},{j}) north {t.north!r} != incoming {above[j]!r}")
            if t.west != west:
                out.append(f"cell ({i},{j}) west {t.west!r} != incoming {west!r}")
            west = t.east
        above = [t.south for t in run]

    for side, names, allowed, what in (
            ("b_n", sc.b_n, f.initial_states, "an initial state"),
            ("b_w", sc.b_w, f.initial_classes, "an initial class"),
            ("b_s", sc.b_s, f.final_states, "a final state"),
            ("b_e", sc.b_e, f.final_classes, "a final class")):
        out += [f'{side}[{k}]="{name}" is not {what}'
                for k, name in enumerate(names) if name not in allowed]
    return out


def render_scenario(sc: Scenario) -> str:
    """Draw a scenario as interleaved state rows and class/letter rows.

    State rows carry the north border, the states between grid rows and
    the south border, each above/below its letter column.  Class rows
    carry the west border class, then letter and class alternating.
    """
    def state_row(states: Iterable[str]) -> list[str]:
        return ["", *chain.from_iterable((s, "") for s in states)]

    lines = [state_row(sc.b_n)]
    for run, letters in zip(sc.cell_runs, sc.grid.cells):
        lines.append([run[0].west, *chain.from_iterable(
            (letter, t.east) for letter, t in zip(letters, run))])
        lines.append(state_row(t.south for t in run))
    widths = [max(map(len, slot)) for slot in zip(*lines)]
    return "".join(" ".join(map(str.ljust, line, widths)).rstrip() + "\n" for line in lines)


def parse_fis(text: str) -> FIS:
    """Read a system from its text format.

    Lines are ``key: tokens`` (:func:`fiskit.grids.read_keys`).  A
    ``trans:`` line gives one transition as five tokens, read as a
    ``Transition``; every other key lists names.
    """
    doc = grids.read_keys(text, {**dict.fromkeys(_FIS_KEYS), "trans": 5})
    try:
        return FIS(transitions=map(Transition._make, doc.pop("trans")), **doc)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def format_fis(f: FIS) -> str:
    """Render a system in the text format accepted by :func:`parse_fis`;
    its names are tokens, as :class:`FIS` checks, so it reads back."""
    fields = [getattr(f, key) for key in _FIS_KEYS]
    lines = [(key + ": " + " ".join(names)).rstrip() for key, names in zip(_FIS_KEYS, fields)]
    lines += ["trans: " + " ".join(t) for t in f.transitions]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# the frontier engine

_START = 0  # before the first cell: no field drawn, no class, not used


class Engine:
    """A system numbered for frontier propagation, and every search on it.

    The engine holds numbers only.  Letters have ids by ``letter_id``,
    states are ``0..states-1`` and classes ``0..classes-1``.  ``entries``
    lists the transitions leaving each (north, west) id pair in canonical
    order as ``(letter, east, south, index)``, where ``index`` numbers the
    transition; ``FIS`` and ``TileSystem`` name what the searches return.
    A subclass may derive a missing entry on first request in
    :meth:`entry`.

    A frontier is one int:

    * bit 0 -- whether the tracked transition fired on this path; it is
      never set when no transition is tracked;
    * the next bits -- the class entering the next cell, + 1, or 0 at
      column 0 where any initial class may enter;
    * above them, from ``shift0``, one ``field_bits``-wide field per
      column, the row profile, each state + 1: first the pending north
      states (the previous row's souths) from the cursor's column to the
      last, then the south states the current row emitted left of the
      cursor.  A first-row north not drawn yet is 0, and the cell draws
      it from the initial states.

    The cursor's field is therefore always the lowest, and a move is
    found by ``f & key_mask``, the same key at every column and width.
    A step drops that field and the east class: the move leads to ``(f
    >> field_bits) ^ d`` (:meth:`_derive`) with its south state in the
    top field, so after a row's q steps the fields are back in column
    order.  At the last column of a row, successors whose east class is
    not final are dropped (the full east border must be final) and the
    east class is cleared, so the row's souths are the next row's
    norths.  In the last row of a fixed-letter grid, successors whose
    south state is not final are dropped the same way (the full south
    border must be final); the frontier-set passes leave this out, as
    their layers serve every height.  After the last cell a frontier
    accepts when every field holds a final state.

    A fixed-letter grid is searched one frontier at a time, depth first
    (:meth:`run`); the bounded searches and the loop check at a fixed
    width propagate sets (:meth:`run_exist`, :meth:`iter_size`,
    :meth:`pumps`).  One engine serves every search on its system
    (``FIS._engine``, ``TileSystem._engine``): ``tables`` holds one step table per kind
    of frontier, ``(last column, last row, tracked transition, top)``,
    where ``top`` is ``None`` for the set passes, whose tables serve
    every width, and the top field's shift for :meth:`run`, whose tables
    fold it in.  Tables and the entries derived on request grow across
    searches; nothing else changes after compilation, and no table
    refers back to the engine.
    Forward layers belong to the search that builds them, so a search
    stopped early leaves none behind.  The class is plain, not a
    ``dict``: the searches read its attributes on every step.
    """

    def __init__(self, letter_id: dict[str, int], states: int, classes: int,
                 initial: tuple[Sequence[int], Sequence[int]],
                 final: tuple[Sequence[int], Sequence[int]]):
        self.letter_id, self.letters = letter_id, list(letter_id)
        self.init_states, self.init_classes = initial
        self.fin_fields = frozenset(s + 1 for s in final[0])
        self.fin_classes = frozenset(final[1])
        self.entries: dict[tuple[int, int], Sequence[tuple[int, int, int, int]]] = {}

        self.field_bits = max(1, states.bit_length())
        east_bits = max(1, classes.bit_length())
        self.east_mask = ((1 << east_bits) - 1) << 1
        self.shift0 = 1 + east_bits
        self.key_mask = (1 << self.shift0 + self.field_bits) - 1
        self.tables: dict[tuple, dict[int, tuple[tuple, ...]]] = {}

    @classmethod
    def of(cls, f: FIS) -> Engine:
        """``f`` compiled: a transition's index is its place in
        ``f.transitions``."""
        lid, sid, cid = ({name: i for i, name in enumerate(names)}
                         for names in (f.alphabet, f.states, f.classes))
        ids = lambda table, names: tuple(dict.fromkeys(table[x] for x in names))
        out = cls(lid, len(sid), len(cid),
                  (ids(sid, f.initial_states), ids(cid, f.initial_classes)),
                  (ids(sid, f.final_states), ids(cid, f.final_classes)))
        for i, t in enumerate(f.transitions):
            out.entries.setdefault((sid[t.north], cid[t.west]), []).append(
                (lid[t.letter], cid[t.east], sid[t.south], i))
        return out

    def entry(self, n: int, w: int) -> Sequence[tuple[int, int, int, int]]:
        """The transitions leaving ``(n, w)``; here a missing entry has none."""
        return self.entries.get((n, w), ())

    def _derive(self, kind: tuple, key: int) -> tuple[tuple[int, ...], ...]:
        """Derive the entry at ``key``, a frontier's low bits ``f &
        key_mask``, of the table of ``kind``, ``(last, bottom, track,
        top)``.  A last-column move needs a final east class and a
        last-row move a final south state.  A move's ``d`` is its new low
        bits, the tracked bit kept or set, XOR ``key >> field_bits``.
        With ``top`` ``None`` the entry serves every width: per letter
        id, then for every letter, the distinct ``(d, south)`` pairs.
        Otherwise it holds per letter id a flat ``d | south << top,
        transition index`` per move in canonical order.
        """
        last, bottom, track, top = kind
        field, east = key >> self.shift0, (key & self.east_mask) >> 1
        fold, fired = key >> self.field_bits, key & 1
        slots: list[tuple] = [()] * (len(self.letters) + 1)
        for n in self.init_states if field == 0 else (field - 1,):
            for w in self.init_classes if east == 0 else (east - 1,):
                for letter, e, s, ti in self.entry(n, w):
                    if (last and e not in self.fin_classes
                            or bottom and s + 1 not in self.fin_fields):
                        continue
                    d = fold ^ (0 if last else (e + 1) << 1) ^ (fired | (ti == track))
                    if top is not None:
                        slots[letter] += (d | s + 1 << top, ti)
                        continue
                    move = (d, s + 1)  # two letters or drawn borders may give it
                    for a in letter, -1:
                        if move not in slots[a]:
                            slots[a] += (move,)
        out = self.tables[kind][key] = tuple(slots)
        return out

    def _layer(self, fset, p: int, q: int, slot: int, track: int | None) -> set[int]:
        """Successors of the frontiers in ``fset`` at cell ``p`` of width
        ``q`` on letter id ``slot`` (-1: every letter), without the
        last-row rule, as forward layers serve every height.  The table
        lookup is inlined: a call per frontier made sparse systems'
        set-wide passes up to a fifth slower."""
        kind = (p % q == q - 1, False, track, None)
        get = self.tables.setdefault(kind, {}).get
        km, fb, top = self.key_mask, self.field_bits, self.shift0 + (q - 1) * self.field_bits
        out: set[int] = set()
        add = out.add
        for f in fset:
            moves = get(f & km)
            if moves is None:
                moves = self._derive(kind, f & km)
            rest = f >> fb
            for d, s in moves[slot]:
                add(rest ^ d | s << top)
        return out

    def _accepts(self, f: int, q: int, track: int | None) -> bool:
        """Whether a frontier after a row's last cell is accepting."""
        if track is not None and not f & 1:
            return False
        fmask, width = (1 << self.field_bits) - 1, self.field_bits
        f >>= self.shift0
        for _ in range(q):
            if (f & fmask) not in self.fin_fields:
                return False
            f >>= width
        return True

    def run_exist(self, m: int, q: int, track: int | None,
                  layers: list[set[int]]) -> list[set[int]]:
        """Forward pass with the letter chosen existentially per cell.

        The layer after a cell does not depend on the row count, so a
        search extends one list ``layers`` per width, starting from
        ``[{_START}]``; it may hold more than ``m * q + 1`` layers.
        """
        for p in range(len(layers) - 1, m * q):
            layers.append(self._layer(layers[p], p, q, -1, track))
        return layers

    def _useful(self, layers, m: int, q: int, track: int | None) -> list[set[int]]:
        """Frontiers from which some letter choice still reaches acceptance."""
        n = m * q
        useful: list[set[int]] = [set() for _ in range(n)]
        useful.append({f for f in layers[n] if self._accepts(f, q, track)})
        km, fb, top = self.key_mask, self.field_bits, self.shift0 + (q - 1) * self.field_bits
        for p in range(n - 1, -1, -1):
            up, keep = useful[p + 1], useful[p]
            # run_exist derived the entry of every frontier of the layer
            table = self.tables[p % q == q - 1, False, track, None]
            for f in layers[p]:
                rest = f >> fb
                for d, s in table[f & km][-1]:
                    if rest ^ d | s << top in up:
                        keep.add(f)
                        break
        return useful

    def iter_size(self, m: int, q: int, track: int | None,
                  layers: list[set[int]]) -> Iterator[Grid]:
        """Accepted m x q grids in row-major lexicographic letter order.

        ``layers`` is the search's forward pass of width ``q``
        (:meth:`run_exist`), extended here as far as ``m`` rows need.

        The letter walk carries the set of frontiers after each prefix,
        cut to frontiers from which some letter choice still reaches
        acceptance, and descends only while that set is non-empty.  The
        set after a prefix depends only on the set before its last
        letter, so each ``(position, set, letter)`` step is computed
        once per call and then looked up: an on-the-fly subset
        construction, paid per distinct set and not per prefix.  Equal
        sets are one object, so memo keys match by identity.
        """
        n = m * q
        layers = self.run_exist(m, q, track, layers)
        if not any(self._accepts(f, q, track) for f in layers[n]):
            return
        useful = self._useful(layers, m, q, track)
        # the letters were checked when the system was built
        names, make, letters = self.letters, grids.unchecked_grid, range(len(self.letters))
        steps: dict[tuple[int, frozenset[int], int], frozenset[int]] = {}
        canon: dict[frozenset[int], frozenset[int]] = {}
        # depth first over the cells, one letter iterator per cell on an
        # explicit stack, so depth is not limited by the recursion limit
        chosen: list[int] = []
        sets, tries = [frozenset((_START,))], [iter(letters)]
        while tries:
            p = len(tries) - 1
            for li in tries[p]:
                key = (p, sets[p], li)
                nxt = steps.get(key)
                if nxt is None:
                    nxt = frozenset(self._layer(sets[p], p, q, li, track) & useful[p + 1])
                    nxt = steps[key] = canon.setdefault(nxt, nxt)
                if not nxt:
                    continue
                chosen[p:] = [li]
                if p + 1 == n:
                    yield make([names[c] for c in chosen[r * q:(r + 1) * q]] for r in range(m))
                else:
                    sets[p + 1:] = [nxt]
                    tries.append(iter(letters))
                    break
            else:
                tries.pop()

    def accepted(self, max_rows: int, max_cols: int,
                 track: int | None = None) -> Iterator[Grid]:
        """Accepted grids within the bounds, in canonical order; a
        width's forward layers are dropped after its last size."""
        forward: dict[int, list[set[int]]] = {}
        order = grids.sizes(max_rows, max_cols)
        last = {q: k for k, (_m, q) in enumerate(order)}
        for k, (m, q) in enumerate(order):
            yield from self.iter_size(m, q, track, forward.setdefault(q, [{_START}]))
            if last[q] == k:
                del forward[q]

    def pumps(self, q: int) -> bool:
        """Whether width ``q`` has accepted grids of unboundedly many
        heights: whether the boundary frontiers (rows of south states)
        reached from ``_START`` that reach acceptance hold a loop."""
        pred: dict[int, list[int]] = {}  # per boundary frontier, those a row leads from
        todo = [_START]
        while todo:  # the closure of {_START} under the row step; no row leads back there
            row = {f := todo.pop()}
            for p in range(q):
                row = self._layer(row, p, q, -1, None)
            todo += [g for g in row if g not in pred]
            for g in row:
                pred.setdefault(g, []).append(f)
        live = [f for f in pred if self._accepts(f, q, None)]
        outs = dict.fromkeys(live, 0)  # per frontier in live, its successors in live
        for g in live:  # grows to every frontier that reaches acceptance
            for f in pred.get(g, ()):
                if f not in outs:
                    live.append(f)
                outs[f] = outs.get(f, 0) + 1
        dropped = [f for f, n in outs.items() if not n]
        for g in dropped:  # grows to all of live but the greatest fixed point
            for f in pred.get(g, ()):
                outs[f] -= 1
            dropped += [f for f in pred.get(g, ()) if not outs[f]]
        return len(dropped) < len(outs)

    def run(self, g: Grid, track: int | None) -> list[int] | None:
        """The canonical run on ``g``, one transition index per cell in
        row-major order, or ``None`` when ``g`` is not accepted.

        A depth-first search over the cells in row-major order tries
        each frontier's moves in canonical order, so the first accepting
        run it completes is the lexicographically least one.  Moves of
        the last row that emit a non-final state lie on no accepting run
        and are not tried.  A frontier whose search failed is recorded
        dead at its cell, and one on the current path is not met at its
        cell again, so each (cell, frontier) pair is expanded at most
        once; a run that goes straight down records nothing.

        When a cell runs out of moves, the search looks down the stack
        for the last cell passed that still has a move left, which costs
        no more than popping the entries it passes over, and records as
        dead only what that cell and the ones after it led to.  When no
        cell has one, no run is left and the search stops at once,
        recording nothing: a deterministic system rejects a grid after
        one pass down and one scan back, without a set per cell.  The
        stack is explicit, one entry per cell, so depth is not limited
        by the interpreter's recursion limit.
        """
        ids, m, q = self.letter_id, g.rows, g.cols
        try:
            letters = [ids[a] for row in g.cells for a in row]
        except KeyError as e:
            raise UnknownLetter(f"letter {e.args[0]!r} is not in the alphabet") from None
        n, km, fb, tables = m * q, self.key_mask, self.field_bits, self.tables
        top = self.shift0 + (q - 1) * fb
        row = lambda bottom: [tables.setdefault((j == q - 1, bottom, track, top), {})
                              for j in range(q)]
        cells = row(False) * (m - 1) + row(True)  # each cell's step table
        dead: dict[int, set[int]] = {}
        stack: list[tuple] = [()] * n  # cells passed: moves, rest, next move
        p, nf, last = 0, _START, n - 1
        while True:  # expand nf at cell p
            moves = cells[p].get(nf & km)
            if moves is None:
                moves = self._derive((p % q == q - 1, p >= n - q, track, top), nf & km)
            moves, rest, i = moves[letters[p]], nf >> fb, 0
            while True:  # take the first live move left at cell p
                while i < len(moves):
                    nf = rest ^ moves[i]
                    i += 2
                    if dead and nf in dead.get(p, ()):
                        continue
                    if p < last:
                        break
                    # last-row moves emit final states and last-column ones
                    # final classes, so only the tracked bit is left to test
                    if track is None or nf & 1:
                        stack[p] = (moves, rest, i)
                        return [moves[i - 1] for moves, _rest, i in stack]
                else:
                    k = p - 1  # back to the last cell passed with a move left
                    while k >= 0 and stack[k][2] == len(stack[k][0]):
                        k -= 1
                    if k < 0:  # none: no run is left to try
                        return None
                    while p > k:  # what cells k to p - 1 led to failed
                        p -= 1
                        moves, rest, i = stack[p]
                        if p in dead:
                            dead[p].add(rest ^ moves[i - 2])
                        else:
                            dead[p] = {rest ^ moves[i - 2]}
                    continue
                break
            stack[p] = (moves, rest, i)
            p += 1


def _tracked(f: FIS, t: Transition | None) -> int | None:
    """The index of transition ``t`` in ``f.transitions``, to track, or
    ``None`` for none."""
    if t is None:
        return None
    try:
        t = _transition(t)
        return f.transitions.index(t)
    except (TypeError, ValueError):
        raise UnknownTransition(f"transition {t} is not declared") from None


def _scenario(f: FIS, g: Grid, track: int | None) -> Scenario | None:
    """The canonical scenario of ``f`` on ``g`` (:meth:`Engine.run`), its
    transition indices named from ``f.transitions``, or ``None``."""
    run, q, name = f._engine.run(g, track), g.cols, f.transitions.__getitem__
    return None if run is None else Scenario(g, tuple(
        tuple(map(name, run[r * q:(r + 1) * q])) for r in range(g.rows)))


def recognize(f: FIS, w: Grid) -> Scenario | None:
    """The canonical accepting scenario of ``f`` on ``w``, or ``None``.

    Ties between scenarios are broken by declaration order of initial
    states, initial classes and transitions, so the result is stable:
    the canonical scenario is the lexicographically least sequence of
    moves, one per cell in row-major order, where a cell's moves are
    ordered by north state (first row), west class (first column) and
    transition.
    """
    return _scenario(f, w, None)


def recognize_with_transition(f: FIS, w: Grid, t: Transition) -> Scenario | None:
    """Like :func:`recognize` but only scenarios in which ``t`` fires."""
    return _scenario(f, w, _tracked(f, t))


def first_accepted(f: FIS, max_rows: int, max_cols: int,
                   using: Transition | None = None) -> tuple[Grid, Scenario] | None:
    """The canonically first accepted grid within the bounds and the
    scenario :func:`recognize` gives on it, or ``None``.  With ``using``
    set, only scenarios firing it count, as in :func:`recognize_with_transition`.

    The search walks letters through frontier sets, which hold no
    back-pointers; the scenario on the grid it finds comes from the
    depth-first search of :func:`recognize`.
    """
    track = _tracked(f, using)
    for g in f._engine.accepted(max_rows, max_cols, track):
        return g, _scenario(f, g, track)
    return None


def pumps_at_width(f: FIS, q: int) -> bool:
    """Whether ``f`` accepts grids of width ``q`` of unboundedly many heights,
    exactly (:meth:`Engine.pumps`); ``q`` below 1 is a ``ValueError``."""
    if q < 1:
        raise ValueError(f"width must be at least 1, not {q}")
    return f._engine.pumps(q)


def iter_accepted(f: FIS, max_rows: int, max_cols: int) -> Iterator[Grid]:
    """Accepted grids within the bounds, in canonical order.

    Canonical order is area, then row count, then row-major letter
    order by alphabet declaration.  A bound below 1 raises
    ``ValueError`` at the first item, as every search does when called.
    """
    yield from f._engine.accepted(max_rows, max_cols)


def enumerate_language(f: FIS, max_rows: int, max_cols: int) -> list[Grid]:
    """All accepted grids within the bounds, in canonical order."""
    return list(iter_accepted(f, max_rows, max_cols))
