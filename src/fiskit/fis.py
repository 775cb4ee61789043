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
frontier is one int: one field per column holds the south state
already emitted left of the cursor or the pending north state from the
cursor on, low bits hold the class crossing the current cell border
and whether a tracked transition fired, so a step rewrites two fields.
Border nondeterminism is resolved lazily: a first-row cell draws its
north state from the initial states and a first-column cell draws its
west class from the initial classes when the cell is parsed.

A grid with fixed letters is recognized by a depth-first search that
tries each frontier's moves in declaration order, each found with one
int lookup in a step table of its column, and remembers, per cell,
the frontiers whose search failed.  As a last-column move must emit a
final class, a last-row move must emit a final state, so the search
never backtracks over a bottom border that cannot accept.  The first
accepting run it completes is the canonical scenario; on an accepted
grid it is often found after one expansion per cell.  The
bounded searches choose letters inside the propagation instead: the
set of frontiers after a prefix depends only on the set before its
last letter, so the letter walk memoizes each step per distinct set,
an on-the-fly subset construction.  The scenario on a grid they find
comes from the same depth-first search.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import UnknownLetter, UnknownTransition
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
    """A finite interactive system.

    Declaration order of letters, states, classes, initial sets and
    transitions is preserved; every search in this package breaks ties
    by declaration order, so equal inputs give byte-equal outputs.
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
        for name in _FIS_KEYS:
            object.__setattr__(self, name, tuple(getattr(self, name)))
        object.__setattr__(
            self, "transitions",
            tuple(t if isinstance(t, Transition) else Transition(*t)
                  for t in self.transitions))

    @cached_property
    def _engine(self) -> Engine:
        """The system compiled once; every search on it reads this.  A
        cached property lives in the instance ``__dict__``, so the frozen
        fields, equality and hashing are untouched."""
        return Engine.of(self)


def validate(f: FIS) -> list[str]:
    """Diagnostics for a system; empty exactly when all invariants hold.

    Each diagnostic starts with a tag naming the violated invariant and
    quotes the offending element.
    """
    out: list[str] = []

    def check_names(kind: str, names: tuple[str, ...], ok=grids.is_token) -> None:
        seen = set()
        for name in names:
            if not ok(name):
                out.append(f'Bad{kind} "{name}"')
            if name in seen:
                out.append(f'Duplicate{kind} "{name}"')
            seen.add(name)

    check_names("Letter", f.alphabet, lambda a: grids.is_token(a) and a != grids.BORDER)
    check_names("State", f.states)
    check_names("Class", f.classes)

    states, classes = set(f.states), set(f.classes)
    letters = set(f.alphabet)
    for role, names, declared, tag in (
        ("initial_states", f.initial_states, states, "UndeclaredState"),
        ("final_states", f.final_states, states, "UndeclaredState"),
        ("initial_classes", f.initial_classes, classes, "UndeclaredClass"),
        ("final_classes", f.final_classes, classes, "UndeclaredClass"),
    ):
        for name in names:
            if name not in declared:
                out.append(f'{tag} "{name}" in {role}')

    seen_trans = set()
    for t in f.transitions:
        if t.north not in states:
            out.append(f'UndeclaredState "{t.north}" in {t}')
        if t.south not in states:
            out.append(f'UndeclaredState "{t.south}" in {t}')
        if t.west not in classes:
            out.append(f'UndeclaredClass "{t.west}" in {t}')
        if t.east not in classes:
            out.append(f'UndeclaredClass "{t.east}" in {t}')
        if t.letter not in letters:
            out.append(f'UndeclaredLetter "{t.letter}" in {t}')
        if t in seen_trans:
            out.append(f"DuplicateTransition {t}")
        seen_trans.add(t)
    return out


def live_transitions(f: FIS) -> tuple[Transition, ...]:
    """The transitions that can fire, in declaration order.

    A transition naming an undeclared letter, state or class can never
    fire and is left out; duplicate declarations collapse to the first.
    """
    letters, states, classes = set(f.alphabet), set(f.states), set(f.classes)
    return tuple(dict.fromkeys(
        t for t in f.transitions
        if t.letter in letters and t.north in states and t.south in states
        and t.west in classes and t.east in classes))


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
    ``trans:`` line gives one transition as five tokens; every other
    key lists names.
    """
    doc = grids.read_keys(text, {**dict.fromkeys(_FIS_KEYS), "trans": 5})
    return FIS(transitions=doc.pop("trans"), **doc)


def format_fis(f: FIS) -> str:
    """Render a system in the text format accepted by :func:`parse_fis`;
    a name or letter that is not a token is a ``FormatError``.  Only a
    transition naming an undeclared name adds tokens to check."""
    fields = [getattr(f, key) for key in _FIS_KEYS]
    declared = set(chain(*fields))
    grids.check_tokens(declared if declared.issuperset(chain.from_iterable(f.transitions))
                       else chain(declared, *f.transitions))
    lines = [(key + ": " + " ".join(names)).rstrip() for key, names in zip(_FIS_KEYS, fields)]
    lines += ["trans: " + " ".join(t) for t in f.transitions]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# the frontier engine

_START = 0  # before the first cell: no field drawn, no class, not used


class Engine:
    """A system numbered for frontier propagation, and every search on it.

    Letters have ids by ``letter_id``, states are ``0..states-1`` and
    classes ``0..classes-1``.  ``entries`` lists the transitions leaving
    each (north, west) id pair in canonical order as ``(letter, east,
    south, index)``, and ``names[index]`` records the transition, as a
    ``Transition`` when :meth:`of` fills every entry of a FIS at once.
    A subclass may derive a missing entry on first request in
    :meth:`entry` and keep records of its own; :meth:`run` reads none.

    A frontier is one int:

    * bit 0 -- whether the tracked transition fired on this path; it is
      never set when no transition is tracked;
    * the next bits -- the class entering the next cell, + 1, or 0 at
      column 0 where any initial class may enter;
    * above them one ``field_bits``-wide field per column, the row
      profile: left of the cursor the south state the current row
      emitted there, from the cursor on the pending north state (the
      previous row's south), each + 1; a first-row north not drawn yet
      is 0, and the cell draws it from the initial states.

    A step rewrites the cursor's field and the east class.  At the last
    column of a row, successors whose east class is not final are
    dropped (the full east border must be final) and the east class is
    cleared, so the row's souths become the next row's norths in place.
    In the last row of a fixed-letter grid, successors whose south state
    is not final are dropped the same way (the full south border must
    be final); the frontier-set passes leave this out, as their layers
    serve every height.  After the last cell a frontier accepts when
    every field holds a final state.

    A fixed-letter grid is searched one frontier at a time, depth first
    (:meth:`run`); the bounded searches propagate sets of
    frontiers (:meth:`run_exist`, :meth:`iter_size`).  One engine
    serves every search on its system (``FIS._engine``,
    ``TileSystem._engine``): the move table of each kind of frontier,
    the step tables derived from it (:meth:`_step`) and the entries
    derived on request grow across searches; nothing else changes
    after compilation, and no table refers back to the engine.
    Forward layers belong to the search that builds them, so a search
    stopped early leaves none behind.  The class is plain, not a
    ``dict``: the searches read its attributes on every step.
    """

    def __init__(self, letter_id: dict[str, int], states: int, classes: int,
                 initial: tuple[Sequence[int], Sequence[int]],
                 final: tuple[Sequence[int], Sequence[int]]):
        self.letter_id, self.letters = letter_id, list(letter_id)
        self.grid = grids.grid_over(self.letters)
        self.init_states, self.init_classes = initial
        self.fin_fields = frozenset(s + 1 for s in final[0])
        self.fin_classes = frozenset(final[1])
        self.entries: dict[tuple[int, int], Sequence[tuple[int, int, int, int]]] = {}
        self.names: list = []

        self.field_bits = max(1, states.bit_length())
        east_bits = max(1, classes.bit_length())
        self.east_mask = ((1 << east_bits) - 1) << 1
        self.shift0 = 1 + east_bits
        self.moves: dict[tuple[bool, bool, int, int], dict] = {}
        self.steps: dict[tuple[int, bool, bool, int | None], dict[int, tuple]] = {}

    @classmethod
    def of(cls, f: FIS) -> Engine:
        """``f`` compiled: the transitions that can fire, in declaration order."""
        lid, sid, cid = ({name: i for i, name in enumerate(dict.fromkeys(names))}
                         for names in (f.alphabet, f.states, f.classes))
        ids = lambda table, names: tuple(dict.fromkeys(table[x] for x in names if x in table))
        out = cls(lid, len(sid), len(cid),
                  (ids(sid, f.initial_states), ids(cid, f.initial_classes)),
                  (ids(sid, f.final_states), ids(cid, f.final_classes)))
        for t in live_transitions(f):
            out.entries.setdefault((sid[t.north], cid[t.west]), []).append(
                (lid[t.letter], cid[t.east], sid[t.south], len(out.names)))
            out.names.append(t)
        return out

    def entry(self, n: int, w: int) -> Sequence[tuple[int, int, int, int]]:
        """The transitions leaving ``(n, w)``; here a missing entry has none."""
        return self.entries.get((n, w), ())

    def track(self, t: Transition | None, declared: Sequence[Transition]) -> int | None:
        """The index of a transition of ``declared`` to track, ``None``
        for none, -1 for one that can never fire, as no move carries
        it.  Only engines filled by :meth:`of`, whose ``names`` are the
        transitions of ``declared`` that can fire, are tracked."""
        if t is None:
            return None
        t = Transition(*t)
        try:
            return self.names.index(t)
        except ValueError:
            if t in declared:
                return -1
            raise UnknownTransition(f"transition {t} is not declared") from None

    def _moves(self, key: tuple[bool, bool, int, int]) -> dict[int | None, list[tuple]]:
        """The moves of one kind of frontier by letter, in canonical order.

        ``key`` is ``(last, bottom, field, east)``: whether the cursor is
        in the last column, whether it is in the last row, its field and
        the east class as stored.  Each move is ``(field, east,
        transition index)``: the new field value and the new east bits
        in place.  A last-column move needs a final east class and a
        last-row move a final south state.  Letter ``None`` lists the
        moves of every letter.
        """
        last, bottom, field, east = key
        out: dict[int | None, list] = {None: []}
        for n in self.init_states if field == 0 else (field - 1,):
            for w in self.init_classes if east == 0 else (east - 1,):
                for letter, e, s, ti in self.entry(n, w):
                    if (last and e not in self.fin_classes
                            or bottom and s + 1 not in self.fin_fields):
                        continue
                    move = (s + 1, 0 if last else (e + 1) << 1, ti)
                    out[None].append(move)
                    out.setdefault(letter, []).append(move)
        self.moves[key] = out
        return out

    def _column(self, j: int, q: int) -> tuple[bool, int, int]:
        """Column ``j`` of ``q`` as a step reads it: whether it is the
        last, the cursor's shift, and the mask that clears the cursor's
        field and the east bits.  A move ``(field, east, ...)`` from
        ``f`` leads to ``f & clear | field << shift | east``, with bit 0
        set when it fires the tracked transition."""
        shift = self.shift0 + j * self.field_bits
        return j == q - 1, shift, ~(((1 << self.field_bits) - 1) << shift | self.east_mask)

    def _succ(self, fset, j: int, q: int, letter: int | None, track: int | None):
        """Successors of the frontiers in ``fset`` at column ``j`` on
        ``letter`` (``None``: every letter), without the last-row rule,
        as forward layers serve every height.  The move lookup is
        inlined: a call per frontier made sparse systems' set-wide
        passes up to a fifth slower."""
        shift = self.shift0 + j * self.field_bits
        fmask = (1 << self.field_bits) - 1
        emask = self.east_mask
        clear = ~(fmask << shift | emask)
        last = j == q - 1
        cache = self.moves
        for f in fset:
            key = (last, False, f >> shift & fmask, (f & emask) >> 1)
            moves = cache.get(key) or self._moves(key)
            rest = f & clear
            for field, east, ti in moves.get(letter, ()):
                yield rest | field << shift | east | (ti == track)

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
            layers.append(set(self._succ(layers[p], p % q, q, None, track)))
        return layers

    def _useful(self, layers, m: int, q: int, track: int | None) -> list[set[int]]:
        """Frontiers from which some letter choice still reaches acceptance."""
        n = m * q
        useful: list[set[int]] = [set() for _ in range(n)]
        useful.append({f for f in layers[n] if self._accepts(f, q, track)})
        fmask, emask, cache = (1 << self.field_bits) - 1, self.east_mask, self.moves
        for p in range(n - 1, -1, -1):
            up, keep = useful[p + 1], useful[p]
            last, shift, clear = self._column(p % q, q)
            for f in layers[p]:
                key = (last, False, f >> shift & fmask, (f & emask) >> 1)
                rest = f & clear
                for field, east, ti in (cache.get(key) or self._moves(key))[None]:
                    if (rest | field << shift | east | (ti == track)) in up:
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
        names, make, letters = self.letters, self.grid, range(len(self.letters))
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
                    up = useful[p + 1]
                    nxt = frozenset([
                        nf for nf in self._succ(sets[p], p % q, q, li, track) if nf in up])
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
        width's forward layers are dropped after its last size; none
        fires a transition that can never fire."""
        if track == -1:
            return
        forward: dict[int, list[set[int]]] = {}
        order = grids.sizes(max_rows, max_cols)
        last = {q: k for k, (_m, q) in enumerate(order)}
        for k, (m, q) in enumerate(order):
            yield from self.iter_size(m, q, track, forward.setdefault(q, [{_START}]))
            if last[q] == k:
                del forward[q]

    def _step(self, table: dict, key: int, j: int, q: int, bottom: bool,
              track: int | None) -> tuple[tuple[int, ...], ...]:
        """Derive the entry at ``key``, the bits of the cursor's field and
        the east class, of ``table``, the step table of column ``j`` of
        ``q`` in the last row or not (``bottom``) for ``track``: per
        letter id a flat tuple of ``delta, transition index`` per move,
        ``delta`` the new field and east bits and bit 0 if the move fires
        ``track``, so a move from ``f`` leads to ``f ^ key | delta``."""
        shift = self.shift0 + j * self.field_bits
        kind = (j == q - 1, bottom, key >> shift, (key & self.east_mask) >> 1)
        out = [()] * len(self.letters)
        for a, moves in (self.moves.get(kind) or self._moves(kind)).items():
            if a is not None:
                out[a] = tuple([x for field, east, ti in moves
                                for x in (field << shift | east | (ti == track), ti)])
        out = table[key] = tuple(out)
        return out

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
        once; a run that goes straight down records nothing.  The stack
        is explicit, one entry per cell, so depth is not limited by the
        interpreter's recursion limit.  None fires a transition that
        can never fire, so nothing is searched for one.
        """
        ids, m, q = self.letter_id, g.rows, g.cols
        try:
            letters = [ids[a] for row in g.cells for a in row]
        except KeyError as e:
            raise UnknownLetter(f"letter {e.args[0]!r} is not in the alphabet") from None
        if track == -1:
            return None
        n, tables = m * q, self.steps
        row = lambda bottom: [(tables.setdefault((j, j == q - 1, bottom, track), {}),
                               ~self._column(j, q)[2]) for j in range(q)]
        cells = row(False) * (m - 1) + row(True)  # each cell's step table and mask
        dead: dict[int, set[int]] = {}
        stack: list[tuple] = []  # cells passed: moves, rest, next move
        nf, moves = _START, None
        while True:
            p = len(stack)
            if moves is None:  # expand nf at cell p
                table, mask = cells[p]
                key = nf & mask
                moves = (table.get(key) or self._step(table, key, p % q, q, p >= n - q, track))[letters[p]]
                rest, i = nf ^ key, 0
            if i < len(moves):
                nf = rest | moves[i]
                i += 2
                if dead and nf in dead.get(p, ()):
                    continue
                if p + 1 < n:
                    stack.append((moves, rest, i))
                    moves = None
                # last-row moves emit final states and last-column ones
                # final classes, so only the tracked bit is left to test
                elif track is None or nf & 1:
                    stack.append((moves, rest, i))
                    break
            elif stack:
                moves, rest, i = stack.pop()
                dead.setdefault(len(stack), set()).add(rest | moves[i - 2])
            else:
                return None
        return [moves[i - 1] for moves, _rest, i in stack]

    def scenario(self, g: Grid, track: int | None) -> Scenario | None:
        """The canonical scenario on ``g`` (:meth:`run`), or ``None``;
        ``names`` must hold transitions, as :meth:`of` records them."""
        run, q = self.run(g, track), g.cols
        return None if run is None else Scenario(g, tuple(
            tuple(map(self.names.__getitem__, run[r * q:(r + 1) * q])) for r in range(g.rows)))


def recognize(f: FIS, w: Grid) -> Scenario | None:
    """The canonical accepting scenario of ``f`` on ``w``, or ``None``.

    Ties between scenarios are broken by declaration order of initial
    states, initial classes and transitions, so the result is stable:
    the canonical scenario is the lexicographically least sequence of
    moves, one per cell in row-major order, where a cell's moves are
    ordered by north state (first row), west class (first column) and
    transition.
    """
    return f._engine.scenario(w, None)


def recognize_with_transition(f: FIS, w: Grid, t: Transition) -> Scenario | None:
    """Like :func:`recognize` but only scenarios in which ``t`` fires."""
    eng = f._engine
    return eng.scenario(w, eng.track(t, f.transitions))


def first_accepted(f: FIS, max_rows: int, max_cols: int,
                   using: Transition | None = None) -> tuple[Grid, Scenario] | None:
    """The canonically first accepted grid within the bounds and the
    scenario :func:`recognize` gives on it, or ``None``.  With ``using``
    set, only scenarios firing it count, as in :func:`recognize_with_transition`.

    The search walks letters through frontier sets, which hold no
    back-pointers; the scenario on the grid it finds comes from the
    depth-first search of :func:`recognize`.
    """
    eng = f._engine
    track = eng.track(using, f.transitions)
    for g in eng.accepted(max_rows, max_cols, track):
        return g, eng.scenario(g, track)
    return None


def iter_accepted(f: FIS, max_rows: int, max_cols: int) -> Iterator[Grid]:
    """Accepted grids within the bounds, in canonical order.

    Canonical order is area, then row count, then row-major letter
    order by alphabet declaration.
    """
    yield from f._engine.accepted(max_rows, max_cols)


def enumerate_language(f: FIS, max_rows: int, max_cols: int) -> list[Grid]:
    """All accepted grids within the bounds, in canonical order."""
    return list(iter_accepted(f, max_rows, max_cols))
