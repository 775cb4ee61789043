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

Recognition propagates sets of frontiers cell by cell in row-major
order; a frontier remembers the south states already emitted in the
current row, the pending north states for the rest of the row, and the
class crossing the current cell border.  Border nondeterminism is
resolved lazily: a first-row cell draws its north state from the
initial states and a first-column cell draws its west class from the
initial classes when the cell is parsed.

Each layer of frontiers maps a frontier to the first (canonical)
back-pointer that produced it, so a search that finds a grid also holds
its canonical scenario and returns it without recognizing the grid
again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .errors import FormatError, UnknownLetter, UnknownTransition
from .grids import Grid, check_letter
from . import grids


class Transition(NamedTuple):
    north: str
    west: str
    letter: str
    east: str
    south: str


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
        for name in ("alphabet", "states", "classes", "initial_states",
                     "initial_classes", "final_states", "final_classes"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        object.__setattr__(
            self, "transitions",
            tuple(t if isinstance(t, Transition) else Transition(*t)
                  for t in self.transitions))


def validate(f: FIS) -> list[str]:
    """Diagnostics for a system; empty exactly when all invariants hold.

    Each diagnostic starts with a tag naming the violated invariant and
    quotes the offending element.
    """
    out: list[str] = []

    def check_names(kind: str, names: tuple[str, ...]) -> None:
        seen = set()
        for name in names:
            if not name or any(c.isspace() for c in name):
                out.append(f'Bad{kind} "{name}"')
            if name in seen:
                out.append(f'Duplicate{kind} "{name}"')
            seen.add(name)

    for a in f.alphabet:
        try:
            check_letter(a)
        except Exception:
            out.append(f'BadLetter "{a}"')
    seen_letters = set()
    for a in f.alphabet:
        if a in seen_letters:
            out.append(f'DuplicateLetter "{a}"')
        seen_letters.add(a)
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


def unused_elements(f: FIS) -> dict[str, tuple[str, ...]]:
    """Declared letters, states and classes no transition mentions.

    Unused elements are permitted; this is informational only and never
    affects recognition.
    """
    used_states = {t.north for t in f.transitions} | {t.south for t in f.transitions}
    used_classes = {t.west for t in f.transitions} | {t.east for t in f.transitions}
    used_letters = {t.letter for t in f.transitions}
    return {
        "letters": tuple(a for a in f.alphabet if a not in used_letters),
        "states": tuple(s for s in f.states if s not in used_states),
        "classes": tuple(c for c in f.classes if c not in used_classes),
    }


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
    """An accepted parse: one transition per cell plus the four borders.

    ``b_n`` and ``b_s`` hold one state per column, ``b_w`` and ``b_e``
    one class per row.
    """

    grid: Grid
    cell_runs: tuple[tuple[Transition, ...], ...]
    b_n: tuple[str, ...]
    b_w: tuple[str, ...]
    b_s: tuple[str, ...]
    b_e: tuple[str, ...]


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
    if len(sc.b_n) != q or len(sc.b_s) != q or len(sc.b_w) != m or len(sc.b_e) != m:
        return ["border lengths do not match the grid"]

    declared = set(f.transitions)
    for i in range(m):
        for j in range(q):
            t = sc.cell_runs[i][j]
            if t not in declared:
                out.append(f"cell ({i},{j}) uses undeclared transition {t}")
            if t.letter != g.cells[i][j]:
                out.append(f"cell ({i},{j}) letter {t.letter!r} != grid {g.cells[i][j]!r}")
            north = sc.b_n[j] if i == 0 else sc.cell_runs[i - 1][j].south
            if t.north != north:
                out.append(f"cell ({i},{j}) north {t.north!r} != incoming {north!r}")
            west = sc.b_w[i] if j == 0 else sc.cell_runs[i][j - 1].east
            if t.west != west:
                out.append(f"cell ({i},{j}) west {t.west!r} != incoming {west!r}")
    for j in range(q):
        if sc.b_s[j] != sc.cell_runs[m - 1][j].south:
            out.append(f"b_s[{j}] does not match the last row")
    for i in range(m):
        if sc.b_e[i] != sc.cell_runs[i][q - 1].east:
            out.append(f"b_e[{i}] does not match the last column")

    for j, s in enumerate(sc.b_n):
        if s not in f.initial_states:
            out.append(f'b_n[{j}]="{s}" is not an initial state')
    for i, c in enumerate(sc.b_w):
        if c not in f.initial_classes:
            out.append(f'b_w[{i}]="{c}" is not an initial class')
    for j, s in enumerate(sc.b_s):
        if s not in f.final_states:
            out.append(f'b_s[{j}]="{s}" is not a final state')
    for i, c in enumerate(sc.b_e):
        if c not in f.final_classes:
            out.append(f'b_e[{i}]="{c}" is not a final class')
    return out


def render_scenario(sc: Scenario) -> str:
    """Draw a scenario as interleaved state rows and class/letter rows.

    State rows carry the north border, the states between grid rows and
    the south border, each above/below its letter column.  Class rows
    carry the west border class, then letter and class alternating.
    """
    m, q = sc.grid.rows, sc.grid.cols
    nslots = 2 * q + 1
    lines: list[list[str]] = []
    for i in range(m + 1):
        srow = [""] * nslots
        for j in range(q):
            srow[2 * j + 1] = sc.b_n[j] if i == 0 else sc.cell_runs[i - 1][j].south
        lines.append(srow)
        if i < m:
            crow = [""] * nslots
            crow[0] = sc.b_w[i]
            for j in range(q):
                crow[2 * j + 1] = sc.grid.cells[i][j]
                crow[2 * j + 2] = sc.cell_runs[i][j].east
            lines.append(crow)
    widths = [max(len(line[k]) for line in lines) for k in range(nslots)]
    text = []
    for line in lines:
        text.append(" ".join(tok.ljust(w) for tok, w in zip(line, widths)).rstrip())
    return "\n".join(text) + "\n"


_FIS_KEYS = ("alphabet", "states", "classes", "initial_states",
             "initial_classes", "final_states", "final_classes")


def parse_fis(text: str) -> FIS:
    """Read a system from its text format.

    Lines are ``key: tokens``; ``trans:`` lines give one transition as
    five tokens, every other key lists names.  Lines starting with
    ``#`` are comments.  Unknown keys are errors.
    """
    fields: dict[str, list[str]] = {k: [] for k in _FIS_KEYS}
    transitions: list[Transition] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, rest = line.partition(":")
        if not sep:
            raise FormatError(f"line {lineno}: expected 'key: ...'")
        key = key.strip()
        tokens = rest.split()
        if key == "trans":
            if len(tokens) != 5:
                raise FormatError(f"line {lineno}: trans needs 5 tokens")
            transitions.append(Transition(*tokens))
        elif key in fields:
            fields[key].extend(tokens)
        else:
            raise FormatError(f"line {lineno}: unknown key {key!r}")
    return FIS(
        alphabet=tuple(fields["alphabet"]),
        states=tuple(fields["states"]),
        classes=tuple(fields["classes"]),
        transitions=tuple(transitions),
        initial_states=tuple(fields["initial_states"]),
        initial_classes=tuple(fields["initial_classes"]),
        final_states=tuple(fields["final_states"]),
        final_classes=tuple(fields["final_classes"]),
    )


def format_fis(f: FIS) -> str:
    """Render a system in the text format accepted by :func:`parse_fis`."""
    for group in (f.alphabet, f.states, f.classes):
        for tok in group:
            if not tok or any(c.isspace() for c in tok):
                raise FormatError(f"token {tok!r} cannot be serialized")
    lines = []
    for key in _FIS_KEYS:
        lines.append((key + ": " + " ".join(getattr(f, key))).rstrip())
    for t in f.transitions:
        lines.append("trans: " + " ".join(t))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# the frontier engine

_START = (None, (), None, False)


class _Engine:
    """A system compiled to integer tables for frontier propagation.

    A frontier is ``(pending, souths, east, used)``:

    * ``pending`` -- remaining north states of the current row (the
      previous row's south states), or ``None`` in the first row where
      every cell may draw any initial state;
    * ``souths`` -- south states emitted so far in the current row;
    * ``east`` -- class entering the next cell, ``None`` at column 0;
    * ``used`` -- whether the tracked transition fired on this path.

    At the last column of a row, frontiers whose east class is not
    final are dropped (the full east border must be final) and the
    frontier rolls over to ``(souths, (), None, used)``.  After the
    last cell a frontier accepts when every pending state is final.
    """

    def __init__(self, f: FIS):
        self.letter_names, self.state_names, self.class_names = (
            list(dict.fromkeys(names)) for names in (f.alphabet, f.states, f.classes))
        self.letter_id, self.state_id, self.class_id = (
            {name: i for i, name in enumerate(names)}
            for names in (self.letter_names, self.state_names, self.class_names))

        self.t_names = live_transitions(f)
        self.t_index = {t: i for i, t in enumerate(self.t_names)}
        self.t_east = [self.class_id[t.east] for t in self.t_names]
        self.t_south = [self.state_id[t.south] for t in self.t_names]
        self.by_nw: dict[tuple[int, int], list[int]] = {}
        self.by_nwl: dict[tuple[int, int, int], list[int]] = {}
        for ti, t in enumerate(self.t_names):
            n, w = self.state_id[t.north], self.class_id[t.west]
            self.by_nw.setdefault((n, w), []).append(ti)
            self.by_nwl.setdefault((n, w, self.letter_id[t.letter]), []).append(ti)

        sid, cid = self.state_id, self.class_id
        self.init_states = tuple(dict.fromkeys(sid[s] for s in f.initial_states if s in sid))
        self.init_classes = tuple(dict.fromkeys(cid[c] for c in f.initial_classes if c in cid))
        self.fin_states = frozenset(sid[s] for s in f.final_states if s in sid)
        self.fin_classes = frozenset(cid[c] for c in f.final_classes if c in cid)

    def track(self, t: Transition | None) -> int | None:
        """The index of a transition to track, ``None`` for none."""
        if t is None:
            return None
        t = Transition(*t)
        if t not in self.t_index:
            raise UnknownTransition(f"transition {t} is not declared")
        return self.t_index[t]

    def _succ(self, f, j: int, q: int, letter, track):
        """Successor frontiers of ``f`` at column ``j``, canonical order."""
        pending, souths, east, used = f
        norths = self.init_states if pending is None else (pending[0],)
        wests = self.init_classes if east is None else (east,)
        last = j == q - 1
        out = []
        for n in norths:
            for w in wests:
                if letter is None:
                    tis = self.by_nw.get((n, w), ())
                else:
                    tis = self.by_nwl.get((n, w, letter), ())
                for ti in tis:
                    e = self.t_east[ti]
                    if last and e not in self.fin_classes:
                        continue
                    u = used or ti == track
                    s2 = souths + (self.t_south[ti],)
                    if last:
                        nf = (s2, (), None, u)
                    else:
                        nf = (None if pending is None else pending[1:], s2, e, u)
                    out.append((nf, n, w, ti))
        return out

    def _accepts(self, f, track) -> bool:
        pending, souths, east, used = f
        return (east is None and souths == () and pending is not None
                and (track is None or used)
                and all(s in self.fin_states for s in pending))

    def _layer(self, fset, j: int, q: int, letter: int, track, keep=None) -> dict:
        """One cell of a fixed letter, recording back-pointers.

        Maps each successor of the frontiers in ``fset`` (that is in
        ``keep``, when given) to the first (canonical) ``(previous
        frontier, north, west, transition index)`` that produced it.
        """
        nxt: dict = {}
        for f in fset:
            for nf, n, w, ti in self._succ(f, j, q, letter, track):
                if nf not in nxt and (keep is None or nf in keep):
                    nxt[nf] = (f, n, w, ti)
        return nxt

    def run_exist(self, m: int, q: int, track=None):
        """Forward pass with the letter chosen existentially per cell.

        Layers hold no back-pointers: this pass keeps every layer of
        every letter choice, so they would multiply its memory.
        """
        layers: list[dict] = [{_START: None}]
        for p in range(m * q):
            nxt: dict = {}
            for f in layers[-1]:
                for nf, _n, _w, _ti in self._succ(f, p % q, q, None, track):
                    nxt[nf] = None  # a repeated key keeps its first position
            layers.append(nxt)
        return layers

    def _useful(self, layers, m: int, q: int, track):
        """Frontiers from which some letter choice still reaches acceptance."""
        n = m * q
        useful: list[set] = [set() for _ in range(n + 1)]
        useful[n] = {f for f in layers[n] if self._accepts(f, track)}
        for p in range(n - 1, -1, -1):
            j = p % q
            up = useful[p + 1]
            keep = useful[p]
            for f in layers[p]:
                for nf, _n, _w, _ti in self._succ(f, j, q, None, track):
                    if nf in up:
                        keep.add(f)
                        break
        return useful

    def iter_size(self, m: int, q: int, track=None) -> Iterator[tuple[Grid, list[dict]]]:
        """Accepted m x q grids in row-major lexicographic letter order,
        each with its back-pointer layers.

        Letters are chosen inside the propagation: the letter walk
        extends the frontier layer one letter at a time and only
        descends while some frontier can still reach acceptance, so
        each walked prefix is live and no grid is tested wholesale.
        A frontier that feeds a useful frontier is itself useful, so
        pruning keeps every canonical first back-pointer: the layers
        give the same scenario as :func:`recognize` on the grid.
        """
        n = m * q
        layers = self.run_exist(m, q, track)
        if not any(self._accepts(f, track) for f in layers[n]):
            return
        useful = self._useful(layers, m, q, track)
        if _START not in useful[0]:
            return
        names = self.letter_names

        def step(p: int, fset, letter: int) -> dict:
            return self._layer(fset, p % q, q, letter, track, useful[p + 1])

        for chosen, states in grids.walk({_START: None}, [range(len(names))] * n, step):
            yield (grids.grid([names[li] for li in chosen[r * q:(r + 1) * q]]
                              for r in range(m)), list(states))

    def scenario_from(self, g: Grid, layers, track) -> Scenario | None:
        """Rebuild the canonical scenario from a back-pointer pass."""
        m, q = g.rows, g.cols
        n = m * q
        f = next((acc for acc in layers[n] if self._accepts(acc, track)), None)
        if f is None:
            return None
        choices: list[tuple[int, int, int]] = []
        for p in range(n, 0, -1):
            f, nn, ww, ti = layers[p][f]
            choices.append((nn, ww, ti))
        choices.reverse()
        t_names = self.t_names
        cell_runs = tuple(
            tuple(t_names[choices[i * q + j][2]] for j in range(q))
            for i in range(m))
        b_n = tuple(self.state_names[choices[j][0]] for j in range(q))
        b_w = tuple(self.class_names[choices[i * q][1]] for i in range(m))
        b_s = tuple(cell_runs[m - 1][j].south for j in range(q))
        b_e = tuple(cell_runs[i][q - 1].east for i in range(m))
        return Scenario(grid=g, cell_runs=cell_runs, b_n=b_n, b_w=b_w, b_s=b_s, b_e=b_e)


def _recognize(f: FIS, w: Grid, using: Transition | None) -> Scenario | None:
    eng = _Engine(f)
    track = eng.track(using)
    ids, q = eng.letter_id, w.cols
    layers: list[dict] = [{_START: None}]
    for row in w.cells:
        for j, a in enumerate(row):
            if a not in ids:
                raise UnknownLetter(f"letter {a!r} is not in the alphabet")
            layers.append(eng._layer(layers[-1], j, q, ids[a], track))
    return eng.scenario_from(w, layers, track)


def recognize(f: FIS, w: Grid) -> Scenario | None:
    """The canonical accepting scenario of ``f`` on ``w``, or ``None``.

    Ties between scenarios are broken by declaration order of initial
    states, initial classes and transitions, so the result is stable.
    """
    return _recognize(f, w, None)


def recognize_with_transition(f: FIS, w: Grid, t: Transition) -> Scenario | None:
    """Like :func:`recognize` but only scenarios in which ``t`` fires."""
    return _recognize(f, w, t)


def first_accepted(f: FIS, max_rows: int, max_cols: int,
                   using: Transition | None = None) -> tuple[Grid, Scenario] | None:
    """The canonically first accepted grid within the bounds and the
    scenario :func:`recognize` gives on it, or ``None``.  With ``using``
    set, only scenarios firing it count, as in :func:`recognize_with_transition`."""
    eng = _Engine(f)
    track = eng.track(using)
    for m, q in grids.sizes(max_rows, max_cols):
        for g, layers in eng.iter_size(m, q, track):
            return g, eng.scenario_from(g, layers, track)
    return None


def iter_accepted(f: FIS, max_rows: int, max_cols: int) -> Iterator[Grid]:
    """Accepted grids within the bounds, in canonical order.

    Canonical order is area, then row count, then row-major letter
    order by alphabet declaration.
    """
    eng = _Engine(f)
    for m, q in grids.sizes(max_rows, max_cols):
        for g, _layers in eng.iter_size(m, q):
            yield g


def enumerate_language(f: FIS, max_rows: int, max_cols: int) -> list[Grid]:
    """All accepted grids within the bounds, in canonical order."""
    return list(iter_accepted(f, max_rows, max_cols))
